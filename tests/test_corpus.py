"""Ingestion, leaning scores, filtering and document assembly."""

import logging
import math

import pytest

from polilean.corpus import (
    DROPPED,
    LEFT,
    RIGHT,
    Tweet,
    UserRecord,
    VaaResult,
    assemble_documents,
    compute_leaning,
    english_fraction,
    filter_users,
    ground_truth_labels,
    group_tweets,
    load_friends,
    load_tweets,
    load_vaa_results,
    merge_multi_vaa,
    platform_maxima,
    raw_score,
)
from polilean.newsstudy import load_patterns, load_share_events
from polilean.polex import Lexicon
from polilean.resources import url_patterns

from conftest import make_tweet


def _vaa(user, source, con, lab):
    return VaaResult(user, source, {"Conservative": con, "Labour": lab})


class TestLoaders:
    def test_load_tweets_skips_bad_lines(self, tmp_path, caplog):
        path = tmp_path / "tweets.jsonl"
        path.write_text(
            '{"user_id": "u1", "timestamp": "2015-05-01T10:00:00Z", "text": "hello"}\n'
            "not json at all\n"
            '{"user_id": "u2", "timestamp": "2015-05-01T10:00:00Z"}\n'
            '{"user_id": "u3", "timestamp": "2015-05-01T10:00:00Z", "text": "   "}\n'
            "\n"
            '{"user_id": "u4", "timestamp": "2015-05-02", "text": "there", "lang": "en"}\n'
        )
        with caplog.at_level(logging.WARNING, logger="polilean.corpus"):
            tweets = load_tweets(path)
        assert [t.user_id for t in tweets] == ["u1", "u4"]
        assert tweets[0].timestamp.isoformat() == "2015-05-01T10:00:00+00:00"
        assert tweets[1].lang == "en"
        # three bad lines, each reported with its line number
        assert "line 2" in caplog.text
        assert "line 3" in caplog.text
        assert "line 4" in caplog.text

    def test_naive_timestamps_become_utc(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"user_id": "u", "timestamp": "2015-05-01T10:00:00", "text": "x"}\n')
        (tweet,) = load_tweets(path)
        assert tweet.timestamp.utcoffset().total_seconds() == 0

    def test_load_friends(self, tmp_path, caplog):
        path = tmp_path / "friends.jsonl"
        path.write_text(
            '{"user_id": "u1", "friends": ["a", "b"]}\n'
            "garbage\n"
            '{"user_id": "u2", "friends": []}\n'
        )
        with caplog.at_level(logging.WARNING, logger="polilean.corpus"):
            friends = load_friends(path)
        assert friends == {"u1": ["a", "b"], "u2": []}
        assert "line 2" in caplog.text

    def test_load_vaa_results_groups_long_rows(self, tmp_path):
        path = tmp_path / "vaa.csv"
        path.write_text(
            "user_id,vaa,party,match\n"
            "u1,P1,Conservative,62\n"
            "u1,P1,Labour,38\n"
            "u1,P2,Conservative,55\n"
            "u1,P2,Labour,45\n"
            "u2,P1,Labour,70\n"
            "u2,P1,Conservative,30\n"
        )
        results = load_vaa_results(path)
        keyed = {(r.user_id, r.vaa_source): r.party_matches for r in results}
        assert keyed[("u1", "P1")] == {"Conservative": 62.0, "Labour": 38.0}
        assert keyed[("u1", "P2")] == {"Conservative": 55.0, "Labour": 45.0}
        assert keyed[("u2", "P1")] == {"Conservative": 30.0, "Labour": 70.0}

    def test_load_vaa_results_skips_malformed_rows(self, tmp_path, caplog):
        path = tmp_path / "vaa.csv"
        path.write_text(
            "user_id,vaa,party,match\n"
            "u1,P1,Conservative,62\n"
            "u2,P1,Conservative,n/a\n"
            "u1,P1,Labour,38\n"
            "u3,P1\n"
        )
        with caplog.at_level(logging.WARNING, logger="polilean.corpus"):
            results = load_vaa_results(path)
        keyed = {(r.user_id, r.vaa_source): r.party_matches for r in results}
        assert keyed == {("u1", "P1"): {"Conservative": 62.0, "Labour": 38.0}}
        assert f"{path} line 3" in caplog.text
        assert f"{path} line 5" in caplog.text

    def test_load_vaa_results_skips_non_finite_matches(self, tmp_path, caplog):
        # a nan score would clamp to +1.0, and an inf one would make the
        # platform maximum infinite and normalize everyone else to 0
        path = tmp_path / "vaa.csv"
        path.write_text(
            "user_id,vaa,party,match\n"
            "u1,P1,Conservative,40\n"
            "u1,P1,Labour,43\n"
            "u2,P1,Conservative,45\n"
            "u2,P1,Labour,40\n"
            "u3,P1,Conservative,nan\n"
            "u3,P1,Labour,50\n"
            "u4,P1,Conservative,inf\n"
            "u4,P1,Labour,50\n"
        )
        with caplog.at_level(logging.WARNING, logger="polilean.corpus"):
            labels = ground_truth_labels(load_vaa_results(path))
        assert {u: r.label for u, r in labels.items()} == {"u1": LEFT, "u2": RIGHT}
        assert math.isclose(labels["u1"].normalized_score, -0.6)
        assert f"{path} line 6" in caplog.text
        assert f"{path} line 8" in caplog.text


class TestLoaderSummaries:
    """Each loader ends with one INFO line: records read, kept, and
    skipped per reason."""

    @staticmethod
    def _summary(caplog):
        (record,) = [r for r in caplog.records if r.levelno == logging.INFO]
        return record.getMessage()

    def test_load_tweets(self, tmp_path, caplog):
        path = tmp_path / "tweets.jsonl"
        path.write_text(
            '{"user_id": "u1", "timestamp": "2015-05-01T10:00:00Z", "text": "hello"}\n'
            "not json at all\n"
            '{"user_id": "u2", "timestamp": "2015-05-01T10:00:00Z"}\n'
            '{"user_id": "u3", "timestamp": "yesterday", "text": "hi"}\n'
            '{"user_id": "u4", "timestamp": "2015-05-01T10:00:00Z", "text": 7}\n'
            '{"user_id": "u5", "timestamp": "2015-05-01T10:00:00Z", "text": " "}\n'
            "\n"
        )
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            tweets = load_tweets(path)
        assert [t.user_id for t in tweets] == ["u1"]
        assert self._summary(caplog) == (
            f"{path}: 6 records read, 1 kept, 5 skipped, 1 empty text, "
            "1 invalid JSON, 2 invalid value, 1 missing field"
        )

    def test_non_string_timestamp_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "tweets.jsonl"
        path.write_text(
            '{"user_id": "u1", "timestamp": 12345, "text": "hello"}\n'
            '{"user_id": "u2", "timestamp": "2015-05-01T10:00:00Z", "text": "there"}\n'
            '{"user_id": "u3", "timestamp": null, "text": "again"}\n'
        )
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            tweets = load_tweets(path)
        assert [t.user_id for t in tweets] == ["u2"]
        assert "timestamp is int, not a string" in caplog.text
        assert "timestamp is NoneType, not a string" in caplog.text
        assert self._summary(caplog) == (
            f"{path}: 3 records read, 1 kept, 2 skipped, 2 invalid value"
        )

    def test_load_friends(self, tmp_path, caplog):
        path = tmp_path / "friends.jsonl"
        path.write_text(
            '{"user_id": "u1", "friends": ["a", "b"]}\n'
            "garbage\n"
            '{"user_id": "u2"}\n'
            '{"user_id": "u3", "friends": "abc"}\n'
            '{"user_id": "u4", "friends": []}\n'
        )
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            friends = load_friends(path)
        assert friends == {"u1": ["a", "b"], "u4": []}
        assert self._summary(caplog) == (
            f"{path}: 5 records read, 2 kept, 3 skipped, "
            "1 invalid JSON, 1 invalid value, 1 missing field"
        )

    def test_load_vaa_results(self, tmp_path, caplog):
        path = tmp_path / "vaa.csv"
        path.write_text(
            "user_id,vaa,party,match\n"
            "u1,P1,Conservative,62\n"
            "u1,P1,Labour,38\n"
            "u2,P1,Conservative,n/a\n"
            "u3,P1\n"
            "u4,P1,Conservative,nan\n"
        )
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            results = load_vaa_results(path)
        assert [r.user_id for r in results] == ["u1"]
        assert self._summary(caplog) == (
            f"{path}: 5 records read, 2 kept, 3 skipped, 2 invalid value, 1 non-finite match"
        )

    def test_duplicate_friends_line_keeps_the_first(self, tmp_path, caplog):
        path = tmp_path / "friends.jsonl"
        path.write_text(
            '{"user_id": "u1", "friends": ["a", "b"]}\n'
            '{"user_id": "u2", "friends": ["c"]}\n'
            '{"user_id": "u1", "friends": ["z"]}\n'
        )
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            friends = load_friends(path)
        assert friends == {"u1": ["a", "b"], "u2": ["c"]}
        assert f"{path} line 3" in caplog.text
        assert self._summary(caplog) == (
            f"{path}: 3 records read, 2 kept, 1 skipped, 1 duplicate"
        )

    def test_duplicate_vaa_row_keeps_the_first(self, tmp_path, caplog):
        # the third row would turn u1 Left (10 - 40) if it replaced the first
        path = tmp_path / "vaa.csv"
        path.write_text(
            "user_id,vaa,party,match\n"
            "u1,P1,Conservative,60\n"
            "u1,P1,Labour,40\n"
            "u1,P1,Conservative,10\n"
        )
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            results = load_vaa_results(path)
        assert [dict(r.party_matches) for r in results] == [
            {"Conservative": 60.0, "Labour": 40.0}
        ]
        assert f"{path} line 4" in caplog.text
        assert self._summary(caplog) == (
            f"{path}: 3 records read, 2 kept, 1 skipped, 1 duplicate"
        )
        assert ground_truth_labels(results)["u1"].label == RIGHT

    def test_clean_file(self, tmp_path, caplog):
        path = tmp_path / "friends.jsonl"
        path.write_text('{"user_id": "u1", "friends": ["a"]}\n')
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            load_friends(path)
        assert self._summary(caplog) == f"{path}: 1 records read, 1 kept, 0 skipped"
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def _load_shares(path):
    return load_share_events(path, load_patterns(url_patterns()))


class TestBytesThatAreNotUtf8:
    """Each loader logs, counts and skips a record holding a byte that is
    not UTF-8, and loads the records around it with their line numbers
    whether lines end in LF or CRLF."""

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("load, header, line", [
        (load_tweets, None, '{"user_id": "%s", "timestamp": "2015-05-01T10:00:00Z", "text": "hi"}'),
        (load_friends, None, '{"user_id": "%s", "friends": ["a"]}'),
        (_load_shares, None, '{"user_id": "%s", "url": "https://www.bbc.co.uk/sport/1"}'),
        (load_vaa_results, "user_id,vaa,party,match", "%s,P1,Conservative,60"),
    ], ids=["tweets", "friends", "shares", "vaa"])
    def test_record_is_skipped(self, tmp_path, caplog, load, header, line, newline):
        lines = [(line % uid).encode() for uid in ("u1", "u2", "u3")]
        lines[1] = lines[1].replace(b"u2", b"u\xff2")
        if header:
            lines.insert(0, header.encode())
        path = tmp_path / "input"
        path.write_bytes(b"".join(ln + newline for ln in lines))
        with caplog.at_level(logging.INFO, logger="polilean"):
            records = load(path)
        ids = list(records) if isinstance(records, dict) else [r.user_id for r in records]
        assert ids == ["u1", "u3"]
        assert f"{path} line {3 if header else 2}: skipped (" in caplog.text
        (summary,) = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert summary == f"{path}: 3 records read, 2 kept, 1 skipped, 1 invalid UTF-8"


class TestLeaningScores:
    def test_raw_score_direction(self):
        assert raw_score(_vaa("u", "P", 62, 38)) == 24
        assert raw_score(_vaa("u", "P", 38, 62)) == -24

    def test_missing_party_named_in_error(self):
        with pytest.raises(ValueError, match="Labour"):
            raw_score(VaaResult("u", "P", {"Conservative": 50.0}))
        with pytest.raises(ValueError, match="Conservative"):
            raw_score(VaaResult("u", "P", {"Labour": 50.0}))

    def test_platform_maxima_use_absolute_scores(self):
        results = [
            _vaa("u1", "P1", 40, 43),   # raw -3
            _vaa("u2", "P1", 45, 40),   # raw +5
            _vaa("u3", "P2", 90, 10),   # raw +80
        ]
        assert platform_maxima(results) == {"P1": 5.0, "P2": 80.0}

    def test_normalization_and_label(self):
        # raw -3 against a platform max of 5 -> -0.6, a Left label
        rec = compute_leaning(_vaa("u1", "P1", 40, 43), 5.0)
        assert math.isclose(rec.normalized_score, -0.6)
        assert rec.label == LEFT
        assert compute_leaning(_vaa("u", "P", 45, 40), 5.0).label == RIGHT
        assert compute_leaning(_vaa("u", "P", 50, 50), 5.0).label == DROPPED

    def test_scores_clamp_to_unit_interval(self):
        rec = compute_leaning(_vaa("u", "P", 90, 10), 5.0)
        assert rec.normalized_score == 1.0

    def test_nonpositive_platform_max_rejected(self):
        with pytest.raises(ValueError):
            compute_leaning(_vaa("u", "P", 60, 40), 0.0)


class TestMergeMultiVaa:
    def _rec(self, norm, label):
        return compute_leaning(_vaa("u", "P", 50 + norm * 5, 50 - norm * 5), 10.0)

    def test_mean_of_scores(self):
        records = [self._rec(0.4, RIGHT), self._rec(0.8, RIGHT)]
        merged = merge_multi_vaa(records)
        assert math.isclose(merged.normalized_score, 0.6)
        assert merged.label == RIGHT

    def test_conflicting_labels_reject_the_user(self):
        assert merge_multi_vaa([self._rec(0.4, RIGHT), self._rec(-0.4, LEFT)]) is None

    def test_dropped_does_not_conflict_but_dilutes_the_mean(self):
        merged = merge_multi_vaa([self._rec(0.4, RIGHT), self._rec(0.0, DROPPED)])
        assert merged is not None
        assert math.isclose(merged.normalized_score, 0.2)
        assert merged.label == RIGHT

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_multi_vaa([])


class TestGroundTruthLabels:
    def test_full_scoring_pipeline(self, caplog):
        results = [
            _vaa("left", "P1", 40, 43),    # -3 -> -0.6 on P1 (max 5)
            _vaa("right", "P1", 45, 40),   # +5 -> +1.0
            _vaa("zero", "P1", 50, 50),    # dropped
            _vaa("flip", "P1", 44, 40),    # +4 on P1
            _vaa("flip", "P2", 10, 90),    # -80 on P2 -> conflict
            _vaa("other", "P2", 50, 10),   # +40 / 80 = +0.5
        ]
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            labels = ground_truth_labels(results)
        assert set(labels) == {"left", "right", "other"}
        assert labels["left"].label == LEFT
        assert math.isclose(labels["left"].normalized_score, -0.6)
        assert math.isclose(labels["other"].normalized_score, 0.5)
        assert "zero" in caplog.text and "flip" in caplog.text

    def test_result_lacking_a_party_is_dropped(self, caplog):
        results = [
            _vaa("left", "P1", 40, 43),
            _vaa("right", "P1", 45, 40),
            VaaResult("partial", "P1", {"Conservative": 90.0}),  # no Labour match
        ]
        with caplog.at_level(logging.INFO, logger="polilean.corpus"):
            labels = ground_truth_labels(results)
        assert set(labels) == {"left", "right"}
        # the incomplete result does not enter the platform maximum (5)
        assert math.isclose(labels["right"].normalized_score, 1.0)
        assert "partial" in caplog.text and "Labour" in caplog.text


class TestFiltering:
    def _user(self, n_en, n_other, uid="u"):
        tweets = [make_tweet(uid, "2015-01-01", f"en {i}", lang="en") for i in range(n_en)]
        tweets += [make_tweet(uid, "2015-01-01", f"fr {i}", lang="fr") for i in range(n_other)]
        return UserRecord(uid, tweets)

    def test_explicit_lang_beats_detector(self):
        user = self._user(3, 1)
        assert english_fraction(user, detector=lambda text: "xx") == 0.75

    def test_detector_used_when_lang_missing(self):
        tweets = [make_tweet("u", "2015-01-01", "the cat is on the mat"),
                  make_tweet("u", "2015-01-01", "zzz zzz zzz")]
        frac = english_fraction(UserRecord("u", tweets))
        assert frac == 0.5

    def test_no_tweets_counts_as_zero(self):
        assert english_fraction(UserRecord("u", [])) == 0.0

    def test_volume_boundary_inclusive(self):
        users = [self._user(10, 0, "keep"), self._user(9, 0, "drop")]
        kept = filter_users(users, min_english=0.75, min_tweets=10)
        assert [u.user_id for u in kept] == ["keep"]

    def test_english_boundary_inclusive(self):
        exactly = self._user(3, 1, "exact")      # 0.75
        below = self._user(2, 2, "below")        # 0.50
        kept = filter_users([exactly, below], min_english=0.75, min_tweets=1)
        assert [u.user_id for u in kept] == ["exact"]


class TestAssembleDocuments:
    LEX = Lexicon(frozenset({"#ge2015"}))

    def test_partition_and_timestamp_order(self):
        tweets = [
            make_tweet("u", "2015-05-03", "late plain tweet"),
            make_tweet("u", "2015-05-01", "vote #GE2015 now"),
            make_tweet("u", "2015-05-02", "early plain tweet"),
        ]
        doc = assemble_documents(UserRecord("u", tweets), self.LEX)
        assert doc.tweet_count == 3
        assert doc.political_tweet_count == 1
        assert doc.political_tweets == ("vote #GE2015 now",)
        # non-political stream sorted by timestamp
        assert doc.nonpolitical_tweets == ("early plain tweet", "late plain tweet")
        assert len(doc.political_tweets) + len(doc.nonpolitical_tweets) == doc.tweet_count

    def test_empty_lexicon_marks_nothing_political(self):
        tweets = [make_tweet("u", "2015-05-01", "vote #GE2015 now")]
        doc = assemble_documents(UserRecord("u", tweets), Lexicon(frozenset()))
        assert doc.political_tweet_count == 0


class TestGroupTweets:
    def test_grouping_preserves_arrival_order(self):
        tweets = [
            make_tweet("a", "2015-01-02", "second"),
            make_tweet("b", "2015-01-01", "other"),
            make_tweet("a", "2015-01-01", "first"),
        ]
        users = group_tweets(tweets)
        assert set(users) == {"a", "b"}
        assert [t.text for t in users["a"].tweets] == ["second", "first"]
