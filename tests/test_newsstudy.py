"""News-sharing case study: URL matching, feature projection onto a
trained vocabulary, high-threshold labeling and the shares table."""

import logging

import numpy as np
import pytest

from polilean import classify, newsstudy, resources
from polilean.newsstudy import ShareEvent, UrlPattern
from polilean.resources import smart_stopwords
from polilean.textprep import SparseDFM
from test_textprep import grams_of, oracle_counts, random_documents


def _default_patterns():
    return newsstudy.load_patterns(resources.url_patterns())


class TestUrlMatching:
    def test_bundled_patterns_cover_the_three_outlets(self):
        patterns = _default_patterns()
        cases = [
            ("https://www.theguardian.com/politics/2018/jun/12/vote", ("guardian", "political")),
            ("https://www.theguardian.com/sport/2018/may/01/final", ("guardian", "sport")),
            ("https://www.bbc.co.uk/news/uk-politics-44444444", ("bbc", "political")),
            ("https://www.bbc.co.uk/sport/football/123456", ("bbc", "sport")),
            ("https://www.telegraph.co.uk/politics/2018/03/02/story", ("telegraph", "political")),
            ("https://www.telegraph.co.uk/football/2018/07/11/semi", ("telegraph", "sport")),
            ("https://www.telegraph.co.uk/cycling/2018/07/29/tour", ("telegraph", "sport")),
            ("https://www.telegraph.co.uk/cricket/2018/09/07/test", ("telegraph", "sport")),
            ("https://www.telegraph.co.uk/rugby-union/2018/03/17/slam", ("telegraph", "sport")),
        ]
        for url, expected in cases:
            assert newsstudy.match_url(url, patterns) == expected, url

    def test_match_is_case_insensitive(self):
        patterns = _default_patterns()
        url = "HTTPS://WWW.BBC.CO.UK/SPORT/CRICKET/9"
        assert newsstudy.match_url(url, patterns) == ("bbc", "sport")

    def test_unmatched_url_returns_none(self):
        patterns = _default_patterns()
        assert newsstudy.match_url("https://example.com/a", patterns) is None
        # politics outside the dated path shape does not count
        assert newsstudy.match_url("https://www.theguardian.com/politics/live", patterns) is None

    def test_first_declared_pattern_wins(self):
        patterns = [
            UrlPattern("first", "political", "site.com/"),
            UrlPattern("second", "sport", "site.com/sport/"),
        ]
        assert newsstudy.match_url("https://site.com/sport/x", patterns) == (
            "first",
            "political",
        )

    def test_duplicate_patterns_rejected(self):
        rows = [
            {"source": "a", "type": "political", "substring": "x.com/"},
            {"source": "a", "type": "political", "substring": "x.com/"},
        ]
        with pytest.raises(ValueError, match="duplicate"):
            newsstudy.load_patterns(rows)


class TestShareEvents:
    def test_loading_skips_bad_lines_with_line_numbers(self, tmp_path, caplog):
        path = tmp_path / "shares.jsonl"
        path.write_text(
            '{"user_id": "u1", "url": "https://www.bbc.co.uk/sport/1"}\n'
            "\n"
            "not json at all\n"
            '{"url": "https://missing-user.example"}\n'
            '{"user_id": "u2", "url": "https://example.com/other"}\n'
        )
        with caplog.at_level(logging.WARNING, logger="polilean.newsstudy"):
            events = newsstudy.load_share_events(path, _default_patterns())
        assert [e.user_id for e in events] == ["u1", "u2"]
        assert events[0].matched == ("bbc", "sport")
        assert events[1].matched is None
        assert "line 3" in caplog.text and "line 4" in caplog.text

    def test_loading_ends_with_one_summary_line(self, tmp_path, caplog):
        path = tmp_path / "shares.jsonl"
        path.write_text(
            '{"user_id": "u1", "url": "https://www.bbc.co.uk/sport/1"}\n'
            "not json at all\n"
            '{"user_id": "u2"}\n'
            '{"user_id": "u3", "url": 5}\n'
            "\n"
        )
        with caplog.at_level(logging.INFO, logger="polilean.newsstudy"):
            events = newsstudy.load_share_events(path, _default_patterns())
        assert [e.user_id for e in events] == ["u1"]
        (summary,) = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert summary == (
            f"{path}: 4 records read, 1 kept, 3 skipped, "
            "1 invalid JSON, 1 invalid value, 1 missing field"
        )

    def test_non_string_user_ids_coerced(self, tmp_path):
        path = tmp_path / "shares.jsonl"
        path.write_text('{"user_id": 42, "url": "https://www.bbc.co.uk/sport/1"}\n')
        events = newsstudy.load_share_events(path, _default_patterns())
        assert events[0].user_id == "42"


class TestProjectFeatures:
    VOCAB = ("alpha", "beta", "gamma")

    def test_projection_rules(self, caplog):
        docs = {
            "u1": grams_of("alpha", "alpha", "gamma", *["unseen"] * 5),
            "u2": grams_of("alpha", "beta", "beta", "beta", "beta"),
            "u3": grams_of("unseen"),
        }
        # gamma occurs once in the whole batch and is still kept: no
        # frequency floor across users; unseen is absent from the
        # vocabulary
        with caplog.at_level(logging.WARNING, logger="polilean.newsstudy"):
            dfm = newsstudy.project_features(docs, self.VOCAB)
        assert dfm.col_ids == self.VOCAB
        assert dfm.row_ids == ("u1", "u2", "u3")
        dense = dfm.matrix.toarray()
        np.testing.assert_array_equal(
            dense,
            [[2.0, 0.0, 1.0], [1.0, 4.0, 0.0], [0.0, 0.0, 0.0]],
        )
        assert dfm.empty_rows() == ["u3"]
        assert "u3" in caplog.text  # flagged as featureless

    def test_identity_projection(self):
        docs = {
            "u1": grams_of("alpha", "beta", "beta", "beta"),
            "u2": grams_of("beta", "beta", "gamma"),
        }
        dfm = newsstudy.project_features(docs, self.VOCAB)
        np.testing.assert_array_equal(
            dfm.matrix.toarray(), [[1.0, 3.0, 0.0], [0.0, 2.0, 1.0]]
        )

    def test_matches_the_string_projection(self):
        # the vocabulary holds grams of every order, a gram no user has,
        # a stem never seen and a name that is no gram
        stopwords = smart_stopwords()
        texts = random_documents(np.random.default_rng(3))
        docs = {u: grams_of(*t, stopwords=stopwords) for u, t in texts.items()}
        oracle = {u: oracle_counts(t, stopwords) for u, t in texts.items()}
        names = sorted(set().union(*oracle.values()))
        vocab = names[::3] + ["goal_goal_goal_goal", "zzzq", "vote_zzzq", "card_goal_goal"]
        got = newsstudy.project_features(docs, vocab)
        want = SparseDFM.from_rows(tuple(oracle), oracle.values(), vocab)
        assert got.row_ids == want.row_ids and got.col_ids == want.col_ids
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, name), getattr(want.matrix, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestClassifySharers:
    def _model(self):
        x = np.array([[-2.0], [-1.8], [-2.2], [2.0], [1.8], [2.2]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        return classify.train_nb(x, y, [False])

    def test_high_threshold_and_forced_unknown(self):
        model = self._model()
        features = np.array([[-2.0], [2.0], [0.0]])  # midpoint is a coin flip
        preds = newsstudy.classify_sharers(
            features, ["a", "b", "c"], model, tau=0.7
        )
        assert [p.label for p in preds] == ["Left", "Right", "Unknown"]

        forced = newsstudy.classify_sharers(
            features, ["a", "b", "c"], model, tau=0.7, unknown_users=["b"]
        )
        assert [p.label for p in forced] == ["Left", "Unknown", "Unknown"]
        # forcing the label preserves the underlying probability
        assert forced[1].p_right == preds[1].p_right


def _mock_events(spec):
    """spec: list of (n_users, prefix, source, newstype)."""
    events = []
    for n_users, prefix, source, newstype in spec:
        for i in range(n_users):
            events.append(
                ShareEvent(f"{prefix}{i:05d}", f"https://{source}/x", (source, newstype))
            )
    return events


class TestCountsTable:
    def test_row_totals_are_exact_sums(self):
        events = _mock_events([
            (1223, "g", "guardian", "political"),
            (240, "b", "bbc", "political"),
            (161, "t", "telegraph", "political"),
        ])
        predictions = {e.user_id: "Left" for e in events}
        table = newsstudy.counts_table(events, predictions)
        row = table[("political", "Left")]
        assert row == {
            "guardian": 1223,
            "bbc": 240,
            "telegraph": 161,
            "Total": 1624,
        }

    def test_users_count_once_per_cell_by_default(self):
        events = [
            ShareEvent("u1", "https://g/a", ("guardian", "political")),
            ShareEvent("u1", "https://g/b", ("guardian", "political")),
            ShareEvent("u1", "https://g/c", ("guardian", "political")),
            ShareEvent("u1", "https://b/a", ("bbc", "political")),
        ]
        table = newsstudy.counts_table(events, {"u1": "Right"})
        row = table[("political", "Right")]
        # one user: once for guardian, once for bbc, total counts the
        # user once per source cell
        assert row["guardian"] == 1 and row["bbc"] == 1
        assert row["Total"] == 2

    def test_count_shares_counts_every_event(self):
        events = [
            ShareEvent("u1", "https://g/a", ("guardian", "sport")),
            ShareEvent("u1", "https://g/b", ("guardian", "sport")),
            ShareEvent("u2", "https://g/c", ("guardian", "sport")),
        ]
        table = newsstudy.counts_table(events, {"u1": "Left", "u2": "Left"},
                                       count_shares=True)
        assert table[("sport", "Left")]["guardian"] == 3

    def test_unmatched_events_excluded_and_reported(self, caplog):
        events = [
            ShareEvent("u1", "https://g/a", ("guardian", "political")),
            ShareEvent("u2", "https://elsewhere/x", None),
        ]
        with caplog.at_level(logging.INFO, logger="polilean.newsstudy"):
            table = newsstudy.counts_table(events, {"u1": "Left", "u2": "Left"})
        assert table[("political", "Left")]["Total"] == 1
        assert "matched no pattern" in caplog.text

    def test_users_without_predictions_become_unknown(self):
        events = [ShareEvent("ghost", "https://g/a", ("guardian", "political"))]
        table = newsstudy.counts_table(events, {})
        assert table[("political", "Unknown")]["guardian"] == 1

    def test_empty_events_give_empty_table(self):
        assert newsstudy.counts_table([], {}) == {}

    def test_csv_and_text_rendering(self, tmp_path):
        events = _mock_events([
            (3, "g", "guardian", "political"),
            (2, "b", "bbc", "sport"),
        ])
        predictions = {e.user_id: "Left" for e in events}
        table = newsstudy.counts_table(events, predictions)

        path = tmp_path / "counts.csv"
        newsstudy.write_counts_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "newstype,label,guardian,bbc,telegraph,total"
        assert "political,Left,3,0,0,3" in lines
        assert "sport,Left,0,2,0,2" in lines

        text = newsstudy.format_counts(table)
        assert "political" in text and "sport" in text
