"""Deterministic synthetic corpus generator."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from polilean.corpus import (
    ground_truth_labels,
    load_friends,
    load_tweets,
    load_vaa_results,
)
import polilean
from polilean.porter import stem
from polilean.resources import smart_stopwords
from polilean.synthgen import (
    SynthSpec,
    class_mixtures,
    generate,
    make_beta,
    planted_dfm,
    synthetic_vocabulary,
)

SMALL = SynthSpec(
    n_users=40,
    k_topics=4,
    vocab_size=120,
    tweets_per_user=(20, 30),
    hubs_per_class=5,
    noise_accounts=4,
    seed=17,
)


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestVocabulary:
    def test_tokens_are_stable_under_stemming(self):
        vocab = synthetic_vocabulary(400)
        stopwords = smart_stopwords()
        assert len(vocab) == 400
        assert len(set(vocab)) == 400
        for w in vocab:
            assert len(w) >= 3
            assert stem(w) == w
            assert w not in stopwords

    def test_prefix_property(self):
        # growing the vocabulary only appends
        assert synthetic_vocabulary(50) == synthetic_vocabulary(80)[:50]


class TestPlantedParameters:
    def test_make_beta_anchor_structure(self):
        rng = np.random.default_rng(0)
        beta = make_beta(4, 30, 0.08, rng)
        assert beta.shape == (4, 30)
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-12)
        for k in range(4):
            assert beta[k, k] == pytest.approx(0.08)
            for other in range(4):
                if other != k:
                    assert beta[other, k] == 0.0
        assert (beta >= 0).all()

    def test_class_mixtures(self):
        left, right = class_mixtures(6, 0.3)
        np.testing.assert_allclose(left.sum(), 1.0)
        np.testing.assert_allclose(right.sum(), 1.0)
        # left leans on the first half of topics, right on the second
        assert (left[:3] > left[3:]).all()
        assert (right[3:] > right[:3]).all()
        np.testing.assert_allclose(left[:3], right[3:])

    def test_zero_shift_is_uniform(self):
        left, right = class_mixtures(5, 0.0)
        np.testing.assert_allclose(left, 0.2)
        np.testing.assert_allclose(right, 0.2)

    def test_planted_dfm_shapes_and_labels(self):
        dfm, beta, theta, labels = planted_dfm(
            n_docs=30, k=3, v=40, doc_length=50, seed=2
        )
        assert dfm.matrix.shape == (30, 40)
        assert beta.shape == (3, 40)
        assert theta.shape == (30, 3)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)
        assert labels == ["Right" if i % 2 else "Left" for i in range(30)]
        np.testing.assert_allclose(
            np.asarray(dfm.matrix.sum(axis=1)).ravel(), 50.0
        )


class TestSpecValidation:
    def test_rejects_bad_knobs(self):
        cases = [
            ({"class_topic_shift": 1.5}, "class_topic_shift"),
            ({"network_homophily": 0.4}, "network_homophily"),
            ({"class_ratio": 0.0}, "class_ratio"),
            ({"k_topics": 1}, "k_topics"),
            ({"k_topics": 10, "vocab_size": 5}, "k_topics"),
            ({"tweets_per_user": (30, 20)}, "inverted"),
        ]
        for overrides, message in cases:
            spec = SynthSpec(**{**{"n_users": 10}, **overrides})
            with pytest.raises(ValueError, match=message):
                spec.validate()

    def test_rejects_no_users(self):
        SynthSpec(n_users=1).validate()
        with pytest.raises(ValueError, match="n_users must be at least 1"):
            SynthSpec(n_users=0).validate()

    def test_rejects_a_negative_tweet_count(self):
        SynthSpec(n_users=3, tweets_per_user=(0, 2)).validate()
        with pytest.raises(ValueError, match="tweets_per_user must not be negative"):
            SynthSpec(n_users=3, tweets_per_user=(-3, 2)).validate()

    def test_rejects_a_political_fraction_outside_the_unit_interval(self):
        for fraction in (0.0, 1.0):
            SynthSpec(n_users=3, political_lexicon_fraction=fraction).validate()
        for fraction in (-0.01, 1.5):
            with pytest.raises(ValueError, match=r"political_lexicon_fraction must be in \[0, 1\]"):
                SynthSpec(n_users=3, political_lexicon_fraction=fraction).validate()


class TestGenerate:
    def test_identical_seeds_give_identical_bytes(self, tmp_path):
        a = generate(SMALL, tmp_path / "a")
        b = generate(SMALL, tmp_path / "b")
        for name in ("tweets.jsonl", "friends.jsonl", "vaa.csv", "truth.json"):
            assert _file_bytes(tmp_path / "a" / name) == _file_bytes(
                tmp_path / "b" / name
            ), name
        assert a.labels == b.labels

    def test_different_seed_changes_output(self, tmp_path):
        generate(SMALL, tmp_path / "a")
        other = SynthSpec(**{**SMALL.__dict__, "seed": 18})
        generate(other, tmp_path / "c")
        assert _file_bytes(tmp_path / "a" / "tweets.jsonl") != _file_bytes(
            tmp_path / "c" / "tweets.jsonl"
        )

    def test_class_counts_and_files(self, tmp_path):
        spec = SynthSpec(**{**SMALL.__dict__, "class_ratio": 0.25})
        result = generate(spec, tmp_path)
        assert sum(1 for v in result.labels.values() if v == "Right") == 10
        assert sum(1 for v in result.labels.values() if v == "Left") == 30
        for path in (
            result.tweets_path,
            result.friends_path,
            result.vaa_path,
            result.truth_path,
        ):
            assert os.path.exists(path)

    def test_political_tokens_disjoint_from_topic_vocab(self, tmp_path):
        result = generate(SMALL, tmp_path)
        assert not set(result.vocab) & set(result.political_tokens)
        assert len(result.political_tokens) >= 1

    def test_tweets_load_and_cover_every_user(self, tmp_path):
        result = generate(SMALL, tmp_path)
        tweets = load_tweets(result.tweets_path)
        users = {t.user_id for t in tweets}
        assert users == set(result.labels)
        per_user = {u: 0 for u in users}
        for t in tweets:
            per_user[t.user_id] += 1
        lo, hi = SMALL.tweets_per_user
        assert all(lo <= c <= hi for c in per_user.values())
        assert all(t.timestamp.tzinfo is not None for t in tweets[:5])

    def test_network_follows_hubs_with_homophily(self, tmp_path):
        spec = SynthSpec(**{**SMALL.__dict__, "network_homophily": 0.9})
        result = generate(spec, tmp_path)
        friends = load_friends(result.friends_path)
        truth = json.loads(_file_bytes(result.truth_path))
        hubs = truth["hubs"]
        own, cross = 0, 0
        for user, label in result.labels.items():
            own_hubs = set(hubs[label])
            other_hubs = set(hubs["Right" if label == "Left" else "Left"])
            for f in friends.get(user, ()):
                if f in own_hubs:
                    own += 1
                elif f in other_hubs:
                    cross += 1
        assert own > 3 * cross  # strong homophily shows in the counts

    def test_vaa_scores_agree_with_planted_labels(self, tmp_path):
        result = generate(SMALL, tmp_path)
        responses = load_vaa_results(result.vaa_path)
        records = ground_truth_labels(responses)
        assert {u: r.label for u, r in records.items()} == result.labels

    def test_truth_document_structure(self, tmp_path):
        result = generate(SMALL, tmp_path)
        truth = json.loads(_file_bytes(result.truth_path))
        assert truth["spec"]["seed"] == SMALL.seed
        assert truth["labels"] == result.labels
        assert truth["anchors"] == list(range(SMALL.k_topics))
        assert truth["anchor_words"] == result.vocab[: SMALL.k_topics]
        beta = np.array([[float(x) for x in row] for row in truth["beta"]])
        np.testing.assert_array_equal(beta, result.beta)
        assert set(truth["theta"]) == set(result.labels)

    def test_political_tokens_concentrate_in_election_windows(self, tmp_path):
        from polilean import resources
        from polilean.polex import political_index, term_stats

        spec = SynthSpec(**{**SMALL.__dict__, "n_users": 60, "seed": 3})
        result = generate(spec, tmp_path)
        tweets = load_tweets(result.tweets_path)
        counts_in, counts_out, t_in, t_out, _ = term_stats(
            tweets, resources.election_periods()
        )
        index = political_index(counts_in, counts_out, t_in, t_out)
        pol_stems = {stem(w) for w in result.political_tokens}
        pol_scores = [index[s] for s in pol_stems if s in index]
        base_scores = [index[w] for w in result.vocab[:30] if w in index]
        assert pol_scores and base_scores
        assert max(pol_scores) < 0.25
        assert np.median(base_scores) > 0.75


# ----------------------------------------------------------------------
# golden bytes: the random-stream contract of the synthgen docstring

GOLDEN_BASE = dict(n_users=30, k_topics=4, vocab_size=120, tweets_per_user=(20, 30),
                   hubs_per_class=5, noise_accounts=4, seed=23)
GOLDEN_SPECS = {
    "null": dict(GOLDEN_BASE, class_topic_shift=0.0, network_homophily=0.5),
    "signal": dict(GOLDEN_BASE, class_topic_shift=0.3, network_homophily=0.8),
}
# SHA-256 of each file under numpy 2.4.  Re-pin only for a change in
# numpy's random streams, and say so in CHANGES.md: any other change of
# these bytes changes every seed's corpus.
GOLDEN_DIGESTS = {
    "null": {
        "tweets.jsonl": "a2688fee94689ecbf5825e488dd850825813f2f9c385db4ce51b984baf926c82",
        "friends.jsonl": "162eb9b67c747bcdbb266a27f7e326015612d4f77c518328cedf2401421331ba",
        "vaa.csv": "7e0203d5470e2c56cff496d41883689f3985de66ca36f083e95915ed33add195",
        "truth.json": "477b7d44b51a4ade03bb71657127c5c5f379f29a6dae18fa79aeb9d68b60e708",
    },
    "signal": {
        "tweets.jsonl": "47b10243fb3a367020fff0c2ab64262bcb40a97af3137ca0b27832c1269c38df",
        "friends.jsonl": "f01043d279e7924265b2a006613bc80150030d96a7160b1db7e9889e192a1b5c",
        "vaa.csv": "7e0203d5470e2c56cff496d41883689f3985de66ca36f083e95915ed33add195",
        "truth.json": "bc4501a4ae24395203b3dc63a062a88ce94cc3a4ffe8ff37797007aaecf1bf54",
    },
}


def _digests(out_dir) -> dict[str, str]:
    return {
        name: hashlib.sha256(_file_bytes(os.path.join(out_dir, name))).hexdigest()
        for name in GOLDEN_DIGESTS["null"]
    }


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_files_match_the_pinned_digests(self, tmp_path, name):
        generate(SynthSpec(**GOLDEN_SPECS[name]), tmp_path)
        assert _digests(tmp_path) == GOLDEN_DIGESTS[name]

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(polilean.__file__)))
        code = ("import sys; from polilean.synthgen import SynthSpec, generate; "
                f"generate(SynthSpec(**{GOLDEN_SPECS['signal']!r}), sys.argv[1])")
        for hash_seed in ("0", "1"):
            out = tmp_path / hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", code, str(out)],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert _digests(out) == GOLDEN_DIGESTS["signal"], hash_seed
