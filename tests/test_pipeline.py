"""End-to-end orchestration on a small synthetic corpus."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from polilean import cli, pipeline
from polilean.resources import smart_stopwords
from polilean.synthgen import SynthSpec, generate
from polilean.textprep import ngram_strings, preprocess_tweet

TINY = SynthSpec(
    n_users=60,
    k_topics=3,
    vocab_size=150,
    class_topic_shift=0.8,
    network_homophily=0.9,
    tweets_per_user=(25, 35),
    hubs_per_class=6,
    noise_accounts=4,
    seed=5,
)

TINY_CFG = pipeline.PipelineConfig(
    k_topics=3,
    lexicon_min_tweets=40,
    min_tweets=10,
    datasets=("non-pol", "net", "non-pol+net"),
    families=("NB", "SVM_lin"),
    calibration_folds=3,
    n_samples=1,
    seed=0,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_corpus")
    return generate(TINY, out)


@pytest.fixture(scope="module")
def bundle(corpus):
    return pipeline.load_corpus(
        corpus.tweets_path, corpus.vaa_path, corpus.friends_path, TINY_CFG
    )


class TestFeatureCounts:
    def test_merges_ngrams_across_tweets(self):
        stopwords = frozenset({"the", "a"})
        counts = pipeline.user_feature_counts(
            ["the red card", "red card again"], stopwords, orders=(1, 2)
        )
        # stems: [red, card] and [red, card, again]
        assert counts["red"] == 2
        assert counts["card"] == 2
        assert counts["red_card"] == 2
        assert counts["card_again"] == 1

    def test_orders_limit_the_features(self):
        counts = pipeline.user_feature_counts(
            ["alpha beta gamma"], frozenset(), orders=(1,)
        )
        assert all("_" not in feat for feat in counts)


def _oracle_ngrams(stems, orders):
    """Per-tweet n-gram counting before it ran at C speed, kept as the oracle."""
    grams = Counter()
    for n in orders:
        for i in range(len(stems) - n + 1):
            grams["_".join(stems[i : i + n])] += 1
    return grams


def _parent_user_feature_counts(tweet_texts, stopwords, orders):
    """The per-tweet Counter merge before the C-speed counting."""
    counts = Counter()
    for text in tweet_texts:
        counts.update(_oracle_ngrams(preprocess_tweet(text, stopwords), orders))
    return counts


class TestFeatureCountsMatchOracle:
    """Same grams, same counts and the same insertion order as the
    parent's per-tweet merge, so every later step sees the same Counter."""

    WORDS = ("vote", "voting", "the", "a", "match", "goal", "goals", "red", "card",
             "again", "run", "runner", "running", "of", "and")

    def _tweets(self, rng, n):
        tweets = []
        for _ in range(n):
            words = list(rng.choice(self.WORDS, size=int(rng.integers(0, 12))))
            if rng.random() < 0.2:
                words.insert(0, "https://example.com/x?y=1")
            if rng.random() < 0.2:
                words.append("2-0!")
            tweets.append(" ".join(words))
        return tweets + ["", "the and of", "solo"]

    @pytest.mark.parametrize("orders", [(1, 2, 3), (1,), (2, 3), (3, 1)])
    def test_items_and_order_match(self, orders):
        rng = np.random.default_rng(len(orders) * 10 + orders[0])
        stopwords = smart_stopwords()
        for _ in range(20):
            tweets = self._tweets(rng, int(rng.integers(0, 15)))
            got = pipeline.user_feature_counts(tweets, stopwords, orders)
            want = _parent_user_feature_counts(tweets, stopwords, orders)
            assert list(got.items()) == list(want.items())
            for text in tweets[:5]:
                stems = preprocess_tweet(text, stopwords)
                assert list(Counter(ngram_strings(stems, orders)).items()) == list(
                    _oracle_ngrams(stems, orders).items())

    def test_empty_document(self):
        assert pipeline.user_feature_counts([], frozenset()) == Counter()
        assert pipeline.user_feature_counts(["", "the"], frozenset({"the"})) == Counter()


class _CountCalls:
    """Wraps user_feature_counts and names each call's (side, user) by
    the identity of the document's tweet tuple."""

    def __init__(self, monkeypatch):
        self.texts = []
        real = pipeline.user_feature_counts

        def counting(tweet_texts, *args, **kwargs):
            self.texts.append(tweet_texts)
            return real(tweet_texts, *args, **kwargs)

        monkeypatch.setattr(pipeline, "user_feature_counts", counting)

    def per_document(self, bundle) -> Counter:
        owner = {}
        for uid, doc in bundle.documents.items():
            for side in ("political_tweets", "nonpolitical_tweets"):
                texts = getattr(doc, side)
                assert texts, "empty documents share one tuple and cannot be told apart"
                owner[id(texts)] = (side, uid)
        calls = Counter(owner[id(t)] for t in self.texts)
        assert sum(calls.values()) == len(self.texts)
        return calls


class TestCountOncePerCorpus:
    def test_resampling_counts_each_document_once(self, corpus, monkeypatch):
        calls = _CountCalls(monkeypatch)
        cfg = dataclasses.replace(
            TINY_CFG, n_samples=3, datasets=("pol", "non-pol"), families=("NB",)
        )
        bundle = pipeline.load_corpus(
            corpus.tweets_path, corpus.vaa_path, corpus.friends_path, cfg
        )
        _, samples = pipeline.evaluate(bundle, cfg)
        per_doc = calls.per_document(bundle)
        sampled = set()
        for s in samples:
            sampled |= set(s.split[0]) | set(s.split[1])
        assert set(per_doc.values()) == {1}
        assert set(per_doc) == {
            (side, uid)
            for side in ("political_tweets", "nonpolitical_tweets")
            for uid in sampled
        }
        # three balanced samples reuse users, or the cache saves nothing
        n_rows = sum(len(s.split[0]) + len(s.split[1]) for s in samples)
        assert n_rows > len(sampled)

    def test_dfm_command_counts_each_user_once_per_side(self, corpus, monkeypatch, tmp_path):
        calls = _CountCalls(monkeypatch)
        bundles = []
        load = pipeline.load_corpus

        def loading(*args, **kwargs):
            bundles.append(load(*args, **kwargs))
            return bundles[-1]

        monkeypatch.setattr(pipeline, "load_corpus", loading)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "tweets": str(corpus.tweets_path), "vaa": str(corpus.vaa_path),
            "out": str(tmp_path / "dfm"), "k": 3, "min_tweets": 10,
            "min_lexicon_tweets": 40,
        }))
        assert cli.main(["dfm", "--config", str(config)]) == 0
        (bundle,) = bundles
        per_doc = calls.per_document(bundle)
        assert set(per_doc.values()) == {1}
        assert len(per_doc) == 2 * len(bundle.labels)


class TestLoadCorpus:
    def test_users_labels_and_lexicon(self, corpus, bundle):
        assert set(bundle.labels) <= set(bundle.users)
        assert len(bundle.users) == TINY.n_users  # nobody filtered here
        assert {bundle.labels[u] for u in bundle.labels} == {"Left", "Right"}
        assert bundle.labels == {
            u: lab for u, lab in corpus.labels.items() if u in bundle.labels
        }
        assert len(bundle.lexicon) >= 1
        assert set(bundle.documents) == set(bundle.users)

    def test_ingest_agrees_with_load_corpus(self, corpus, bundle):
        tweets, n_users_raw, users, records = pipeline.ingest(
            corpus.tweets_path, corpus.vaa_path, TINY_CFG
        )
        assert n_users_raw == len({t.user_id for t in tweets}) == TINY.n_users
        assert users.keys() == bundle.users.keys()
        labeled = {u: r for u, r in records.items() if u in users}
        assert {u: r.label for u, r in labeled.items()} == bundle.labels
        assert {u: r.normalized_score for u, r in labeled.items()} == bundle.scores

    def test_documents_partition_tweets(self, bundle):
        doc = next(iter(bundle.documents.values()))
        assert doc.tweet_count == len(doc.political_tweets) + len(
            doc.nonpolitical_tweets
        )

    def test_friends_restricted_to_kept_users(self, bundle):
        assert set(bundle.friends) <= set(bundle.users)


class TestTextDfm:
    def test_political_and_nonpolitical_are_different_matrices(self, bundle):
        users = sorted(bundle.labels)[:20]
        cfg = dataclasses.replace(TINY_CFG, sparsity_pol=0.99, sparsity_nonpol=0.99)
        pol = pipeline.build_text_dfm(bundle, users, "pol", cfg)
        nonpol = pipeline.build_text_dfm(bundle, users, "nonpol", cfg)
        assert pol.row_ids == tuple(users)
        assert nonpol.row_ids == tuple(users)
        # political documents are sparse short texts; the two views
        # cannot share their full vocabulary
        assert set(pol.col_ids) != set(nonpol.col_ids)


class TestNetworkFeatures:
    def test_columns_fit_on_train_only(self, bundle):
        users = sorted(bundle.friends)
        train, test = users[:30], users[30:40]
        net_train, net_test = pipeline.network_features(
            bundle.friends, train, test, sparsity=0.95
        )
        assert net_train.col_ids == net_test.col_ids
        assert net_train.row_ids == tuple(train)
        assert net_test.row_ids == tuple(test)
        # binary indicators only
        assert set(np.unique(net_train.matrix.toarray())) <= {0.0, 1.0}
        assert set(np.unique(net_test.matrix.toarray())) <= {0.0, 1.0}

    def test_test_rows_use_train_columns(self, bundle):
        users = sorted(bundle.friends)
        train, test = users[:30], users[30:40]
        net_train, net_test = pipeline.network_features(
            bundle.friends, train, test, sparsity=0.95
        )
        col_of = {a: j for j, a in enumerate(net_test.col_ids)}
        dense = net_test.matrix.toarray()
        for i, uid in enumerate(test):
            followed = set(bundle.friends.get(uid, ()))
            for account, j in col_of.items():
                assert dense[i, j] == (1.0 if account in followed else 0.0)


@pytest.fixture(scope="module")
def sample(bundle):
    return pipeline.evaluate_sample(bundle, TINY_CFG, sample_seed=0)


class TestEvaluateSample:
    def test_metrics_structure(self, sample):
        assert set(sample.metrics) == {"non-pol", "net", "non-pol+net"}
        for dataset, by_family in sample.metrics.items():
            assert set(by_family) == {"NB", "SVM_lin"}
            for family, vals in by_family.items():
                assert set(vals) == {"precision", "recall", "f1", "unknown"}
                for v in vals.values():
                    assert 0.0 <= v <= 1.0

    def test_split_is_balanced_and_disjoint(self, sample, bundle):
        train, test = sample.split
        assert not set(train) & set(test)
        labs = [bundle.labels[u] for u in train]
        assert abs(labs.count("Left") - labs.count("Right")) <= 1

    def test_hybrid_features_stack_topics_and_network(self, sample):
        x_tr, users_tr, x_te, users_te = sample.features["non-pol+net"]
        theta_tr = sample.features["non-pol"][0]
        net_cols = x_tr.shape[1] - TINY_CFG.k_topics
        assert net_cols >= 1
        assert x_te.shape[1] == x_tr.shape[1]
        # topic block rows still live on the simplex
        np.testing.assert_allclose(x_tr[:, : TINY_CFG.k_topics].sum(axis=1), 1.0,
                                   atol=1e-6)
        assert theta_tr.shape[1] == TINY_CFG.k_topics

    def test_feature_width_follows_the_dataset_table(self, bundle):
        cfg = dataclasses.replace(TINY_CFG, datasets=tuple(pipeline.DATASETS), families=("NB",))
        every = pipeline.evaluate_sample(bundle, cfg, sample_seed=0)
        assert set(every.features) == set(pipeline.DATASETS)
        assert set(every.topic_models) == {"pol", "nonpol"}
        for dataset, blocks in pipeline.DATASETS.items():
            x_tr, _, x_te, _ = every.features[dataset]
            width = (cfg.k_topics if blocks.text else 0) + (
                len(every.network_columns) if blocks.net else 0
            )
            assert x_tr.shape[1] == x_te.shape[1] == width, dataset

    def test_nb_is_gaussian_on_topics_and_bernoulli_on_follows(self, bundle):
        cfg = dataclasses.replace(
            TINY_CFG, datasets=("pol", "net", "non-pol+net"), families=("NB",)
        )
        every = pipeline.evaluate_sample(bundle, cfg, sample_seed=0)
        n_net = len(every.network_columns)
        assert n_net >= 1
        for dataset, expected in (
            ("pol", [False] * cfg.k_topics),
            ("net", [True] * n_net),
            ("non-pol+net", [False] * cfg.k_topics + [True] * n_net),
        ):
            mask = every.models[(dataset, "NB")].inner.binary_mask
            assert mask.tolist() == expected, dataset

    def test_strong_synthetic_signal_learned(self, sample):
        # delta=0.8 and homophily=0.9 make this corpus easy; every
        # trained cell should beat coin-flipping by a wide margin
        for dataset, by_family in sample.metrics.items():
            for family, vals in by_family.items():
                assert vals["f1"] >= 0.7, (dataset, family, vals)


class TestRunPipeline:
    def test_report_structure_and_determinism(self, corpus):
        bundle = pipeline.load_corpus(
            corpus.tweets_path, corpus.vaa_path, corpus.friends_path, TINY_CFG
        )
        report1, samples = pipeline.evaluate(bundle, TINY_CFG)
        report2 = pipeline.run_pipeline(
            corpus.tweets_path, corpus.vaa_path, corpus.friends_path, TINY_CFG
        )
        assert report1["mean"] == report2["mean"]
        assert report1["samples"] == report2["samples"]
        assert report1["lexicon_size"] >= 1
        assert report1["n_labeled_users"] == len(bundle.labels)
        assert set(report1["mean"]) == set(TINY_CFG.datasets)
        assert [s.metrics for s in samples] == [s["metrics"] for s in report1["samples"]]
        # the report is the eval artifact: every key is written out
        assert set(report1) == {"config", "samples", "mean", "lexicon_size", "n_labeled_users"}

    def test_mean_over_samples(self, corpus):
        cfg = pipeline.PipelineConfig(
            **{**TINY_CFG.__dict__, "n_samples": 2, "datasets": ("net",),
               "families": ("NB",)}
        )
        report = pipeline.run_pipeline(
            corpus.tweets_path, corpus.vaa_path, corpus.friends_path, cfg
        )
        assert len(report["samples"]) == 2
        f1s = [s["metrics"]["net"]["NB"]["f1"] for s in report["samples"]]
        assert report["mean"]["net"]["NB"]["f1"] == pytest.approx(np.mean(f1s))
        # sample seeds advance from the base seed
        seeds = [s["seed"] for s in report["samples"]]
        assert seeds == [cfg.seed, cfg.seed + 1]
