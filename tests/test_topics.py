"""Anchor-word topic model: co-occurrence, anchors, beta recovery,
folding-in, word rankings and prevalence regression."""

import logging
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from polilean import pipeline, synthgen, topics
from polilean.newsstudy import project_features
from polilean.synthgen import class_mixtures, planted_dfm
from polilean.textprep import SparseDFM
from polilean.topics import (
    TopicModel,
    WordScores,
    _simplex_lsq,
    cooccurrence,
    find_anchors,
    fit_topic_model,
    fold_in,
    infer_theta,
    load_topic_model,
    prevalence_regression,
    recover_beta,
    row_normalize,
    save_topic_model,
    top_words,
    word_scores,
)


def _dfm_from_counts(counts, vocab=None):
    counts = np.asarray(counts, dtype=np.float64)
    vocab = vocab or tuple(f"w{j}" for j in range(counts.shape[1]))
    return SparseDFM(
        sp.csr_matrix(counts),
        tuple(f"d{i}" for i in range(counts.shape[0])),
        tuple(vocab),
        "text",
    )


def _pair_enumeration_q(count_rows):
    """Brute-force oracle: distribution of ordered token pairs within a
    document, averaged over documents with at least two tokens."""
    count_rows = np.asarray(count_rows, dtype=np.float64)
    v = count_rows.shape[1]
    q = np.zeros((v, v))
    used = 0
    for h in count_rows:
        n = h.sum()
        if n < 2:
            continue
        used += 1
        contrib = np.zeros((v, v))
        for i in range(v):
            for j in range(v):
                contrib[i, j] = h[i] * (h[j] - (1.0 if i == j else 0.0))
        q += contrib / (n * (n - 1.0))
    return q / used


class TestCooccurrence:
    def test_two_distinct_tokens(self):
        q = cooccurrence(_dfm_from_counts([[1, 1]]))
        np.testing.assert_allclose(q, [[0.0, 0.5], [0.5, 0.0]])

    def test_repeated_token(self):
        q = cooccurrence(_dfm_from_counts([[2]]))
        np.testing.assert_allclose(q, [[1.0]])

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 5, size=(12, 6)).astype(float)
        counts[0] = 0  # empty doc must be skipped
        counts[1] = [1, 0, 0, 0, 0, 0]  # single-token doc skipped too
        q = cooccurrence(_dfm_from_counts(counts))
        np.testing.assert_allclose(q, _pair_enumeration_q(counts), atol=1e-12)

    def test_is_a_symmetric_distribution(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 4, size=(20, 8)).astype(float)
        counts[:, 0] += 1  # ensure n >= 2 everywhere... almost
        q = cooccurrence(_dfm_from_counts(counts))
        assert math.isclose(q.sum(), 1.0, rel_tol=1e-12)
        np.testing.assert_allclose(q, q.T, atol=1e-15)
        assert (q >= -1e-15).all()

    def test_short_documents_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="polilean.topics"):
            cooccurrence(_dfm_from_counts([[2, 1], [1, 0]]))
        assert "fewer than 2 tokens" in caplog.text

    def test_all_documents_too_short_rejected(self):
        with pytest.raises(ValueError):
            cooccurrence(_dfm_from_counts([[1, 0], [0, 1]]))


class TestRowNormalizeAndAnchors:
    def test_row_normalize(self):
        q = np.array([[2.0, 2.0], [0.0, 0.0]])
        q_row, sums = row_normalize(q)
        np.testing.assert_allclose(q_row[0], [0.5, 0.5])
        np.testing.assert_allclose(q_row[1], [0.0, 0.0])  # zero row untouched
        np.testing.assert_allclose(sums, [4.0, 0.0])

    def test_first_anchor_is_max_norm(self):
        q_row = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert find_anchors(q_row, 1) == [0]

    def test_farthest_point_on_a_triangle(self):
        # rows: two extreme vertices and their midpoint; the midpoint is
        # inside the span of the others, so it is never an anchor
        q_row = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.5, 0.5, 0.0],
        ])
        assert set(find_anchors(q_row, 2)) == {0, 1}

    def test_candidates_restrict_the_choice(self):
        q_row = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]])
        anchors = find_anchors(q_row, 2, candidates=[1, 2])
        assert set(anchors) == {1, 2}

    def test_rank_deficiency_raises(self):
        q_row = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="rank deficiency"):
            find_anchors(q_row, 2)

    def test_k_larger_than_candidates_rejected(self):
        with pytest.raises(ValueError):
            find_anchors(np.eye(3), 4)


class TestRecoverBeta:
    def test_exact_convex_combination(self):
        a0 = np.array([0.80, 0.10, 0.05, 0.05])
        a1 = np.array([0.05, 0.10, 0.80, 0.05])
        q_row = np.vstack([a0, 0.3 * a0 + 0.7 * a1, a1, 0.6 * a0 + 0.4 * a1])
        word_prob = np.array([0.3, 0.2, 0.3, 0.2])

        beta, residuals = recover_beta(q_row, [0, 2], word_prob)

        # coefficients known in closed form -> beta by the Bayes flip
        coef = np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0], [0.6, 0.4]])
        expected = (coef * word_prob[:, None]).T
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(beta, expected, atol=1e-5)
        assert residuals.max() < 1e-5
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-8)

    def test_anchor_rows_are_one_hot_in_topic_space(self):
        a = np.eye(3)
        beta, _ = recover_beta(a, [0, 1, 2], np.array([0.2, 0.3, 0.5]))
        # each anchor word belongs wholly to its own topic
        np.testing.assert_allclose(np.diag(beta), [1.0, 1.0, 1.0], atol=1e-12)


def _per_word_simplex_lsq(x, a, tol=1e-7, max_iter=500):
    """The per-word exponentiated-gradient solver that the exact one
    replaced, kept as the reference no row's objective may exceed.
    Returns the coefficients and the final step size."""
    k = a.shape[0]
    c = np.full(k, 1.0 / k)
    ata = a @ a.T
    atx = a @ x
    eta = 50.0
    loss = c @ ata @ c - 2.0 * (c @ atx)
    for _ in range(max_iter):
        grad = 2.0 * (ata @ c - atx)
        grad -= grad.max()
        while True:
            trial = c * np.exp(-eta * grad)
            trial /= trial.sum()
            trial_loss = trial @ ata @ trial - 2.0 * (trial @ atx)
            if trial_loss <= loss + 1e-15 or eta < 1e-6:
                break
            eta *= 0.5
        delta = np.abs(trial - c).max()
        c, loss = trial, trial_loss
        if delta < tol:
            break
    return c, eta


def _simplex_instance(seed):
    """Anchor rows and word rows like row-normalized co-occurrences, plus
    an all-zero row, an exact mixture of the anchors and a row so large
    that backtracking drives the step size below 1e-6."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 11))
    d = int(rng.integers(k + 1, 201))
    a = rng.random((k, d)) ** 3
    a /= a.sum(axis=1, keepdims=True)
    words = rng.random((int(rng.integers(5, 40)), d)) ** 3
    words /= words.sum(axis=1, keepdims=True)
    large = rng.random(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for scale in np.geomspace(1e8, 1e10, 21):
            c, eta = _per_word_simplex_lsq(scale * large, a)
            if eta < 1e-6 and np.isfinite(c).all():
                break
        else:
            raise AssertionError("no scale drives the step size below 1e-6")
    special = [np.zeros(d), rng.dirichlet(np.ones(k)) @ a, scale * large]
    return np.vstack([words, *special]), a


def _eval_null_fit(tmp_path, monkeypatch):
    """The (word rows, anchor rows) of the non-pol topic fit on one
    balanced sample of a signal-free corpus shaped like the benchmark's
    eval_null workload."""
    corpus = synthgen.generate(synthgen.SynthSpec(
        n_users=120, vocab_size=100, tweets_per_user=(30, 40), class_topic_shift=0.0,
        network_homophily=0.5, seed=7,
    ), tmp_path)
    cfg = pipeline.PipelineConfig(k_topics=10, datasets=("non-pol",), families=("NB",),
                                  min_tweets=20)
    bundle = pipeline.load_corpus(corpus.tweets_path, corpus.vaa_path, None, cfg)
    calls = []

    def record(x, a):
        calls.append((x, a))
        return _simplex_lsq(x, a)

    monkeypatch.setattr(topics, "_simplex_lsq", record)
    pipeline.evaluate_sample(bundle, cfg, 0)
    [(x, a)] = calls
    return x, a


def _kkt_violation(x, a, coef):
    """Largest breach of the simplex QP's KKT conditions over the rows,
    relative to each row's gradient scale: the gradient is equal on the
    support and no lower off it."""
    gram, b = a @ a.T, x @ a.T
    grad = coef @ gram - b
    scale = np.abs(gram).max() + np.abs(b).max(axis=1)
    top = np.where(coef > 0, grad, -np.inf).max(axis=1)
    return float(((top - grad.min(axis=1)) / scale).max())


def _objective(x, a, coef):
    return ((x - coef @ a) ** 2).sum(axis=1)


class TestBatchedSimplexSolver:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_row_meets_the_kkt_conditions(self, seed):
        x, a = _simplex_instance(seed)
        coef = _simplex_lsq(x, a)
        assert (coef >= 0).all()
        np.testing.assert_allclose(coef.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert _kkt_violation(x, a, coef) < 1e-10

    def test_kkt_conditions_on_an_eval_null_fit(self, tmp_path, monkeypatch):
        x, a = _eval_null_fit(tmp_path, monkeypatch)
        coef = _simplex_lsq(x, a)
        assert (coef >= 0).all()
        np.testing.assert_allclose(coef.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert _kkt_violation(x, a, coef) < 1e-10
        with np.errstate(over="ignore", invalid="ignore"):
            reference = np.array([_per_word_simplex_lsq(row, a)[0] for row in x])
        assert (_objective(x, a, coef) <= _objective(x, a, reference)).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_no_objective_above_the_per_word_solvers(self, seed):
        x, a = _simplex_instance(seed)
        coef = _simplex_lsq(x, a)
        with np.errstate(over="ignore", invalid="ignore"):
            reference = np.array([_per_word_simplex_lsq(row, a)[0] for row in x])
        assert (_objective(x, a, coef) <= _objective(x, a, reference)).all()

    def test_an_exact_mixture_returns_its_mixture(self):
        rng = np.random.default_rng(4)
        a = rng.random((6, 40)) ** 3
        a /= a.sum(axis=1, keepdims=True)
        mixtures = rng.dirichlet(np.ones(6), size=5)
        mixtures[0] = [0.0, 0.5, 0.0, 0.25, 0.25, 0.0]  # on a face of the simplex
        coef = _simplex_lsq(mixtures @ a, a)
        np.testing.assert_allclose(coef, mixtures, rtol=0, atol=1e-12)

    def test_one_word_alone_equals_it_in_the_batch(self):
        x, a = _simplex_instance(11)
        batch = _simplex_lsq(x, a)
        for i in range(len(x)):
            np.testing.assert_allclose(_simplex_lsq(x[i : i + 1], a)[0], batch[i],
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scale", [1e11, 1e14])
    def test_a_huge_row_does_not_overflow(self, scale):
        # unnormalized input: the gradient spread times the step size
        # exceeds exp's range, which a shift by the row maximum overflowed
        rng = np.random.default_rng(0)
        q_row = rng.random((50, 50)) ** 3
        q_row /= q_row.sum(axis=1, keepdims=True)
        anchors = [0, 1, 2, 3, 4, 5]
        word_prob = np.full(50, 1 / 50)
        plain, _ = recover_beta(q_row, anchors, word_prob)
        q_row[10] *= scale
        with np.errstate(over="raise", invalid="raise"):
            beta, residuals = recover_beta(q_row, anchors, word_prob)
        assert np.isfinite(beta).all() and np.isfinite(residuals).all()
        others = np.arange(50) != 10
        # word 10's weight enters each topic's normalizer, nothing else
        np.testing.assert_allclose(
            beta[:, others] / beta[:, others].sum(axis=1, keepdims=True),
            plain[:, others] / plain[:, others].sum(axis=1, keepdims=True),
            rtol=0, atol=1e-14,
        )


class TestInferTheta:
    BETA = np.array([
        [0.7, 0.2, 0.1, 0.0],
        [0.0, 0.1, 0.2, 0.7],
    ])

    def _ll(self, h, theta):
        p = np.clip(theta @ self.BETA, 1e-300, None)
        return float((h * np.log(p)).sum())

    def test_rows_on_the_simplex(self):
        rng = np.random.default_rng(2)
        h = rng.integers(0, 6, size=(10, 4)).astype(float)
        theta = infer_theta(h, self.BETA)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-6)
        assert (theta >= 0).all()

    def test_em_loglikelihood_nondecreasing(self):
        h = np.array([[5.0, 1.0, 0.0, 3.0]])
        lls = []
        for iters in range(1, 12):
            theta = infer_theta(h, self.BETA, max_iter=iters)
            lls.append(self._ll(h, theta))
        diffs = np.diff(lls)
        assert (diffs >= -1e-9).all(), f"LL decreased: {lls}"

    def test_pure_document_recovers_its_topic(self):
        beta = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        theta = infer_theta(np.array([[0.0, 0.0, 20.0, 20.0]]), beta)
        assert theta.shape == (1, 2)
        np.testing.assert_allclose(theta, [[0.0, 1.0]], atol=1e-6)

    def test_empty_document_gets_uniform_with_warning(self, caplog):
        # project_features gives the one warning per fold-in; here it is
        # a debug line
        with caplog.at_level(logging.DEBUG, logger="polilean.topics"):
            theta = infer_theta(np.zeros((2, 4)), self.BETA)
        np.testing.assert_allclose(theta, 0.5)
        [record] = [r for r in caplog.records if "no in-vocabulary tokens" in r.message]
        assert record.levelno == logging.DEBUG

    def test_sparse_input_accepted(self):
        h = sp.csr_matrix(np.array([[1.0, 2.0, 0.0, 1.0]]))
        theta = infer_theta(h, self.BETA)
        assert theta.shape == (1, 2)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-6)


class TestFoldIn:
    MODEL = TopicModel(
        beta=np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]),
        anchors=(0, 2),
        vocab=("a", "b", "c"),
        word_prob=np.array([0.4, 0.3, 0.3]),
    )

    def test_column_alignment(self):
        # one feature unknown to the model, one model word ("c") missing
        counts = {"d0": Counter({"b": 3, "unseen": 7, "a": 2})}
        theta = fold_in(project_features(counts, self.MODEL.vocab), self.MODEL)
        aligned = np.array([[2.0, 3.0, 0.0]])  # a=2, b=3, c missing
        np.testing.assert_allclose(theta, infer_theta(aligned, self.MODEL.beta))

    def test_fully_out_of_vocabulary_is_uniform(self):
        model = TopicModel(
            beta=np.array([[0.5, 0.5], [0.5, 0.5]]),
            anchors=(0, 1),
            vocab=("a", "b"),
            word_prob=np.array([0.5, 0.5]),
        )
        dfm = project_features({"d0": Counter({"other": 4})}, model.vocab)
        np.testing.assert_allclose(fold_in(dfm, model), 0.5)

    def test_misaligned_columns_rejected(self):
        for vocab in (("b", "unseen", "a"), ("a", "b"), ("c", "b", "a")):
            dfm = _dfm_from_counts([[1.0] * len(vocab)], vocab=vocab)
            with pytest.raises(ValueError, match="vocabulary"):
                fold_in(dfm, self.MODEL)


class TestFitOnPlantedData:
    def test_planted_anchors_and_beta_recovered(self):
        # low concentration: documents lean on few topics, which keeps
        # the planted instance separable
        dfm, beta_true, _, _ = planted_dfm(
            n_docs=400, k=4, v=60, doc_length=250, delta=0.0,
            concentration=2.0, seed=11,
        )
        model = fit_topic_model(dfm, 4)
        assert set(model.anchors) == set(range(4))
        np.testing.assert_allclose(model.beta.sum(axis=1), 1.0, atol=1e-8)

        # greedy matching on L1 distance
        remaining = list(range(4))
        total = []
        for row in model.beta:
            errs = [(np.abs(row - beta_true[j]).sum(), j) for j in remaining]
            err, j = min(errs)
            remaining.remove(j)
            total.append(err)
        assert max(total) <= 0.15, f"per-topic L1 errors {total}"

    def test_doc_frequency_floor_excludes_rare_words(self):
        # word 2 appears in one single document with an extreme profile;
        # the floor keeps it out of the anchor set
        counts = np.array([
            [4.0, 1.0, 0.0],
            [1.0, 4.0, 0.0],
            [4.0, 1.0, 0.0],
            [1.0, 4.0, 0.0],
            [0.0, 0.0, 9.0],
        ])
        model = fit_topic_model(_dfm_from_counts(counts), 2)
        assert 2 not in model.anchors


class TestWordScores:
    BETA = np.array([
        [0.6, 0.3, 0.1],
        [0.2, 0.3, 0.5],
    ])

    def test_hand_computed_tables(self):
        scores = word_scores(self.BETA, ("a", "b", "c"), frex_weight=0.7)

        # ECDFs of exclusivity and frequency within each topic row are
        # [1, 2/3, 1/3] / [1/3, 2/3, 1] here, making FREX their value
        # itself (both ECDFs coincide per entry)
        np.testing.assert_allclose(scores.frex[0], [1.0, 2 / 3, 1 / 3], rtol=1e-6)
        np.testing.assert_allclose(scores.frex[1], [1 / 3, 2 / 3, 1.0], rtol=1e-6)

        expected_lift = np.array([
            [0.6 / 0.2, 0.3 / 0.3, 0.1 / 0.5],
            [0.2 / 0.6, 0.3 / 0.3, 0.5 / 0.1],
        ])
        np.testing.assert_allclose(scores.lift, expected_lift, rtol=1e-6)

        expected_score = np.array([
            [np.log(0.6) - np.log(0.2), 0.0, np.log(0.1) - np.log(0.5)],
            [np.log(0.2) - np.log(0.6), 0.0, np.log(0.5) - np.log(0.1)],
        ])
        np.testing.assert_allclose(scores.score, expected_score, atol=1e-6)

    def test_single_topic_rejected(self):
        with pytest.raises(ValueError):
            word_scores(np.array([[1.0]]), ("a",))

    def test_anchor_words_maximize_lift_on_planted_beta(self):
        from polilean.synthgen import make_beta

        rng = np.random.default_rng(0)
        beta = make_beta(4, 30, 0.1, rng)
        scores = word_scores(beta, tuple(f"w{j}" for j in range(30)))
        for k in range(4):
            assert int(np.argmax(scores.lift[k])) == k


class TestTopWords:
    def _scores(self):
        # three words; rankings chosen so the merged list is predictable
        frex = np.array([[0.9, 0.5, 0.1]])
        lift = np.array([[0.1, 0.9, 0.5]])
        score = np.array([[0.5, 0.1, 0.9]])
        return WordScores(frex, lift, score, ("a", "b", "c"))

    def test_merge_order_and_dedup(self):
        # n_each=1: frex picks a, lift picks b, score picks c
        assert top_words(self._scores(), 0, n_each=1, n_out=15) == ["a", "b", "c"]
        # n_each=2: frex [a,b], lift adds c; score adds nothing new
        assert top_words(self._scores(), 0, n_each=2, n_out=15) == ["a", "b", "c"]

    def test_truncation(self):
        assert top_words(self._scores(), 0, n_each=3, n_out=2) == ["a", "b"]

    def test_ties_break_by_column_order(self):
        frex = np.array([[0.5, 0.5, 0.5]])
        scores = WordScores(frex, frex, frex, ("x", "y", "z"))
        assert top_words(scores, 0, n_each=3, n_out=3) == ["x", "y", "z"]
        # with n_each=2 the third word never enters any ranking
        assert top_words(scores, 0, n_each=2, n_out=3) == ["x", "y"]


class TestPrevalenceRegression:
    def test_hand_computed_slope_and_interval(self):
        theta = np.array([[0.1], [0.2], [0.4], [0.5]])
        labels = ["Left", "Left", "Right", "Right"]
        (effect,) = prevalence_regression(theta, labels)
        assert math.isclose(effect.estimate, 0.3)
        se = math.sqrt(0.005 / 1.0)  # s^2 = 0.01/2, sxx = 1
        assert math.isclose(effect.ci_low, 0.3 - 1.96 * se)
        assert math.isclose(effect.ci_high, 0.3 + 1.96 * se)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            prevalence_regression(np.array([[0.5], [0.5]]), ["Left", "Left"])

    def test_planted_class_shift_is_recovered(self):
        # left users prefer the first half of topics by delta/half per
        # topic; the regression on a Right indicator should estimate
        # about -0.05 there and +0.05 on the second half
        k, delta = 10, 0.25
        left_mix, right_mix = class_mixtures(k, delta)
        rng = np.random.default_rng(42)
        theta = np.vstack(
            [rng.dirichlet(30 * left_mix) for _ in range(300)]
            + [rng.dirichlet(30 * right_mix) for _ in range(300)]
        )
        labels = ["Left"] * 300 + ["Right"] * 300
        effects = prevalence_regression(theta, labels)
        for e in effects[: k // 2]:
            assert -0.07 <= e.estimate <= -0.03
            assert e.ci_low <= e.estimate <= e.ci_high
        for e in effects[k // 2:]:
            assert 0.03 <= e.estimate <= 0.07


class TestTopicModelIO:
    def test_round_trip_and_determinism(self, tmp_path):
        dfm, *_ = planted_dfm(n_docs=60, k=3, v=20, doc_length=80, seed=3)
        model = fit_topic_model(dfm, 3)
        save_topic_model(model, tmp_path / "m.json", tmp_path / "m.csv")
        back = load_topic_model(tmp_path / "m.json", tmp_path / "m.csv")
        assert back.anchors == model.anchors
        assert back.vocab == model.vocab
        np.testing.assert_array_equal(back.beta, model.beta)
        np.testing.assert_array_equal(back.word_prob, model.word_prob)
        save_topic_model(model, tmp_path / "n.json", tmp_path / "n.csv")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "n.json").read_bytes()
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "n.csv").read_bytes()
