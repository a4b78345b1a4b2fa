"""Classifier families: SMO dual optimality, Platt calibration, naive
Bayes against brute-force enumeration, neural-net gradients,
thresholded labeling and model serialization."""

import logging
import math

import numpy as np
import pytest

from polilean import classify, nn, svm


def _blobs(n_per_class, sep=3.0, d=2, seed=0):
    rng = np.random.default_rng(seed)
    left = rng.normal(-sep / 2.0, 1.0, size=(n_per_class, d))
    right = rng.normal(sep / 2.0, 1.0, size=(n_per_class, d))
    x = np.vstack([left, right])
    y = np.array([-1.0] * n_per_class + [1.0] * n_per_class)
    return x, y


def _kernel_matrix(kernel, a, b):
    """Independent kernel evaluation for the dual-optimality oracle."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    out = np.empty((len(a), len(b)))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            if kernel.name == "linear":
                out[i, j] = float(u @ v)
            elif kernel.name == "poly":
                out[i, j] = (float(u @ v) + kernel.coef) ** kernel.degree
            elif kernel.name == "rbf":
                gamma = kernel.gamma if kernel.gamma is not None else 1.0 / len(u)
                out[i, j] = math.exp(-gamma * float(((u - v) ** 2).sum()))
    return out


def _max_kkt_violation(kernel, x, y, alpha, c):
    """Largest optimality gap over the maximal violating pair sets."""
    k = _kernel_matrix(kernel, x, x)
    g = 1.0 - y * (k @ (alpha * y))
    yg = y * g
    up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
    down = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
    if not up.any() or not down.any():
        return 0.0
    return float(yg[up].max() - yg[down].min())


def _per_update_smo(x, y, kernel, c, tol, max_updates):
    """The solver loop that the offset-vector one replaced, kept as the
    oracle: fresh up/down masks, flatnonzero and a gradient g on every
    pair update. Returns alpha, bias, converged and the update count."""
    k = kernel.matrix(x, x)
    n = len(y)
    alpha = np.zeros(n)
    g = np.ones(n)
    converged = False
    updates = max_updates
    for t in range(max_updates):
        up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
        down = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
        if not up.any() or not down.any():
            converged, updates = True, t
            break
        yg = y * g
        i = int(np.flatnonzero(up)[np.argmax(yg[up])])
        j = int(np.flatnonzero(down)[np.argmin(yg[down])])
        gap = yg[i] - yg[j]
        if gap <= tol:
            converged, updates = True, t
            break
        quad = max(k[i, i] + k[j, j] - 2.0 * k[i, j], 1e-12)
        hi_i = c - alpha[i] if y[i] > 0 else alpha[i]
        hi_j = alpha[j] if y[j] > 0 else c - alpha[j]
        step = min(gap / quad, hi_i, hi_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        g -= y * step * (k[:, i] - k[:, j])
    yg = y * g
    up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
    down = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
    b_up = yg[up].max() if up.any() else 0.0
    b_low = yg[down].min() if down.any() else 0.0
    return alpha, (b_up + b_low) / 2.0, converged, updates


def _assert_matches_oracle(x, y, kernel, c, tol=1e-3):
    """Bitwise equality with the oracle, at the cap svm reads now."""
    model = svm.smo_train(x, y, kernel, c=c, tol=tol)
    alpha, bias, converged, _ = _per_update_smo(x, y, kernel, c, tol, svm.MAX_PAIR_UPDATES)
    np.testing.assert_array_equal(model.alpha, alpha)
    assert model.bias == bias
    assert model.converged == converged
    sv = alpha > 1e-12
    np.testing.assert_array_equal(model.support_vectors, x[sv])
    np.testing.assert_array_equal(model.support_alpha_y, (alpha * y)[sv])
    return model


def _mixed_problem(seed, n, d):
    """Topic-like proportions next to 0/1 follow columns, as the
    classifiers see them; labels carry no signal."""
    rng = np.random.default_rng(seed)
    k = max(1, d // 3)
    x = np.hstack([rng.dirichlet(np.ones(k), size=n), rng.random((n, d - k)) < 0.3])
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y[0], y[1] = -1.0, 1.0
    return x.astype(np.float64), y


class TestSmoMatchesPerUpdateOracle:
    KERNELS = (
        svm.Kernel("linear"),
        svm.Kernel("poly", degree=3, coef=1.0),
        svm.Kernel("rbf"),
    )

    def test_every_kernel_and_box_bound(self):
        for trial, (kernel, c) in enumerate(
            (kern, c) for kern in self.KERNELS for c in (0.5, 1.0, 10.0)
        ):
            n = (40, 120, 200)[trial % 3]
            x, y = _mixed_problem(200 + trial, n, d=int(3 + trial * 3))
            _assert_matches_oracle(x, y, kernel, c)

    def test_rbf_gram_that_is_not_bit_symmetric(self):
        x, y = _mixed_problem(31, 150, d=40)
        kernel = svm.Kernel("rbf")
        gram = kernel.matrix(x, x)
        assert not np.array_equal(gram, gram.T)
        _assert_matches_oracle(x, y, kernel, 1.0)

    def test_duplicated_rows_tie_in_yg(self):
        x, y = _mixed_problem(32, 60, d=12)
        x = np.vstack([x, x, x[:20]])
        y = np.concatenate([y, y, -y[:20]])
        for kernel in self.KERNELS:
            _assert_matches_oracle(x, y, kernel, 1.0)

    def test_one_class_labels(self):
        x, _ = _mixed_problem(33, 25, d=6)
        for label in (1.0, -1.0):
            model = _assert_matches_oracle(x, np.full(25, label), svm.Kernel("linear"), 1.0)
            assert model.converged
            assert model.bias == label / 2.0

    def test_same_iterate_at_the_update_cap(self, monkeypatch):
        x, y = _mixed_problem(34, 80, d=20)
        for cap in (1, 2, 7):
            monkeypatch.setattr(svm, "MAX_PAIR_UPDATES", cap)
            for kernel in self.KERNELS:
                model = _assert_matches_oracle(x, y, kernel, 1.0)
                assert not model.converged


class TestSmoReports:
    def test_cap_warning_names_size_kernel_and_gap(self, monkeypatch, caplog):
        monkeypatch.setattr(svm, "MAX_PAIR_UPDATES", 2)
        x, y = _mixed_problem(35, 30, d=6)
        with caplog.at_level(logging.WARNING, logger="polilean.svm"):
            svm.smo_train(x, y, svm.Kernel("poly"), c=1.0)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "2 pair-update cap" in message
        assert "n=30" in message and "kernel poly" in message
        gap = float(message.split("gap ")[1].split(",")[0])
        assert gap > 1e-3

    def test_one_debug_line_per_fit(self, caplog):
        x, y = _mixed_problem(36, 50, d=9)
        kernel = svm.Kernel("linear")
        *_, updates = _per_update_smo(x, y, kernel, 1.0, 1e-3, svm.MAX_PAIR_UPDATES)
        with caplog.at_level(logging.DEBUG, logger="polilean.svm"):
            svm.smo_train(x, y, kernel, c=1.0)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith("SMO n=50 kernel=linear ")
        assert f"pair_updates={updates} " in message
        assert message.endswith("converged=True")
        assert float(message.split("gap=")[1].split(" ")[0]) <= 1e-3

    def test_converged_fit_is_silent_at_the_default_level(self, caplog):
        x, y = _mixed_problem(37, 40, d=6)
        with caplog.at_level(logging.WARNING, logger="polilean.svm"):
            assert svm.smo_train(x, y, svm.Kernel("rbf"), c=1.0).converged
        assert caplog.records == []


class TestSmo:
    def test_two_point_problem_in_closed_form(self):
        # points 0 and 2 on a line: maximum margin puts the decision
        # values at exactly -1 and +1 with alpha = 1/2 each
        x = np.array([[0.0], [2.0]])
        y = np.array([-1.0, 1.0])
        model = svm.smo_train(x, y, svm.Kernel("linear"), c=10.0)
        np.testing.assert_allclose(model.alpha, [0.5, 0.5], atol=1e-3)
        np.testing.assert_allclose(model.decision_function(x), [-1.0, 1.0], atol=1e-2)
        assert model.converged

    def test_xor_with_radial_kernel_fits_exactly(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = svm.smo_train(x, y, svm.Kernel("rbf"), c=10.0)
        assert (np.sign(model.decision_function(x)) == y).all()

    def test_separable_blobs_classified_perfectly(self):
        x, y = _blobs(40, sep=6.0, seed=1)
        model = svm.smo_train(x, y, svm.Kernel("linear"), c=10.0)
        assert (np.sign(model.decision_function(x)) == y).all()
        # far fewer support vectors than points on well-separated data
        assert len(model.support_vectors) < len(x) / 2

    def test_dual_feasibility_and_kkt_on_random_problems(self):
        kernels = [
            svm.Kernel("linear"),
            svm.Kernel("poly", degree=2, coef=1.0),
            svm.Kernel("rbf"),
        ]
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            n = int(rng.integers(10, 40))
            d = int(rng.integers(2, 5))
            x = rng.normal(size=(n, d))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            y[0], y[1] = -1.0, 1.0  # both classes present
            c = [0.5, 1.0, 10.0][trial % 3]
            kernel = kernels[trial % 3]

            model = svm.smo_train(x, y, kernel, c=c)
            alpha = model.alpha
            assert (alpha >= -1e-8).all() and (alpha <= c + 1e-8).all()
            assert abs(float(alpha @ y)) <= 1e-8
            assert _max_kkt_violation(kernel, x, y, alpha, c) <= 1e-3

    def test_decision_function_matches_direct_expansion(self):
        x, y = _blobs(15, sep=2.0, seed=3)
        kernel = svm.Kernel("rbf", gamma=0.7)
        model = svm.smo_train(x, y, kernel, c=1.0)
        probe = np.random.default_rng(4).normal(size=(6, 2))
        expected = (
            _kernel_matrix(kernel, probe, model.support_vectors)
            @ model.support_alpha_y
            + model.bias
        )
        np.testing.assert_allclose(model.decision_function(probe), expected, atol=1e-10)

    def test_labels_must_be_plus_minus_one(self):
        with pytest.raises(ValueError, match="-1/\\+1"):
            svm.smo_train(np.eye(2), np.array([0.0, 1.0]), svm.Kernel("linear"))


class TestPlattCalibration:
    def test_symmetric_decisions_give_half_at_zero(self):
        f = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        ab = svm.platt_calibrate(f, y)
        a, b = ab
        assert a < 0  # probability increases with the decision value
        assert abs(b) < 1e-6
        p = svm.sigmoid_probability(np.array([0.0]), ab)
        assert math.isclose(p[0], 0.5, abs_tol=1e-9)

    def test_probabilities_monotone_and_smoothed(self):
        f = np.array([-3.0, -1.5, 1.5, 3.0])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        ab = svm.platt_calibrate(f, y)
        p = svm.sigmoid_probability(f, ab)
        assert (np.diff(p) > 0).all()
        # regularized targets keep fitted probabilities off 0 and 1
        assert 0.5 < p[-1] < 0.99
        assert 0.01 < p[0] < 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            svm.platt_calibrate(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


class TestNaiveBayes:
    def test_hand_computed_bernoulli_posterior(self):
        # class counts 3 left / 4 right; smoothed p(x=1) are 2/5 and
        # 2/3, so p(Right | x=1) = (4/7)(2/3) / ((4/7)(2/3)+(3/7)(2/5))
        x = np.array([[0.0], [0.0], [1.0], [1.0], [1.0], [0.0], [1.0]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        model = classify.train_nb(x, y, [True])
        p = classify.predict(model, np.array([[1.0]]))
        assert math.isclose(p[0], 20.0 / 29.0, abs_tol=1e-12)

    def test_matches_bruteforce_enumeration(self):
        """Posterior equals the directly enumerated Bayes rule with the
        same estimators (sample Gaussian per continuous column, add-one
        Bernoulli per binary column) to within 1e-12."""
        rng = np.random.default_rng(8)
        n = 40
        x = np.column_stack([
            rng.normal(size=n),
            rng.normal(2.0, 0.5, size=n),
            (rng.random(n) < 0.4).astype(float),
            (rng.random(n) < 0.7).astype(float),
        ])
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[:2] = [-1.0, -1.0]
        y[2:4] = [1.0, 1.0]
        model = classify.train_nb(x, y, [False, False, True, True])
        probe = x[:10]

        def density(row, cls_rows):
            dens = len(cls_rows) / n  # prior
            for j in (0, 1):  # continuous
                mu = sum(r[j] for r in cls_rows) / len(cls_rows)
                var = sum((r[j] - mu) ** 2 for r in cls_rows) / len(cls_rows)
                var = max(var, 1e-9)
                dens *= math.exp(-0.5 * (row[j] - mu) ** 2 / var) / math.sqrt(
                    2.0 * math.pi * var
                )
            for j in (2, 3):  # binary
                p1 = (sum(r[j] for r in cls_rows) + 1.0) / (len(cls_rows) + 2.0)
                dens *= p1 if row[j] == 1.0 else (1.0 - p1)
            return dens

        left_rows = [x[i] for i in range(n) if y[i] < 0]
        right_rows = [x[i] for i in range(n) if y[i] > 0]
        expected = np.array([
            density(row, right_rows)
            / (density(row, right_rows) + density(row, left_rows))
            for row in probe
        ])
        np.testing.assert_allclose(classify.predict(model, probe), expected, atol=1e-12)

    def test_mask_decides_gaussian_or_bernoulli(self):
        rng = np.random.default_rng(3)
        x = (rng.random((12, 2)) < 0.5).astype(float)
        y = np.array([-1.0, 1.0] * 6)
        as_bernoulli = classify.train_nb(x, y, binary_mask=[True, True])
        as_gaussian = classify.train_nb(x, y, binary_mask=[False, False])
        assert as_bernoulli.inner.bern_logp1.shape == (2, 2)
        assert as_gaussian.inner.gauss_mean.shape == (2, 2)
        assert as_gaussian.inner.bern_logp1.size == 0

    def test_needs_two_examples_per_class(self):
        with pytest.raises(ValueError, match="2 examples per class"):
            classify.train_nb(np.eye(3), np.array([-1.0, 1.0, 1.0]), [True] * 3)


class TestNeuralNet:
    def test_analytic_gradients_match_central_differences(self):
        rng = np.random.default_rng(12)
        n, d, hidden = 7, 3, 5
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n)
        onehot = np.zeros((n, 2))
        onehot[np.arange(n), labels] = 1.0
        params = [
            rng.normal(size=(d, hidden)),
            rng.normal(size=hidden),
            rng.normal(size=(hidden, 2)),
            rng.normal(size=2),
        ]

        _, *grads = nn.loss_and_grads(x, onehot, *params)

        h = 1e-5
        worst = 0.0
        for p, g in zip(params, grads):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                up = nn.loss_and_grads(x, onehot, *params)[0]
                flat_p[idx] = orig - h
                dn = nn.loss_and_grads(x, onehot, *params)[0]
                flat_p[idx] = orig
                fd = (up - dn) / (2.0 * h)
                rel = abs(flat_g[idx] - fd) / max(abs(flat_g[idx]) + abs(fd), 1e-8)
                worst = max(worst, rel)
        assert worst <= 1e-4, f"max relative gradient error {worst}"

    def test_learns_separable_blobs(self):
        x, y = _blobs(100, sep=4.0, seed=5)
        model = classify.train_nn(x, y, hidden=16, epochs=60, seed=0)
        p = classify.predict(model, x)
        acc = ((p > 0.5) == (y > 0)).mean()
        assert acc >= 0.99

    def test_seed_determinism(self):
        x, y = _blobs(30, seed=6)
        a = nn.train_nn(x, y, hidden=8, epochs=10, seed=3)
        b = nn.train_nn(x, y, hidden=8, epochs=10, seed=3)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_nonfinite_loss_raises(self):
        x, y = _blobs(20, seed=7)
        x[0, 0] = np.inf  # poisons the epoch loss on the first pass
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="lower lr"):
                nn.train_nn(x, y, hidden=4, epochs=2, seed=0)

    def test_constant_column_does_not_blow_up(self):
        x, y = _blobs(25, seed=8)
        x = np.column_stack([x, np.full(len(x), 3.3)])
        model = classify.train_nn(x, y, hidden=8, epochs=20, seed=0)
        assert np.isfinite(classify.predict(model, x)).all()


class TestThresholdRule:
    CASES = [
        (0.90, 0.5, "Right"),
        (0.10, 0.5, "Left"),
        (0.50, 0.5, "Right"),  # exact tie goes Right by rule order
        (0.60, 0.7, "Unknown"),
        (0.30, 0.7, "Left"),
        (0.70, 0.7, "Right"),
        (1.00, 1.0, "Right"),
        (0.99, 1.0, "Unknown"),
    ]

    def test_rule_table(self):
        for p, tau, expected in self.CASES:
            assert classify.label_for(p, tau) == expected, (p, tau)

    def test_threshold_range_enforced(self):
        for tau in (0.49, -0.1, 1.01):
            with pytest.raises(ValueError, match="\\[0.5, 1\\]"):
                classify.label_for(0.8, tau)

    def test_apply_threshold_builds_predictions(self):
        preds = classify.apply_threshold(["a", "b"], [0.9, 0.55], 0.7)
        assert [p.label for p in preds] == ["Right", "Unknown"]
        assert [p.user_id for p in preds] == ["a", "b"]
        assert math.isclose(preds[0].p_right, 0.9)

    def test_encode_labels(self):
        np.testing.assert_array_equal(
            classify.encode_labels(["Right", "Left", "Right"]), [1.0, -1.0, 1.0]
        )


class TestFamilyInterface:
    def test_train_model_dispatch_and_unknown_family(self):
        x, y = _blobs(20, seed=9)
        for family in classify.FAMILIES:
            kwargs = {"NB": {"binary_mask": [False, False]}, "NN": {"epochs": 5}}.get(family, {})
            model = classify.train_model(family, x, y, **kwargs)
            assert model.family == family
            p = classify.predict(model, x)
            assert p.shape == (len(x),)
            assert ((0.0 <= p) & (p <= 1.0)).all()
        with pytest.raises(ValueError, match="unknown classifier family"):
            classify.train_model("forest", x, y)

    def test_svm_calibration_orients_probabilities(self):
        x, y = _blobs(40, sep=5.0, seed=10)
        model = classify.train_svm(x, y, kernel="linear", seed=0)
        assert model.calibration is not None
        p = classify.predict(model, x)
        assert ((p > 0.5) == (y > 0)).all()

    def test_empty_calibration_folds_train_nothing(self, monkeypatch):
        # 6 rows in 10 folds: one fit per non-empty fold, one on all rows
        x, y = _blobs(3, sep=4.0, seed=12)
        fits = []
        smo_train = svm.smo_train

        def counting(*args, **kwargs):
            fits.append(len(args[1]))
            return smo_train(*args, **kwargs)

        monkeypatch.setattr(svm, "smo_train", counting)
        model = classify.train_svm(x, y, kernel="linear", calibration_folds=10, seed=0)
        assert fits == [5] * 6 + [6]
        assert model.calibration is not None

    def test_feature_width_validated(self):
        x, y = _blobs(10, seed=11)
        model = classify.train_nb(x, y, [False, False])
        with pytest.raises(ValueError, match="feature width"):
            classify.predict(model, np.zeros((2, 5)))


class TestSerialization:
    def test_round_trip_every_family(self, tmp_path):
        x, y = _blobs(20, sep=3.0, seed=13)
        probe = np.random.default_rng(14).normal(size=(8, 2))
        for family in classify.FAMILIES:
            kwargs = {"NB": {"binary_mask": [False, False]}, "NN": {"epochs": 5}}.get(family, {})
            model = classify.train_model(family, x, y, **kwargs)
            path = tmp_path / f"{family}.json"
            classify.save_model(model, path)
            back = classify.load_model(path)
            assert back.family == model.family
            assert back.feature_width == model.feature_width
            assert back.calibration == model.calibration
            np.testing.assert_array_equal(
                classify.predict(back, probe), classify.predict(model, probe)
            )

    def test_saved_bytes_deterministic(self, tmp_path):
        x, y = _blobs(15, seed=15)
        model = classify.train_svm(x, y, kernel="poly", seed=1)
        classify.save_model(model, tmp_path / "a.json")
        classify.save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unconverged_flag_survives_save_and_load(self, tmp_path, monkeypatch):
        monkeypatch.setattr(svm, "MAX_PAIR_UPDATES", 1)
        x, y = _blobs(15, seed=16)
        model = classify.train_svm(x, y, kernel="linear", seed=1)
        assert not model.inner.converged
        classify.save_model(model, tmp_path / "capped.json")
        assert not classify.load_model(tmp_path / "capped.json").inner.converged

    def test_model_with_no_support_vectors_loads(self, tmp_path):
        inner = svm.SvmModel(
            kernel=svm.Kernel("linear"),
            support_vectors=np.zeros((0, 3)),
            support_alpha_y=np.zeros(0),
            bias=0.25,
            converged=True,
        )
        model = classify.ClassifierModel("SVM_lin", 3, inner, (-1.0, 0.0))
        classify.save_model(model, tmp_path / "empty.json")
        back = classify.load_model(tmp_path / "empty.json")
        assert back.inner.support_vectors.shape == (0, 3)
        p = classify.predict(back, np.ones((2, 3)))
        np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(-0.25)))

    def test_unsupported_container_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other/9"}\n')
        with pytest.raises(ValueError, match="unsupported model container"):
            classify.load_model(path)

    def test_saved_bytes_match_the_pinned_format(self, tmp_path):
        # hand-built models, not trained ones, so that BLAS threading
        # cannot move a byte; the expected files pin classifier/1
        probe = np.array([[0.5, -1.0, 1.0], [2.0, 0.0, 0.0]])
        for family, model in _hand_models().items():
            path = tmp_path / f"{family}.json"
            classify.save_model(model, path)
            assert path.read_text() == PINNED_CLASSIFIER_JSON[family], family
            back = classify.load_model(path)
            classify.save_model(back, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), family
            x = probe[:, :model.feature_width]
            np.testing.assert_array_equal(classify.predict(back, x), classify.predict(model, x))


def _hand_models() -> dict:
    """One model per family: a boolean NB mask, an SVM without support
    vectors, a kernel with every parameter off its default, and the
    dual solution that is not saved."""
    return {
        "NB": classify.ClassifierModel("NB", 3, classify.NbModel(
            log_prior=np.array([-0.75, -0.625]),
            binary_mask=np.array([False, True, True]),
            gauss_mean=np.array([[0.5], [1.5]]),
            gauss_var=np.array([[0.25], [2.0]]),
            bern_logp1=np.array([[-0.5, -1.0], [-2.0, -0.25]]),
            bern_logp0=np.array([[-1.25, -0.75], [-0.125, -1.5]]),
        )),
        "SVM_lin": classify.ClassifierModel("SVM_lin", 3, svm.SvmModel(
            kernel=svm.Kernel("linear"), support_vectors=np.zeros((0, 3)),
            support_alpha_y=np.zeros(0), bias=0.25, converged=True,
        ), (-1.5, 0.125)),
        "SVM_poly": classify.ClassifierModel("SVM_poly", 2, svm.SvmModel(
            kernel=svm.Kernel("poly", degree=2, coef=0.5, gamma=0.75),
            support_vectors=np.array([[1.0, -2.0], [0.5, 0.25]]),
            support_alpha_y=np.array([0.5, -0.5]), bias=-0.125, converged=False,
            alpha=np.array([0.5, 0.0, 0.5]),
        ), (-2.0, 0.5)),
        "SVM_rad": classify.ClassifierModel("SVM_rad", 2, svm.SvmModel(
            kernel=svm.Kernel("rbf"), support_vectors=np.array([[0.1, 0.2]]),
            support_alpha_y=np.array([1.0]), bias=0.0, converged=True,
        )),
        "NN": classify.ClassifierModel("NN", 2, nn.NnModel(
            w1=np.array([[0.1, -0.2], [0.3, 0.4]]), b1=np.array([0.0, 0.05]),
            w2=np.array([[0.5, -0.5], [-0.25, 0.25]]), b2=np.array([0.01, -0.01]),
            mean=np.array([1.0, 2.0]), sd=np.array([0.5, 1.5]),
        )),
    }


PINNED_CLASSIFIER_JSON = {
    "NB": (
        '{"calibration": null, "family": "NB", "feature_width": 3, "format": "classifier/1", '
        '"params": {"bern_logp0": [[-1.25, -0.75], [-0.125, -1.5]], '
        '"bern_logp1": [[-0.5, -1.0], [-2.0, -0.25]], "binary_mask": [0, 1, 1], '
        '"gauss_mean": [[0.5], [1.5]], "gauss_var": [[0.25], [2.0]], '
        '"log_prior": [-0.75, -0.625]}}\n'
    ),
    "SVM_lin": (
        '{"calibration": [-1.5, 0.125], "family": "SVM_lin", "feature_width": 3, '
        '"format": "classifier/1", "params": {"bias": 0.25, "converged": true, '
        '"kernel": {"coef": 1.0, "degree": 3, "gamma": null, "name": "linear"}, '
        '"support_alpha_y": [], "support_vectors": []}}\n'
    ),
    "SVM_poly": (
        '{"calibration": [-2.0, 0.5], "family": "SVM_poly", "feature_width": 2, '
        '"format": "classifier/1", "params": {"bias": -0.125, "converged": false, '
        '"kernel": {"coef": 0.5, "degree": 2, "gamma": 0.75, "name": "poly"}, '
        '"support_alpha_y": [0.5, -0.5], "support_vectors": [[1.0, -2.0], [0.5, 0.25]]}}\n'
    ),
    "SVM_rad": (
        '{"calibration": null, "family": "SVM_rad", "feature_width": 2, '
        '"format": "classifier/1", "params": {"bias": 0.0, "converged": true, '
        '"kernel": {"coef": 1.0, "degree": 3, "gamma": null, "name": "rbf"}, '
        '"support_alpha_y": [1.0], "support_vectors": [[0.1, 0.2]]}}\n'
    ),
    "NN": (
        '{"calibration": null, "family": "NN", "feature_width": 2, "format": "classifier/1", '
        '"params": {"b1": [0.0, 0.05], "b2": [0.01, -0.01], "mean": [1.0, 2.0], '
        '"sd": [0.5, 1.5], "w1": [[0.1, -0.2], [0.3, 0.4]], '
        '"w2": [[0.5, -0.5], [-0.25, 0.25]]}}\n'
    ),
}
