"""Sampling, splits, metrics, threshold sweeps and diagnostics."""

import logging
import math

import numpy as np
import pytest

from polilean import classify, evaluation
from polilean.corpus import UserDocument


def _labels_from_counts(tp, fp, fn, tn=0):
    """Prediction/truth label lists realizing a given confusion matrix."""
    pred = ["Right"] * (tp + fp) + ["Left"] * (fn + tn)
    true = ["Right"] * tp + ["Left"] * fp + ["Right"] * fn + ["Left"] * tn
    return pred, true


class TestPrf:
    def test_f1_from_published_precision_recall_pairs(self):
        # integer confusion counts chosen so precision/recall land
        # exactly on 0.85/0.87 and 0.75/0.79
        pred, true = _labels_from_counts(tp=1479, fp=261, fn=221)
        p, r, f1 = evaluation.prf(pred, true)
        assert math.isclose(p, 0.85, abs_tol=1e-12)
        assert math.isclose(r, 0.87, abs_tol=1e-12)
        assert abs(f1 - 0.86) <= 0.005

        pred, true = _labels_from_counts(tp=237, fp=79, fn=63)
        p, r, f1 = evaluation.prf(pred, true)
        assert math.isclose(p, 0.75, abs_tol=1e-12)
        assert math.isclose(r, 0.79, abs_tol=1e-12)
        assert abs(f1 - 0.77) <= 0.005

    def test_unknown_predictions_leave_the_confusion_matrix(self):
        pred = ["Right", "Unknown", "Left"]
        true = ["Right", "Right", "Right"]
        p, r, f1 = evaluation.prf(pred, true)
        assert (p, r) == (1.0, 0.5)
        assert math.isclose(f1, 2 / 3)

    def test_all_unknown_reports_zero_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="polilean.evaluation"):
            out = evaluation.prf(["Unknown", "Unknown"], ["Right", "Left"])
        assert out == (0.0, 0.0, 0.0)
        assert "all predictions Unknown" in caplog.text

    def test_no_positive_predictions_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="polilean.evaluation"):
            p, r, f1 = evaluation.prf(["Left", "Left"], ["Right", "Left"])
        assert (p, f1) == (0.0, 0.0)
        assert "no Right predictions" in caplog.text


class TestBalancedSample:
    def test_minority_kept_majority_downsampled(self):
        users = [f"u{i}" for i in range(10)]
        labels = {u: ("Right" if i < 3 else "Left") for i, u in enumerate(users)}
        sample = evaluation.balanced_sample(users, labels, seed=0)
        assert len(sample) == 6
        assert len(set(sample)) == 6  # no replacement
        counts = {"Left": 0, "Right": 0}
        for u in sample:
            counts[labels[u]] += 1
        assert counts == {"Left": 3, "Right": 3}
        assert {u for u in sample if labels[u] == "Right"} == set(users[:3])

    def test_works_when_left_is_the_minority(self):
        users = [f"u{i}" for i in range(9)]
        labels = {u: ("Left" if i < 2 else "Right") for i, u in enumerate(users)}
        sample = evaluation.balanced_sample(users, labels, seed=1)
        assert len(sample) == 4
        assert {u for u in sample if labels[u] == "Left"} == set(users[:2])

    def test_deterministic_for_a_seed(self):
        users = [f"u{i}" for i in range(20)]
        labels = {u: ("Right" if i % 3 == 0 else "Left") for i, u in enumerate(users)}
        a = evaluation.balanced_sample(users, labels, seed=7)
        b = evaluation.balanced_sample(users, labels, seed=7)
        assert a == b

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            evaluation.balanced_sample(["a", "b"], {"a": "Left", "b": "Left"}, seed=0)


class TestSplitAndFolds:
    def test_stratified_sizes(self):
        users = [f"u{i}" for i in range(10)]
        labels = {u: ("Left" if i < 6 else "Right") for i, u in enumerate(users)}
        train, test = evaluation.split(users, labels, ratio=0.8, seed=0)
        assert sorted(train + test) == sorted(users)
        assert len(train) == 8 and len(test) == 2
        assert sum(labels[u] == "Right" for u in train) == 3  # round(0.8 * 4)

    def test_split_deterministic(self):
        users = [f"u{i}" for i in range(12)]
        labels = {u: ("Left" if i % 2 else "Right") for i, u in enumerate(users)}
        assert evaluation.split(users, labels, seed=5) == evaluation.split(
            users, labels, seed=5
        )

    def test_split_needs_five_users(self):
        with pytest.raises(ValueError, match="at least 5"):
            evaluation.split(["a", "b"], {"a": "Left", "b": "Right"})

    def test_kfold_partitions_evenly(self):
        folds = classify._fold_indices(10, 3, seed=0)
        assert len(folds) == 3
        assert sorted(i for f in folds for i in f) == list(range(10))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [3, 3, 4]


class TestThresholds:
    def test_unknown_fraction_zero_at_base_threshold(self):
        rng = np.random.default_rng(0)
        p = rng.random(200)
        labels = [classify.label_for(float(v), 0.5) for v in p]
        assert evaluation.unknown_fraction(labels) == 0.0

    def test_unknown_fraction_nondecreasing_in_tau(self):
        rng = np.random.default_rng(1)
        p = rng.random(300)
        taus = [round(0.5 + 0.01 * i, 10) for i in range(50)]
        fractions = [
            evaluation.unknown_fraction(
                [classify.label_for(float(v), tau) for v in p]
            )
            for tau in taus
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_table_finds_smallest_tau_reaching_target(self):
        p_right = [0.95] * 4 + [0.05] * 4 + [0.60] * 2
        true = ["Right"] * 4 + ["Left"] * 6
        rows = evaluation.threshold_table(p_right, true, targets=(0.9,))
        base, hit = rows
        assert base.target == "base" and base.tau == 0.5
        assert math.isclose(base.f1, 0.8)  # the 0.60s are wrong Rights
        assert base.unknown_fraction == 0.0
        assert hit.reachable and hit.tau == 0.61
        assert math.isclose(hit.f1, 1.0)
        assert math.isclose(hit.unknown_fraction, 0.2)

    def test_unreachable_target_row(self, caplog):
        # predictions are wrong wherever they are covered
        p_right = [0.05] * 3 + [0.95] * 3
        true = ["Right"] * 3 + ["Left"] * 3
        with caplog.at_level(logging.WARNING, logger="polilean.evaluation"):
            rows = evaluation.threshold_table(p_right, true, targets=(0.95,))
        row = rows[1]
        assert row.reachable is False
        assert row.tau is None and row.f1 is None
        assert "unreachable" in caplog.text

    def test_written_csv_marks_unreachable(self, tmp_path):
        rows = [
            evaluation.ThresholdRow("base", 0.5, 0.8, 0.7, 0.9, 0.0, True),
            evaluation.ThresholdRow("0.95", None, None, None, None, None, False),
        ]
        path = tmp_path / "t.csv"
        evaluation.write_threshold_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("base,0.50,0.8000")
        assert lines[2] == "0.95,unreachable,,,,"


class TestDiagnostics:
    def test_activity_index(self):
        user = UserDocument("u", ("p",) * 3, ("n",) * 9, 12, 3)
        assert evaluation.activity_index(user) == 0.25
        empty = UserDocument("v", (), (), 0, 0)
        with pytest.raises(ValueError, match="no tweets"):
            evaluation.activity_index(empty)

    def test_pearson_hand_oracle(self):
        x = [1.0, 2.0, 4.0, 5.0]
        y = [1.0, 3.0, 2.0, 6.0]
        dx = np.array(x) - np.mean(x)
        dy = np.array(y) - np.mean(y)
        expected = float(dx @ dy / math.sqrt((dx @ dx) * (dy @ dy)))
        assert math.isclose(evaluation.pearson(x, y), expected, abs_tol=1e-12)

    def test_pearson_perfect_correlations(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert math.isclose(evaluation.pearson(x, [2 * v + 1 for v in x]), 1.0)
        assert math.isclose(evaluation.pearson(x, [-v for v in x]), -1.0)

    def test_pearson_input_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            evaluation.pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least 3"):
            evaluation.pearson([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="zero variance"):
            evaluation.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_follow_shares(self):
        labels = {"a": "Left", "b": "Left", "c": "Right"}
        friends = {"a": ["acct"], "c": ["acct", "other"]}
        left_pct, right_pct = evaluation.follow_shares("acct", labels, friends)
        assert (left_pct, right_pct) == (50.0, 100.0)

    def test_follow_shares_empty_class(self):
        assert evaluation.follow_shares("acct", {"a": "Left"}, {}) == (0.0, 0.0)


class TestPermutationImportance:
    def _fitted(self):
        rng = np.random.default_rng(2)
        n = 120
        informative = np.concatenate([
            rng.normal(-2.0, 0.5, n // 2), rng.normal(2.0, 0.5, n // 2)
        ])
        noise = rng.normal(size=n)
        x = np.column_stack([informative, noise])
        y_str = ["Left"] * (n // 2) + ["Right"] * (n // 2)
        model = classify.train_nb(x, classify.encode_labels(y_str), [False, False])
        return model, x, y_str

    def test_informative_feature_ranks_first(self):
        model, x, y_str = self._fitted()
        ranking = evaluation.permutation_importance(
            model, x, y_str, ["signal", "noise"], repeats=5, seed=0
        )
        assert ranking[0][0] == "signal"
        assert ranking[0][1] > 0.2
        assert abs(ranking[1][1]) < 0.05

    def test_deterministic_for_a_seed(self):
        model, x, y_str = self._fitted()
        a = evaluation.permutation_importance(
            model, x, y_str, ["signal", "noise"], repeats=3, seed=4
        )
        b = evaluation.permutation_importance(
            model, x, y_str, ["signal", "noise"], repeats=3, seed=4
        )
        assert a == b
