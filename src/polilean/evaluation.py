"""Sampling, splits, metrics and diagnostics for the classifiers.

Positive class for precision/recall/F1 is Right throughout (the
minority class in the motivating data). Unknown predictions never
enter the confusion matrix; their share is reported separately.
"""

import logging
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .classify import LEFT, RIGHT, UNKNOWN, ClassifierModel, label_for, predict
from .corpus import UserDocument
from .resources import write_csv

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ThresholdRow:
    target: str  # "base", "0.90", "0.95"
    tau: float | None
    f1: float | None
    precision: float | None
    recall: float | None
    unknown_fraction: float | None
    reachable: bool


def balanced_sample(
    users: Sequence[str], labels: Mapping[str, str], seed: int
) -> list[str]:
    """All users of the minority class plus an equal-size random draw of
    the majority class, shuffled deterministically."""
    by_label = defaultdict(list)
    for u in users:
        by_label[labels[u]].append(u)
    left, right = by_label[LEFT], by_label[RIGHT]
    if not left or not right:
        raise ValueError("both classes must be present to balance")
    minority, majority = (right, left) if len(right) <= len(left) else (left, right)
    rng = np.random.default_rng(seed)
    drawn = list(rng.choice(np.array(majority, dtype=object), size=len(minority), replace=False))
    sample = list(minority) + [str(u) for u in drawn]
    rng.shuffle(sample)
    return sample


def split(
    users: Sequence[str],
    labels: Mapping[str, str],
    ratio: float = 0.8,
    seed: int = 0,
) -> tuple[list[str], list[str]]:
    """Stratified train/test split; train gets round(ratio * n) per class."""
    if len(users) < 5:
        raise ValueError("need at least 5 users to split")
    rng = np.random.default_rng(seed)
    train: list[str] = []
    test: list[str] = []
    by_label = defaultdict(list)
    for u in users:
        by_label[labels[u]].append(u)
    for label in sorted(by_label):
        members = by_label[label]
        order = rng.permutation(len(members))
        cut = int(round(ratio * len(members)))
        train.extend(members[i] for i in order[:cut])
        test.extend(members[i] for i in order[cut:])
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test


def unknown_fraction(pred_labels: Sequence[str]) -> float:
    if not pred_labels:
        return 0.0
    return sum(1 for p in pred_labels if p == UNKNOWN) / len(pred_labels)


def prf(
    pred_labels: Sequence[str], true_labels: Sequence[str]
) -> tuple[float, float, float]:
    """(precision, recall, F1) of Right over covered (non-Unknown) predictions."""
    covered = [(p, t) for p, t in zip(pred_labels, true_labels) if p != UNKNOWN]
    if not covered:
        logger.warning("all predictions Unknown; metrics reported as 0")
        return 0.0, 0.0, 0.0
    tp = sum(1 for p, t in covered if p == RIGHT and t == RIGHT)
    fp = sum(1 for p, t in covered if p == RIGHT and t != RIGHT)
    fn = sum(1 for p, t in covered if p != RIGHT and t == RIGHT)
    if tp + fp == 0:
        logger.warning("no %s predictions; precision reported as 0", RIGHT)
        precision = 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        logger.warning("no covered %s ground truth; recall reported as 0", RIGHT)
        recall = 0.0
    else:
        recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def threshold_table(
    p_right: Sequence[float],
    true_labels: Sequence[str],
    targets: Sequence[float] = (0.90, 0.95),
    grid_step: float = 0.01,
) -> list[ThresholdRow]:
    """Base row at tau=0.5 plus, per F1 target, the smallest grid tau
    whose covered-subset F1 reaches the target."""
    taus = [round(0.5 + grid_step * i, 10) for i in range(int(round(0.5 / grid_step)))]

    def evaluate(tau: float):
        pred = [label_for(float(p), tau) for p in p_right]
        precision, recall, f1 = prf(pred, true_labels)
        return f1, precision, recall, unknown_fraction(pred)

    rows = [ThresholdRow("base", 0.5, *evaluate(0.5), True)]
    for target in targets:
        hit = None
        for tau in taus:
            f1, precision, recall, unk = evaluate(tau)
            if f1 >= target:
                hit = ThresholdRow(f"{target:.2f}", tau, f1, precision, recall, unk, True)
                break
        if hit is None:
            logger.warning("F1 target %.2f unreachable on the tau grid", target)
            hit = ThresholdRow(f"{target:.2f}", None, None, None, None, None, False)
        rows.append(hit)
    return rows


def activity_index(user: UserDocument) -> float:
    """Share of a user's tweets that are political."""
    if user.tweet_count == 0:
        raise ValueError("user has no tweets")
    return user.political_tweet_count / user.tweet_count


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need equal-length vectors of at least 3 points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx @ dx) * (dy @ dy))
    if denom == 0:
        raise ValueError("zero variance in correlation input")
    return float((dx @ dy) / denom)


def follow_shares(
    account: str,
    labels: Mapping[str, str],
    friends: Mapping[str, Sequence[str]],
) -> tuple[float, float]:
    """Percent of Left and of Right users who follow the account."""
    shares = []
    for cls in (LEFT, RIGHT):
        members = [u for u, lab in labels.items() if lab == cls]
        if not members:
            shares.append(0.0)
            continue
        followers = sum(1 for u in members if account in set(friends.get(u, ())))
        shares.append(100.0 * followers / len(members))
    return shares[0], shares[1]


def permutation_importance(
    model: ClassifierModel,
    x_test,
    y_test: Sequence[str],
    feature_names: Sequence[str],
    repeats: int = 10,
    seed: int = 0,
) -> list[tuple[str, float]]:
    """Mean F1 drop when a column is shuffled; descending, ties by name."""
    x = np.asarray(x_test, dtype=np.float64)
    rng = np.random.default_rng(seed)
    base_pred = [label_for(float(p), 0.5) for p in predict(model, x)]
    base_f1 = prf(base_pred, y_test)[2]
    importances = []
    for j, name in enumerate(feature_names):
        drops = []
        for _ in range(repeats):
            shuffled = x.copy()
            shuffled[:, j] = shuffled[rng.permutation(x.shape[0]), j]
            pred = [label_for(float(p), 0.5) for p in predict(model, shuffled)]
            drops.append(base_f1 - prf(pred, y_test)[2])
        importances.append((name, float(np.mean(drops))))
    importances.sort(key=lambda item: (-item[1], item[0]))
    return importances


def write_threshold_csv(path, rows: list[ThresholdRow]) -> None:
    write_csv(path, [["target", "tau", "f1", "precision", "recall", "unknown_fraction"]] + [
        [r.target, f"{r.tau:.2f}", f"{r.f1:.4f}", f"{r.precision:.4f}",
         f"{r.recall:.4f}", f"{r.unknown_fraction:.4f}"]
        if r.reachable else [r.target, "unreachable", "", "", "", ""]
        for r in rows
    ])


def write_follow_shares_csv(path, rows: list[tuple[str, float, float]]) -> None:
    write_csv(path, [["account", "left_pct", "right_pct"]] + [
        [account, f"{left_pct:.1f}", f"{right_pct:.1f}"] for account, left_pct, right_pct in rows
    ])
