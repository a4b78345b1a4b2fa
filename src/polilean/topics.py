"""Anchor-word topic model over a sparse DFM.

Pipeline: word co-occurrence matrix -> greedy anchor selection on the
row-normalized matrix -> simplex-constrained least squares for every
word, solved exactly in one batch, to recover the topic-word matrix
beta -> per-document topic proportions by EM folding-in. Word rankings
(FREX / LIFT / Score) and a per-topic prevalence regression against the
Left/Right label round things out.
"""

import csv
import json
import logging
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .resources import FileFormatError, fields, parsing, write_csv, write_json
from .textprep import SparseDFM

logger = logging.getLogger(__name__)

EPS = 1e-10

ZERO = 1e-12  # a KKT violation below this share of a row's gradient scale is rounding

# a word must occur in at least this many documents to be an anchor
ANCHOR_DOC_FLOOR = 2


@dataclass(frozen=True)
class TopicModel:
    beta: np.ndarray  # K x V, rows sum to 1
    anchors: tuple[int, ...]
    vocab: tuple[str, ...]
    word_prob: np.ndarray  # corpus word distribution, length V

    @property
    def k(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class PrevalenceEffect:
    topic: int
    estimate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class WordScores:
    frex: np.ndarray  # K x V
    lift: np.ndarray
    score: np.ndarray
    vocab: tuple[str, ...]


def cooccurrence(dfm: SparseDFM) -> np.ndarray:
    """Average normalized outer product of document count vectors.

    Each document d with counts h and n = sum(h) >= 2 contributes
    (h h^T - diag(h)) / (n (n - 1)); diagonal subtraction removes
    self-pairs so Q is the distribution of ordered token pairs.
    """
    h = dfm.matrix.tocsr()
    n = np.asarray(h.sum(axis=1)).ravel()
    keep = n >= 2
    if not np.all(keep):
        logger.warning("skipping %d documents with fewer than 2 tokens", int((~keep).sum()))
        h = h[keep]
        n = n[keep]
    if h.shape[0] == 0:
        raise ValueError("no documents with at least 2 feature tokens")
    w = 1.0 / (n * (n - 1.0))
    weighted = sp.diags(w) @ h
    q = np.asarray((weighted.T @ h).todense())
    q[np.diag_indices_from(q)] -= np.asarray(weighted.sum(axis=0)).ravel()
    q /= h.shape[0]
    return q


def row_normalize(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (row-normalized Q, row sums). Zero rows stay zero."""
    sums = q.sum(axis=1)
    safe = np.where(sums > 0, sums, 1.0)
    return q / safe[:, None], sums


def find_anchors(
    q_row: np.ndarray, k: int, candidates: Sequence[int] | None = None
) -> list[int]:
    """Greedy farthest-point anchor selection with Gram-Schmidt.

    The first anchor is the row of maximum norm; each subsequent anchor
    maximizes the residual norm after projecting out the span of the
    rows already chosen.
    """
    v = q_row.shape[0]
    if candidates is None:
        candidates = np.arange(v)
    else:
        candidates = np.asarray(list(candidates), dtype=np.intp)
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds {len(candidates)} anchor candidates")

    rows = q_row[candidates].astype(np.float64, copy=True)
    residual_sq = (rows * rows).sum(axis=1)
    anchors: list[int] = []
    for step in range(k):
        best = int(np.argmax(residual_sq))
        if residual_sq[best] <= 1e-12:
            raise ValueError(
                f"rank deficiency after {step} anchors; use a smaller topic count"
            )
        anchors.append(int(candidates[best]))
        direction = rows[best].copy()
        norm = np.linalg.norm(direction)
        direction /= norm
        # project the new direction out of every candidate row
        coef = rows @ direction
        rows -= coef[:, None] * direction[None, :]
        residual_sq = (rows * rows).sum(axis=1)
    return anchors


def _simplex_lsq(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The exact argmin of ||x_i - c_i @ a||^2 over the probability simplex
    for every row x_i of x, by a primal active-set (Lawson-Hanson) method
    run on all rows at once from each row's best vertex.

    Each step solves every moving row's KKT system on its free set, with
    identity rows pinning the other coordinates at zero, in one batched
    solve. A row blocked by a negative coordinate steps until one reaches
    zero and drops it; a row whose solution is feasible takes it and adds
    its most violated coordinate, or ends. It terminates: a row drops
    coordinates at most k steps running, and the objective where it takes
    a solution depends only on the free set and must fall each time, or
    the row ends.
    """
    n, k = x.shape[0], a.shape[0]
    gram = a @ a.T
    b = x @ a.T
    scale = np.abs(gram).max() + np.abs(b).max(axis=1)
    c = np.eye(k)[np.argmin(np.diag(gram) - 2.0 * b, axis=1)]
    free = c > 0
    last = np.full(n, np.inf)  # objective where each row last took its solution
    rows, z = np.arange(n), c.copy()
    while rows.size:
        out = free[rows] & (z < 0)
        blocked = out.any(axis=1)
        m = rows[blocked]
        cm, zm, om = c[m], z[blocked], out[blocked]
        ratio = np.where(om, cm, np.inf) / np.where(om, cm - zm, 1.0)
        alpha = ratio.min(axis=1, keepdims=True)
        c[m] = np.where(ratio > alpha, np.maximum(cm + alpha * (zm - cm), 0.0), 0.0)
        free[m] &= c[m] > 0
        p = rows[~blocked]
        c[p] = z[~blocked]
        grad = c[p] @ gram - b[p]
        obj = np.einsum("nk,nk->n", grad - b[p], c[p])
        price = np.where(free[p], np.inf, grad)
        j = price.argmin(axis=1)
        floor = np.where(free[p], grad, np.inf).min(axis=1) - ZERO * scale[p]
        add = (price[np.arange(p.size), j] < floor) & (obj < last[p])
        last[p] = obj
        free[p[add], j[add]] = True
        rows = np.union1d(m, p[add])
        f = free[rows]
        kkt = np.zeros((rows.size, k + 1, k + 1))
        kkt[:, :k, :k] = np.where(f[:, :, None] & f[:, None, :], gram, np.eye(k))
        kkt[:, :k, k] = kkt[:, k, :k] = f
        rhs = np.append(np.where(f, b[rows], 0.0), np.ones((rows.size, 1)), axis=1)
        z = np.where(f, np.linalg.solve(kkt, rhs[..., None])[:, :k, 0], 0.0)
    return c


def recover_beta(
    q_row: np.ndarray, anchors: Sequence[int], word_prob: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Topic-word matrix from anchor rows.

    Each word's normalized co-occurrence row is expressed as the convex
    combination c_v of the anchor rows nearest it (c_{v,k} = p(topic k |
    word v)), solved exactly for all words in one batch; an anchor word
    is its own nearest vertex. The Bayes flip beta_{k,v} proportional to
    c_{v,k} * p(word v) then yields row-stochastic beta. Returns (beta,
    per-word residual norms).
    """
    a = q_row[list(anchors)]
    coef = _simplex_lsq(q_row, a)
    residuals = np.linalg.norm(q_row - coef @ a, axis=1)
    worst = residuals.max(initial=0.0)
    if worst > 0.5:
        logger.warning("beta recovery residual norm up to %.4f", worst)
    beta = (coef * word_prob[:, None]).T
    row_sums = beta.sum(axis=1, keepdims=True)
    beta /= np.where(row_sums > 0, row_sums, 1.0)
    return beta, residuals


def infer_theta(counts, beta: np.ndarray, max_iter: int = 200) -> np.ndarray:
    """Topic proportions of documents by EM folding-in.

    Rows of the 2-D `counts` (sparse or dense) are documents aligned to
    beta's vocabulary. Each row is updated on its own for exactly
    max_iter steps, so a document's proportions do not depend on the
    other rows. Any all-zero row (out-of-vocabulary document) gets
    uniform proportions.
    """
    h = np.asarray(counts.todense() if sp.issparse(counts) else counts, dtype=np.float64)
    theta = np.full((h.shape[0], beta.shape[0]), 1.0 / beta.shape[0])
    empty = h.sum(axis=1) == 0
    if empty.any():
        logger.debug("%d documents have no in-vocabulary tokens; uniform theta", int(empty.sum()))
    active = ~empty
    if active.any():
        ha = h[active]
        ta = theta[active]
        for _ in range(max_iter):
            p = ta @ beta
            np.clip(p, 1e-300, None, out=p)
            ta *= (ha / p) @ beta.T
            ta /= ta.sum(axis=1, keepdims=True)
        theta[active] = ta
    return theta


def fold_in(dfm: SparseDFM, model: TopicModel) -> np.ndarray:
    """Theta for a DFM whose columns are the model vocabulary, in order
    (a training DFM, or new users projected with
    newsstudy.project_features)."""
    if tuple(dfm.col_ids) != tuple(model.vocab):
        raise ValueError("DFM columns are not the topic model's vocabulary")
    return infer_theta(dfm.matrix, model.beta)


def fit_topic_model(dfm: SparseDFM, k: int) -> TopicModel:
    """End-to-end spectral fit on a trimmed DFM."""
    q = cooccurrence(dfm)
    q_row, row_sums = row_normalize(q)
    word_prob = q.sum(axis=1)
    doc_freq = np.asarray((dfm.matrix != 0).sum(axis=0)).ravel()
    candidates = np.flatnonzero((doc_freq >= ANCHOR_DOC_FLOOR) & (row_sums > 0))
    if len(candidates) == 0:
        raise ValueError("no anchor candidates above the document-frequency floor")
    anchors = find_anchors(q_row, k, candidates)
    beta, _ = recover_beta(q_row, anchors, word_prob)
    return TopicModel(beta, tuple(anchors), tuple(dfm.col_ids), word_prob)


def _ecdf_rows(values: np.ndarray) -> np.ndarray:
    """Per-row empirical CDF value of each entry (proportion <= entry)."""
    k, v = values.shape
    out = np.empty_like(values, dtype=np.float64)
    for i in range(k):
        order = np.sort(values[i])
        out[i] = np.searchsorted(order, values[i], side="right") / v
    return out


def word_scores(beta: np.ndarray, vocab: Sequence[str], frex_weight: float = 0.7) -> WordScores:
    """FREX, LIFT and Score tables for every (topic, word) pair.

    FREX is the weighted harmonic mean of the within-topic ECDFs of
    exclusivity and frequency; LIFT divides a word's topic probability
    by its mean probability in the other topics; Score is the analogous
    log difference.
    """
    k, v = beta.shape
    if k < 2:
        raise ValueError("word scores need at least 2 topics")
    col_sums = beta.sum(axis=0)
    exclusivity = beta / (col_sums + EPS)
    ecdf_excl = _ecdf_rows(exclusivity)
    ecdf_freq = _ecdf_rows(beta)
    frex = 1.0 / (frex_weight / (ecdf_excl + EPS) + (1.0 - frex_weight) / (ecdf_freq + EPS))
    other_mean = (col_sums[None, :] - beta) / (k - 1)
    lift = beta / (other_mean + EPS)
    log_beta = np.log(beta + EPS)
    score = log_beta - (log_beta.sum(axis=0)[None, :] - log_beta) / (k - 1)
    return WordScores(frex, lift, score, tuple(vocab))


def top_words(
    scores: WordScores, topic: int, n_each: int = 10, n_out: int = 15
) -> list[str]:
    """Top-ranked words of a topic: best n_each by FREX, then LIFT, then
    Score, deduplicated in order, truncated to n_out."""
    merged: list[str] = []
    seen: set[str] = set()
    for table in (scores.frex, scores.lift, scores.score):
        # stable argsort on the negated row; ties fall back to column
        # order, which is lexicographic for DFM-derived vocabularies
        order = np.argsort(-table[topic], kind="stable")[:n_each]
        for j in order:
            word = scores.vocab[j]
            if word not in seen:
                seen.add(word)
                merged.append(word)
    if len(merged) < n_out:
        logger.warning("topic %d has only %d distinct ranked words", topic, len(merged))
    return merged[:n_out]


def prevalence_regression(
    theta: np.ndarray, labels: Sequence[str]
) -> list[PrevalenceEffect]:
    """Per-topic OLS of theta on a Right indicator with 95% CI."""
    y_right = np.array([1.0 if lab == "Right" else 0.0 for lab in labels])
    n = len(y_right)
    n_right = int(y_right.sum())
    n_left = n - n_right
    if n_right == 0 or n_left == 0:
        raise ValueError("prevalence regression needs both classes present")
    x = y_right
    x_centered = x - x.mean()
    sxx = float(x_centered @ x_centered)  # = n_left * n_right / n
    effects = []
    for topic in range(theta.shape[1]):
        t = theta[:, topic]
        slope = float(x_centered @ t) / sxx
        intercept = float(t.mean() - slope * x.mean())
        resid = t - intercept - slope * x
        dof = max(n - 2, 1)
        s2 = float(resid @ resid) / dof
        se = float(np.sqrt(s2 / sxx))
        if se == 0.0:
            logger.warning("topic %d: zero residual variance, degenerate CI", topic)
        effects.append(
            PrevalenceEffect(topic, slope, slope - 1.96 * se, slope + 1.96 * se)
        )
    return effects


def save_topic_model(model: TopicModel, header_path, beta_path) -> None:
    write_json(header_path, {
        "format": "topic-model/1",
        "k": model.k,
        "anchors": list(model.anchors),
        "vocab": list(model.vocab),
        "word_prob": [repr(float(p)) for p in model.word_prob],
    })
    write_csv(beta_path, ([repr(float(x)) for x in row] for row in model.beta))


def load_topic_model(header_path, beta_path) -> TopicModel:
    with open(header_path) as fh, parsing(header_path, "JSON"):
        header = json.load(fh)
    with open(beta_path, newline="") as fh, parsing(beta_path, "CSV of numbers"):
        beta = np.array([[float(x) for x in row] for row in csv.reader(fh)])
    with fields(header_path):
        model = TopicModel(
            beta,
            tuple(header["anchors"]),
            tuple(header["vocab"]),
            np.array([float(p) for p in header["word_prob"]]),
        )
    if beta.ndim != 2 or beta.shape[1] != len(model.vocab):
        raise FileFormatError(f"{os.path.basename(beta_path)} must have one column "
                              f"per vocabulary word ({len(model.vocab)})")
    return model


def write_theta_csv(path, row_ids: Sequence[str], theta: np.ndarray) -> None:
    write_csv(path, [["user_id"] + [f"theta_{k}" for k in range(theta.shape[1])]] + [
        [user] + [repr(float(x)) for x in row] for user, row in zip(row_ids, theta)
    ])


def write_top_words_csv(path, scores: WordScores, k: int) -> None:
    write_csv(path, [["topic", "rank", "word"]] + [
        [topic, rank, word]
        for topic in range(k) for rank, word in enumerate(top_words(scores, topic), start=1)
    ])
