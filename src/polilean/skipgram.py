"""Skip-gram word embedding trained with negative sampling.

Single-threaded mini-batch SGD, deterministic for a fixed seed. The
(centre, context) pairs are visited by sentence, then by centre, then by
context position, and cut into batches of BATCH_PAIRS consecutive pairs.
Every pair of a batch takes its gradients against the vectors as they
stood at the start of the batch, and a row's updates within the batch
are summed; with a batch of one pair this is per-pair SGD. Negative
samples are drawn from the unigram distribution raised to the 3/4
power: one search of its CDF per batch, which gives the draws that one
Generator.choice(p=...) call per pair would.
"""

import logging
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Pairs per SGD step. Larger batches update from staler vectors: at 2,048
# fewer of the exact trainer's seed expansions survived, so this is fixed
# in code rather than configurable.
BATCH_PAIRS = 256
# Tokens per block of whole sentences whose pairs are built at once.
_BLOCK_TOKENS = 4096


@dataclass(frozen=True)
class Embedding:
    vocab: tuple[str, ...]
    vectors: np.ndarray  # input vectors, |vocab| x dim

    def __getitem__(self, token: str) -> np.ndarray:
        return self.vectors[self.vocab.index(token)]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def pair_loss_and_grads(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Negative-sampling loss for one (center, context, negatives) triple
    and its gradients w.r.t. each vector.

    loss = -log s(c.o) - sum_n log s(-c.n)
    """
    pos = _sigmoid(center @ context)
    neg = _sigmoid(negatives @ center)
    loss = -np.log(pos) - np.log(1.0 - neg).sum()
    grad_center = (pos - 1.0) * context + neg @ negatives
    grad_context = (pos - 1.0) * center
    grad_negatives = neg[:, None] * center[None, :]
    return float(loss), grad_center, grad_context, grad_negatives


def batch_update(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    neg_ids: np.ndarray,
    lr: float,
) -> float:
    """One SGD step on a batch of (centre, context, negatives) triples,
    in place. Every gradient is taken against the vectors at the start
    of the batch, and a row that several triples touch gets the sum of
    their updates. Returns the batch's loss (see pair_loss_and_grads)."""
    n, k = neg_ids.shape
    rows = np.concatenate([contexts[:, None], neg_ids], axis=1)  # context, then negatives
    v_c = w_in[centers]
    scores = _sigmoid(np.einsum("bkd,bd->bk", w_out[rows], v_c))
    loss = -np.log(scores[:, 0]).sum() - np.log(1.0 - scores[:, 1:]).sum()
    scores[:, 0] -= 1.0  # d loss / d (centre . row): s - 1 for the context, s for a negative
    # Column b holds triple b's rows of w_out, weighted by lr times the
    # score derivative; a row that repeats adds up in the products.
    onehot = sp.csc_matrix(
        (lr * scores.ravel(), rows.ravel(), np.arange(0, n * (k + 1) + 1, k + 1)),
        shape=(len(w_out), n),
    )
    grad_c = onehot.T @ w_out  # lr * d loss / d centre, one row per triple
    w_out -= onehot @ v_c
    w_in -= sp.csc_matrix(
        (np.ones(n), centers, np.arange(n + 1)), shape=(len(w_in), n)
    ) @ grad_c
    return float(loss)


def _pair_blocks(ids: np.ndarray, lengths: np.ndarray, window: int):
    """(centre, context) id pairs of sentences laid end to end in ids,
    by sentence, then by centre, then by context position; yielded in
    blocks of whole sentences so that no epoch's pairs are held at once."""
    offsets = np.array([d for d in range(-window, window + 1) if d != 0], dtype=np.intp)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    first = 0
    while first < len(lengths):
        stop = np.searchsorted(ends, starts[first] + _BLOCK_TOKENS, side="right")
        last = max(first + 1, int(stop))
        lo, hi = starts[first:last], ends[first:last]
        ctx_pos = np.arange(lo[0], hi[-1])[:, None] + offsets
        sent_lo, sent_hi = np.repeat(lo, hi - lo)[:, None], np.repeat(hi, hi - lo)[:, None]
        valid = (ctx_pos >= sent_lo) & (ctx_pos < sent_hi)
        yield np.repeat(ids[lo[0] : hi[-1]], valid.sum(axis=1)), ids[ctx_pos[valid]]
        first = last


def _batches(blocks, size: int):
    """Consecutive runs of `size` pairs across blocks; the last may be short."""
    centers = contexts = np.empty(0, dtype=np.intp)
    for block_centers, block_contexts in blocks:
        centers = np.concatenate([centers, block_centers])
        contexts = np.concatenate([contexts, block_contexts])
        full = len(centers) - len(centers) % size
        for i in range(0, full, size):
            yield centers[i : i + size], contexts[i : i + size]
        centers, contexts = centers[full:], contexts[full:]
    if len(centers):
        yield centers, contexts


def train_skipgram(
    corpus: Sequence[Sequence[str]],
    window: int = 5,
    min_freq: int = 100,
    dim: int = 100,
    negatives: int = 5,
    epochs: int = 5,
    lr: float = 0.025,
    seed: int = 0,
) -> Embedding:
    """Train on tokenized sentences (tweets); tokens below min_freq are
    ignored entirely."""
    freq = Counter(t for sent in corpus for t in sent)
    vocab = tuple(sorted(w for w, n in freq.items() if n >= min_freq))
    if not vocab:
        raise ValueError(f"no token reaches min_freq={min_freq}")
    index = {w: i for i, w in enumerate(vocab)}

    counts = np.array([freq[w] for w in vocab], dtype=np.float64)
    noise = counts**0.75
    noise /= noise.sum()
    # Generator.choice(p=noise) searches this CDF with one uniform draw
    # per sample, so one search per batch gives the same negatives.
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))

    # in-vocabulary ids of the sentences that keep at least two, end to end
    lengths = np.fromiter((sum(t in index for t in sent) for sent in corpus), dtype=np.intp)
    kept = (sent for sent, n in zip(corpus, lengths.tolist()) if n >= 2)
    ids = np.fromiter((index[t] for sent in kept for t in sent if t in index), dtype=np.intp)
    lengths = lengths[lengths >= 2]

    for epoch in range(epochs):
        total_loss = 0.0
        for centers, contexts in _batches(_pair_blocks(ids, lengths, window), BATCH_PAIRS):
            neg_ids = cdf.searchsorted(
                rng.random(len(centers) * negatives), side="right"
            ).reshape(len(centers), negatives)
            total_loss += batch_update(w_in, w_out, centers, contexts, neg_ids, lr)
        logger.debug("epoch %d loss %.4f", epoch, total_loss)

    return Embedding(vocab, w_in)
