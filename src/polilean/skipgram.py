"""Skip-gram word embedding trained with negative sampling.

Single-threaded SGD, deterministic for a fixed seed. Negative samples
are drawn from the unigram distribution raised to the 3/4 power: one
search of its CDF per sentence, which gives the draws and the generator
state that one Generator.choice(p=...) call per (centre, context) pair
would. Pairs are then updated one at a time, in order.
"""

import logging
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


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
    # per sample, so one search per sentence gives the same negatives.
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))

    sentences = [
        np.array([index[t] for t in sent if t in index], dtype=np.intp)
        for sent in corpus
    ]
    sentences = [s for s in sentences if len(s) >= 2]
    offsets = np.array([d for d in range(-window, window + 1) if d != 0], dtype=np.intp)

    for epoch in range(epochs):
        total_loss = 0.0
        for sent in sentences:
            # (centre, context) pairs by centre, then by context position
            ctx_pos = np.arange(len(sent))[:, None] + offsets
            valid = (ctx_pos >= 0) & (ctx_pos < len(sent))
            centers = np.repeat(sent, valid.sum(axis=1))
            contexts = sent[ctx_pos[valid]]
            neg_ids = cdf.searchsorted(
                rng.random(len(centers) * negatives), side="right"
            ).reshape(len(centers), negatives)
            ordered = np.sort(neg_ids, axis=1)
            repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            for center_id, ctx_id, negs, dup in zip(
                centers.tolist(), contexts.tolist(), neg_ids, repeated.tolist()
            ):
                loss, g_c, g_o, g_n = pair_loss_and_grads(
                    w_in[center_id], w_out[ctx_id], w_out[negs]
                )
                total_loss += loss
                w_in[center_id] -= lr * g_c
                w_out[ctx_id] -= lr * g_o
                if dup:
                    # a repeated negative id must accumulate both updates
                    np.subtract.at(w_out, negs, lr * g_n)
                else:
                    w_out[negs] -= lr * g_n
        logger.debug("epoch %d loss %.4f", epoch, total_loss)

    return Embedding(vocab, w_in)
