"""Skip-gram embedding: gradient correctness and training behavior."""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import polilean
from polilean import skipgram
from polilean.skipgram import Embedding, batch_update, pair_loss_and_grads, train_skipgram


def _fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


class TestPairGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            center = rng.normal(size=8)
            context = rng.normal(size=8)
            negatives = rng.normal(size=(4, 8))

            loss, g_c, g_o, g_n = pair_loss_and_grads(center, context, negatives)

            fd_c = _fd_grad(lambda: pair_loss_and_grads(center, context, negatives)[0], center)
            fd_o = _fd_grad(lambda: pair_loss_and_grads(center, context, negatives)[0], context)
            fd_n = _fd_grad(lambda: pair_loss_and_grads(center, context, negatives)[0], negatives)

            np.testing.assert_allclose(g_c, fd_c, atol=1e-6)
            np.testing.assert_allclose(g_o, fd_o, atol=1e-6)
            np.testing.assert_allclose(g_n, fd_n, atol=1e-6)

    def test_loss_is_positive_and_finite(self):
        rng = np.random.default_rng(0)
        loss, *_ = pair_loss_and_grads(
            rng.normal(size=5), rng.normal(size=5), rng.normal(size=(3, 5))
        )
        assert np.isfinite(loss) and loss > 0

    def test_perfect_pair_has_small_loss(self):
        # strongly aligned positive, strongly anti-aligned negatives
        center = np.array([5.0, 0.0])
        context = np.array([5.0, 0.0])
        negatives = np.array([[-5.0, 0.0]])
        loss, *_ = pair_loss_and_grads(center, context, negatives)
        assert loss < 0.01


class TestTraining:
    def _corpus(self, n=300):
        # "london" and "paris" appear in interchangeable contexts;
        # "pizza" lives in a different context entirely
        corpus = []
        for i in range(n):
            city = "london" if i % 2 else "paris"
            corpus.append(["visit", city, "capital"])
            corpus.append(["eat", "pizza", "dinner"])
        return corpus

    def test_interchangeable_words_end_up_close(self):
        emb = train_skipgram(self._corpus(), window=2, min_freq=5, dim=16,
                             negatives=3, epochs=3, seed=1)

        def cosine(a, b):
            va, vb = emb[a], emb[b]
            return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

        assert cosine("london", "paris") > cosine("london", "pizza")

    def test_vocabulary_threshold(self):
        corpus = [["common", "common", "rare"]] * 10  # common 20, rare 10
        emb = train_skipgram(corpus, min_freq=15, dim=4, epochs=1, seed=0)
        assert emb.vocab == ("common",)
        with pytest.raises(ValueError, match="min_freq"):
            train_skipgram(corpus, min_freq=100, dim=4, epochs=1, seed=0)

    def test_deterministic_for_fixed_seed(self):
        corpus = self._corpus(50)
        a = train_skipgram(corpus, window=2, min_freq=5, dim=8, epochs=1, seed=7)
        b = train_skipgram(corpus, window=2, min_freq=5, dim=8, epochs=1, seed=7)
        assert a.vocab == b.vocab
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_vector_lookup(self):
        emb = Embedding(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(emb["b"], [3.0, 4.0])


def _per_pair_train_skipgram(corpus, window, min_freq, dim, negatives, epochs, lr, seed):
    """Per-pair SGD, kept as the oracle: one Generator.choice(p=noise)
    and one np.subtract.at per pair. Returns the vectors and the number
    of pairs that drew a repeated negative id."""
    freq = Counter(t for sent in corpus for t in sent)
    vocab = tuple(sorted(w for w, n in freq.items() if n >= min_freq))
    index = {w: i for i, w in enumerate(vocab)}
    counts = np.array([freq[w] for w in vocab], dtype=np.float64)
    noise = counts**0.75
    noise /= noise.sum()
    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    sentences = [
        np.array([index[t] for t in sent if t in index], dtype=np.intp) for sent in corpus
    ]
    sentences = [s for s in sentences if len(s) >= 2]
    repeated = 0
    for _ in range(epochs):
        for sent in sentences:
            for pos, center_id in enumerate(sent):
                lo = max(0, pos - window)
                hi = min(len(sent), pos + window + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    ctx_id = sent[ctx_pos]
                    neg_ids = rng.choice(len(vocab), size=negatives, p=noise)
                    repeated += len(set(neg_ids.tolist())) < negatives
                    _, g_c, g_o, g_n = pair_loss_and_grads(
                        w_in[center_id], w_out[ctx_id], w_out[neg_ids]
                    )
                    w_in[center_id] -= lr * g_c
                    w_out[ctx_id] -= lr * g_o
                    np.subtract.at(w_out, neg_ids, lr * g_n)
    return w_in, repeated


def _random_corpus(seed, vocab_size, n_sentences=60, max_len=6):
    """Random sentences over a few frequent words plus rare ones below
    the frequency floor, so some sentences keep fewer than two tokens."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab_size)]
    rare = [f"rare{i}" for i in range(40)]
    corpus = []
    for _ in range(n_sentences):
        n = int(rng.integers(0, max_len + 1))
        corpus.append(
            [rare[rng.integers(len(rare))] if rng.random() < 0.2 else words[rng.integers(vocab_size)]
             for _ in range(n)]
        )
    return corpus


class TestAgreesWithPerPairTrainer:
    CONFIGS = [
        # (corpus seed, frequent words, window, dim, negatives, epochs);
        # the vocabularies hold 4-14 words, so negative ids repeat often
        (0, 3, 1, 4, 5, 1),
        (1, 5, 8, 6, 3, 2),  # window longer than every sentence (at most 6)
        (2, 12, 2, 8, 4, 2),
        (3, 2, 3, 3, 1, 1),  # one negative: no repeats
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_batch_of_one_pair_agrees(self, config, monkeypatch):
        corpus_seed, vocab_size, window, dim, negatives, epochs = config
        corpus = _random_corpus(corpus_seed, vocab_size)
        kw = dict(window=window, min_freq=3, dim=dim, negatives=negatives,
                  epochs=epochs, lr=0.05, seed=corpus_seed)
        expected, repeated = _per_pair_train_skipgram(corpus, **kw)
        monkeypatch.setattr(skipgram, "BATCH_PAIRS", 1)
        emb = train_skipgram(corpus, **kw)
        np.testing.assert_allclose(emb.vectors, expected, rtol=0, atol=1e-12)
        in_vocab = [[t for t in s if t in emb.vocab] for s in corpus]
        assert any(len(s) < 2 for s in in_vocab) and any(len(s) >= 2 for s in in_vocab)
        # with more than one negative, some pairs drew a repeated negative id
        assert (repeated > 0) == (negatives > 1)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_batches_do_not_depend_on_pair_blocks(self, config, monkeypatch):
        # blocks of a few tokens cut the pairs of one batch across many
        # blocks; the batches, and so the vectors, stay the same
        corpus_seed, vocab_size, window, dim, negatives, epochs = config
        corpus = _random_corpus(corpus_seed, vocab_size)
        kw = dict(window=window, min_freq=3, dim=dim, negatives=negatives,
                  epochs=epochs, lr=0.05, seed=corpus_seed)
        monkeypatch.setattr(skipgram, "BATCH_PAIRS", 7)
        whole = train_skipgram(corpus, **kw)
        monkeypatch.setattr(skipgram, "_BLOCK_TOKENS", 3)
        np.testing.assert_array_equal(train_skipgram(corpus, **kw).vectors, whole.vectors)


class TestBatchUpdate:
    def test_repeated_rows_receive_the_sum_of_their_gradients(self):
        rng = np.random.default_rng(5)
        w_in = rng.normal(size=(3, 4))
        w_out = rng.normal(size=(5, 4))
        # w_in row 0 is the centre of two triples; w_out row 2 is the
        # first triple's context and twice the second's negative, and row 4
        # is the third triple's context and a negative of the first and third
        centers = np.array([0, 0, 1])
        contexts = np.array([2, 3, 4])
        neg_ids = np.array([[4, 1], [2, 2], [4, 0]])
        lr = 0.1
        expected_in, expected_out, expected_loss = w_in.copy(), w_out.copy(), 0.0
        for c, o, negs in zip(centers, contexts, neg_ids):
            loss, g_c, g_o, g_n = pair_loss_and_grads(w_in[c], w_out[o], w_out[negs])
            expected_loss += loss
            expected_in[c] -= lr * g_c
            expected_out[o] -= lr * g_o
            for j, g in zip(negs, g_n):
                expected_out[j] -= lr * g

        loss = batch_update(w_in, w_out, centers, contexts, neg_ids, lr)

        np.testing.assert_allclose(w_in, expected_in, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w_out, expected_out, rtol=0, atol=1e-14)
        assert loss == pytest.approx(expected_loss, rel=1e-14)


_HASH_SEED_RUN = """
from polilean.skipgram import train_skipgram
words = [f"w{i}" for i in range(12)]
corpus = [[words[(i * 7 + j * j) % 12] for j in range(i % 5 + 1)] for i in range(200)]
emb = train_skipgram(corpus, window=2, min_freq=5, dim=6, negatives=3, epochs=2, seed=4)
print(repr(emb.vocab))
print(emb.vectors.tobytes().hex())
"""


def test_vectors_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(polilean.__file__)))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _HASH_SEED_RUN], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("('w0', ")
