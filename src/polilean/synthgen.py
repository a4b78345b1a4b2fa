"""Deterministic synthetic corpora with planted ground truth.

Every pipeline stage gets an oracle: users carry Left/Right labels tied
to Dirichlet topic priors, documents are sampled from a planted
separable topic-word matrix (one anchor word per topic), a political
sub-vocabulary fires preferentially inside election windows, and the
friend graph follows class hubs with configurable homophily.

Random-stream contract of ``generate``: the files are a function of the
spec alone, and the golden digests in ``tests/test_synthgen.py`` pin
their bytes.  ``SeedSequence(seed).spawn(4)`` gives four streams:

0. global: β (``make_beta``), then the Right users (one permutation);
1. tweets: one child seed per user, spawned in user order;
2. follows: one child seed per user, spawned in user order;
3. VAA scores: one ``uniform(5, 45)`` per user, in user order.

A user's tweet stream draws θ (``dirichlet``), the tweet count, then per
tweet, in this order:

- ``random()`` for in- or out-of-window; in a window, ``integers`` for
  the window and then for the second; out of the windows, ``integers``
  for the second, redrawn while it falls in a window, at most 16 times;
- ``integers`` for the token count n;
- n doubles for the tokens' topics, then n for their words (one
  ``random(2 n)`` call yields exactly those two ``random(n)`` calls);
- ``random()`` against the political rate and, below it, ``integers``
  for the political token.

``integers`` over a range below 2**32 draws 32-bit halves of 64-bit
outputs and keeps a spare half for its next call, while ``random`` takes
whole outputs, so the per-tweet draws cannot be batched across tweets
without changing the stream.  Only consecutive ``random`` calls may
merge.  The lookups that turn doubles into topics and words
(``searchsorted`` on the cumulative θ and β rows) use no randomness and
run once per user.  A user's follows are one ``random`` call with a
double per own-class hub, other-class hub and noise account, in that
order.
"""

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
import scipy.sparse as sp

from . import resources
from .porter import stem
from .textprep import SparseDFM


@dataclass(frozen=True)
class SynthSpec:
    n_users: int = 800
    class_ratio: float = 0.5  # fraction of Right users
    k_topics: int = 10
    vocab_size: int = 2000
    class_topic_shift: float = 0.3  # delta
    political_lexicon_fraction: float = 0.01
    network_homophily: float = 0.8  # h
    tweets_per_user: tuple[int, int] = (120, 200)
    seed: int = 0
    # secondary knobs
    tokens_per_tweet: tuple[int, int] = (8, 12)
    dirichlet_concentration: float = 30.0
    anchor_mass: float = 0.08
    hubs_per_class: int = 20
    noise_accounts: int = 15
    follow_base: float = 0.5
    in_window_fraction: float = 0.3
    political_rate_in: float = 0.5
    political_rate_out: float = 0.05

    def validate(self) -> None:
        if not 0.0 <= self.class_topic_shift <= 1.0:
            raise ValueError("class_topic_shift must be in [0, 1]")
        if not 0.5 <= self.network_homophily <= 1.0:
            raise ValueError("network_homophily must be in [0.5, 1]")
        if not 0.0 < self.class_ratio < 1.0:
            raise ValueError("class_ratio must be in (0, 1)")
        if self.k_topics < 2 or self.k_topics > self.vocab_size:
            raise ValueError("need 2 <= k_topics <= vocab_size")
        if self.tweets_per_user[0] > self.tweets_per_user[1]:
            raise ValueError("tweets_per_user range is inverted")


@dataclass
class SynthResult:
    tweets_path: str
    friends_path: str
    vaa_path: str
    truth_path: str
    labels: dict[str, str]
    beta: np.ndarray
    vocab: list[str]
    political_tokens: list[str]
    theta: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


_LETTERS = "bcdfghjkmnpqrtvwxz"  # no vowels: immune to stemming rules


def synthetic_vocabulary(size: int) -> list[str]:
    """Deterministic stem-fixed, non-stopword tokens."""
    stopwords = resources.smart_stopwords()
    out: list[str] = []
    length = 3
    while len(out) < size:
        for combo in _product_strings(length):
            if len(out) >= size:
                break
            if combo in stopwords or stem(combo) != combo:
                continue
            out.append(combo)
        length += 1
    return out


def _product_strings(length: int):
    if length == 1:
        yield from _LETTERS
        return
    for prefix in _product_strings(length - 1):
        for ch in _LETTERS:
            yield prefix + ch


def make_beta(k: int, v: int, anchor_mass: float, rng: np.random.Generator) -> np.ndarray:
    """Planted row-stochastic topic-word matrix with exact separability:
    word i is the anchor of topic i and has zero mass elsewhere."""
    beta = np.zeros((k, v))
    weights = rng.gamma(0.5, size=(k, v - k))
    weights /= weights.sum(axis=1, keepdims=True)
    beta[:, k:] = (1.0 - anchor_mass) * weights
    beta[np.arange(k), np.arange(k)] = anchor_mass
    return beta


def class_mixtures(k: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Topic priors: Left prefers the first half of topics, Right the
    second, each by a delta-weighted shift away from uniform."""
    uniform = np.full(k, 1.0 / k)
    half = k // 2
    left = uniform * (1.0 - delta)
    left[:half] += delta / half
    right = uniform * (1.0 - delta)
    right[half:] += delta / (k - half)
    return left, right


def planted_dfm(
    n_docs: int,
    k: int,
    v: int,
    doc_length: int = 300,
    delta: float = 0.0,
    anchor_mass: float = 0.08,
    concentration: float = 30.0,
    seed: int = 0,
) -> tuple[SparseDFM, np.ndarray, np.ndarray, list[str]]:
    """Sample a count matrix straight from a planted model (no text
    round-trip); returns (dfm, beta, theta, labels)."""
    rng = np.random.default_rng(seed)
    beta = make_beta(k, v, anchor_mass, rng)
    left_mix, right_mix = class_mixtures(k, delta)
    labels = ["Right" if i % 2 else "Left" for i in range(n_docs)]
    theta = np.vstack(
        [
            rng.dirichlet(concentration * (right_mix if lab == "Right" else left_mix))
            for lab in labels
        ]
    )
    word_probs = theta @ beta
    counts = np.vstack([rng.multinomial(doc_length, p) for p in word_probs])
    vocab = synthetic_vocabulary(v)
    dfm = SparseDFM(
        sp.csr_matrix(counts.astype(np.float64)),
        tuple(f"u{i:05d}" for i in range(n_docs)),
        tuple(vocab),
        "text",
    )
    return dfm, beta, theta, labels


_JSON = json.JSONEncoder(sort_keys=True)  # what json.dumps(..., sort_keys=True) builds per call


def _timeline(rng, uid, n_tweets, spec, periods, base, cum_theta, cum_beta, vocab,
              political_tokens) -> list[dict]:
    """One user's tweets, drawn in the stream order of the module
    docstring; each lookup runs once over the whole timeline."""
    if n_tweets < 1:
        return []
    # [lo, hi + 1) edges of the disjoint, sorted windows: ts lies in a
    # window exactly when an odd number of edges are <= ts
    edges = [t for lo, hi in periods for t in (lo, hi + 1)]
    stamps, lengths, pol_picks, draws = [], [], [], []
    tok_lo, tok_hi = spec.tokens_per_tweet
    for _ in range(n_tweets):
        if rng.random() < spec.in_window_fraction:
            lo, hi = periods[int(rng.integers(len(periods)))]
            ts = int(rng.integers(lo, hi + 1))
            inside = True
        else:
            for _ in range(17):  # a first draw and up to 16 redraws out of the windows
                ts = int(rng.integers(*base))
                inside = bisect_right(edges, ts) % 2 == 1
                if not inside:
                    break
        pol_rate = spec.political_rate_in if inside else spec.political_rate_out
        n_tokens = int(rng.integers(tok_lo, tok_hi + 1))
        # topic uniforms then word uniforms: the doubles of two random(n_tokens) calls
        draws.append(rng.random(2 * n_tokens).reshape(2, n_tokens))
        pol_picks.append(
            political_tokens[int(rng.integers(len(political_tokens)))]
            if rng.random() < pol_rate else None
        )
        stamps.append(ts)
        lengths.append(n_tokens)

    topic_u, word_u = np.concatenate(draws, axis=1)
    topics = np.minimum(np.searchsorted(cum_theta, topic_u, side="right"), len(cum_theta) - 1)
    word_ids = np.empty(len(word_u), dtype=np.intp)
    for z in np.unique(topics):
        on_z = topics == z
        word_ids[on_z] = np.searchsorted(cum_beta[z], word_u[on_z], side="right")
    np.minimum(word_ids, len(vocab) - 1, out=word_ids)
    words = [vocab[i] for i in word_ids.tolist()]
    iso = np.datetime_as_string(np.array(stamps, dtype="datetime64[s]"))
    tweets, end = [], 0
    for n_tokens, pol, ts in zip(lengths, pol_picks, iso.tolist()):
        text = words[end : end + n_tokens] + ([pol] if pol else [])
        end += n_tokens
        tweets.append({"lang": "en", "text": " ".join(text), "timestamp": ts + "Z", "user_id": uid})
    return tweets


def generate(spec: SynthSpec, out_dir) -> SynthResult:
    """Write tweets.jsonl, friends.jsonl, vaa.csv and truth.json."""
    import os

    spec.validate()
    os.makedirs(out_dir, exist_ok=True)
    master = np.random.SeedSequence(spec.seed)
    seeds = master.spawn(4)
    rng_global = np.random.default_rng(seeds[0])

    n_pol = max(1, int(round(spec.political_lexicon_fraction * spec.vocab_size)))
    all_tokens = synthetic_vocabulary(spec.vocab_size + n_pol)
    vocab = all_tokens[: spec.vocab_size]
    political_tokens = all_tokens[spec.vocab_size :]

    beta = make_beta(spec.k_topics, spec.vocab_size, spec.anchor_mass, rng_global)
    cum_beta = beta.cumsum(axis=1)
    left_mix, right_mix = class_mixtures(spec.k_topics, spec.class_topic_shift)

    n_right = int(round(spec.class_ratio * spec.n_users))
    user_ids = [f"u{i:05d}" for i in range(spec.n_users)]
    is_right = np.zeros(spec.n_users, dtype=bool)
    is_right[rng_global.permutation(spec.n_users)[:n_right]] = True
    labels = {u: ("Right" if r else "Left") for u, r in zip(user_ids, is_right)}

    periods = sorted(
        (int(s.timestamp()), int(e.timestamp()))
        for s, e in resources.election_periods().values()
    )
    base = (
        int(datetime(2009, 1, 1, tzinfo=timezone.utc).timestamp()),
        int(datetime(2019, 12, 31, tzinfo=timezone.utc).timestamp()),
    )

    user_seeds = seeds[1].spawn(spec.n_users)
    theta_by_user: dict[str, np.ndarray] = {}
    tweets_path = os.path.join(out_dir, "tweets.jsonl")
    with open(tweets_path, "w") as fh:
        for u, uid in enumerate(user_ids):
            rng = np.random.default_rng(user_seeds[u])
            mix = right_mix if is_right[u] else left_mix
            theta = rng.dirichlet(spec.dirichlet_concentration * mix)
            theta_by_user[uid] = theta
            n_tweets = int(rng.integers(spec.tweets_per_user[0], spec.tweets_per_user[1] + 1))
            tweets = _timeline(rng, uid, n_tweets, spec, periods, base, theta.cumsum(), cum_beta,
                               vocab, political_tokens)
            fh.writelines(_JSON.encode(t) + "\n" for t in tweets)

    hubs_left = [f"hubL{i:03d}" for i in range(spec.hubs_per_class)]
    hubs_right = [f"hubR{i:03d}" for i in range(spec.hubs_per_class)]
    noise = [f"acct{i:03d}" for i in range(spec.noise_accounts)]
    friends_path = os.path.join(out_dir, "friends.jsonl")
    net_seeds = seeds[2].spawn(spec.n_users)
    thresholds = np.repeat(
        [spec.follow_base * spec.network_homophily,
         spec.follow_base * (1.0 - spec.network_homophily), 0.3],
        [len(hubs_left), len(hubs_right), len(noise)],
    )
    with open(friends_path, "w") as fh:
        for u, uid in enumerate(user_ids):
            rng = np.random.default_rng(net_seeds[u])
            own, other = (hubs_right, hubs_left) if is_right[u] else (hubs_left, hubs_right)
            accounts = own + other + noise
            kept = rng.random(len(accounts)) < thresholds
            follows = [a for a, keep in zip(accounts, kept) if keep]
            fh.write(_JSON.encode({"user_id": uid, "friends": follows}) + "\n")

    vaa_path = os.path.join(out_dir, "vaa.csv")
    rng_vaa = np.random.default_rng(seeds[3])
    vaa_rows = [["user_id", "vaa", "party", "match"]]
    for u, uid in enumerate(user_ids):
        spread = float(rng_vaa.uniform(5.0, 45.0))
        con, lab = (50.0 + spread, 50.0 - spread)
        if not is_right[u]:
            con, lab = lab, con
        vaa_rows.append([uid, "SYN", "Conservative", f"{con:.2f}"])
        vaa_rows.append([uid, "SYN", "Labour", f"{lab:.2f}"])
    resources.write_csv(vaa_path, vaa_rows)

    truth_path = os.path.join(out_dir, "truth.json")
    truth = {
        "spec": {
            "n_users": spec.n_users,
            "class_ratio": spec.class_ratio,
            "k_topics": spec.k_topics,
            "vocab_size": spec.vocab_size,
            "class_topic_shift": spec.class_topic_shift,
            "political_lexicon_fraction": spec.political_lexicon_fraction,
            "network_homophily": spec.network_homophily,
            "tweets_per_user": list(spec.tweets_per_user),
            "seed": spec.seed,
        },
        "labels": labels,
        "anchors": list(range(spec.k_topics)),
        "anchor_words": vocab[: spec.k_topics],
        "political_tokens": political_tokens,
        "hubs": {"Left": hubs_left, "Right": hubs_right},
        "beta": [[repr(float(x)) for x in row] for row in beta],
        "theta": {u: [repr(float(x)) for x in theta_by_user[u]] for u in user_ids},
    }
    resources.write_json(truth_path, truth)

    return SynthResult(
        tweets_path=tweets_path,
        friends_path=friends_path,
        vaa_path=vaa_path,
        truth_path=truth_path,
        labels=labels,
        beta=beta,
        vocab=vocab,
        political_tokens=political_tokens,
        theta=theta_by_user,
    )
