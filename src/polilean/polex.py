"""Political lexicon induction and tweet labeling.

A word's political index is the ratio of its out-of-election usage rate
to its in-election usage rate; words used heavily during campaigns and
rarely otherwise score low. Seed terms (low index, enough distinct
tweets) can be expanded with nearest neighbours from a word embedding.
"""

import json
import logging
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from datetime import datetime

from .corpus import Tweet
from .resources import fields, parsing, write_json
from .textprep import tokenize_matching

logger = logging.getLogger(__name__)

SEED = "Seed"
EXPANDED = "Expanded"
MANUAL = "Manual"


@dataclass(frozen=True)
class Lexicon:
    terms: frozenset[str]
    index_scores: Mapping[str, float] = field(default_factory=dict)
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __contains__(self, term: str) -> bool:
        return term in self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def save(self, path) -> None:
        entries = [
            {
                "term": t,
                "rho": self.index_scores.get(t),
                "provenance": self.provenance.get(t, MANUAL),
            }
            for t in sorted(self.terms)
        ]
        write_json(path, entries)

    @classmethod
    def load(cls, path) -> "Lexicon":
        with open(path) as fh, parsing(path, "JSON"):
            entries = json.load(fh)
        with fields(path):
            terms = frozenset(e["term"] for e in entries)
            scores = {e["term"]: e["rho"] for e in entries if e.get("rho") is not None}
            prov = {e["term"]: e["provenance"] for e in entries}
        return cls(terms, scores, prov)


def political_index(
    counts_in: Mapping[str, int],
    counts_out: Mapping[str, int],
    t_in: int,
    t_out: int,
) -> dict[str, float]:
    """rho(w) = out-of-election rate / in-election rate.

    Words never seen inside an election window are excluded (undefined
    ratio); words never seen outside get rho = 0.
    """
    if t_in <= 0 or t_out <= 0:
        raise ValueError("tweet totals must be positive")
    rho: dict[str, float] = {}
    for term, c_in in counts_in.items():
        if c_in <= 0:
            continue
        rho[term] = (counts_out.get(term, 0) / t_out) / (c_in / t_in)
    return rho


def extract_seeds(
    index: Mapping[str, float],
    distinct_tweet_counts: Mapping[str, int],
    min_tweets: int = 250,
    threshold: float = 0.25,
    denylist: frozenset[str] = frozenset(),
    manual_add: frozenset[str] = frozenset(),
) -> Lexicon:
    seeds = {
        term
        for term, rho in index.items()
        if rho < threshold
        and distinct_tweet_counts.get(term, 0) >= min_tweets
        and term not in denylist
    }
    terms = seeds | set(manual_add)
    scores = {t: index[t] for t in terms if t in index}
    provenance = {t: SEED for t in seeds}
    for t in manual_add:
        provenance.setdefault(t, MANUAL)
    return Lexicon(frozenset(terms), scores, provenance)


def term_stats(
    tweets: Iterable[Tweet],
    periods: Mapping[str, tuple[datetime, datetime]],
) -> tuple[Counter, Counter, int, int, dict[str, int]]:
    """One pass over the corpus for lexicon induction.

    Returns (token counts inside election windows, token counts outside,
    tweets inside, tweets outside, max distinct-tweet count of each term
    within any single window).
    """
    counts_in: Counter = Counter()
    counts_out: Counter = Counter()
    t_in = t_out = 0
    distinct_per_period: dict[str, Counter] = defaultdict(Counter)
    for tweet in tweets:
        terms = tokenize_matching(tweet.text)
        period = next(
            (name for name, (s, e) in periods.items() if s <= tweet.timestamp <= e),
            None,
        )
        if period is None:
            t_out += 1
            counts_out.update(terms)
        else:
            t_in += 1
            counts_in.update(terms)
            distinct_per_period[period].update(set(terms))
    distinct_max: dict[str, int] = {}
    for counter in distinct_per_period.values():
        for term, n in counter.items():
            if n > distinct_max.get(term, 0):
                distinct_max[term] = n
    return counts_in, counts_out, t_in, t_out, distinct_max


def induce_lexicon(
    tweets: Iterable[Tweet],
    periods: Mapping[str, tuple[datetime, datetime]],
    min_tweets: int = 250,
    threshold: float = 0.25,
    denylist: frozenset[str] = frozenset(),
    manual_add: frozenset[str] = frozenset(),
) -> Lexicon:
    counts_in, counts_out, t_in, t_out, distinct = term_stats(tweets, periods)
    if t_in == 0 or t_out == 0:
        raise ValueError("corpus must contain tweets both inside and outside election windows")
    index = political_index(counts_in, counts_out, t_in, t_out)
    lex = extract_seeds(index, distinct, min_tweets, threshold, denylist, manual_add)
    logger.info("induced lexicon of %d terms (%d seeds)", len(lex), sum(1 for p in lex.provenance.values() if p == SEED))
    return lex


def expand_lexicon(
    emb,
    seeds: Lexicon,
    k: int = 3,
    denylist: frozenset[str] = frozenset(),
) -> Lexicon:
    """Add each seed's k nearest embedding neighbours (Euclidean; ties
    broken lexicographically), skipping existing terms and the denylist."""
    import numpy as np

    vocab_index = {w: i for i, w in enumerate(emb.vocab)}
    # each word's lexicographic rank (the inverse of the sorting order), the tie-breaking key
    rank = np.argsort(sorted(range(len(emb.vocab)), key=emb.vocab.__getitem__))
    candidates = np.array(
        [i for i, w in enumerate(emb.vocab) if w not in seeds.terms and w not in denylist],
        dtype=np.intp,
    )
    candidate_rank = rank[candidates]
    expansions: set[str] = set()
    for seed in sorted(seeds.terms):
        i = vocab_index.get(seed)
        if i is None:
            continue
        deltas = emb.vectors - emb.vectors[i]
        dists = np.sqrt((deltas * deltas).sum(axis=1))
        nearest = candidates[np.lexsort((candidate_rank, dists[candidates]))[:k]]
        expansions.update(emb.vocab[j] for j in nearest.tolist())
    terms = seeds.terms | expansions
    provenance = dict(seeds.provenance)
    for t in expansions:
        provenance[t] = EXPANDED
    return Lexicon(frozenset(terms), dict(seeds.index_scores), provenance)


def label_tweet(tweet: Tweet, lexicon: Lexicon) -> str:
    """"Political" iff any token (hashtags/mentions intact) is in the lexicon."""
    if lexicon.terms and any(t in lexicon.terms for t in tokenize_matching(tweet.text)):
        return "Political"
    return "NonPolitical"
