"""Text preprocessing and sparse document-feature matrices.

The feature pipeline is: tokenize each tweet, drop stopwords, stem,
build 1/2/3-grams within the tweet, then accumulate per-user counts
into a sparse matrix of the features that survive the document-frequency
trim.

N-grams are held as exact int64 keys, not strings.  Every distinct stem
gets a small integer id (from 1) in one process-wide table, and a gram
packs its stem ids base 2**21: a unigram is its id, a bigram
a * 2**21 + b, a trigram (a * 2**21 + b) * 2**21 + c.  Ids are below
2**21, so no two grams share a key and a trigram key stays below 2**63.
Only the features a matrix keeps are decoded to their "a_b_c" names.
"""

import csv
import json
import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .porter import stem as porter_stem
from .resources import write_csv, write_json

__all__ = [
    "SparseDFM", "Grams", "tokenize", "tokenize_matching", "porter_stem",
    "stem_codes", "ngram_counts", "gram_names", "gram_keys", "build_dfm",
    "trim_sparse", "build_network_matrix",
    "save_dfm", "load_dfm",
]

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_NON_ALPHA_RE = re.compile(r"[^a-z]+")
_NON_MATCH_RE = re.compile(r"[^a-z0-9#@_]+")
# tokenize's tokens, plus the "\n" that stem_codes puts between tweets
_DOC_TOKEN_RE = re.compile(r"[a-z]+|\n")

_BASE = 1 << 21
# stem ids run from 1 to MAX_STEMS, so that three of them pack into int64
MAX_STEMS = _BASE - 1
TWEET_BREAK = -1  # code of the "\n" between two tweets
STOPWORD = 0  # code of a stopword token


@dataclass(frozen=True)
class SparseDFM:
    """Users-by-features count matrix in CSR form.

    kind is "text" (n-gram counts) or "network" (0/1 follow indicators).
    """

    matrix: sp.csr_matrix
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    kind: str = "text"

    def __post_init__(self):
        if self.matrix.shape != (len(self.row_ids), len(self.col_ids)):
            raise ValueError("matrix shape does not match id lists")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise ValueError("duplicate row ids")
        if len(set(self.col_ids)) != len(self.col_ids):
            raise ValueError("duplicate column ids")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @classmethod
    def from_rows(
        cls,
        row_ids: Sequence[str],
        rows: Iterable[Mapping[str, float]],
        col_ids: Sequence[str],
        kind: str = "text",
    ) -> "SparseDFM":
        """One row per id from its feature -> value mapping, in order;
        features outside col_ids are dropped."""
        col_index = {f: j for j, f in enumerate(col_ids)}
        data, ii, jj = [], [], []
        for i, (_, row) in enumerate(zip(row_ids, rows, strict=True)):
            # The order of a row's entries does not matter: the CSR
            # conversion sorts each row's column indices.
            shared = row.keys() & col_index.keys()
            ii += [i] * len(shared)
            jj += map(col_index.__getitem__, shared)
            data += map(row.__getitem__, shared)
        matrix = sp.csr_matrix(
            (data, (ii, jj)), shape=(len(row_ids), len(col_ids)), dtype=np.float64
        )
        return cls(matrix, tuple(row_ids), tuple(col_ids), kind)

    @classmethod
    def from_grams(
        cls, docs: Mapping[str, "Grams"], columns: np.ndarray, col_ids: Sequence[str]
    ) -> "SparseDFM":
        """Text DFM with one row per user of docs, in order: the i-th
        count of the users' concatenated Grams goes to column columns[i],
        or nowhere when that is -1."""
        row_ids = tuple(docs)
        grams = [docs[u] for u in row_ids]
        rows = np.repeat(np.arange(len(grams)), [len(g.keys) for g in grams])
        data = np.concatenate([np.empty(0, np.int64)] + [g.counts for g in grams])
        hit = columns >= 0
        matrix = sp.csr_matrix(
            (data[hit], (rows[hit], columns[hit])),
            shape=(len(row_ids), len(col_ids)),
            dtype=np.float64,
        )
        return cls(matrix, row_ids, tuple(col_ids), "text")

    def empty_rows(self) -> list[str]:
        """Ids of rows with no stored entry: users featureless in this block."""
        return [u for u, n in zip(self.row_ids, self.matrix.getnnz(axis=1)) if not n]


def tokenize(text: str) -> list[str]:
    """Lowercased alphabetic tokens with URLs stripped.

    Digits and punctuation act as separators, so "2-0" vanishes and
    "don't" becomes ["don", "t"].
    """
    text = _URL_RE.sub(" ", text).lower()
    return [t for t in _NON_ALPHA_RE.split(text) if t]


def tokenize_matching(text: str) -> list[str]:
    """Tokenizer for lexicon matching: keeps '#', '@', '_' and digits so
    that hashtags and mentions survive as single tokens."""
    text = _URL_RE.sub(" ", text).lower()
    return [t for t in _NON_MATCH_RE.split(text) if t.strip("#@_")]


class _StemTable:
    """Process-wide stem ids, and each stopword list's code for every
    token seen: its stem's id, STOPWORD or TWEET_BREAK.  Each new token
    is stemmed once."""

    def __init__(self):
        self.stems = [""]  # stem id -> stem; id 0 is no stem
        self.ids: dict[str, int] = {}
        self.codes: dict[frozenset[str], dict[str, int]] = {}

    def stem_id(self, stem: str) -> int:
        sid = self.ids.get(stem)
        if sid is None:
            if len(self.stems) > MAX_STEMS:
                raise ValueError(
                    f"more than {MAX_STEMS:,} distinct stems: an n-gram key packs "
                    "three stem ids into 64 bits"
                )
            sid = self.ids[stem] = len(self.stems)
            self.stems.append(stem)
        return sid

    def token_codes(self, tokens: list[str], stopwords: frozenset[str]) -> np.ndarray:
        codes = self.codes.setdefault(stopwords, {"\n": TWEET_BREAK})
        for token in sorted(set(tokens).difference(codes)):
            codes[token] = STOPWORD if token in stopwords else self.stem_id(porter_stem(token))
        return np.fromiter(map(codes.__getitem__, tokens), np.int64, len(tokens))


_TABLE = _StemTable()


def stem_codes(tweet_texts: Iterable[str], stopwords: frozenset[str]) -> np.ndarray:
    """One user document as stem ids in reading order, stopwords
    dropped and TWEET_BREAK between tweets.

    The tweets are tokenized as one string, joined by "\n" after each
    tweet's own "\n" becomes a space.  No URL and no token spans a
    "\n", and the stopword check comes before stemming, so the ids
    between two breaks are exactly tokenize's unstopped tokens of that
    tweet, stemmed.
    """
    doc = "\n".join([text.replace("\n", " ") for text in tweet_texts])
    tokens = _DOC_TOKEN_RE.findall(_URL_RE.sub(" ", doc).lower())
    codes = _TABLE.token_codes(tokens, stopwords)
    return codes[codes != STOPWORD]


@dataclass(frozen=True)
class Grams:
    """One document's n-gram counts: strictly increasing int64 keys (see
    the module docstring) and their positive int64 counts."""

    keys: np.ndarray
    counts: np.ndarray

    def values(self) -> list[int]:
        """The counts; they sum to the document's number of grams."""
        return self.counts.tolist()


def ngram_counts(codes: np.ndarray) -> Grams:
    """Counts of the 1-, 2- and 3-grams of stem_codes' output; no gram
    spans a TWEET_BREAK."""
    stem = codes > 0
    pair = stem[:-1] & stem[1:]
    bigrams = codes[:-1] * _BASE + codes[1:]
    trigrams = bigrams[:-1] * _BASE + codes[2:]
    keys = np.concatenate([codes[stem], bigrams[pair], trigrams[pair[:-1] & stem[2:]]])
    return Grams(*np.unique(keys, return_counts=True))


def gram_names(keys: np.ndarray) -> list[str]:
    """The "a_b_c" name of each key."""
    keys = np.asarray(keys, dtype=np.int64)
    ids = np.stack([keys // _BASE**2, keys // _BASE % _BASE, keys % _BASE], axis=1)
    stems = _TABLE.stems
    return ["_".join(stems[i] for i in row if i) for row in ids.tolist()]


def gram_keys(names: Iterable[str]) -> np.ndarray:
    """The key of each "a_b_c" name; -1 for a name that is no 1-3-gram
    of known stems, which therefore no document holds."""
    ids = _TABLE.ids

    def key(name: str) -> int:
        parts = name.split("_")
        if len(parts) > 3 or not all(p in ids for p in parts):
            return -1
        k = 0
        for p in parts:
            k = k * _BASE + ids[p]
        return k

    return np.fromiter(map(key, names), np.int64)


def _kept(doc_freq: np.ndarray, n_docs: int, sparsity: float) -> np.ndarray:
    """Indices of the features whose document-frequency proportion is
    above 1 - sparsity; an error when there is none."""
    if not 0.0 < sparsity <= 1.0:
        raise ValueError(f"sparsity must be in (0, 1], got {sparsity}")
    keep = np.flatnonzero(doc_freq / n_docs > 1.0 - sparsity)
    if keep.size == 0:
        raise ValueError(
            "sparsity trim removed every feature; lower the sparsity parameter"
        )
    return keep


def build_dfm(docs: Mapping[str, Grams], sparsity: float) -> SparseDFM:
    """Stack per-user n-gram counts into a sparse count matrix of the
    features trim_sparse(·, sparsity) would keep.

    Only the kept columns are built: a feature's document frequency is
    the number of users who hold it.  Rows follow the mapping's order;
    columns are sorted by name for determinism.
    """
    if not docs:
        raise ValueError("no documents")
    keys, where, doc_freq = np.unique(
        np.concatenate([g.keys for g in docs.values()]), return_inverse=True, return_counts=True
    )
    keep = _kept(doc_freq, len(docs), sparsity)
    names = gram_names(keys[keep])
    order = sorted(range(len(names)), key=names.__getitem__)
    column = np.full(len(keys), -1, dtype=np.int64)
    column[keep[order]] = np.arange(len(order))
    return SparseDFM.from_grams(docs, column[where], [names[j] for j in order])


def trim_sparse(dfm: SparseDFM, sparsity: float) -> SparseDFM:
    """Drop features whose document-frequency proportion is <= 1 - sparsity."""
    doc_freq = np.asarray((dfm.matrix != 0).sum(axis=0)).ravel()
    keep = _kept(doc_freq, dfm.shape[0], sparsity)
    trimmed = sp.csr_matrix(dfm.matrix[:, keep])
    col_ids = tuple(dfm.col_ids[j] for j in keep)
    return SparseDFM(trimmed, dfm.row_ids, col_ids, dfm.kind)


def build_network_matrix(
    friends: Mapping[str, Iterable[str]], sparsity: float = 0.88
) -> SparseDFM:
    """0/1 matrix of users against followed accounts.

    Accounts followed by fewer than two of the users are dropped before
    the sparsity trim.
    """
    if not friends:
        raise ValueError("no network data")
    followers: Counter = Counter()
    sets = {u: set(fr) for u, fr in friends.items()}
    for fr in sets.values():
        followers.update(fr)
    accounts = sorted(a for a, n in followers.items() if n >= 2)
    rows = (dict.fromkeys(fr, 1.0) for fr in sets.values())
    return trim_sparse(SparseDFM.from_rows(tuple(sets), rows, accounts, "network"), sparsity)


def save_dfm(dfm: SparseDFM, triplet_path, header_path) -> None:
    """Triplet CSV (row_id, col_id, value) plus a JSON header."""
    coo = dfm.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))

    def rows():
        yield ["row_id", "col_id", "value"]
        for idx in order:
            value = coo.data[idx]
            text = repr(int(value)) if float(value).is_integer() else repr(float(value))
            yield [dfm.row_ids[coo.row[idx]], dfm.col_ids[coo.col[idx]], text]

    write_csv(triplet_path, rows())
    write_json(header_path, {
        "kind": dfm.kind,
        "n_rows": dfm.shape[0],
        "n_cols": dfm.shape[1],
        "row_ids": list(dfm.row_ids),
        "col_ids": list(dfm.col_ids),
    })


def load_dfm(triplet_path, header_path) -> SparseDFM:
    with open(header_path) as fh:
        header = json.load(fh)
    row_ids = tuple(header["row_ids"])
    col_ids = tuple(header["col_ids"])
    row_index = {u: i for i, u in enumerate(row_ids)}
    col_index = {f: j for j, f in enumerate(col_ids)}
    rows, cols, data = [], [], []
    with open(triplet_path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(row_index[rec["row_id"]])
            cols.append(col_index[rec["col_id"]])
            data.append(float(rec["value"]))
    matrix = sp.csr_matrix(
        (data, (rows, cols)), shape=(len(row_ids), len(col_ids)), dtype=np.float64
    )
    return SparseDFM(matrix, row_ids, col_ids, header["kind"])
