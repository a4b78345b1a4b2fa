"""Text preprocessing and sparse document-feature matrices.

The feature pipeline is: tokenize each tweet, drop stopwords, stem,
build 1/2/3-grams within the tweet, then accumulate per-user counts
into a sparse matrix of the features that survive the document-frequency
trim.
"""

import csv
import json
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .porter import stem as porter_stem
from .resources import write_csv, write_json

__all__ = [
    "SparseDFM", "tokenize", "tokenize_matching", "porter_stem",
    "remove_stopwords", "preprocess_tweet", "ngram_strings", "build_dfm",
    "trim_sparse", "build_network_matrix",
    "save_dfm", "load_dfm",
]

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_NON_ALPHA_RE = re.compile(r"[^a-z]+")
_NON_MATCH_RE = re.compile(r"[^a-z0-9#@_]+")


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


def remove_stopwords(tokens: Iterable[str], stopwords: frozenset[str]) -> list[str]:
    return [t for t in tokens if t not in stopwords]


def preprocess_tweet(text: str, stopwords: frozenset[str]) -> list[str]:
    """Tokens of one tweet ready for n-gram assembly: stopwords are
    removed from the raw tokens and the survivors are stemmed."""
    return [porter_stem(t) for t in remove_stopwords(tokenize(text), stopwords)]


def ngram_strings(stems: Sequence[str], orders: Iterable[int] = (1, 2, 3)) -> Iterator[str]:
    """One tweet's n-grams joined with "_": every gram of the first
    order in position order, then the next order's.

    Callers must invoke this per tweet: grams never cross tweet
    boundaries because each call only sees a single tweet's stems.
    The grams are produced at C speed, so `Counter.update` on the
    result counts them without a Python-level step per gram.
    """
    return chain.from_iterable(
        stems if n == 1 else map("_".join, zip(*(stems[i:] for i in range(n))))
        for n in orders
    )


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


def build_dfm(docs: Mapping[str, Counter], sparsity: float, kind: str = "text") -> SparseDFM:
    """Stack per-user feature multisets into a sparse count matrix of
    the features trim_sparse(·, sparsity) would keep.

    Only the kept columns are built: a feature's document frequency is
    the number of users whose count for it is nonzero.  Rows follow the
    mapping's order; columns are sorted for determinism.
    """
    if not docs:
        raise ValueError("no documents")
    doc_freq: Counter = Counter()
    for counts in docs.values():
        doc_freq.update(counts.keys() if 0 not in counts.values()
                        else (f for f, v in counts.items() if v))
    feats = list(doc_freq)
    keep = _kept(np.fromiter(doc_freq.values(), np.int64, len(feats)), len(docs), sparsity)
    vocab = sorted(feats[j] for j in keep)
    return SparseDFM.from_rows(tuple(docs), docs.values(), vocab, kind)


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
