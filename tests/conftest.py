"""Shared helpers for the test suite."""

import csv
import json
import os
from datetime import datetime, timezone

import pytest
import scipy.sparse as sp

from polilean.corpus import Tweet
from polilean.textprep import SparseDFM

ASSETS = os.path.join(os.path.dirname(__file__), "assets")


def make_tweet(user_id: str, ts: str, text: str, lang: str | None = None) -> Tweet:
    """Tweet with an ISO date string like "2015-05-01"."""
    stamp = datetime.fromisoformat(ts)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return Tweet(user_id=user_id, timestamp=stamp, text=text, lang=lang)


@pytest.fixture
def assets_dir() -> str:
    return ASSETS


def read_dfm(triplet_path, header_path) -> SparseDFM:
    """Read back a matrix that textprep.save_dfm wrote."""
    with open(header_path) as fh:
        header = json.load(fh)
    row_ids, col_ids = tuple(header["row_ids"]), tuple(header["col_ids"])
    row_index = {u: i for i, u in enumerate(row_ids)}
    col_index = {f: j for j, f in enumerate(col_ids)}
    with open(triplet_path, newline="") as fh:
        recs = list(csv.DictReader(fh))
    matrix = sp.csr_matrix(
        ([float(r["value"]) for r in recs],
         ([row_index[r["row_id"]] for r in recs], [col_index[r["col_id"]] for r in recs])),
        shape=(len(row_ids), len(col_ids)),
    )
    return SparseDFM(matrix, row_ids, col_ids, header["kind"])
