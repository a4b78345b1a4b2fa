"""Case study: infer the leaning of users who share news links.

URLs are matched to (source, type) by ordered substring patterns; the
sharers' text features are projected onto a previously trained
vocabulary, classified with a trained model at a high threshold, and
aggregated into a source-by-type-by-label count table.
"""

import logging
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .classify import UNKNOWN, Prediction, apply_threshold, predict
from .corpus import read_jsonl
from .resources import write_csv
from .textprep import SparseDFM

logger = logging.getLogger(__name__)

# the outlets of the count table's columns, in order
SOURCES = ("guardian", "bbc", "telegraph")


@dataclass(frozen=True)
class UrlPattern:
    source: str
    newstype: str
    substring: str


@dataclass(frozen=True)
class ShareEvent:
    user_id: str
    url: str
    matched: tuple[str, str] | None  # (source, newstype)


def load_patterns(rows: Sequence[Mapping[str, str]]) -> list[UrlPattern]:
    patterns = [UrlPattern(r["source"], r["type"], r["substring"]) for r in rows]
    if len({(p.source, p.newstype, p.substring) for p in patterns}) != len(patterns):
        raise ValueError("duplicate URL patterns")
    return patterns


def match_url(url: str, patterns: Sequence[UrlPattern]) -> tuple[str, str] | None:
    """First pattern (in declared order) whose substring occurs in url."""
    low = url.lower()
    for p in patterns:
        if p.substring.lower() in low:
            return (p.source, p.newstype)
    return None


def load_share_events(path, patterns: Sequence[UrlPattern]) -> list[ShareEvent]:
    """Read share events from JSONL; malformed lines are logged and skipped."""

    def parse(obj) -> ShareEvent:
        user_id, url = str(obj["user_id"]), obj["url"]
        if not isinstance(url, str):
            raise TypeError(f"url is {type(url).__name__}, not a string")
        return ShareEvent(user_id, url, match_url(url, patterns))

    return read_jsonl(path, parse, logger)


def project_features(docs: Mapping[str, Counter], training_vocab: Sequence[str]) -> SparseDFM:
    """Align users' feature multisets to a training vocabulary.

    Each row depends only on that user's counts: features absent from
    the training vocabulary are dropped, and training columns a user
    lacks stay zero, so the matrix width matches the trained model.
    """
    row_ids = tuple(docs)
    dfm = SparseDFM.from_rows(row_ids, (docs[u] for u in row_ids), training_vocab, "text")
    zero_users = dfm.empty_rows()
    if zero_users:
        logger.warning(
            "%d users have no in-vocabulary text features: %s",
            len(zero_users),
            ", ".join(zero_users[:5]) + ("..." if len(zero_users) > 5 else ""),
        )
    return dfm


def classify_sharers(
    features,
    user_ids: Sequence[str],
    model,
    tau: float = 0.7,
    unknown_users: Sequence[str] = (),
) -> list[Prediction]:
    """Threshold-labelled predictions; users in unknown_users (no usable
    features at all) are forced to Unknown."""
    p_right = predict(model, features)
    preds = apply_threshold(user_ids, p_right, tau)
    forced = set(unknown_users)
    return [
        Prediction(p.user_id, p.p_right, UNKNOWN) if p.user_id in forced else p
        for p in preds
    ]


def counts_table(
    events: Sequence[ShareEvent],
    predictions: Mapping[str, str],
    count_shares: bool = False,
) -> dict[tuple[str, str], dict[str, int]]:
    """counts[(newstype, label)][source] for each source in SOURCES,
    plus a "Total" column.

    By default each user counts once per (source, newstype) cell no
    matter how many matching links they shared; count_shares=True counts
    every share event instead. Unmatched events are skipped (reported).
    """
    shares = [(ev.user_id, *ev.matched) for ev in events if ev.matched is not None]
    if len(shares) < len(events):
        logger.info("%d share events matched no pattern", len(events) - len(shares))
    if not count_shares:
        shares = list(dict.fromkeys(shares))
    cells = Counter(
        (newstype, predictions.get(uid, UNKNOWN), source) for uid, source, newstype in shares
    )

    table: dict[tuple[str, str], dict[str, int]] = {}
    for newstype in sorted({n for n, _, _ in cells}):
        for label in sorted({lab for _, lab, _ in cells}):
            row = {source: cells[(newstype, label, source)] for source in SOURCES}
            row["Total"] = sum(row.values())
            table[(newstype, label)] = row
    return table


def write_counts_csv(path, table: dict[tuple[str, str], dict[str, int]]) -> None:
    write_csv(path, [["newstype", "label", *SOURCES, "total"]] + [
        [newstype, label, *(row[s] for s in SOURCES), row["Total"]]
        for (newstype, label), row in sorted(table.items())
    ])


def format_counts(table: dict[tuple[str, str], dict[str, int]]) -> str:
    lines = [f"{'type':<10} {'label':<8} " + " ".join(f"{s:>10}" for s in SOURCES) + f" {'total':>10}"]
    for (newstype, label), row in sorted(table.items()):
        cells = " ".join(f"{row[s]:>10}" for s in SOURCES)
        lines.append(f"{newstype:<10} {label:<8} {cells} {row['Total']:>10}")
    return "\n".join(lines)
