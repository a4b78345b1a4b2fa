"""Ingestion of tweets, friends and VAA results; ground-truth leaning
scores; user filtering; per-user political/non-political documents."""

import csv
import json
import logging
import math
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .language import detect_language

logger = logging.getLogger(__name__)

LEFT = "Left"
RIGHT = "Right"
DROPPED = "Dropped"


@dataclass(frozen=True)
class Tweet:
    user_id: str
    timestamp: datetime
    text: str
    lang: str | None = None


@dataclass(frozen=True)
class VaaResult:
    user_id: str
    vaa_source: str
    party_matches: Mapping[str, float]


@dataclass(frozen=True)
class LeaningRecord:
    user_id: str
    raw_score: float
    normalized_score: float
    label: str


@dataclass
class UserRecord:
    user_id: str
    tweets: list[Tweet] = field(default_factory=list)


@dataclass(frozen=True)
class UserDocument:
    user_id: str
    political_tweets: tuple[str, ...]
    nonpolitical_tweets: tuple[str, ...]
    tweet_count: int
    political_tweet_count: int


def _parse_timestamp(value: str) -> datetime:
    if not isinstance(value, str):
        raise TypeError(f"timestamp is {type(value).__name__}, not a string")
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


class Skipped(ValueError):
    """Raised by a record parser to skip its record for a named reason."""

    def __init__(self, reason: str, detail: str | None = None):
        super().__init__(detail or reason)
        self.reason = reason


def skip_reason(exc: Exception) -> str:
    """Why a loader skipped a record, from the exception that parsing it
    raised."""
    if isinstance(exc, Skipped):
        return exc.reason
    if isinstance(exc, UnicodeError):
        return "invalid UTF-8"
    if isinstance(exc, json.JSONDecodeError):
        return "invalid JSON"
    if isinstance(exc, KeyError):
        return "missing field"
    return "invalid value"


@dataclass
class SkipLog:
    """One input file's skipped records: each is logged with its line
    number, and summary() logs the file's totals as one INFO line."""

    log: logging.Logger
    path: object
    skipped: Counter = field(default_factory=Counter)

    def skip(self, lineno: int, reason: str, detail) -> None:
        self.log.warning("%s line %d: skipped (%s)", self.path, lineno, detail)
        self.skipped[reason] += 1

    def summary(self, kept: int) -> None:
        n_skipped = sum(self.skipped.values())
        reasons = "".join(f", {n} {why}" for why, n in sorted(self.skipped.items()))
        self.log.info("%s: %d records read, %d kept, %d skipped%s",
                      self.path, kept + n_skipped, kept, n_skipped, reasons)


def read_jsonl(path, parse: Callable, log: logging.Logger) -> list:
    """parse(obj) for the JSON object on each non-blank line of path, in
    order. A line that is not UTF-8 or not JSON, or whose parse raises
    KeyError, TypeError or ValueError (Skipped included), is logged to
    log with its number and skipped; one summary line ends the read."""
    records = []
    skips = SkipLog(log, path)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    records.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                skips.skip(lineno, skip_reason(exc), exc)
    skips.summary(len(records))
    return records


def _tweet(obj) -> Tweet:
    tweet = Tweet(
        user_id=str(obj["user_id"]),
        timestamp=_parse_timestamp(obj["timestamp"]),
        text=obj["text"],
        lang=obj.get("lang"),
    )
    if not isinstance(tweet.text, str):
        raise TypeError(f"text is {type(tweet.text).__name__}, not a string")
    if not tweet.text.strip():
        raise Skipped("empty text")
    return tweet


def load_tweets(path) -> list[Tweet]:
    """Read tweets from JSONL; malformed lines are logged and skipped."""
    return read_jsonl(path, _tweet, logger)


def load_friends(path) -> dict[str, list[str]]:
    """Read follow lists from JSONL; malformed lines and later lines for
    a user already read are logged and skipped."""
    seen: set[str] = set()

    def parse(obj) -> tuple[str, list[str]]:
        if not isinstance(obj["friends"], list):
            raise TypeError(f"friends is {type(obj['friends']).__name__}, not a list")
        user_id = str(obj["user_id"])
        if user_id in seen:
            raise Skipped("duplicate", f"duplicate user {user_id!r}")
        seen.add(user_id)
        return user_id, [str(f) for f in obj["friends"]]

    return dict(read_jsonl(path, parse, logger))


def load_vaa_results(path) -> list[VaaResult]:
    """Read long-format CSV (user_id, vaa, party, match) into VaaResults;
    malformed rows (non-finite matches and bytes that are not UTF-8
    included) and later rows for a (user, vaa, party) already read are
    logged and skipped."""
    grouped: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    skips = SkipLog(logger, path)
    kept = 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            try:
                # a byte that is not UTF-8 reads as a lone surrogate,
                # which encoding back to UTF-8 refuses
                fields = [v for v in rec.values() if isinstance(v, str)] + rec.get(None, [])
                "".join(fields).encode("utf-8")
                match = float(rec["match"])
                key = (str(rec["user_id"]), rec["vaa"])
                party = rec["party"]
                if not math.isfinite(match):
                    raise Skipped("non-finite match", f"non-finite match {rec['match']!r}")
                if party in grouped[key]:
                    raise Skipped("duplicate", f"duplicate {party} match for {key}")
            except (KeyError, TypeError, ValueError) as exc:
                skips.skip(reader.line_num, skip_reason(exc), exc)
                continue
            grouped[key][party] = match
            kept += 1
    skips.summary(kept)
    return [
        VaaResult(user_id=u, vaa_source=v, party_matches=parties)
        for (u, v), parties in grouped.items()
    ]


def raw_score(v: VaaResult) -> float:
    """Conservative match minus Labour match (positive means right)."""
    try:
        return v.party_matches["Conservative"] - v.party_matches["Labour"]
    except KeyError as exc:
        raise ValueError(
            f"VAA result for {v.user_id} lacks a {exc.args[0]} match"
        ) from None


def platform_maxima(results: Iterable[VaaResult]) -> dict[str, float]:
    """Max absolute raw score per VAA platform (the normalizers)."""
    maxima: dict[str, float] = defaultdict(float)
    for v in results:
        maxima[v.vaa_source] = max(maxima[v.vaa_source], abs(raw_score(v)))
    return dict(maxima)


def _label_for(score: float) -> str:
    if score > 0:
        return RIGHT
    if score < 0:
        return LEFT
    return DROPPED


def compute_leaning(v: VaaResult, platform_max: float) -> LeaningRecord:
    if platform_max <= 0:
        raise ValueError("platform_max must be positive")
    raw = raw_score(v)
    normalized = max(-1.0, min(1.0, raw / platform_max))
    return LeaningRecord(v.user_id, raw, normalized, _label_for(normalized))


def merge_multi_vaa(records: Sequence[LeaningRecord]) -> LeaningRecord | None:
    """Combine one user's records by mean score; None if labels conflict."""
    if not records:
        raise ValueError("no records to merge")
    labels = {r.label for r in records if r.label != DROPPED}
    if len(labels) > 1:
        return None
    mean_norm = sum(r.normalized_score for r in records) / len(records)
    mean_raw = sum(r.raw_score for r in records) / len(records)
    return LeaningRecord(records[0].user_id, mean_raw, mean_norm, _label_for(mean_norm))


def ground_truth_labels(results: Iterable[VaaResult]) -> dict[str, LeaningRecord]:
    """Full scoring pipeline: drop results lacking a Conservative or
    Labour match, normalize per platform, merge per user, drop
    zero-score and conflicting users."""
    complete = []
    for v in results:
        if "Conservative" in v.party_matches and "Labour" in v.party_matches:
            complete.append(v)
        else:
            logger.info("user %s: %s result removed, lacks a Conservative or Labour match",
                        v.user_id, v.vaa_source)
    results = complete
    maxima = platform_maxima(results)
    per_user: dict[str, list[LeaningRecord]] = defaultdict(list)
    for v in results:
        per_user[v.user_id].append(compute_leaning(v, maxima[v.vaa_source]))
    labels: dict[str, LeaningRecord] = {}
    for user_id, recs in per_user.items():
        merged = merge_multi_vaa(recs)
        if merged is None:
            logger.info("user %s removed: conflicting VAA labels", user_id)
        elif merged.label == DROPPED:
            logger.info("user %s removed: zero leaning score", user_id)
        else:
            labels[user_id] = merged
    return labels


def group_tweets(tweets: Iterable[Tweet]) -> dict[str, UserRecord]:
    users: dict[str, UserRecord] = {}
    for t in tweets:
        users.setdefault(t.user_id, UserRecord(t.user_id)).tweets.append(t)
    return users


def english_fraction(
    user: UserRecord, detector: Callable[[str], str] = detect_language
) -> float:
    if not user.tweets:
        return 0.0
    langs = (t.lang if t.lang is not None else detector(t.text) for t in user.tweets)
    return sum(1 for code in langs if code == "en") / len(user.tweets)


def filter_users(
    users: Iterable[UserRecord],
    min_english: float = 0.75,
    min_tweets: int = 100,
    detector: Callable[[str], str] = detect_language,
) -> list[UserRecord]:
    return [
        u
        for u in users
        if len(u.tweets) >= min_tweets
        and english_fraction(u, detector) >= min_english
    ]


def assemble_documents(user: UserRecord, lexicon) -> UserDocument:
    """Split a user's tweets into political and non-political documents,
    each in ascending timestamp order."""
    from .polex import label_tweet  # local import to avoid a cycle

    political: list[str] = []
    nonpolitical: list[str] = []
    for t in sorted(user.tweets, key=lambda t: t.timestamp):
        (political if label_tweet(t, lexicon) == "Political" else nonpolitical).append(
            t.text
        )
    return UserDocument(
        user_id=user.user_id,
        political_tweets=tuple(political),
        nonpolitical_tweets=tuple(nonpolitical),
        tweet_count=len(user.tweets),
        political_tweet_count=len(political),
    )
