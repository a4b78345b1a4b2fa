"""Loaders for data files shipped with the package, the one writer of
each artifact format (key-sorted indented JSON and RFC 4180 CSV) and
its error for a saved file that does not parse or lacks a field."""

import contextlib
import csv
import json
import os
from collections.abc import Iterable, Sequence
from datetime import datetime, timezone
from importlib import resources


def _read_text(name: str) -> str:
    return resources.files("polilean.assets").joinpath(name).read_text("utf-8")


def _read_wordlist(name: str) -> frozenset[str]:
    lines = (ln.strip() for ln in _read_text(name).splitlines())
    return frozenset(ln for ln in lines if ln and not ln.startswith("#!"))


def smart_stopwords() -> frozenset[str]:
    return _read_wordlist("smart_stopwords.txt")


def ambiguous_words() -> frozenset[str]:
    """Terms excluded from lexicon induction as topically ambiguous."""
    return _read_wordlist("ambiguous_words.txt")


def manual_additions() -> frozenset[str]:
    return _read_wordlist("manual_additions.txt")


def url_patterns() -> list[dict[str, str]]:
    """News URL substring patterns in declared match order."""
    reader = csv.DictReader(_read_text("url_patterns.csv").splitlines())
    return [dict(row) for row in reader]


def election_periods() -> dict[str, tuple[datetime, datetime]]:
    """Name -> (start, end) campaign windows, inclusive, UTC."""
    raw = json.loads(_read_text("election_periods.json"))
    out = {}
    for span in raw:
        start = datetime.fromisoformat(span["start"]).replace(tzinfo=timezone.utc)
        end = datetime.fromisoformat(span["end"]).replace(tzinfo=timezone.utc)
        # the window runs through the end of its last calendar day
        end = end.replace(hour=23, minute=59, second=59)
        out[span["name"]] = (start, end)
    return out


def write_json(path, obj) -> None:
    """Write obj as key-sorted, indented JSON: the one format of every
    JSON artifact, which keeps same-seed reruns byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """Write rows, the header first if there is one, as RFC 4180 CSV:
    fields quoted where needed, every line ending in CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


class FileFormatError(ValueError):
    """A file that does not parse, or lacks a field; the message names it."""


@contextlib.contextmanager
def parsing(path, kind: str):
    """Raise a ValueError in the block as a FileFormatError naming the file."""
    try:
        yield
    except ValueError as exc:
        raise FileFormatError(f"{os.path.basename(path)} is not valid {kind} ({exc})") from None


@contextlib.contextmanager
def fields(path):
    """Raise a missing or malformed field read in the block from a parsed
    file as a FileFormatError naming the file."""
    name = os.path.basename(path)
    try:
        yield
    except KeyError as exc:
        raise FileFormatError(f"{name} lacks the field {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{name} has a malformed field ({exc})") from None
