"""Span and counter recorder for the traced benchmark run.

The tracer wraps public functions of the polilean modules from outside
the package.  A wrapper is installed at every module attribute bound to
the original function, because callers such as ``pipeline`` and ``cli``
import names like ``fit_topic_model`` directly and resolve them in their
own namespace.  Each wrapped call records a span (name, start, end,
parent); spans of one run share a run id and stay in memory until the
run writes them out.  Counters are recorded in the same wrappers, from
the call's arguments and result.
"""

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        # Objects whose id() a counter uses as a key stay referenced for
        # the run, so no id is reused.
        self.keep_alive: list = []

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call records a span named name, or name(args)
        when name is callable; on_result(tracer, result, args, kwargs)
        records counters at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = {"id": sid, "run": self.run_id, "name": label, "parent": parent,
                      "start": time.perf_counter(), "end": None}
            self.spans.append(record)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record["end"] = time.perf_counter()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return wrapper

    def count(self, fn, on_call):
        """Wrap fn with a counter only, for functions called too often to
        give each call a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(self, args)
            return fn(*args, **kwargs)

        return wrapper

    def distinct(self, key: str, item) -> None:
        """Remember item under key; distinct_counts() reports set sizes."""
        self._seen.setdefault(key, set()).add(item)

    def distinct_counts(self) -> dict[str, int]:
        return {key: len(items) for key, items in self._seen.items()}


def install(modules, replacements: dict) -> None:
    """Rebind every attribute in modules that holds an original function
    to its wrapper."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            try:
                wrapper = replacements.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(module, attr, wrapper)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Spans come from one thread, so children run one after another inside
    their parent and their durations add up without overlap.
    """
    child_total = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_total)]


def aggregate(spans: list[dict]) -> dict[str, tuple[float, float]]:
    """name -> (total seconds, self seconds).  A recursive name's total
    counts only its outermost calls."""
    selfs = self_times(spans)
    out: dict[str, list[float]] = {}
    for s, own in zip(spans, selfs):
        entry = out.setdefault(s["name"], [0.0, 0.0])
        entry[1] += own
        ancestor = s["parent"]
        while ancestor is not None and spans[ancestor]["name"] != s["name"]:
            ancestor = spans[ancestor]["parent"]
        if ancestor is None:
            entry[0] += s["end"] - s["start"]
    return {k: (v[0], v[1]) for k, v in out.items()}
