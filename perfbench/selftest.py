"""Self-test of the benchmark on tiny corpora.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it sets up once on a tiny corpus, runs one untraced
and two traced operations with the same inputs, and checks that

- every metric BENCHMARK.json names is produced, with its unit;
- spans nest: each child lies inside its parent and self times are >= 0;
- every count repeats exactly between the two traced operations.

Quality checks are not applied: tiny corpora are too small for the
workloads' F1 floors.  Exits 0 when all checks hold.
"""

import json
import os
import shutil
import sys
import time

import run
import workloads
from layers import metrics
from tracer import self_times

TINY = dict(n_users=40, vocab_size=300)


def _spans_nest(spans: list[dict]) -> list[str]:
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['name']} ends before it starts")
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
                problems.append(f"span {s['name']} lies outside its parent {p['name']}")
    for s, own in zip(spans, self_times(spans)):
        if own < 0:
            problems.append(f"span {s['name']} has negative self time {own}")
    return problems


def check_workload(name: str, spec: dict, work_dir: str) -> list[str]:
    workload = workloads.WORKLOADS[name]
    inputs, setup_s = run._setup(workload, 7, os.path.join(work_dir, "setup"))
    deadline = time.monotonic() + run.DEADLINE_S
    ops, problems = [], []
    for index, traced in enumerate((False, True, True)):
        result, error = run._run_op(name, inputs, work_dir, index, traced, "selftest", deadline)
        if error is not None:
            return [f"{name}: operation {index}: {error}"]
        _, quality = workload.check(inputs, result["outputs"])
        ops.append({"traced": traced, "run_s": result["run_s"], "cpu_s": result["cpu_s"],
                    "peak_rss_mb": result["peak_rss_mb"], "quality": quality, "trace": result})

    traced = [o["trace"] for o in ops if o["traced"]]
    for t in traced:
        problems += [f"{name}: {p}" for p in _spans_nest(t["spans"])]
        if len({s["run"] for s in t["spans"]}) != 1:
            problems.append(f"{name}: spans of one run carry different run ids")
    counts = [metrics(t["spans"], t["counters"], t["distinct"])[1] for t in traced]
    for key in counts[0]:
        if counts[0][key] != counts[1][key]:
            problems.append(f"{name}: count {key} differs: {counts[0][key]} vs {counts[1][key]}")

    layer_problems: list[str] = []
    per_layer = run._layer_values(ops, layer_problems)
    problems += [f"{name}: {p}" for p in layer_problems]
    e2e = run._e2e_values([setup_s], ops[:1])
    for wanted, values in ((spec["per_layer"], per_layer), (spec["end_to_end"], e2e)):
        emitted = run._metric_objects(wanted, values)
        for m in wanted:
            got = emitted.get(m["name"])
            if got is None:
                problems.append(f"{name}: metric {m['name']} not emitted")
            elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                problems.append(f"{name}: metric {m['name']} emitted as {got}")
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for shape in (workloads.NULL, workloads.PREDICT_TRAIN, workloads.PREDICT_NEW):
        shape.update(TINY)
    # The embedding needs tokens that reach its frequency floor, so the
    # lexicon corpus keeps its vocabulary.
    workloads.LEXICON["n_users"] = TINY["n_users"]
    sys.path.insert(0, run.SRC)
    problems = []
    root = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    try:
        for i, name in enumerate(workloads.WORKLOADS):
            work_dir = os.path.join(root, str(i))
            os.makedirs(work_dir)
            found = check_workload(name, spec, work_dir)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            problems += found
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if os.path.isdir(run.WORK_ROOT) and not os.listdir(run.WORK_ROOT):
            os.rmdir(run.WORK_ROOT)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
