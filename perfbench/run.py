"""polilean benchmark: one workload, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval_null --seed 7 --seconds 30 --trace 0

The run generates its inputs from --seed and sets up three times (the
median is ``setup_s``).  After each set-up it runs operations one after
another for a third of --seconds, each in a fresh interpreter (a closed
loop with one client), and checks every operation's outputs.  With
--trace 1 it sets up once, each iteration runs one untraced and one
traced operation, and the run reports the per-layer metrics instead of
the end-to-end ones.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, the samples behind each median and the
quartiles.  The exit status is 0 only when every operation succeeded
and passed its check.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import uuid

import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the run must end within 180 s


def _quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _source_id() -> dict:
    """The commit when the checkout is a git repository, and always a
    digest of the package sources (checkouts need not be repositories)."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "polilean", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _environment() -> dict:
    import numpy
    import scipy

    return {
        **_source_id(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
    }


def _cpu_ticks() -> list[int] | None:
    """The machine's cumulative CPU time counters (Linux /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of the machine's CPU time the hypervisor gave to other guests
    between two readings: a shared host slows every operation it steals
    from, so this makes noisy operations visible."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def _run_op(workload: str, inputs: dict, work_dir: str, index: int, trace: bool,
            run_id: str, deadline: float) -> tuple[dict | None, str | None]:
    """One operation in a fresh interpreter; (result, error)."""
    out_dir = os.path.join(work_dir, f"op-{index}")
    os.makedirs(out_dir)
    request = {"workload": workload, "inputs": inputs, "out_dir": out_dir, "trace": trace,
               "run_id": run_id, "src": SRC,
               "result_path": os.path.join(out_dir, "result.json")}
    request_path = os.path.join(out_dir, "request.json")
    with open(request_path, "w") as fh:
        json.dump(request, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the run's deadline"
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), request_path],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"operation exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited with status {proc.returncode}: {proc.stderr[-2000:]}"
    with open(request["result_path"]) as fh:
        return json.load(fh), None


def _setup(workload, seed: int, target: str) -> tuple[dict, float]:
    os.makedirs(target)
    t0 = time.perf_counter()
    inputs = workload.setup(target, seed)
    return inputs, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "polilean", "__init__.py")):
        print(f"polilean sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "loadavg_before": os.getloadavg()[0],
              "env": _environment()}
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        setup_times, ops = _measure(args.workload, workload, args.seed, work_dir, trace,
                                    args.seconds, deadline)
        good = [o for o in ops if "error" not in o]
        problems = [f"operation {i + 1}: {o['error']}" for i, o in enumerate(ops)
                    if "error" in o]
        qualities = {json.dumps(o["quality"], sort_keys=True) for o in good}
        if len(qualities) > 1:
            problems.append(f"outputs differ between operations: {sorted(qualities)}")
        values = {}
        if good and trace:
            values = _layer_values(ops, problems)
        elif good:
            values = _e2e_values(setup_times, good)
            detail["quartiles"] = {
                "setup_s": _quartiles(setup_times),
                "run_s": _quartiles([o["run_s"] for o in good]),
                "peak_rss_mb": _quartiles([o["peak_rss_mb"] for o in good]),
            }
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if good and missing:
            problems.append(f"metrics not produced: {missing}")
        detail["setup_s"] = setup_times
        detail["ops"] = [{k: v for k, v in o.items() if k != "trace"} for o in ops]
        detail["problems"] = problems
        detail["loadavg_after"] = os.getloadavg()[0]
        failed = len(ops) - len(good)
        correct = not problems
        print(json.dumps(detail, sort_keys=True))
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                          "metrics": _metric_objects(wanted, values)}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def _measure(name: str, workload, seed: int, work_dir: str, trace: bool, seconds: float,
             deadline: float) -> tuple[list[float], list[dict]]:
    """Set up SETUP_REPEATS times (once when tracing) and after each
    set-up run operations on its files until that round's share of
    `seconds` has been measured; the last operation of a round may run
    over.  Spreading the operations over the whole run keeps one slow
    stretch of the machine from setting the median.  Each operation is
    checked.  A traced run alternates an untraced and a traced one."""
    modes = (False, True) if trace else (False,)
    rounds = 1 if trace else SETUP_REPEATS
    run_id = uuid.uuid4().hex
    setup_times: list[float] = []
    ops: list[dict] = []
    measured = 0.0
    for r in range(rounds):
        target = os.path.join(work_dir, f"setup-{r}")
        inputs, setup_s = _setup(workload, seed, target)
        setup_times.append(setup_s)
        while not ops or measured < seconds * (r + 1) / rounds:
            for traced in modes:
                before = os.getloadavg()[0]
                ticks = _cpu_ticks()
                t0 = time.monotonic()
                result, error = _run_op(name, inputs, work_dir, len(ops), traced, run_id,
                                        deadline)
                op = {"traced": traced, "wall_s": time.monotonic() - t0,
                      "loadavg_before": before, "loadavg_after": os.getloadavg()[0],
                      "steal_share": _steal_share(ticks, _cpu_ticks())}
                measured += op["wall_s"]
                if error is None:
                    found, quality = workload.check(inputs, result["outputs"])
                    op.update(run_s=result["run_s"], cpu_s=result["cpu_s"],
                              peak_rss_mb=result["peak_rss_mb"], quality=quality)
                    if found:
                        error = "; ".join(found)
                    if traced:
                        op["trace"] = result
                if error is not None:
                    op["error"] = error
                ops.append(op)
            if any("error" in o for o in ops):
                return setup_times, ops
            per_iteration = measured * len(modes) / len(ops)
            if time.monotonic() + 1.5 * per_iteration > deadline:
                return setup_times, ops
        shutil.rmtree(target)
    return setup_times, ops


def _e2e_values(setup_times: list[float], good: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(o["run_s"] for o in good),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in good),
        **good[0]["quality"],
    }


def _metric_objects(wanted: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values}


def _layer_values(ops: list[dict], problems: list[str]) -> dict:
    """Per-layer metrics: medians of timings over the traced operations;
    counts must repeat exactly between them."""
    traced = [o for o in ops if o["traced"] and "error" not in o]
    plain = [o for o in ops if not o["traced"] and "error" not in o]
    if not traced or not plain:
        problems.append("a traced run needs a good traced and a good untraced operation")
        return {}
    timings, counts = [], []
    for o in traced:
        t = o["trace"]
        tim, cnt = layers.metrics(t["spans"], t["counters"], t["distinct"])
        tim["trace.layer_share"] = tim.pop("trace.attributed_s") / o["run_s"]
        timings.append(tim)
        counts.append(cnt)
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced operations of one run")
    out = {key: statistics.median(t[key] for t in timings) for key in timings[0]}
    out.update(counts[0])
    traced_run = statistics.median(o["run_s"] for o in traced)
    plain_run = statistics.median(o["run_s"] for o in plain)
    out["trace.run_s"] = traced_run
    out["trace.overhead_s"] = traced_run - plain_run
    out["process.cpu_s"] = statistics.median(o["cpu_s"] for o in plain)
    return out


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # operation, and main's cleanup removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Exception:  # a crash must not print a result line
        traceback.print_exc()
        sys.exit(1)
