"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py REQUEST.json

The request names the workload, its input files, an output directory,
whether to trace, and where to write the result.  Imports happen before
the clock starts; the timed region is the workload's call into
polilean, which pays the cold caches a CLI invocation pays.
"""

import json
import os
import resource
import sys
import time


def main(request_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    import polilean
    import polilean.cli  # noqa: F401  imports every module an entry point uses

    src = os.path.realpath(req["src"])
    if not os.path.realpath(polilean.__file__).startswith(src + os.sep):
        raise RuntimeError(f"polilean imported from {polilean.__file__}, not from {src}")

    from workloads import WORKLOADS

    workload = WORKLOADS[req["workload"]]
    tracer = None
    if req["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer(req["run_id"])
        layers.instrument(tracer)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    outputs = workload.op(req["inputs"], req["out_dir"])
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
        result["distinct"] = tracer.distinct_counts()
    with open(req["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
