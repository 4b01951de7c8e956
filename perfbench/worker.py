"""One timed pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py ROOT QUERIES_JSON [SPANS_JSONL]

Imports `fracpart.cli` from ROOT/src, prints `ready` (the parent times set-up
up to that line), then runs every query of QUERIES_JSON in order through
`fracpart.cli.main(argv, out)` and prints one JSON line: per query the exit
code, latency and captured output, plus the pass wall time and peak resident
memory. With SPANS_JSONL the pass is traced: the tracer is installed after
`ready`, its per-function summary joins the result line and its span records
are written to SPANS_JSONL. With no QUERIES_JSON the worker exits after
`ready`, which is how the parent takes extra set-up samples.
"""

import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def main():
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    import fracpart.cli

    print("ready", flush=True)
    if len(sys.argv) < 3:
        return 0
    with open(sys.argv[2]) as fh:
        queries = json.load(fh)
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    t_start = perf_counter()
    for i, argv in enumerate(queries):
        if tracer:
            tracer.query = i
        out = io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            rc = fracpart.cli.main(argv, out)
        except Exception:  # a crash is a failed query, not a failed pass
            rc = -1
            error = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        results.append({"rc": rc, "seconds": dt, "output": out.getvalue(), "error": error})
    wall = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "queries": results}
    if tracer:
        report["layers"] = tracer.summary()
        tracer.write_spans(spans_path)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
