"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload it runs a handful of the cheapest queries of seed 0 through
the real pass machinery, untraced and traced, and checks that:

- every end-to-end and per-layer metric named in BENCHMARK.json is produced;
- all of these queries pass their checks;
- a deliberately wrong query result (one digit of one output changed) is
  counted as a failed execution.

Exits 0 when all hold. Takes well under a minute.
"""

import copy
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from workloads import WORKLOADS, make_queries  # noqa: E402

TINY_STRATA = {
    "exact-recovery": ("light", "escalation"),
    "real-series": ("large-n", "q1", "oracle-reach"),
    "hyperbolicity": ("published", "integer"),
}
PER_STRATUM = 2


def _tiny(workload):
    picked, seen = [], {}
    for q in make_queries(workload, 0):
        if q["stratum"] in TINY_STRATA[workload] and seen.get(q["stratum"], 0) < PER_STRATUM:
            seen[q["stratum"]] = seen.get(q["stratum"], 0) + 1
            picked.append(q)
    return picked


def _corrupt(output: str) -> str:
    """Change the first digit of the first number after ' = '."""
    m = re.search(r" = \D*(\d)", output)
    i = m.start(1)
    return output[:i] + str((int(output[i]) + 1) % 10) + output[i + 1:]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as out_dir:
        for workload in WORKLOADS:
            queries = _tiny(workload)
            runs = run.run_passes(ROOT, queries, 0, True, out_dir, workload)
            passes = runs["untraced"] + runs["traced"]
            e2e = run.end_to_end(runs["untraced"], runs["setups"])
            layers = run.per_layer(runs["traced"], runs["untraced"])
            missing = (want_e2e - set(e2e)) | (want_layers - set(layers))
            if missing:
                problems.append("%s: metrics not emitted: %s" % (workload, sorted(missing)))
            clean = run.evaluate(queries, passes)
            if clean["failed"]:
                problems.append("%s: %d clean executions failed" % (workload, clean["failed"]))
            tampered = copy.deepcopy(passes)
            r = tampered[-1]["queries"][0]
            r["output"] = _corrupt(r["output"])
            dirty = run.evaluate(queries, tampered)
            if dirty["failed"] != clean["failed"] + 1:
                problems.append("%s: a wrong result was not counted in ops_failed (%d -> %d)"
                                % (workload, clean["failed"], dirty["failed"]))
            print("%s: %d queries, %d executions, wall %.3f s, %d layer metrics, wrong result caught: %s"
                  % (workload, len(queries), clean["attempted"], e2e["wall_s"], len(layers),
                     dirty["failed"] == clean["failed"] + 1), flush=True)
    for p in problems:
        print("PROBLEM " + p)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
