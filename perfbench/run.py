"""fracpart benchmark: seeded CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it needs src/fracpart and perfbench).
The seed fixes the run's query list (workloads.py). Every pass runs that whole
list in a fresh interpreter (worker.py) through fracpart.cli.main, so the term
cache and the sigma sieve start cold as they do for each CLI invocation. The
run makes passes while the next one, as long as the longest so far, would end
within S seconds, with at least three; it is single-process and single-threaded,
one worker at a time. Each query's latency is its best over the run's passes,
the one least disturbed by other load on the machine; the timings are medians
and quantiles of those.

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
alternates untraced and traced passes (tracer.py) and reports the per-layer
split of the traced ones, plus the tracing overhead. The last line of stdout
is the JSON result; everything else is for people. Details of the run, the
per-query latencies and the span records go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_queries  # noqa: E402

MIN_PASSES = 3
SETUP_PER_PASS = 2           # set-up-only interpreters before each pass, on top of its own
PASS_TIMEOUT_S = 120
TAIL_BEYOND = 10             # queries beyond the reported tail percentile

END_TO_END = ("wall_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# environment and processes
# ---------------------------------------------------------------------------

def environment() -> dict:
    import mpmath
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        # runs on different backends are not comparable
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FRACPART_DIGITS", None)   # the queries set their own precision
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"        # the same set and dict layouts in every pass
    return env


def speed_probe() -> float:
    """Best of five timings of a fixed pure-Python loop, in seconds.

    Not a metric: printed beside the metrics, it shows how fast the machine
    ran during the passes, which other load on a shared host can change.
    """
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        x = 0
        for i in range(20000):
            x += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def spawn_worker(root: str, queries_path: str | None = None, spans_path: str | None = None,
                 cpu: int | None = None):
    """Start a worker, pinned to `cpu` if given; return (set-up seconds, report dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root]
    if queries_path:
        cmd.append(queries_path)
    if spans_path:
        cmd.append(spans_path)
    t0 = perf_counter()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            preexec_fn=pin)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        rest, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded %d s" % PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError("worker failed (exit %s): %s" % (proc.returncode, (first + err).strip()[-2000:]))
    if err:
        sys.stderr.write(err)
    if not queries_path:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def run_passes(root: str, queries: list, seconds: float, trace: bool, out_dir: str, tag: str) -> dict:
    """Timed passes, each after set-up-only samples, so that set-up is sampled
    over the whole run; traced passes alternate with untraced ones.

    Successive passes of each kind are pinned to the cores in turn. On a shared host
    one core can stay slow for a whole run; taking turns gives every query
    tries on each core, and its best pass is then on the faster one.
    """
    qpath = os.path.join(out_dir, tag + ".queries.json")
    with open(qpath, "w") as fh:
        json.dump([q["argv"] for q in queries], fh)
    cpus = sorted(os.sched_getaffinity(0))
    setups, probes = [], []
    untraced, traced = [], []
    t_start = perf_counter()
    longest = 0.0
    while True:
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and perf_counter() - t_start + longest > seconds:
            break
        spans = None
        if trace and done % 2 == 1:
            spans = os.path.join(out_dir, "%s.pass%d.spans.jsonl" % (tag, done))
        t0 = perf_counter()
        probes.append(speed_probe())
        setups += [spawn_worker(root)[0] for _ in range(SETUP_PER_PASS)]
        kind = traced if spans else untraced
        setup, report = spawn_worker(root, qpath, spans, cpus[len(kind) % len(cpus)])
        longest = max(longest, perf_counter() - t0)
        report["spans"] = spans
        setups.append(setup)
        kind.append(report)
    return {"setups": setups, "probes": probes, "untraced": untraced, "traced": traced}


# ---------------------------------------------------------------------------
# checking and metrics
# ---------------------------------------------------------------------------

def evaluate(queries: list, passes: list) -> dict:
    """Check each distinct output of each query once; count failed executions.

    An execution fails when it exits non-zero, when its output fails the
    check, or when it differs from the first pass's output (not deterministic).
    """
    import checks

    attempted = failed = unchecked = 0
    results = []
    for i, query in enumerate(queries):
        runs = [p["queries"][i] for p in passes]
        verdicts = {r["output"]: checks.check(query, r["output"]) for r in runs if r["rc"] == 0}
        unchecked += sum(1 for ok, _ in verdicts.values() if ok is None)
        problems = set()
        for r in runs:
            attempted += 1
            if r["rc"] != 0:
                problems.add("exit code %s %s" % (r["rc"], r["error"] or ""))
            elif verdicts[r["output"]][0] is False:
                problems.add(verdicts[r["output"]][1])
            elif r["output"] != runs[0]["output"]:
                problems.add("output differs from the first pass")
            else:
                continue
            failed += 1
        results.append({"argv": query["argv"], "stratum": query["stratum"],
                        "checks": [why for _, why in verdicts.values()], "problems": sorted(problems)})
    return {"attempted": attempted, "failed": failed, "unchecked": unchecked, "results": results}


def output_digest(queries: list, report: dict) -> str:
    h = hashlib.sha256()
    for query, r in zip(queries, report["queries"]):
        h.update(json.dumps([query["argv"], r["rc"], r["output"]]).encode())
    return h.hexdigest()


def end_to_end(passes: list, setups: list) -> dict:
    """Timings from each query's best latency over the passes.

    The machine's speed drifts by tens of percent over seconds as other load
    comes and goes; a query's best pass is the one that drift touched least.
    """
    n = len(passes[0]["queries"])
    latencies = sorted(min(p["queries"][i]["seconds"] for p in passes) for i in range(n))
    rank = max(1, n - TAIL_BEYOND)     # 1-based; TAIL_BEYOND queries lie beyond it
    return {
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": latencies[rank - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "_tail_percentile": 100.0 * rank / n,
        "_queries": n,
    }


def per_layer(traced: list, untraced: list) -> dict:
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median_low(p["layers"][key] for p in traced)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in untraced))
    return out


def stratum_split(queries: list, spans_path: str) -> dict:
    """Self time per layer function, summed over the queries of each stratum."""
    split = {}
    with open(spans_path) as fh:
        for line in fh:
            rec = json.loads(line)
            layers = split.setdefault(queries[rec["query"]]["stratum"], {})
            layers[rec["name"]] = layers.get(rec["name"], 0.0) + rec["self"]
            for leaf, (_, seconds) in rec.get("leaves", {}).items():
                layers[leaf] = layers.get(leaf, 0.0) + seconds
    return split


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _recorded_digest(workload: str, seed: int):
    try:
        with open(os.path.join(HERE, "digests.json")) as fh:
            return json.load(fh).get("%s:%d" % (workload, seed))
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _source_root() -> str:
    root = os.getcwd()
    for need in ("src/fracpart/cli.py", "perfbench/worker.py"):
        if not os.path.isfile(os.path.join(root, need)):
            raise BenchError("run from the root of a fracpart source tree: %s is missing" % need)
    return root


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        root = _source_root()
        sys.path.insert(0, os.path.join(root, "src"))
        env = environment()
        queries = make_queries(args.workload, args.seed)
        out_dir = os.path.join(root, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        runs = run_passes(root, queries, args.seconds, bool(args.trace), out_dir, tag)
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 2

    untraced, traced = runs["untraced"], runs["traced"]
    checked = evaluate(queries, untraced + traced)
    digest = output_digest(queries, untraced[0])
    recorded = _recorded_digest(args.workload, args.seed)
    e2e = end_to_end(untraced, runs["setups"])

    strata = {}
    for q in queries:
        strata[q["stratum"]] = strata.get(q["stratum"], 0) + 1
    print("fracpart benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: python %s, mpmath %s (backend %s), nproc %d, load average %s"
          % (env["python"], env["mpmath"], env["mpmath_backend"], env["nproc"],
             " ".join("%.2f" % x for x in env["loadavg"])))
    print("queries: %d (%s); passes: %d untraced, %d traced"
          % (len(queries), ", ".join("%s %d" % kv for kv in strata.items()), len(untraced), len(traced)))
    print("wall_s = %.4f s" % e2e["wall_s"])
    print("op_p50_s = %.4f s" % e2e["op_p50_s"])
    print("op_tail_s = %.4f s (p%.1f of %d queries; %d beyond it)"
          % (e2e["op_tail_s"], e2e["_tail_percentile"], e2e["_queries"], TAIL_BEYOND))
    print("setup_s = %.4f s (median of %d interpreter starts)" % (e2e["setup_s"], len(runs["setups"])))
    print("peak_rss_mb = %.1f MB" % e2e["peak_rss_mb"])
    print("machine speed probe: %.2f ms median, %.2f..%.2f ms over %d passes"
          % (1e3 * statistics.median(runs["probes"]), 1e3 * min(runs["probes"]),
             1e3 * max(runs["probes"]), len(runs["probes"])))
    print("ops_failed = %d/%d (%.4f); unchecked outputs: %d"
          % (checked["failed"], checked["attempted"], checked["failed"] / checked["attempted"],
             checked["unchecked"]))
    for r in checked["results"]:
        for problem in r["problems"]:
            print("FAILED %s: %s" % (" ".join(r["argv"]), problem))
    if recorded is None:
        print("output digest %s (no recorded digest for this seed)" % digest)
    elif recorded == digest:
        print("output digest %s (matches the recorded one)" % digest)
    else:
        print("output digest %s CHANGED from recorded %s" % (digest, recorded))

    if args.trace:
        layers = per_layer(traced, untraced)
        wall = statistics.median(p["wall_s"] for p in traced)
        print("per-layer split of %d traced passes (traced wall %.4f s):" % (len(traced), wall))
        for key in sorted(k for k in layers if k.endswith(".self_s")):
            if layers[key] > 0:
                print("  %-36s self %8.4f s (%5.1f%%)" % (key[:-7], layers[key], 100 * layers[key] / wall))
        split = stratum_split(queries, traced[0]["spans"])
        print("largest self times per stratum (first traced pass):")
        for stratum, times in split.items():
            total = sum(times.values())
            top = sorted(times.items(), key=lambda kv: -kv[1])[:3]
            print("  %-13s %7.3f s: %s" % (stratum, total, ", ".join(
                "%s %.0f%%" % (name, 100 * t / total) for name, t in top)))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        layers = split = None
        metrics = {k: {"value": e2e[k], "unit": unit_of(k)} for k in END_TO_END}

    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "digest": digest,
            "recorded_digest": recorded, "end_to_end": e2e, "per_layer": layers,
            "stratum_split": split,
            "setups": runs["setups"],
            "speed_probes": runs["probes"],
            "pass_walls": {"untraced": [p["wall_s"] for p in untraced],
                           "traced": [p["wall_s"] for p in traced]},
            "latencies": [[p["queries"][i]["seconds"] for p in untraced] for i in range(len(queries))],
            "checks": checked,
        }, fh, indent=1)

    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
