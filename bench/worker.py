"""One benchmark process: set up a workload, run whole rounds of verdicts in a
closed loop with one client until the time is up, and print a JSON summary
as the last line of stdout.

Started by ``run.py`` from the root of a checkout, with ``src`` on
PYTHONPATH.  ``--setup-only`` stops once the fixed inputs are built;
``--trace 1`` records spans and writes them to ``results/spans-<workload>.json``.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from polymeasure import core

import workloads
from tracing import NullTracer, Tracer

KNOWN_ANSWERS = Path(__file__).resolve().parent / "data" / "known_answers.json"
SPANS_DIR = Path(__file__).resolve().parent / "results"
TAIL_LADDER = (500, 900, 990, 999)  # per mille: p50, p90, p99, p99.9
MAX_REPORTED_FAILURES = 5


def nearest_rank(ordered: list, per_mille: int) -> tuple[float, int]:
    """The percentile of sorted samples and how many samples lie beyond it."""
    rank = max(1, -(-len(ordered) * per_mille // 1000))
    return ordered[rank - 1], len(ordered) - rank


def latency_summary(latencies: list) -> dict:
    """Median and tail: the highest ladder percentile with ten samples beyond."""
    ordered = sorted(latencies)
    p50, beyond = nearest_rank(ordered, 500)
    tail_pm, tail = 500, p50
    for per_mille in TAIL_LADDER:
        value, n_beyond = nearest_rank(ordered, per_mille)
        if n_beyond >= 10:
            tail_pm, tail, beyond = per_mille, value, n_beyond
    return {"p50_s": p50, "tail_s": tail, "tail_percentile": tail_pm / 10, "tail_beyond": beyond}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(args) -> dict:
    guard = core.guard_value()
    if guard != core.DEFAULT_SIZE_GUARD:
        sys.exit(f"size guard is {guard} at start, not the default {core.DEFAULT_SIZE_GUARD}")
    known = json.loads(KNOWN_ANSWERS.read_text(encoding="utf-8"))[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, known)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    latencies, failures = [], []
    rounds = workload.rounds()
    start = time.perf_counter()
    deadline = start + args.seconds
    rounds_done, settled_rss_mb = 0, None
    while time.perf_counter() < deadline:
        for item in next(rounds):
            tracer.verdict = len(latencies)
            t0 = time.perf_counter()
            try:
                answer = tracer.call("verdict", workload.verdict, item)
                problem = None if answer == workload.expected(item) else (
                    f"answer {answer!r}, expected {workload.expected(item)!r}")
            except Exception:  # a verdict that raises is counted, shown and survived
                problem = traceback.format_exc(limit=-3)
            latencies.append(time.perf_counter() - t0)
            if problem is not None:
                failures.append(f"{workload.describe(item)}: {problem}")
        rounds_done += 1
        if rounds_done == workload.RSS_ROUNDS:
            settled_rss_mb = peak_rss_mb()
    elapsed = time.perf_counter() - start
    tracer.verdict = None

    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "ready": ready,
        "attempted": len(latencies),
        "failed": len(failures),
        "verdicts_per_s": len(latencies) / elapsed,
        "elapsed_s": elapsed,
        "rounds": rounds_done,
        "settled_rss_mb": settled_rss_mb or peak_rss_mb(),
        "peak_rss_mb": peak_rss_mb(),
        "guard": guard,
        "guard_at_end": core.guard_value(),
        **latency_summary(latencies),
    }
    if args.trace:
        result["spans"] = tracer.totals()
        result["counts"] = tracer.counts
        write_spans(SPANS_DIR / f"spans-{args.workload}.json", tracer)
    return result


def write_spans(path: Path, tracer: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"fields": ["name", "start", "end", "parent", "verdict", "ok"], "spans": [\n')
        fh.write(",\n".join(json.dumps(span) for span in tracer.spans))
        fh.write("\n]}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if "POLYMEASURE_GUARD" in os.environ:
        sys.exit("POLYMEASURE_GUARD must not be set in a benchmark process")
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
