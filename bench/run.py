"""The polymeasure benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it builds nothing and imports the package
from ``src``.  Workloads (see ``workloads.py`` and BENCHMARK.json):

    tree_sweep  a seeded sample of criterion 10's measuring_set sweep
    deep_tree   criterion 10's curated-candidate step on fresh functors
    agreement   enumeration strategies, tensor and mixed measurings agree
    desk_cli    the shipped workspace commands through cli.run

Each workload runs as a closed loop with one client: one process, no
threads, each verdict starting after the previous one ends, for whole rounds
until ``--seconds`` have passed.  Every process is a fresh interpreter,
because the program's ``apply_to_set`` cache changes what a repeated input
costs.  Children get the parent's environment without POLYMEASURE_GUARD and
with a fixed PYTHONHASHSEED.

``--trace 0`` prints the end-to-end metrics:

    verdicts_per_s      verdicts completed per second of the timed phase
    verdict_p50_ms      median time of one verdict
    verdict_tail_ms     the highest of p50/p90/p99/p99.9 with at least ten
                        samples beyond it (the report names which)
    setup_s             median over SETUP_SAMPLES fresh processes of the time
                        from launch, through imports and building the fixed
                        inputs, to the first timed verdict
    peak_rss_mb         peak resident set of the timed process over set-up
                        and its first RSS_ROUNDS rounds (workloads.py), the
                        same work in every run.  deep_tree's memory keeps
                        growing after that, since the program's apply_to_set
                        cache holds every F(A) it built, so a peak over the
                        whole run would grow with the rounds a faster program
                        completes.  The run record keeps that peak too.
    verdict_pass_share  verdicts that returned the known answer, over
                        verdicts attempted (1 - failed_share)

``--trace 1`` runs the workload untraced and then traced, each in a fresh
process for half of ``--seconds``, and prints the per-layer metrics of the
traced run: for each span ``<layer>.<function>`` its calls and busy seconds,
the counts the workload records, ``<layer>.errors`` for the calls into each
layer that raised, and
``trace.overhead_verdicts_per_s`` (traced minus untraced verdicts_per_s).
Span times include everything the call does inside the program.  The spans
themselves go to ``bench/results/spans-<workload>.json``.

Every run also writes ``bench/results/<workload>-seed<N>-trace<T>.json``
with the git SHA (when the checkout is a repository), a digest of ``src``,
the Python version, the CPUs available, the load average at start, the seed,
the sample counts and the size guard.  The last line of stdout is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.

Which metrics each ROADMAP.md open item should move:
    item 2 (zip kernel, integer encodings): tree_sweep and deep_tree faster;
        it may cost deep_tree time in fixpoints.tree_alg and peak_rss_mb.
    item 3 (one square solver): agreement faster; no change on tree_sweep
        or deep_tree.
    item 5 (stats collector), with the collector off: no change anywhere.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("tree_sweep", "deep_tree", "agreement", "desk_cli")
SETUP_SAMPLES = 15
RUN_TIMEOUT_S = 170.0

LAYERS = ("core", "functor", "fixpoints", "measuring", "universal", "mixed", "workspace", "cli")
SPANS = (
    "functor.apply_to_set", "core.Map", "fixpoints.Algebra", "measuring.measuring_set",
    "fixpoints.tree_alg", "fixpoints.tree_coalg", "functor.build",
    "universal.c_initial_via_dual", "measuring.forced_measuring",
    "fixpoints.unique_hom_from_preinitial", "measuring.enumerate.propagate",
    "measuring.enumerate.convolution", "measuring.enumerate.brute",
    "universal.measuring_tensor", "fixpoints.enumerate_algebra_homs",
    "mixed.enumerate_mixed_measurings", "workspace.load_workspace",
)
COUNTS = (
    "measuring.square_cells", "fixpoints.structure_cells", "measuring.brute.skipped",
    "universal.tensor.classes", "universal.tensor.levels", "universal.tensor.truncated",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POLYMEASURE_GUARD"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: Path, args, deadline: float, *extra: str) -> tuple[float, dict]:
    """Run one worker to completion; its launch time and its JSON summary."""
    seconds = args.seconds / 2 if args.trace else args.seconds
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), *extra]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish in time: {' '.join(extra)}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(root: Path, args, deadline: float) -> float:
    launched, summary = spawn(root, args, deadline, "--setup-only")
    return summary["ready"] - launched


def command_spans() -> list[str]:
    known = json.loads((BENCH / "data" / "known_answers.json").read_text(encoding="utf-8"))
    return [f"cli.run.{Path(argv[0]).stem}.{argv[1]}" for argv, _ in known["desk_cli"]["commands"]]


def end_to_end(timed: dict, setups: list[float]) -> dict:
    return {
        "verdicts_per_s": (timed["verdicts_per_s"], "1/s"),
        "verdict_p50_ms": (timed["p50_s"] * 1e3, "ms"),
        "verdict_tail_ms": (timed["tail_s"] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (timed["settled_rss_mb"], "MB"),
        "verdict_pass_share": ((timed["attempted"] - timed["failed"]) / timed["attempted"], "ratio"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    spans, counts = traced["spans"], traced["counts"]
    out = {}
    for name in SPANS + tuple(command_spans()):
        calls, busy, _ = spans.get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    tried = counts.get("measuring.brute.tables", 0)
    out["measuring.brute_yield"] = (counts.get("measuring.brute.found", 0) / tried if tried else 0.0, "ratio")
    for layer in LAYERS:
        errors = sum(row[2] for name, row in spans.items() if name.split(".")[0] == layer)
        out[f"{layer}.errors"] = (errors, "count")
    out["trace.overhead_verdicts_per_s"] = (traced["verdicts_per_s"] - untraced["verdicts_per_s"], "1/s")
    return out


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def measure(root: Path, args) -> tuple[dict, dict]:
    """(metrics, run record)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **source_identity(root),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }
    if args.trace:
        _, untraced = spawn(root, args, deadline)
        _, traced = spawn(root, args, deadline, "--trace", "1")
        metrics = per_layer(traced, untraced)
        workers = {"untraced": untraced, "traced": traced}
    else:
        # set-up samples before and after the timed process, so that they
        # see more than one moment of a shared machine
        setups = [setup_sample(root, args, deadline) for _ in range(SETUP_SAMPLES // 2)]
        launched, timed = spawn(root, args, deadline)
        setups.append(timed["ready"] - launched)
        setups += [setup_sample(root, args, deadline) for _ in range(SETUP_SAMPLES // 2)]
        metrics = end_to_end(timed, setups)
        record["setup_samples_s"] = setups
        workers = {"timed": timed}
    for name, w in workers.items():
        record[name] = {k: w[k] for k in ("attempted", "failed", "verdicts_per_s", "elapsed_s",
                                          "tail_percentile", "tail_beyond", "rounds", "settled_rss_mb",
                                          "peak_rss_mb", "guard", "guard_at_end")}
    record["attempted"] = sum(w["attempted"] for w in workers.values())
    record["failed"] = sum(w["failed"] for w in workers.values())
    record["failed_share"] = record["failed"] / record["attempted"]
    # each worker exits unless the guard is the default at start; it must stay so
    record["guard"] = sorted({w[k] for w in workers.values() for k in ("guard", "guard_at_end")})
    record["correct"] = record["failed"] == 0 and len(record["guard"]) == 1
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description="polymeasure benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/polymeasure/__init__.py", "workspaces") if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a polymeasure checkout; missing {missing}", file=sys.stderr)
        return 2
    try:
        metrics, record = measure(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    tails = ", ".join(f"{name} p{w['tail_percentile']:g} with {w['tail_beyond']} beyond"
                      for name in ("timed", "untraced", "traced") if (w := record.get(name)))
    print(f"# {args.workload} seed={args.seed} attempted={record['attempted']} failed={record['failed']} "
          f"(failed_share {record['failed_share']:g}) tail: {tails}; guard={record['guard']} "
          f"python={record['python']} nproc={record['nproc']} loadavg={record['loadavg_at_start'][0]:.2f} "
          f"sha={record['git_sha'] or 'src:' + record['src_sha256'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
