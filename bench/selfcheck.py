"""Quick self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload briefly, untraced and traced, from the root of a
checkout.  Asserts that each run's known answers pass and that it reports
exactly the metrics BENCHMARK.json declares, each with its declared unit.
Prints the end-to-end metrics of every workload.  Exits non-zero on the
first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

SECONDS = 1


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, result: dict, declared: list) -> None:
    where = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys are {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        sys.exit(f"{where}: known answers failed: {result['failed']} of {result['attempted']}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if units != wanted:
        missing = sorted(set(wanted) - set(units))
        extra = sorted(set(units) - set(wanted))
        wrong = sorted(n for n in set(units) & set(wanted) if units[n] != wanted[n])
        sys.exit(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")


def main() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, 0)
        check(workload, 0, untraced, spec["end_to_end"])
        check(workload, 1, run(workload, 1), spec["per_layer"])
        print(f"{workload}: {untraced['attempted']} verdicts, all known answers pass")
        for name, m in untraced["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
