"""Freeze the benchmark's known answers from the current program.

    PYTHONPATH=src python3 bench/freeze.py

Writes ``bench/data/known_answers.json``: the CLI reports of every command in
the ``workspaces/*.pmw`` headers, the names each shipped workspace defines,
the answer of every pooled ``agreement`` instance and of one ``deep_tree``
verdict per stratum.  Run it only on a commit whose answers are trusted; the
benchmark then fails any verdict that disagrees.  It stops at the first
command or instance that fails, since no frozen answer may be a failure.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from polymeasure import cli
from polymeasure.workspace import load_workspace

import workloads
from tracing import NullTracer
from worker import KNOWN_ANSWERS


def header_commands(root: Path) -> list:
    """The example commands in the ``workspaces/*.pmw`` headers, as argv lists."""
    out = []
    for path in sorted(root.glob("workspaces/*.pmw")):
        for line in path.read_text(encoding="utf-8").splitlines():
            text = line.lstrip("# ").rstrip()
            if line.startswith("#") and text.startswith("polymeasure "):
                out.append(text.split()[1:])
    return out


def freeze_desk_cli(root: Path) -> dict:
    commands = []
    for argv in header_commands(root):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        if code != 0:
            sys.exit(f"polymeasure {' '.join(argv)} exited with {code}")
        commands.append([argv, out.getvalue()])
    loads = {str(path.relative_to(root)): workloads.workspace_summary(load_workspace(str(path.relative_to(root))))
             for path in sorted(root.glob("workspaces/*.pmw"))}
    return {"commands": commands, "loads": loads}


def freeze_deep_tree() -> dict:
    answers = {}
    for shape, k, n, _ in workloads.DeepTree.STRATA:
        tree = workloads.DeepTree(0, NullTracer(), {})
        found = [tree.verdict((shape, k, n, random.Random(f"freeze-{s}").sample(range(10**6), k)))
                 for s in range(2)]
        if found[0] != found[1] or not all(found[0][:3]):
            sys.exit(f"deep_tree {shape} k={k} n={n}: {found}")
        answers[f"{shape}-{k}-{n}"] = found[0]
    return answers


def freeze_agreement() -> dict:
    agreement = workloads.Agreement(0, NullTracer(), {})
    answers = {}
    for family in workloads.FAMILIES:
        answers[family] = [
            agreement.verdict((family, workloads.agreement_instance(family, agreement.functors, j)))
            for j in range(workloads.POOL)
        ]
    return answers


def main() -> None:
    root = Path.cwd()
    known = {
        "tree_sweep": {"measurings": 1},  # criterion 10: every swept B has one measuring
        "deep_tree": freeze_deep_tree(),
        "agreement": freeze_agreement(),
        "desk_cli": freeze_desk_cli(root),
    }
    KNOWN_ANSWERS.parent.mkdir(parents=True, exist_ok=True)
    KNOWN_ANSWERS.write_text(json.dumps(known, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {KNOWN_ANSWERS}")


if __name__ == "__main__":
    main()
