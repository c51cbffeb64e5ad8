import io
import os
import pathlib
import subprocess
import sys

import pytest

from polymeasure.cli import run
from polymeasure.workspace import (
    parse_workspace,
    serialize_algebra,
    serialize_coalgebra,
    serialize_functor,
    serialize_measuring,
)

WORKSPACE = """\
# maybe-functor playground
[functor M]
builtin = maybe

[functor L]
builtin = list
monoid = zmod 2

[algebra A]
functor = M
builtin = std_alg 2

[algebra B]
functor = M
builtin = std_alg 4

[algebra B1]
functor = M
builtin = std_alg 1

[coalgebra C]
functor = M
builtin = std_coalg 2

[coalgebra T]
functor = M
builtin = nat_automaton 4

[measuring phi]
C = C
A = A
B = B
table = (0,0)->0 (0,1)->0 (0,2)->0 (1,0)->0 (1,1)->1 (1,2)->1 (2,0)->0 (2,1)->1 (2,2)->2
"""


@pytest.fixture
def ws_path(tmp_path):
    path = tmp_path / "demo.pmw"
    path.write_text(WORKSPACE)
    return str(path)


def run_cli(args, capsys):
    status = run(args)
    out = capsys.readouterr().out
    return status, out


class TestCommands:
    def test_validate_functor(self, ws_path, capsys):
        status, out = run_cli([ws_path, "validate-functor", "--functor", "M"], capsys)
        assert status == 0
        assert "monoid associativity: pass" in out

    def test_universal_matches_classification(self, ws_path, capsys):
        status, out = run_cli([ws_path, "universal", "--A", "A", "--B", "B"], capsys)
        assert status == 0
        assert "universal = index<=2" in out

    def test_universal_terminal_case(self, ws_path, capsys):
        status, out = run_cli([ws_path, "universal", "--A", "A", "--B", "B1"], capsys)
        assert status == 0
        assert "universal = terminal" in out

    def test_enumerate_count_at_unit_matches_homs(self, tmp_path, capsys):
        text = WORKSPACE + "\n[coalgebra U]\nfunctor = M\nbuiltin = unit\n"
        path = tmp_path / "unit.pmw"
        path.write_text(text)
        status, out = run_cli(
            [str(path), "enumerate-measurings", "--C", "U", "--A", "A", "--B", "B1"],
            capsys,
        )
        assert status == 0
        assert "count = 1" in out  # exactly the unique total homomorphism

    def test_check_measuring_pass_and_fail(self, ws_path, tmp_path, capsys):
        status, out = run_cli([ws_path, "check-measuring", "--measuring", "phi"], capsys)
        assert status == 0 and "pass" in out
        broken = WORKSPACE.replace("(2,2)->2", "(2,2)->4")
        bad_path = tmp_path / "bad.pmw"
        bad_path.write_text(broken)
        status, out = run_cli([str(bad_path), "check-measuring", "--measuring", "phi"], capsys)
        assert status == 1
        assert "fail" in out and "witness" in out

    def test_adamek_and_unfold(self, ws_path, capsys):
        status, out = run_cli([ws_path, "adamek", "--functor", "M", "--budget", "3"], capsys)
        assert status == 0
        assert "stages = 0 1 2 3" in out
        status, out = run_cli(
            [ws_path, "unfold", "--coalgebra", "T", "--state", "inf", "--depth", "3"], capsys
        )
        assert status == 0
        assert "index = inf" in out

    def test_tower_and_dual(self, ws_path, capsys):
        status, out = run_cli([ws_path, "dual", "--A", "A"], capsys)
        assert status == 0 and "dual = index<=2" in out
        status, out = run_cli([ws_path, "tower", "--A", "B", "--B", "A", "--n-max", "4"], capsys)
        assert status == 0
        assert "stabilized_at = 3" in out  # B = std_alg(4), A = std_alg(2): m+1

    def test_quotient_and_subcoalgebras(self, ws_path, capsys):
        status, out = run_cli(
            [ws_path, "quotient", "--algebra", "B", "--identify", "(3,4)"], capsys
        )
        assert status == 0 and "classes = 4" in out
        status, out = run_cli([ws_path, "subcoalgebras", "--coalgebra", "C"], capsys)
        assert status == 0 and "subcoalgebras = 4" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "broken.pmw"
        bad.write_text("[algebra A]\nfunctor = M\ncarrier = 0\ntable = nonsense\n")
        status = run([str(bad), "preinitial", "--algebra", "A"])
        err = capsys.readouterr().err
        assert status == 2
        assert "error:" in err

    def test_guard_error_exit_code(self, ws_path, capsys):
        status = run([ws_path, "--guard", "10", "enumerate-measurings",
                      "--C", "C", "--A", "A", "--B", "B", "--strategy", "brute"])
        err = capsys.readouterr().err
        assert status == 2
        assert "size guard" in err
        from polymeasure.core import guard_value, DEFAULT_SIZE_GUARD

        assert guard_value() == DEFAULT_SIZE_GUARD

    def test_measuring_cell_outside_codomain_is_a_parse_error(self, tmp_path, capsys):
        import pathlib

        shipped = pathlib.Path(__file__).resolve().parent.parent / "workspaces" / "list_type.pmw"
        text = shipped.read_text()
        assert "((0),(0))->(0) " in text
        bad = tmp_path / "list_type.pmw"
        bad.write_text(text.replace("((0),(0))->(0) ", "((0),(0))->(0,0,0,0,0) "))
        status = run([str(bad), "check-measuring", "--measuring", "phi"])
        err = capsys.readouterr().err
        assert status == 2
        assert "error:" in err and "outside the carrier of lists4" in err

    def test_reports_are_deterministic(self, ws_path, capsys):
        outputs = []
        for _ in range(2):
            _, out = run_cli(
                [ws_path, "enumerate-measurings", "--C", "C", "--A", "A", "--B", "B1"],
                capsys,
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]


LIST_Z2 = "[functor L]\nbuiltin = list\nmonoid = zmod 2\n"
MALFORMED = {
    "functor-without-unit": "[functor K]\npositions = 0 1\n"
                            "op = (0,0)->0 (0,1)->1 (1,0)->1 (1,1)->0\nfiber 0 =\nfiber 1 =\n",
    "bad-label-text": "[functor M]\nbuiltin = maybe\n[algebra A]\nfunctor = M\n"
                      "carrier = ((\ntable = (Zero,())->0\n",
    "algebra-without-carrier": "[functor M]\nbuiltin = maybe\n[algebra A]\nfunctor = M\n"
                               "table = (Zero,())->0\n",
    "empty-monoid": "[functor L]\nbuiltin = list\nmonoid =\n",
    "monoid-zmod-x": "[functor L]\nbuiltin = list\nmonoid = zmod x\n",
    "std_alg-on-list": LIST_Z2 + "[algebra A]\nfunctor = L\nbuiltin = std_alg 2\n",
    "std_coalg-on-list": LIST_Z2 + "[coalgebra C]\nfunctor = L\nbuiltin = std_coalg 2\n",
    "nat_automaton-on-list": LIST_Z2 + "[coalgebra C]\nfunctor = L\nbuiltin = nat_automaton 2\n",
    "tree_alg-on-maybe": "[functor M]\nbuiltin = maybe\n[algebra A]\nfunctor = M\n"
                         "builtin = tree_alg 2\n",
    "duplicate-carrier-element": "[functor M]\nbuiltin = maybe\n[carrier X]\nelements = 1 1\n",
    "list_coalg-without-nullary": "[functor F]\nbuiltin = automaton\n[coalgebra C]\nfunctor = F\n"
                                  "builtin = list_coalg 1\n",
    "list_alg-on-bintree": "[functor T]\nbuiltin = bintree\n[algebra A]\nfunctor = T\n"
                           "builtin = list_alg 1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_workspace_exits_2_without_traceback(case, tmp_path):
    text = MALFORMED[case]
    path = tmp_path / "malformed.pmw"
    path.write_text(text)
    functor = text.split("]", 1)[0].split()[-1]
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polymeasure.cli", str(path), "validate-functor",
         "--functor", functor],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and "(line " in proc.stderr


def test_package_runs_as_a_module(capsys):
    """``python -m polymeasure`` runs the CLI: a shipped header command exits 0
    with the report that ``cli.run`` writes."""
    root = pathlib.Path(__file__).resolve().parent.parent
    args = [str(root / "workspaces" / "binary_tree.pmw"), "preinitial", "--algebra", "trees1"]
    assert run(args) == 0
    expected = capsys.readouterr().out
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "polymeasure", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected and expected


class TestShippedWorkspaces:
    def test_every_example_workspace_command_runs(self, capsys):
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent / "workspaces"
        files = sorted(root.glob("*.pmw"))
        assert len(files) == 8
        ran = 0
        for path in files:
            for line in path.read_text().splitlines():
                match = re.match(r"#\s+polymeasure\s+workspaces/(\S+)\s+(.*)", line)
                if not match:
                    continue
                args = [str(root / match.group(1))] + match.group(2).split()
                status = run(args)
                capsys.readouterr()
                assert status == 0, (path.name, args)
                ran += 1
        assert ran >= 12


class TestRoundTrip:
    def test_functor_round_trip(self):
        ws = parse_workspace(WORKSPACE)
        text = serialize_functor("M2", ws.functor("M"))
        reparsed = parse_workspace(text)
        original = ws.functor("M")
        clone = reparsed.functor("M2")
        assert clone.positions == original.positions
        assert clone.fibers == original.fibers
        assert dict(clone.zips) == dict(original.zips)

    def test_algebra_round_trip(self):
        ws = parse_workspace(WORKSPACE)
        text = WORKSPACE + "\n" + serialize_algebra("A2", ws.algebra("A"), "M")
        reparsed = parse_workspace(text)
        assert reparsed.algebra("A2").structure == ws.algebra("A").structure

    def test_coalgebra_round_trip(self):
        ws = parse_workspace(WORKSPACE)
        text = WORKSPACE + "\n" + serialize_coalgebra("C2", ws.coalgebra("T"), "M")
        reparsed = parse_workspace(text)
        assert reparsed.coalgebra("C2").structure == ws.coalgebra("T").structure

    def test_measuring_round_trip(self):
        ws = parse_workspace(WORKSPACE)
        text = WORKSPACE + "\n" + serialize_measuring(
            "phi2", ws.measuring("phi"), ("C", "A", "B")
        )
        reparsed = parse_workspace(text)
        assert reparsed.measuring("phi2").entries == ws.measuring("phi").entries
