"""Batch front-end: load a workspace, run one command, emit a report.

Exit status 0 means every check in the command passed, 1 means a check
failed (the report carries witnesses), 2 means the workspace failed to
parse or a size guard tripped.  Reports are deterministic: the same
workspace and command produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import SizeGuardError, guard_value, label_text, parse_label, set_default_guard
from .functor import apply_to_set, validate_functor
from .fixpoints import (
    INF,
    adamek,
    bisim_partition,
    cata,
    enumerate_algebras,
    is_algebra_hom,
    is_coalgebra_hom,
    lambek_check,
    quotient_algebra,
    reachable_set,
    subcoalgebras,
    unfold,
)
from .core import Map
from .measuring import (
    compose_measurings,
    enumerate_measurings,
    is_measuring,
    measuring_violations,
)
from .mixed import enumerate_mixed_measurings, mixed_setup, MixedMeasuring, mixed_measuring_check
from .universal import (
    c_initial_check,
    convolution_algebra,
    dual_coalgebra,
    measuring_tensor,
    terminal_c_initial_search,
    tower,
    universal_measuring,
    verify_universal,
)
from .workspace import (
    WorkspaceError,
    load_workspace,
    serialize_algebra,
    serialize_measuring,
)

PASS, FAIL, ERROR = 0, 1, 2


class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.failed = False

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def check(self, name: str, ok: bool, witness: str = "") -> None:
        verdict = "pass" if ok else "fail"
        suffix = f"  witness: {witness}" if (witness and not ok) else ""
        self.lines.append(f"check {name}: {verdict}{suffix}")
        if not ok:
            self.failed = True

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _fmt_index(i):
    return "inf" if i == INF else str(i)


def cmd_validate_functor(ws, args, rep: Report):
    functor = ws.functor(args.functor)
    rep.line(f"functor {args.functor}: {len(functor.positions.carrier)} positions")
    for law in validate_functor(functor):
        rep.check(law.law, law.ok, repr(law.witness) if law.witness else "")


def cmd_apply(ws, args, rep: Report):
    functor = ws.functor(args.functor)
    if args.carrier in ws.carriers:
        x = ws.carriers[args.carrier]
    else:
        from .core import carrier

        x = carrier(parse_label(tok) for tok in args.carrier.split(","))
    fx = apply_to_set(functor, x)
    rep.line(f"|F(X)| = {len(fx)}")
    for e in fx:
        rep.line(f"  {label_text(e)}")


def cmd_cata(ws, args, rep: Report):
    a = ws.algebra(args.algebra)
    term = parse_label(args.term)
    rep.line(f"cata = {label_text(cata(term, a))}")


def cmd_unfold(ws, args, rep: Report):
    c = ws.coalgebra(args.coalgebra)
    state = parse_label(args.state)
    behavior = unfold(c, state, args.depth)
    rep.line(f"state {label_text(state)}")
    rep.line(f"total = {behavior.total}")
    if behavior.index is not None:
        rep.line(f"index = {_fmt_index(behavior.index)}")
    rep.line(f"behavior = {label_text(behavior.tree)}")


def cmd_adamek(ws, args, rep: Report):
    functor = ws.functor(args.functor)
    result = adamek(functor, args.direction, args.budget)
    rep.line(f"direction = {result.direction}")
    rep.line(f"stages = {' '.join(str(len(s)) for s in result.stages)}")
    rep.line(f"stabilized = {result.stabilized}")
    if result.stabilized:
        rep.line(f"fixpoint carrier = {result.fixpoint.carrier!r}")
        if args.direction == "forward":
            ok, witness = lambek_check(result, hom_size=args.lambek_size)
            rep.check("lambek", ok, repr(witness) if witness else "")
    else:
        rep.line("status = truncated")


def cmd_preinitial(ws, args, rep: Report):
    a = ws.algebra(args.algebra)
    reach = reachable_set(a)
    ok = len(reach) == len(a.carrier)
    missing = sorted(set(a.carrier.elements) - reach, key=label_text)
    rep.check("preinitial", ok, f"unreachable {', '.join(map(label_text, missing))}")


def cmd_subterminal(ws, args, rep: Report):
    c = ws.coalgebra(args.coalgebra)
    partition = bisim_partition(c)
    rep.line(f"bisimulation classes = {len(partition)}")
    for cls in partition:
        rep.line("  {" + ",".join(label_text(s) for s in cls) + "}")
    rep.check("subterminal", all(len(cls) == 1 for cls in partition))


def cmd_subcoalgebras(ws, args, rep: Report):
    c = ws.coalgebra(args.coalgebra)
    subs = subcoalgebras(c)
    rep.line(f"subcoalgebras = {len(subs)}")
    for sub in subs:
        rep.line("  {" + ",".join(label_text(s) for s in sub.carrier) + "}")


def cmd_quotient(ws, args, rep: Report):
    a = ws.algebra(args.algebra)
    pairs = []
    for tok in args.identify.split():
        pair = parse_label(tok)
        pairs.append((pair[0], pair[1]))
    q, proj = quotient_algebra(a, pairs)
    rep.line(f"classes = {len(q.carrier)}")
    rep.line(serialize_algebra(f"{args.algebra}_quotient", q, ws.algebra_functor[args.algebra]).rstrip())


def cmd_check_hom(ws, args, rep: Report):
    table = dict(
        (parse_label(tok.split("->")[0]), parse_label(tok.split("->")[1]))
        for tok in args.map.split()
    )
    if args.kind == "algebra":
        a, b = ws.algebra(args.source), ws.algebra(args.target)
        f = Map.from_dict(a.carrier, b.carrier, table)
        rep.check("algebra-homomorphism", is_algebra_hom(f, a, b))
    else:
        c, d = ws.coalgebra(args.source), ws.coalgebra(args.target)
        f = Map.from_dict(c.carrier, d.carrier, table)
        rep.check("coalgebra-homomorphism", is_coalgebra_hom(f, c, d))


def cmd_check_measuring(ws, args, rep: Report):
    m = ws.measuring(args.measuring)
    bad = measuring_violations(m)
    rep.check(
        "measuring",
        not bad,
        "; ".join(f"({label_text(c)},{label_text(fe)})" for c, fe in bad[:3]),
    )


def cmd_enumerate_measurings(ws, args, rep: Report):
    c, a, b = ws.coalgebra(args.C), ws.algebra(args.A), ws.algebra(args.B)
    ms = enumerate_measurings(c, a, b, args.strategy)
    rep.line(f"strategy = {args.strategy}")
    rep.line(f"count = {len(ms)}")
    for i, m in enumerate(ms):
        rep.line(serialize_measuring(f"m{i}", m, (args.C, args.A, args.B)).rstrip())


def cmd_convolution(ws, args, rep: Report):
    c, b = ws.coalgebra(args.C), ws.algebra(args.B)
    conv = convolution_algebra(c, b)
    rep.line(f"|[C,B]| = {len(conv.carrier)}")
    rep.line(serialize_algebra("convolution", conv, ws.coalgebra_functor[args.C]).rstrip())


def cmd_tensor(ws, args, rep: Report):
    c, a = ws.coalgebra(args.C), ws.algebra(args.A)
    pres = measuring_tensor(c, a, budget=args.budget)
    rep.line(f"status = {pres.status}")
    rep.line(f"levels = {pres.levels_run}")
    rep.line(f"classes = {len(pres.class_terms)}")
    if pres.algebra is not None:
        rep.line(serialize_algebra("tensor", pres.algebra, ws.coalgebra_functor[args.C]).rstrip())


def cmd_universal(ws, args, rep: Report):
    a, b = ws.algebra(args.A), ws.algebra(args.B)
    desc, ev = universal_measuring(a, b)
    rep.line(f"universal = {desc.describe()}")
    if args.verify:
        ok, cex = verify_universal(desc, ev, a, b, k=args.verify)
        rep.check(f"terminality(k={args.verify})", ok, repr(cex) if cex else "")


def cmd_dual(ws, args, rep: Report):
    a = ws.algebra(args.A)
    desc, _ = dual_coalgebra(a)
    rep.line(f"dual = {desc.describe()}")


def cmd_tower(ws, args, rep: Report):
    a, b = ws.algebra(args.A), ws.algebra(args.B)
    result = tower(a, b, args.n_max)
    rep.line(f"stage sizes = {' '.join(str(len(s.measurings)) for s in result.stages)}")
    rep.line(f"limit elements = {len(result.limit)}")
    rep.line(f"stabilized_at = {result.stabilized_at}")


def cmd_c_initial(ws, args, rep: Report):
    a, c = ws.algebra(args.A), ws.coalgebra(args.C)
    family = enumerate_algebras(a.functor, args.test_size)
    report = c_initial_check(a, c, family)
    rep.line(f"test algebras = {len(report.counts)}")
    rep.check("c-initial", report.ok, repr(report.violation) if report.violation else "")


def cmd_terminal_c_initial(ws, args, rep: Report):
    c = ws.coalgebra(args.C)
    candidates = [ws.algebra(name) for name in args.candidates.split(",")]
    family = enumerate_algebras(candidates[0].functor, args.test_size)
    result = terminal_c_initial_search(c, candidates, family)
    rep.line(f"status = {result.status}")
    rep.line(f"c-initial candidates = {len(result.c_initial)}")
    for w in result.winners:
        rep.line(f"terminal = {w.name or repr(w.carrier)}")
    rep.check("terminal-c-initial", result.status == "found")


def cmd_mixed_check(ws, args, rep: Report):
    inner, outer = ws.functor(args.inner), ws.functor(args.outer)
    setup = mixed_setup(inner, outer)
    c = ws.coalgebra(args.C)
    a, b = ws.algebra(args.A), ws.algebra(args.B)
    if args.table:
        table = dict(
            ((parse_label(tok.split("->")[0])[0], parse_label(tok.split("->")[0])[1]),
             parse_label(tok.split("->")[1]))
            for tok in args.table.split()
        )
        cells = tuple(((cc, aa), table[(cc, aa)]) for cc in c.carrier for aa in a.carrier)
        m = MixedMeasuring(setup, c, a, b, cells)
        ok, witnesses = mixed_measuring_check(m)
        rep.check("mixed-measuring", ok,
                  "; ".join(f"({label_text(x)},{label_text(y)})" for x, y in witnesses[:3]))
    else:
        ms = enumerate_mixed_measurings(setup, c, a, b)
        rep.line(f"count = {len(ms)}")


def cmd_compose(ws, args, rep: Report):
    psi, phi = ws.measuring(args.psi), ws.measuring(args.phi)
    composed = compose_measurings(psi, phi)
    rep.line(f"tensor carrier size = {len(composed.C.carrier)}")
    rep.line(serialize_measuring("composed", composed, ("tensor", args.phi, args.psi)).rstrip())
    rep.check("composite-valid", is_measuring(composed))


COMMANDS = {
    "validate-functor": cmd_validate_functor,
    "apply": cmd_apply,
    "cata": cmd_cata,
    "unfold": cmd_unfold,
    "adamek": cmd_adamek,
    "preinitial": cmd_preinitial,
    "subterminal": cmd_subterminal,
    "subcoalgebras": cmd_subcoalgebras,
    "quotient": cmd_quotient,
    "check-hom": cmd_check_hom,
    "check-measuring": cmd_check_measuring,
    "enumerate-measurings": cmd_enumerate_measurings,
    "convolution": cmd_convolution,
    "tensor": cmd_tensor,
    "universal": cmd_universal,
    "dual": cmd_dual,
    "tower": cmd_tower,
    "c-initial": cmd_c_initial,
    "terminal-c-initial": cmd_terminal_c_initial,
    "mixed-check": cmd_mixed_check,
    "compose": cmd_compose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymeasure",
        description="finite-model workbench for measurings between functor algebras",
    )
    parser.add_argument("workspace", help="path to the workspace definition file")
    parser.add_argument("--guard", type=int, default=None, help="global size guard")
    parser.add_argument("--out", default=None, help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *specs):
        p = sub.add_parser(name)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        return p

    add("validate-functor", (("--functor",), {"required": True}))
    add("apply", (("--functor",), {"required": True}),
        (("--carrier",), {"required": True, "help": "carrier name or comma-separated labels"}))
    add("cata", (("--algebra",), {"required": True}), (("--term",), {"required": True}))
    add("unfold", (("--coalgebra",), {"required": True}), (("--state",), {"required": True}),
        (("--depth",), {"type": int, "default": 8}))
    add("adamek", (("--functor",), {"required": True}),
        (("--direction",), {"choices": ["forward", "backward"], "default": "forward"}),
        (("--budget",), {"type": int, "default": 6}),
        (("--lambek-size",), {"type": int, "default": 2}))
    add("preinitial", (("--algebra",), {"required": True}))
    add("subterminal", (("--coalgebra",), {"required": True}))
    add("subcoalgebras", (("--coalgebra",), {"required": True}))
    add("quotient", (("--algebra",), {"required": True}),
        (("--identify",), {"required": True, "help": "pairs like (4,5) (2,3)"}))
    add("check-hom", (("--source",), {"required": True}), (("--target",), {"required": True}),
        (("--map",), {"required": True}),
        (("--kind",), {"choices": ["algebra", "coalgebra"], "default": "algebra"}))
    add("check-measuring", (("--measuring",), {"required": True}))
    add("enumerate-measurings", (("--C",), {"required": True}), (("--A",), {"required": True}),
        (("--B",), {"required": True}),
        (("--strategy",), {"choices": ["brute", "convolution", "propagate"],
                           "default": "propagate"}))
    add("convolution", (("--C",), {"required": True}), (("--B",), {"required": True}))
    add("tensor", (("--C",), {"required": True}), (("--A",), {"required": True}),
        (("--budget",), {"type": int, "default": 6}))
    add("universal", (("--A",), {"required": True}), (("--B",), {"required": True}),
        (("--verify",), {"type": int, "default": 0}))
    add("dual", (("--A",), {"required": True}))
    add("tower", (("--A",), {"required": True}), (("--B",), {"required": True}),
        (("--n-max",), {"type": int, "default": 4}))
    add("c-initial", (("--A",), {"required": True}), (("--C",), {"required": True}),
        (("--test-size",), {"type": int, "default": 2}))
    add("terminal-c-initial", (("--C",), {"required": True}),
        (("--candidates",), {"required": True, "help": "comma-separated algebra names"}),
        (("--test-size",), {"type": int, "default": 2}))
    add("mixed-check", (("--inner",), {"required": True}), (("--outer",), {"required": True}),
        (("--C",), {"required": True}), (("--A",), {"required": True}),
        (("--B",), {"required": True}), (("--table",), {"default": None}))
    add("compose", (("--psi",), {"required": True}), (("--phi",), {"required": True}))
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    guard = args.guard if args.guard is not None else os.environ.get("POLYMEASURE_GUARD")
    previous_guard = guard_value()
    if guard is not None:
        set_default_guard(int(guard))
    rep = Report()
    try:
        ws = load_workspace(args.workspace)
        COMMANDS[args.command](ws, args, rep)
    except (WorkspaceError, SizeGuardError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return ERROR
    finally:
        set_default_guard(previous_guard)
    text = rep.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return FAIL if rep.failed else PASS


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
