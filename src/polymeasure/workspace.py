"""The workspace definition file: named functors, carriers, algebras,
coalgebras, and measurings in a line-oriented sectioned text format.

    # comment
    [functor M]
    builtin = maybe

    [functor L]
    builtin = list
    monoid = zmod 2

    [functor K]                      # explicit tables
    positions = 0 1
    unit = 1
    op = (0,0)->0 (0,1)->0 (1,0)->0 (1,1)->1
    fiber 0 = a b
    fiber 1 = a b
    zip (0,0) = a->(a,a) b->(b,b)
    ...

    [algebra A]
    functor = M
    builtin = std_alg 2              # or: carrier = ... / table = ...

    [coalgebra C]
    functor = M
    builtin = std_coalg 2

    [measuring phi]
    C = C
    A = A
    B = B
    table = (0,0)->0 (0,1)->0 ...

Labels use the canonical syntax of ``label_text`` (no spaces), so entries
are whitespace-separated ``key->value`` pairs.  Serialization of any object
re-ingests to an identical object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Carrier,
    Label,
    Map,
    carrier,
    label_text,
    parse_label,
)
from .functor import (
    PolyFunctor,
    PositionMonoid,
    automaton_functor,
    bintree_functor,
    bounded_tree_functor,
    compose_functors,
    const_monoid_functor,
    identity_functor,
    list_functor,
    maybe_functor,
    monoid_from_op,
    trivial_monoid,
    unit_functor,
    z_mod,
)
from .fixpoints import (
    Algebra,
    Coalgebra,
    algebra,
    coalgebra,
    list_alg,
    list_coalg,
    nat_automaton,
    std_alg,
    std_coalg,
    tree_alg,
    tree_coalg,
)
from .measuring import Measuring, measuring_from_fn, unit_coalgebra

__all__ = [
    "WorkspaceError",
    "Workspace",
    "parse_workspace",
    "load_workspace",
    "serialize_carrier",
    "serialize_map",
    "serialize_functor",
    "serialize_algebra",
    "serialize_coalgebra",
    "serialize_measuring",
]


class WorkspaceError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


@dataclass
class Workspace:
    functors: dict = field(default_factory=dict)
    carriers: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    coalgebras: dict = field(default_factory=dict)
    measurings: dict = field(default_factory=dict)
    algebra_functor: dict = field(default_factory=dict)  # name -> functor name
    coalgebra_functor: dict = field(default_factory=dict)

    def functor(self, name: str) -> PolyFunctor:
        if name not in self.functors:
            raise WorkspaceError(f"unknown functor {name!r}")
        return self.functors[name]

    def algebra(self, name: str) -> Algebra:
        if name not in self.algebras:
            raise WorkspaceError(f"unknown algebra {name!r}")
        return self.algebras[name]

    def coalgebra(self, name: str) -> Coalgebra:
        if name not in self.coalgebras:
            raise WorkspaceError(f"unknown coalgebra {name!r}")
        return self.coalgebras[name]

    def measuring(self, name: str) -> Measuring:
        if name not in self.measurings:
            raise WorkspaceError(f"unknown measuring {name!r}")
        return self.measurings[name]


def _split_sections(text: str) -> list[tuple[str, str, dict, int]]:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            header = line.strip()
            if not header.endswith("]"):
                raise WorkspaceError("unterminated section header", lineno)
            parts = header[1:-1].split()
            if len(parts) != 2:
                raise WorkspaceError("section header must be [kind name]", lineno)
            current = (parts[0], parts[1], {}, lineno)
            sections.append(current)
            continue
        if current is None:
            raise WorkspaceError("content before any section header", lineno)
        if "=" not in line:
            raise WorkspaceError("expected 'key = value'", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in current[2]:
            raise WorkspaceError(f"duplicate key {key!r}", lineno)
        current[2][key] = (value.strip(), lineno)
    return sections


def _parse_labels(text: str) -> list[Label]:
    return [parse_label(tok) for tok in text.split()]


def _parse_pairs(text: str, lineno: int) -> list[tuple[Label, Label]]:
    out = []
    for tok in text.split():
        if "->" not in tok:
            raise WorkspaceError(f"expected 'key->value', got {tok!r}", lineno)
        k, v = tok.split("->", 1)
        out.append((parse_label(k), parse_label(v)))
    return out


def _parse_monoid(spec: str, lineno: int) -> PositionMonoid:
    parts = spec.split()
    if parts[0] == "zmod" and len(parts) == 2:
        return z_mod(int(parts[1]))
    if parts[0] == "trivial":
        return trivial_monoid()
    raise WorkspaceError(f"unknown monoid spec {spec!r} (use 'zmod N' or 'trivial')", lineno)


def _build_functor(name: str, entries: dict, lineno: int, ws: Workspace) -> PolyFunctor:
    def get(key, default=None):
        return entries[key][0] if key in entries else default

    builtin = get("builtin")
    if builtin:
        parts = builtin.split()
        kind = parts[0]
        if kind == "maybe":
            return maybe_functor()
        if kind == "unit":
            return unit_functor()
        if kind == "identity":
            return identity_functor()
        if kind == "const":
            return const_monoid_functor(_parse_monoid(get("monoid", "trivial"), lineno), name)
        if kind == "list":
            return list_functor(_parse_monoid(get("monoid", "trivial"), lineno), name)
        if kind == "bintree":
            return bintree_functor(_parse_monoid(get("monoid", "trivial"), lineno), name)
        if kind == "boundedtree":
            arity = int(get("arity", "2"))
            return bounded_tree_functor(_parse_monoid(get("monoid", "trivial"), lineno), arity, name)
        if kind == "automaton":
            alphabet = carrier(_parse_labels(get("alphabet", "a")))
            return automaton_functor(alphabet, name)
        if kind == "compose" and len(parts) == 3:
            return compose_functors(ws.functor(parts[1]), ws.functor(parts[2]), name)
        raise WorkspaceError(f"unknown builtin functor {builtin!r}", lineno)
    if "positions" not in entries:
        raise WorkspaceError(f"functor {name!r} needs 'builtin' or explicit tables", lineno)
    positions = _parse_labels(entries["positions"][0])
    unit = parse_label(entries["unit"][0])
    op_pairs = dict(_parse_pairs(entries["op"][0], entries["op"][1]))
    monoid = monoid_from_op(positions, {
        (a, b): op_pairs[(a, b)] for a in positions for b in positions
    }, unit)
    fibers = {}
    for pos in positions:
        key = f"fiber {label_text(pos)}"
        if key not in entries:
            raise WorkspaceError(f"missing '{key}' for functor {name!r}", lineno)
        fibers[pos] = carrier(_parse_labels(entries[key][0]))
    zip_tables = {}
    for c in positions:
        for d in positions:
            key = f"zip ({label_text(c)},{label_text(d)})"
            dom = fibers[monoid.mul(c, d)]
            if key in entries:
                zip_tables[(c, d)] = dict(_parse_pairs(entries[key][0], entries[key][1]))
            elif len(dom) == 0:
                zip_tables[(c, d)] = {}
            else:
                raise WorkspaceError(f"missing '{key}' for functor {name!r}", lineno)

    def zip_of(c, d, w):
        pair = zip_tables[(c, d)][w]
        return (pair[0], pair[1])

    from .functor import _mk_functor

    return _mk_functor(name, monoid, lambda pos: fibers[pos], zip_of)


def _build_algebra(name: str, entries: dict, lineno: int, ws: Workspace) -> Algebra:
    functor_name = entries.get("functor", (None, lineno))[0]
    if functor_name is None:
        raise WorkspaceError(f"algebra {name!r} needs a functor", lineno)
    functor = ws.functor(functor_name)
    builtin = entries.get("builtin", (None, lineno))[0]
    if builtin:
        parts = builtin.split()
        if parts[0] == "std_alg":
            return std_alg(int(parts[1]))
        if parts[0] == "list_alg":
            return list_alg(functor, int(parts[1]))
        if parts[0] == "tree_alg":
            return tree_alg(functor, int(parts[1]))
        raise WorkspaceError(f"unknown builtin algebra {builtin!r}", lineno)
    elements = _parse_labels(entries["carrier"][0])
    table = dict(_parse_pairs(entries["table"][0], entries["table"][1]))
    try:
        return algebra(functor, elements, {k: v for k, v in table.items()}, name=name)
    except (ValueError, KeyError) as exc:
        raise WorkspaceError(f"algebra {name!r}: {exc}", entries["table"][1])


def _build_coalgebra(name: str, entries: dict, lineno: int, ws: Workspace) -> Coalgebra:
    functor_name = entries.get("functor", (None, lineno))[0]
    if functor_name is None:
        raise WorkspaceError(f"coalgebra {name!r} needs a functor", lineno)
    functor = ws.functor(functor_name)
    builtin = entries.get("builtin", (None, lineno))[0]
    if builtin:
        parts = builtin.split()
        if parts[0] == "std_coalg":
            return std_coalg(int(parts[1]))
        if parts[0] == "list_coalg":
            return list_coalg(functor, int(parts[1]))
        if parts[0] == "tree_coalg":
            return tree_coalg(functor, int(parts[1]))
        if parts[0] == "nat_automaton":
            return nat_automaton(int(parts[1]))
        if parts[0] == "unit":
            return unit_coalgebra(functor)
        if parts[0] == "empty":
            return coalgebra(functor, (), {}, name=name)
        raise WorkspaceError(f"unknown builtin coalgebra {builtin!r}", lineno)
    elements = _parse_labels(entries["carrier"][0])
    table = dict(_parse_pairs(entries["table"][0], entries["table"][1]))
    try:
        return coalgebra(functor, elements, {k: v for k, v in table.items()}, name=name)
    except (ValueError, KeyError) as exc:
        raise WorkspaceError(f"coalgebra {name!r}: {exc}", entries["table"][1])


def _build_measuring(name: str, entries: dict, lineno: int, ws: Workspace) -> Measuring:
    for key in ("C", "A", "B", "table"):
        if key not in entries:
            raise WorkspaceError(f"measuring {name!r} needs {key!r}", lineno)
    c_coalg = ws.coalgebra(entries["C"][0])
    a_alg = ws.algebra(entries["A"][0])
    b_alg = ws.algebra(entries["B"][0])
    table = dict(_parse_pairs(entries["table"][0], entries["table"][1]))
    try:
        m = measuring_from_fn(c_coalg, a_alg, b_alg, lambda c, a: table[(c, a)])
    except KeyError as exc:
        raise WorkspaceError(f"measuring {name!r}: missing cell {exc}", entries["table"][1])
    for (c, a), value in m.entries:
        if value not in b_alg.carrier:
            raise WorkspaceError(
                f"measuring {name!r}: cell ({label_text(c)},{label_text(a)}) has value "
                f"{label_text(value)} outside the carrier of {entries['B'][0]}",
                entries["table"][1],
            )
    return m


def parse_workspace(text: str) -> Workspace:
    ws = Workspace()
    for kind, name, entries, lineno in _split_sections(text):
        if kind == "functor":
            ws.functors[name] = _build_functor(name, entries, lineno, ws)
        elif kind == "carrier":
            ws.carriers[name] = carrier(_parse_labels(entries["elements"][0]))
        elif kind == "algebra":
            ws.algebras[name] = _build_algebra(name, entries, lineno, ws)
            ws.algebra_functor[name] = entries.get("functor", ("?", 0))[0]
        elif kind == "coalgebra":
            ws.coalgebras[name] = _build_coalgebra(name, entries, lineno, ws)
            ws.coalgebra_functor[name] = entries.get("functor", ("?", 0))[0]
        elif kind == "measuring":
            ws.measurings[name] = _build_measuring(name, entries, lineno, ws)
        else:
            raise WorkspaceError(f"unknown section kind {kind!r}", lineno)
    return ws


def load_workspace(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read())


# ---------------------------------------------------------------------------
# Serialization (round-trips through parse_workspace)
# ---------------------------------------------------------------------------

def serialize_carrier(name: str, c: Carrier) -> str:
    return f"[carrier {name}]\nelements = {' '.join(label_text(e) for e in c)}\n"


def serialize_map(f: Map) -> str:
    return " ".join(f"{label_text(k)}->{label_text(v)}" for k, v in zip(f.dom, f.images))


def serialize_functor(name: str, functor: PolyFunctor) -> str:
    lines = [f"[functor {name}]"]
    mon = functor.positions
    lines.append(f"positions = {' '.join(label_text(p) for p in mon.carrier)}")
    lines.append(f"unit = {label_text(mon.unit)}")
    lines.append(f"op = {serialize_map(mon.op)}")
    for pos in mon.carrier:
        fiber = functor.fiber(pos)
        lines.append(f"fiber {label_text(pos)} = {' '.join(label_text(e) for e in fiber)}")
    for c in mon.carrier:
        for d in mon.carrier:
            zip_map = functor.zip_pair(c, d)
            if len(zip_map.dom):
                lines.append(f"zip ({label_text(c)},{label_text(d)}) = {serialize_map(zip_map)}")
    return "\n".join(lines) + "\n"


def serialize_algebra(name: str, a: Algebra, functor_name: str) -> str:
    lines = [f"[algebra {name}]", f"functor = {functor_name}"]
    lines.append(f"carrier = {' '.join(label_text(e) for e in a.carrier)}")
    lines.append(f"table = {serialize_map(a.structure)}")
    return "\n".join(lines) + "\n"


def serialize_coalgebra(name: str, c: Coalgebra, functor_name: str) -> str:
    lines = [f"[coalgebra {name}]", f"functor = {functor_name}"]
    lines.append(f"carrier = {' '.join(label_text(e) for e in c.carrier)}")
    lines.append(f"table = {serialize_map(c.structure)}")
    return "\n".join(lines) + "\n"


def serialize_measuring(name: str, m: Measuring, refs: tuple[str, str, str]) -> str:
    c_name, a_name, b_name = refs
    cells = " ".join(
        f"({label_text(c)},{label_text(a)})->{label_text(v)}" for (c, a), v in m.entries
    )
    return (
        f"[measuring {name}]\nC = {c_name}\nA = {a_name}\nB = {b_name}\ntable = {cells}\n"
    )
