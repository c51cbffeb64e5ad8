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
    has_maybe_shape,
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


def _entry(entries: dict, key: str, owner: str, lineno: int) -> tuple[str, int]:
    """The (value, line) of a required key."""
    if key not in entries:
        raise WorkspaceError(f"{owner} needs {key!r}", lineno)
    return entries[key]


def _parse_label(text: str, lineno: int) -> Label:
    try:
        return parse_label(text)
    except ValueError as exc:
        raise WorkspaceError(f"bad label {text!r}: {exc}", lineno) from None


def _parse_labels(text: str, lineno: int) -> list[Label]:
    return [_parse_label(tok, lineno) for tok in text.split()]


def _parse_carrier(text: str, lineno: int) -> Carrier:
    labels = _parse_labels(text, lineno)
    try:
        return carrier(labels)
    except ValueError as exc:
        raise WorkspaceError(str(exc), lineno) from None


def _parse_pairs(text: str, lineno: int) -> list[tuple[Label, Label]]:
    out = []
    for tok in text.split():
        if "->" not in tok:
            raise WorkspaceError(f"expected 'key->value', got {tok!r}", lineno)
        k, v = tok.split("->", 1)
        out.append((_parse_label(k, lineno), _parse_label(v, lineno)))
    return out


def _parse_count(text: str, lineno: int) -> int:
    if not text.isdigit():
        raise WorkspaceError(f"expected a count, got {text!r}", lineno)
    return int(text)


def _builtin_count(parts: list[str], lineno: int) -> int:
    """The count N of a builtin spec 'kind N'."""
    if len(parts) != 2:
        raise WorkspaceError(f"builtin {parts[0]!r} takes one count", lineno)
    return _parse_count(parts[1], lineno)


def _parse_monoid(spec: str, lineno: int) -> PositionMonoid:
    parts = spec.split()
    if parts[:1] == ["trivial"]:
        return trivial_monoid()
    if len(parts) == 2 and parts[0] == "zmod" and _parse_count(parts[1], lineno):
        return z_mod(int(parts[1]))
    raise WorkspaceError(f"unknown monoid spec {spec!r} (use 'zmod N' or 'trivial')", lineno)


def _require_maybe(builtin: str, functor: PolyFunctor, lineno: int) -> None:
    if not has_maybe_shape(functor):
        raise WorkspaceError(
            f"builtin {builtin!r} is defined for the maybe functor (1 + X) only, "
            f"not for {functor.name!r}", lineno)


def _sized_builtin(build, functor: PolyFunctor, parts: list[str], lineno: int):
    """list_alg/list_coalg/tree_alg/tree_coalg N, which reject a functor
    they do not fit with a ValueError (tree_*: no nullary position nil)."""
    depth = _builtin_count(parts, lineno)
    try:
        return build(functor, depth)
    except ValueError as exc:
        raise WorkspaceError(f"builtin {parts[0]!r}: {exc}", lineno) from None


def _build_functor(name: str, entries: dict, lineno: int, ws: Workspace) -> PolyFunctor:
    def get(key, default=None):
        return entries[key][0] if key in entries else default

    def builtin_monoid() -> PositionMonoid:
        return _parse_monoid(*entries.get("monoid", ("trivial", lineno)))

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
            return const_monoid_functor(builtin_monoid(), name)
        if kind == "list":
            return list_functor(builtin_monoid(), name)
        if kind == "bintree":
            return bintree_functor(builtin_monoid(), name)
        if kind == "boundedtree":
            arity = _parse_count(*entries.get("arity", ("2", lineno)))
            return bounded_tree_functor(builtin_monoid(), arity, name)
        if kind == "automaton":
            alphabet = _parse_carrier(*entries.get("alphabet", ("a", lineno)))
            return automaton_functor(alphabet, name)
        if kind == "compose" and len(parts) == 3:
            return compose_functors(ws.functor(parts[1]), ws.functor(parts[2]), name)
        raise WorkspaceError(f"unknown builtin functor {builtin!r}", lineno)
    if "positions" not in entries:
        raise WorkspaceError(f"functor {name!r} needs 'builtin' or explicit tables", lineno)
    owner = f"functor {name!r}"
    positions = _parse_labels(*entries["positions"])
    unit = _parse_label(*_entry(entries, "unit", owner, lineno))
    op_text, op_line = _entry(entries, "op", owner, lineno)
    op_pairs = dict(_parse_pairs(op_text, op_line))
    try:
        monoid = monoid_from_op(positions, {
            (a, b): op_pairs[(a, b)] for a in positions for b in positions
        }, unit)
    except (ValueError, KeyError) as exc:
        raise WorkspaceError(f"{owner}: bad position monoid: {exc}", op_line) from None
    fibers = {}
    for pos in positions:
        key = f"fiber {label_text(pos)}"
        if key not in entries:
            raise WorkspaceError(f"missing '{key}' for functor {name!r}", lineno)
        fibers[pos] = _parse_carrier(*entries[key])
    zip_tables = {}
    for c in positions:
        for d in positions:
            key = f"zip ({label_text(c)},{label_text(d)})"
            dom = fibers[monoid.mul(c, d)]
            if key in entries:
                zip_tables[(c, d)] = table = dict(_parse_pairs(*entries[key]))
                if not all(isinstance(v, tuple) and len(v) == 2 for v in table.values()):
                    raise WorkspaceError(f"'{key}' must send each element to a pair",
                                         entries[key][1])
            elif len(dom) == 0:
                zip_tables[(c, d)] = {}
            else:
                raise WorkspaceError(f"missing '{key}' for functor {name!r}", lineno)

    def zip_of(c, d, w):
        pair = zip_tables[(c, d)][w]
        return (pair[0], pair[1])

    from .functor import _mk_functor

    try:
        return _mk_functor(name, monoid, lambda pos: fibers[pos], zip_of)
    except (ValueError, KeyError) as exc:
        raise WorkspaceError(f"{owner}: bad zip tables: {exc}", lineno) from None


def _build_algebra(name: str, entries: dict, lineno: int, ws: Workspace) -> Algebra:
    functor_name = entries.get("functor", (None, lineno))[0]
    if functor_name is None:
        raise WorkspaceError(f"algebra {name!r} needs a functor", lineno)
    functor = ws.functor(functor_name)
    builtin = entries.get("builtin", (None, lineno))[0]
    if builtin:
        parts = builtin.split()
        if parts[0] == "std_alg":
            _require_maybe(parts[0], functor, lineno)
            return std_alg(_builtin_count(parts, lineno))
        if parts[0] == "list_alg":
            return _sized_builtin(list_alg, functor, parts, lineno)
        if parts[0] == "tree_alg":
            return _sized_builtin(tree_alg, functor, parts, lineno)
        raise WorkspaceError(f"unknown builtin algebra {builtin!r}", lineno)
    owner = f"algebra {name!r}"
    elements = _parse_labels(*_entry(entries, "carrier", owner, lineno))
    table = dict(_parse_pairs(*_entry(entries, "table", owner, lineno)))
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
            _require_maybe(parts[0], functor, lineno)
            return std_coalg(_builtin_count(parts, lineno))
        if parts[0] == "list_coalg":
            return _sized_builtin(list_coalg, functor, parts, lineno)
        if parts[0] == "tree_coalg":
            return _sized_builtin(tree_coalg, functor, parts, lineno)
        if parts[0] == "nat_automaton":
            _require_maybe(parts[0], functor, lineno)
            return nat_automaton(_builtin_count(parts, lineno))
        if parts[0] == "unit":
            return unit_coalgebra(functor)
        if parts[0] == "empty":
            return coalgebra(functor, (), {}, name=name)
        raise WorkspaceError(f"unknown builtin coalgebra {builtin!r}", lineno)
    owner = f"coalgebra {name!r}"
    elements = _parse_labels(*_entry(entries, "carrier", owner, lineno))
    table = dict(_parse_pairs(*_entry(entries, "table", owner, lineno)))
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
    table = dict(_parse_pairs(*entries["table"]))
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
            elements = _entry(entries, "elements", f"carrier {name!r}", lineno)
            ws.carriers[name] = _parse_carrier(*elements)
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
