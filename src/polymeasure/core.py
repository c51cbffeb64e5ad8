"""Canonical finite sets and functions.

Everything downstream (functors, algebras, measurings) is built out of two
value types defined here: ``Carrier``, a finite set of structured labels kept
in a canonical order, and ``Map``, a total function between two carriers.

Labels are structural trees rather than opaque integers so that functor
applications produce self-describing elements.  A label is one of:

* an ``int`` or ``str`` atom,
* a ``Tag`` (a named wrapper, used e.g. for coproduct injections),
* a tuple of labels (used for products and functor elements).

The canonical order on labels is total and structural, so any two equal
carriers serialize identically and every enumeration in the package is
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

__all__ = [
    "Tag",
    "Label",
    "label_key",
    "label_text",
    "parse_label",
    "Carrier",
    "Map",
    "EMPTY",
    "UNIT",
    "STAR",
    "SizeGuardError",
    "DEFAULT_SIZE_GUARD",
    "set_default_guard",
    "guard_value",
    "check_guard",
    "solve_tables",
    "carrier",
    "mk_product",
    "mk_coproduct",
    "mk_hom",
    "hom_label",
    "map_from_hom_label",
    "enumerate_functions",
    "classify_map",
    "MapClass",
]


@dataclass(frozen=True)
class Tag:
    """A label wrapped with a short name, e.g. ``inl:x``."""

    tag: str
    value: "Label"

    def __repr__(self) -> str:
        return label_text(self)


Label = Union[int, str, Tag, tuple]


def label_key(label: Label):
    """Total structural order on labels: ints, then symbols, then tags, then tuples."""
    if isinstance(label, bool):
        raise TypeError("bool labels are not supported")
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, Tag):
        return (2, label.tag, label_key(label.value))
    if isinstance(label, tuple):
        return (3,) + tuple(label_key(x) for x in label)
    raise TypeError(f"not a label: {label!r}")


def label_text(label: Label) -> str:
    """Canonical textual form; ``parse_label`` is its inverse."""
    if isinstance(label, int):
        return str(label)
    if isinstance(label, str):
        return label
    if isinstance(label, Tag):
        return f"{label.tag}:{label_text(label.value)}"
    if isinstance(label, tuple):
        return "(" + ",".join(label_text(x) for x in label) + ")"
    raise TypeError(f"not a label: {label!r}")


_SYMBOL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_*'-")


def _parse_label_at(text: str, pos: int) -> tuple[Label, int]:
    if pos >= len(text):
        raise ValueError(f"unexpected end of label text at column {pos}")
    ch = text[pos]
    if ch == "(":
        items: list[Label] = []
        pos += 1
        if pos < len(text) and text[pos] == ")":
            return (), pos + 1
        while True:
            item, pos = _parse_label_at(text, pos)
            items.append(item)
            if pos >= len(text):
                raise ValueError("unterminated tuple in label text")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                return tuple(items), pos + 1
            raise ValueError(f"expected ',' or ')' at column {pos}")
    start = pos
    while pos < len(text) and text[pos] in _SYMBOL_CHARS:
        pos += 1
    if pos == start:
        raise ValueError(f"unexpected character {text[pos]!r} at column {pos}")
    word = text[start:pos]
    if pos < len(text) and text[pos] == ":":
        value, pos = _parse_label_at(text, pos + 1)
        return Tag(word, value), pos
    if word.lstrip("-").isdigit():
        return int(word), pos
    return word, pos


def parse_label(text: str) -> Label:
    label, pos = _parse_label_at(text.strip(), 0)
    if pos != len(text.strip()):
        raise ValueError(f"trailing characters in label text: {text[pos:]!r}")
    return label


class SizeGuardError(RuntimeError):
    """An enumeration would exceed the configured size guard."""

    def __init__(self, what: str, size: int, bound: int):
        super().__init__(f"{what}: {size} elements exceeds the size guard of {bound}")
        self.what = what
        self.size = size
        self.bound = bound


DEFAULT_SIZE_GUARD = 10**6
_guard = DEFAULT_SIZE_GUARD


def set_default_guard(bound: int) -> None:
    global _guard
    _guard = int(bound)


def guard_value(guard: int | None = None) -> int:
    return _guard if guard is None else guard


def check_guard(what: str, size: int, guard: int | None = None) -> None:
    bound = guard_value(guard)
    if size > bound:
        raise SizeGuardError(what, size, bound)


def solve_tables(n_cells: int, n_values: int, squares, beta, what: str,
                 guard: int | None = None) -> Iterator[tuple]:
    """Every table t of ``n_cells`` values in ``range(n_values)`` such that
    ``t[target] == beta.get((tag, *t[sources]))`` for each square
    ``(target, tag, sources)``, in lexicographic order.  A key missing from
    ``beta`` fails the square.

    Each square counts its unset distinct sources and fires when the last
    one is set (at once when it has none), setting its target or checking
    it.  When nothing fires, the search branches on the lowest unset cell
    with its values in ascending order, and undoes each branch through a
    trail.  Every square is functional in its target, so a fired value is
    the only one any solution below can have, and the order stays
    lexicographic.  The guard is charged one unit per branch tried and per
    table yielded; past it, ``SizeGuardError`` names ``what``.
    """
    bound = guard_value(guard)
    watchers: list = [[] for _ in range(n_cells)]  # per cell, the squares it is a source of
    missing = []  # per square, its distinct sources not yet set
    ready = []
    for i, (_, _, sources) in enumerate(squares):
        distinct = set(sources)
        missing.append(len(distinct))
        for x in distinct:
            watchers[x].append(i)
        if not distinct:
            ready.append(i)
    table: list = [None] * n_cells
    trail: list = []
    charged = 0

    def charge() -> None:
        nonlocal charged
        charged += 1
        if charged > bound:
            raise SizeGuardError(what, charged, bound)

    def assign(x: int, v: int, fire: list) -> None:
        table[x] = v
        trail.append(x)
        for i in watchers[x]:
            missing[i] -= 1
            if not missing[i]:
                fire.append(i)

    def propagate(fire: list) -> bool:
        for i in fire:  # fire grows while it is read
            target, tag, sources = squares[i]
            value = beta.get((tag, *[table[s] for s in sources]))
            if value is None:
                return False
            if table[target] is None:
                assign(target, value, fire)
            elif table[target] != value:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            table[x] = None
            for i in watchers[x]:
                missing[i] += 1

    if not propagate(ready):
        return
    branches: list = []  # [cell, next value, trail length before it] per open branch
    x = 0
    while True:
        while x < n_cells and table[x] is not None:
            x += 1
        if x < n_cells:
            branches.append([x, 0, len(trail)])
        else:
            charge()
            yield tuple(table)
        while branches:
            branch = branches[-1]
            x, v, mark = branch
            undo(mark)
            if v == n_values:
                branches.pop()
                continue
            branch[1] = v + 1
            charge()
            fire: list = []
            assign(x, v, fire)
            if propagate(fire):
                break
        else:
            return


@dataclass(frozen=True)
class Carrier:
    """A finite set of labels in canonical order."""

    elements: tuple

    def __post_init__(self):
        ordered = tuple(sorted(self.elements, key=label_key))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate element in carrier: {label_text(a)}")
        object.__setattr__(self, "elements", ordered)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    @property
    def _index(self) -> dict:
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {e: i for i, e in enumerate(self.elements)}
            self.__dict__["_index_cache"] = idx
        return idx

    def index(self, label: Label) -> int:
        return self._index[label]

    def __repr__(self) -> str:
        return "{" + ",".join(label_text(e) for e in self.elements) + "}"


def carrier(elements: Iterable[Label]) -> Carrier:
    return Carrier(tuple(elements))


def _ordered_carrier(elements: tuple) -> Carrier:
    """A carrier of elements already in canonical order and without repeats,
    built without the sort and the duplicate scan.

    Only for the products over canonical carriers made by ``mk_product``,
    ``mk_hom`` and ``functor.apply_to_set``: ``itertools.product`` of sorted
    factors (after positions in canonical order) is lexicographic in the
    factors, which is ``label_key`` order on the tuples it builds.
    """
    c = object.__new__(Carrier)
    object.__setattr__(c, "elements", elements)
    return c


EMPTY = carrier(())
STAR: Label = "*"
UNIT = carrier((STAR,))


@dataclass(frozen=True)
class Map:
    """A total function between carriers, stored as the image tuple in dom order."""

    dom: Carrier
    cod: Carrier
    images: tuple

    def __post_init__(self):
        if len(self.images) != len(self.dom):
            raise ValueError("map images must cover exactly the domain")
        for img in self.images:
            if img not in self.cod:
                raise ValueError(f"image {label_text(img)} not in codomain {self.cod}")

    @staticmethod
    def from_dict(dom: Carrier, cod: Carrier, table: Mapping) -> "Map":
        missing = [e for e in dom if e not in table]
        if missing:
            raise ValueError(f"map table missing entries for {missing}")
        if len(table) != len(dom):
            extra = [k for k in table if k not in dom]
            raise ValueError(f"map table has entries outside the domain: {extra}")
        return Map(dom, cod, tuple(table[e] for e in dom))

    @staticmethod
    def from_callable(dom: Carrier, cod: Carrier, fn: Callable[[Label], Label]) -> "Map":
        return Map(dom, cod, tuple(fn(e) for e in dom))

    @staticmethod
    def identity(c: Carrier) -> "Map":
        return Map(c, c, c.elements)

    def __call__(self, label: Label) -> Label:
        return self.images[self.dom.index(label)]

    @property
    def table(self) -> dict:
        return dict(zip(self.dom.elements, self.images))

    def then(self, other: "Map") -> "Map":
        if self.cod != other.dom:
            raise ValueError("maps do not compose: codomain/domain mismatch")
        return Map(self.dom, other.cod, tuple(other(img) for img in self.images))

    def __repr__(self) -> str:
        entries = " ".join(
            f"{label_text(e)}->{label_text(i)}" for e, i in zip(self.dom, self.images)
        )
        return f"[{entries}]"


class ProductResult(NamedTuple):
    carrier: Carrier
    proj1: Map
    proj2: Map


class CoproductResult(NamedTuple):
    carrier: Carrier
    inl: Map
    inr: Map


def mk_product(s: Carrier, t: Carrier, guard: int | None = None) -> ProductResult:
    """Cartesian product with pair labels and the two projections."""
    check_guard("product carrier", len(s) * len(t), guard)
    prod = _ordered_carrier(tuple(itertools.product(s.elements, t.elements)))
    proj1 = Map.from_callable(prod, s, lambda p: p[0])
    proj2 = Map.from_callable(prod, t, lambda p: p[1])
    return ProductResult(prod, proj1, proj2)


def mk_coproduct(s: Carrier, t: Carrier, guard: int | None = None) -> CoproductResult:
    """Tagged disjoint union with the two injections."""
    check_guard("coproduct carrier", len(s) + len(t), guard)
    cop = carrier(
        itertools.chain((Tag("inl", a) for a in s), (Tag("inr", b) for b in t))
    )
    inl = Map.from_callable(s, cop, lambda a: Tag("inl", a))
    inr = Map.from_callable(t, cop, lambda b: Tag("inr", b))
    return CoproductResult(cop, inl, inr)


def hom_label(f: Map) -> Label:
    """The element of ``mk_hom(f.dom, f.cod)`` describing ``f``."""
    return f.images


def map_from_hom_label(label: Label, dom: Carrier, cod: Carrier) -> Map:
    return Map(dom, cod, tuple(label))


def mk_hom(s: Carrier, t: Carrier, guard: int | None = None) -> Carrier:
    """The function-space carrier [s,t]; elements are image tuples in s-order."""
    check_guard("hom carrier", len(t) ** len(s) if len(s) else 1, guard)
    return _ordered_carrier(tuple(itertools.product(t.elements, repeat=len(s))))


def enumerate_functions(s: Carrier, t: Carrier, guard: int | None = None) -> list[Map]:
    """All total functions s -> t in canonical lexicographic order."""
    count = len(t) ** len(s) if len(s) else 1
    check_guard(f"hom-set [{s},{t}]", count, guard)
    if len(s) == 0:
        return [Map(s, t, ())]
    return [Map(s, t, images) for images in itertools.product(t.elements, repeat=len(s))]


class MapClass(NamedTuple):
    injective: bool
    surjective: bool


def classify_map(f: Map) -> MapClass:
    image = set(f.images)
    return MapClass(injective=len(image) == len(f.images), surjective=len(image) == len(f.cod))
