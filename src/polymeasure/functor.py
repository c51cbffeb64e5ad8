"""Polynomial endofunctors on finite sets with a lax symmetric monoidal structure.

A functor here is presented by a commutative monoid of positions, a finite
fiber (arity set) per position, and a family of zip maps

    zip(c, d) : fiber(c * d) -> fiber(c) x fiber(d)

from which the monoidal structure maps are computed:

* ``nabla(F, X, Y)``       : F(X) x F(Y) -> F(X x Y)
* ``eta(F)``               : 1 -> F(1)
* ``nabla_tilde(F, X, Y)`` : F([X,Y]) -> [F(X), F(Y)]

An element of ``F(X)`` is a pair label ``(position, args)`` where ``args``
lists one element of ``X`` per fiber element, in the fiber's canonical order.

Every element-level nabla goes through ``_nabla_element``, which reads the
zip plan ``zip_plan(F, c, d) = (c * d, ((i, j), ...))``: for each element of
fiber(c * d), the indices in fiber(c) and fiber(d) of the pair its zip sends
it to.  Plans are cached on the functor, so a zip map is evaluated once per
fiber element and position pair.

``validate_functor`` checks the monoid laws and the zip coherence laws
(coassociativity, counitality, symmetry) exhaustively on labels and reports
witnesses for any failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import (
    Carrier,
    Label,
    Map,
    STAR,
    UNIT,
    _ordered_carrier,
    carrier,
    check_guard,
    hom_label,
    map_from_hom_label,
    mk_hom,
    mk_product,
)

__all__ = [
    "PositionMonoid",
    "PolyFunctor",
    "felement",
    "fel_pos",
    "fel_args",
    "apply_to_set",
    "apply_to_map",
    "nabla",
    "eta",
    "nabla_tilde",
    "LawCheck",
    "validate_functor",
    "monoid_from_op",
    "z_mod",
    "trivial_monoid",
    "unit_functor",
    "identity_functor",
    "const_monoid_functor",
    "maybe_functor",
    "list_functor",
    "bintree_functor",
    "bounded_tree_functor",
    "automaton_functor",
    "compose_functors",
    "has_maybe_shape",
    "zip_plan",
]


@dataclass(frozen=True)
class PositionMonoid:
    """A commutative monoid structure on a finite carrier of position labels."""

    carrier: Carrier
    op: Map
    unit: Label

    def __post_init__(self):
        if self.unit not in self.carrier:
            raise ValueError("monoid unit must lie in the carrier")

    def mul(self, a: Label, b: Label) -> Label:
        return self.op((a, b))


def monoid_from_op(elements: Iterable[Label], mul, unit: Label) -> PositionMonoid:
    """Build a PositionMonoid from a binary callable or a dict of pairs."""
    c = carrier(elements)
    prod, _, _ = mk_product(c, c)
    if callable(mul):
        op = Map.from_callable(prod, c, lambda p: mul(p[0], p[1]))
    else:
        op = Map.from_dict(prod, c, {p: mul[p] for p in prod})
    return PositionMonoid(c, op, unit)


def z_mod(n: int) -> PositionMonoid:
    """The cyclic group Z_n on {0..n-1} under addition mod n."""
    return monoid_from_op(range(n), lambda a, b: (a + b) % n, 0)


def trivial_monoid() -> PositionMonoid:
    return monoid_from_op(UNIT, lambda a, b: STAR, STAR)


@dataclass(frozen=True)
class PolyFunctor:
    """A polynomial endofunctor presented by positions, fibers, and zip maps."""

    name: str
    positions: PositionMonoid
    fibers: tuple  # tuple of (position, Carrier) pairs in canonical order
    zips: tuple  # tuple of ((c, d), Map) pairs in canonical order

    def __post_init__(self):
        have = {pos for pos, _ in self.fibers}
        want = set(self.positions.carrier)
        if have != want:
            raise ValueError("fibers must be declared for exactly the positions")
        pairs = {(c, d) for (c, d), _ in self.zips}
        expected = {(c, d) for c in want for d in want}
        if pairs != expected:
            raise ValueError("zip maps must be declared for every pair of positions")

    def __hash__(self) -> int:
        # the dataclass hash, computed once: every apply_to_set probe hashes the functor
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.positions, self.fibers, self.zips))
            self.__dict__["_hash"] = cached
        return cached

    @property
    def _fiber_map(self) -> dict:
        cache = self.__dict__.get("_fiber_cache")
        if cache is None:
            cache = dict(self.fibers)
            self.__dict__["_fiber_cache"] = cache
        return cache

    @property
    def _zip_map(self) -> dict:
        cache = self.__dict__.get("_zip_cache")
        if cache is None:
            cache = dict(self.zips)
            self.__dict__["_zip_cache"] = cache
        return cache

    def fiber(self, pos: Label) -> Carrier:
        return self._fiber_map[pos]

    def arity(self, pos: Label) -> int:
        return len(self._fiber_map[pos])

    def zip_pair(self, c: Label, d: Label) -> Map:
        return self._zip_map[(c, d)]

    def mul(self, c: Label, d: Label) -> Label:
        return self.positions.mul(c, d)

    @property
    def unit_position(self) -> Label:
        return self.positions.unit

    def __repr__(self) -> str:
        return f"PolyFunctor({self.name})"


def zip_plan(functor: PolyFunctor, c: Label, d: Label) -> tuple:
    """(c * d, ((i, j), ...)): for each element of fiber(c * d), in order, the
    indices in fiber(c) and fiber(d) of the pair its zip map sends it to.
    Cached on the functor."""
    plans = functor.__dict__.setdefault("_zip_plans", {})
    plan = plans.get((c, d))
    if plan is None:
        composite = functor.mul(c, d)
        lam = functor.zip_pair(c, d)
        fiber_c, fiber_d = functor.fiber(c), functor.fiber(d)
        pairs = []
        for w in functor.fiber(composite):
            u, v = lam(w)
            pairs.append((fiber_c.index(u), fiber_d.index(v)))
        plan = plans[(c, d)] = (composite, tuple(pairs))
    return plan


def _mk_functor(name, monoid: PositionMonoid, fiber_of, zip_of) -> PolyFunctor:
    """Assemble a PolyFunctor from fiber/zip callables over the position carrier."""
    fibers = tuple((pos, fiber_of(pos)) for pos in monoid.carrier)
    fiber_map = dict(fibers)
    zips = []
    for c in monoid.carrier:
        for d in monoid.carrier:
            dom = fiber_map[monoid.mul(c, d)]
            cod, _, _ = mk_product(fiber_map[c], fiber_map[d])
            zips.append(((c, d), Map.from_callable(dom, cod, lambda w, c=c, d=d: zip_of(c, d, w))))
    return PolyFunctor(name, monoid, fibers, tuple(zips))


def felement(pos: Label, args: tuple) -> Label:
    return (pos, tuple(args))


def fel_pos(label: Label) -> Label:
    return label[0]


def fel_args(label: Label) -> tuple:
    return label[1]


_APPLY_CACHE: dict = {}


def apply_to_set(functor: PolyFunctor, x: Carrier, guard: int | None = None) -> Carrier:
    """The carrier of F(X): pairs (position, assignment) in canonical order."""
    if guard is None:
        cached = _APPLY_CACHE.get((functor, x))
        if cached is not None:
            return cached
    total = sum(len(x) ** functor.arity(pos) if functor.arity(pos) else 1
                for pos in functor.positions.carrier)
    check_guard(f"{functor.name} applied to a {len(x)}-element carrier", total, guard)
    result = _ordered_carrier(tuple(
        (pos, args) for pos in functor.positions.carrier
        for args in itertools.product(x.elements, repeat=functor.arity(pos))))
    if guard is None:
        if len(_APPLY_CACHE) > 4096:
            _APPLY_CACHE.clear()
        _APPLY_CACHE[(functor, x)] = result
    return result


def apply_to_map(functor: PolyFunctor, f: Map, guard: int | None = None) -> Map:
    """The functor action on maps: (b, g) -> (b, f . g)."""
    dom = apply_to_set(functor, f.dom, guard)
    cod = apply_to_set(functor, f.cod, guard)
    return Map.from_callable(
        dom, cod, lambda e: felement(fel_pos(e), tuple(f(a) for a in fel_args(e)))
    )


def _nabla_element(functor: PolyFunctor, ex: Label, ey: Label) -> Label:
    """The F(X x Y) element obtained from a pair of F(X), F(Y) elements."""
    xs, ys = fel_args(ex), fel_args(ey)
    cd, pairs = zip_plan(functor, fel_pos(ex), fel_pos(ey))
    return felement(cd, tuple((xs[u], ys[v]) for u, v in pairs))


def nabla(functor: PolyFunctor, x: Carrier, y: Carrier, guard: int | None = None) -> Map:
    """The monoidal structure map F(X) x F(Y) -> F(X x Y)."""
    fx = apply_to_set(functor, x, guard)
    fy = apply_to_set(functor, y, guard)
    dom, _, _ = mk_product(fx, fy, guard)
    xy, _, _ = mk_product(x, y, guard)
    cod = apply_to_set(functor, xy, guard)
    return Map.from_callable(dom, cod, lambda p: _nabla_element(functor, p[0], p[1]))


def eta(functor: PolyFunctor) -> Map:
    """The unit map 1 -> F(1) selecting the unit position with constant assignment."""
    f1 = apply_to_set(functor, UNIT)
    unit_pos = functor.unit_position
    target = felement(unit_pos, tuple(STAR for _ in range(functor.arity(unit_pos))))
    return Map.from_dict(UNIT, f1, {STAR: target})


def nabla_tilde(functor: PolyFunctor, x: Carrier, y: Carrier, guard: int | None = None) -> Map:
    """The lax closed structure F([X,Y]) -> [F(X), F(Y)].

    Computed as the adjunct of F(ev) . nabla, i.e. the element (d, (g_u))
    is sent to the function (b, (a_v)) -> (d*b, w -> g_{zip1(w)}(a_{zip2(w)})).
    """
    hom_xy = mk_hom(x, y, guard)
    dom = apply_to_set(functor, hom_xy, guard)
    fx = apply_to_set(functor, x, guard)
    fy = apply_to_set(functor, y, guard)
    cod = mk_hom(fx, fy, guard)

    def convert(e: Label) -> Label:
        maps = felement(fel_pos(e), (map_from_hom_label(g, x, y) for g in fel_args(e)))

        def act(ex: Label) -> Label:
            db, pairs = _nabla_element(functor, maps, ex)
            return felement(db, tuple(g(a) for g, a in pairs))

        return hom_label(Map.from_callable(fx, fy, act))

    return Map.from_callable(dom, cod, convert)


class LawCheck(NamedTuple):
    law: str
    ok: bool
    witness: object


def validate_functor(functor: PolyFunctor) -> list[LawCheck]:
    """Check the position-monoid laws and the zip coherence laws exhaustively."""
    checks: list[LawCheck] = []
    mon = functor.positions
    elems = mon.carrier.elements

    witness = None
    for a, b, c in itertools.product(elems, repeat=3):
        if mon.mul(mon.mul(a, b), c) != mon.mul(a, mon.mul(b, c)):
            witness = (a, b, c)
            break
    checks.append(LawCheck("monoid associativity", witness is None, witness))

    witness = None
    for a, b in itertools.product(elems, repeat=2):
        if mon.mul(a, b) != mon.mul(b, a):
            witness = (a, b)
            break
    checks.append(LawCheck("monoid commutativity", witness is None, witness))

    witness = None
    for a in elems:
        if mon.mul(mon.unit, a) != a or mon.mul(a, mon.unit) != a:
            witness = a
            break
    checks.append(LawCheck("monoid unit", witness is None, witness))

    # Zip coassociativity: both bracketings of fiber(abc) -> fiber(a) x fiber(b) x fiber(c).
    witness = None
    for a, b, c in itertools.product(elems, repeat=3):
        ab = mon.mul(a, b)
        bc = mon.mul(b, c)
        for w in functor.fiber(mon.mul(ab, c)):
            uv, z = functor.zip_pair(ab, c)(w)
            u1, v1 = functor.zip_pair(a, b)(uv)
            u2, vz = functor.zip_pair(a, bc)(w)
            v2, z2 = functor.zip_pair(b, c)(vz)
            if (u1, v1, z) != (u2, v2, z2):
                witness = (a, b, c, w)
                break
        if witness:
            break
    checks.append(LawCheck("zip coassociativity", witness is None, witness))

    # Zip counitality: the fiber(c) component of zip(unit, c) is the identity.
    witness = None
    for c in elems:
        for w in functor.fiber(mon.mul(mon.unit, c)):
            _, v = functor.zip_pair(mon.unit, c)(w)
            if v != w:
                witness = (c, w)
                break
        if witness:
            break
    checks.append(LawCheck("zip counitality", witness is None, witness))

    # Zip symmetry: swap . zip(c,d) = zip(d,c) on fiber(cd) = fiber(dc).
    witness = None
    for c, d in itertools.product(elems, repeat=2):
        for w in functor.fiber(mon.mul(c, d)):
            u, v = functor.zip_pair(c, d)(w)
            v2, u2 = functor.zip_pair(d, c)(w)
            if (u, v) != (u2, v2):
                witness = (c, d, w)
                break
        if witness:
            break
    checks.append(LawCheck("zip symmetry", witness is None, witness))

    return checks


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

ZERO_POSITION: Label = "nil"


def unit_functor() -> PolyFunctor:
    """F(X) = 1: one position with an empty fiber."""
    return _mk_functor("unit", trivial_monoid(), lambda pos: carrier(()), None)


def identity_functor() -> PolyFunctor:
    """F(X) = X: one position with a singleton fiber."""
    return _mk_functor(
        "identity", trivial_monoid(), lambda pos: carrier((0,)), lambda c, d, w: (w, w)
    )


def const_monoid_functor(monoid: PositionMonoid, name: str | None = None) -> PolyFunctor:
    """F(X) = M for a commutative monoid M: positions M, all fibers empty."""
    return _mk_functor(name or "const", monoid, lambda pos: carrier(()), None)


def maybe_functor() -> PolyFunctor:
    """F(X) = 1 + X: positions {Zero, Succ}, Succ the unit, Zero absorbing."""
    mon = monoid_from_op(
        ("Zero", "Succ"), lambda a, b: "Succ" if a == b == "Succ" else "Zero", "Succ"
    )
    return _mk_functor(
        "maybe",
        mon,
        lambda pos: carrier((0,)) if pos == "Succ" else carrier(()),
        lambda c, d, w: (w, w),
    )


def has_maybe_shape(functor: PolyFunctor) -> bool:
    """Whether the functor has the positions, fibers and zips of ``maybe_functor()``,
    whatever its name."""
    cached = functor.__dict__.get("_maybe_shape")
    if cached is None:
        maybe = maybe_functor()
        cached = (functor.positions, functor.fibers, functor.zips) == (
            maybe.positions, maybe.fibers, maybe.zips)
        functor.__dict__["_maybe_shape"] = cached
    return cached


def _zero_adjoined(monoid: PositionMonoid) -> PositionMonoid:
    """Positions M + {nil} with nil absorbing; the encoding of 1 + M x (-)^k functors."""
    if ZERO_POSITION in monoid.carrier:
        raise ValueError(f"monoid carrier already contains the reserved label {ZERO_POSITION!r}")
    elems = list(monoid.carrier) + [ZERO_POSITION]

    def mul(a, b):
        if a == ZERO_POSITION or b == ZERO_POSITION:
            return ZERO_POSITION
        return monoid.mul(a, b)

    return monoid_from_op(elems, mul, monoid.unit)


def list_functor(monoid: PositionMonoid, name: str | None = None) -> PolyFunctor:
    """F(X) = 1 + M x X over a commutative monoid M."""
    return _mk_functor(
        name or "list",
        _zero_adjoined(monoid),
        lambda pos: carrier(()) if pos == ZERO_POSITION else carrier((0,)),
        lambda c, d, w: (w, w),
    )


def bintree_functor(monoid: PositionMonoid, name: str | None = None) -> PolyFunctor:
    """F(X) = 1 + M x X x X over a commutative monoid M; zips are diagonal."""
    return _mk_functor(
        name or "bintree",
        _zero_adjoined(monoid),
        lambda pos: carrier(()) if pos == ZERO_POSITION else carrier((0, 1)),
        lambda c, d, w: (w, w),
    )


def bounded_tree_functor(monoid: PositionMonoid, max_arity: int, name: str | None = None) -> PolyFunctor:
    """Unbounded-arity trees truncated at arity <= max_arity.

    Positions are pairs (m, n) with n <= max_arity plus an absorbing zero;
    the product is (m, n) * (m', n') = (m * m', min(n, n')), the unit is
    (e, max_arity), and fiber((m, n)) = {0..n-1}.  The zip restricts indices
    below the min, which is the arity-bounded form of zipping streams of
    children.  The arity bound replaces "any number of children" and is the
    one declared finite distortion of this instance.
    """
    if ZERO_POSITION in monoid.carrier:
        raise ValueError(f"monoid carrier already contains the reserved label {ZERO_POSITION!r}")
    elems: list[Label] = [(m, n) for m in monoid.carrier for n in range(max_arity + 1)]
    elems.append(ZERO_POSITION)

    def mul(a, b):
        if a == ZERO_POSITION or b == ZERO_POSITION:
            return ZERO_POSITION
        return (monoid.mul(a[0], b[0]), min(a[1], b[1]))

    mon = monoid_from_op(elems, mul, (monoid.unit, max_arity))
    return _mk_functor(
        name or f"tree{max_arity}",
        mon,
        lambda pos: carrier(()) if pos == ZERO_POSITION else carrier(range(pos[1])),
        lambda c, d, w: (w, w),
    )


def automaton_functor(alphabet: Carrier, name: str | None = None) -> PolyFunctor:
    """F(X) = 2 x X^Sigma: positions ({0,1}, and, 1), every fiber the alphabet."""
    mon = monoid_from_op((0, 1), lambda a, b: a & b, 1)
    return _mk_functor(
        name or "automaton",
        mon,
        lambda pos: alphabet,
        lambda c, d, w: (w, w),
    )


def compose_functors(outer: PolyFunctor, inner: PolyFunctor, name: str | None = None,
                     guard: int | None = None) -> PolyFunctor:
    """The composite endofunctor outer . inner in positions/fibers presentation.

    Composite positions are pairs (c, (b_u)_u) of an outer position and one
    inner position per outer fiber element; the composite fiber is the tagged
    sum of the inner fibers, with elements (u, v).
    """
    positions: list[Label] = []
    for c in outer.positions.carrier:
        fiber_c = outer.fiber(c)
        inner_pos = inner.positions.carrier.elements
        count = len(inner_pos) ** len(fiber_c) if len(fiber_c) else 1
        check_guard("composite position carrier", len(positions) + count, guard)
        for assign in itertools.product(inner_pos, repeat=len(fiber_c)):
            positions.append((c, assign))

    def mul(p, q):
        # p and q are outer elements over the inner positions
        cd, pairs = _nabla_element(outer, p, q)
        return (cd, tuple(inner.mul(b, e) for b, e in pairs))

    unit_c = outer.unit_position
    unit = (unit_c, tuple(inner.unit_position for _ in range(outer.arity(unit_c))))
    mon = monoid_from_op(positions, mul, unit)

    def fiber_of(pos):
        c, bs = pos
        fiber_c = outer.fiber(c)
        elems = []
        for i, u in enumerate(fiber_c):
            for v in inner.fiber(bs[i]):
                elems.append((u, v))
        return carrier(elems)

    def zip_of(p, q, w):
        c, bs = p
        d, es = q
        u_out, v_inner = w  # w = (w_outer, z) in the composite fiber of p*q
        lam_outer = outer.zip_pair(c, d)
        u1, u2 = lam_outer(u_out)
        fc, fd = outer.fiber(c), outer.fiber(d)
        b1 = bs[fc.index(u1)]
        b2 = es[fd.index(u2)]
        z1, z2 = inner.zip_pair(b1, b2)(v_inner)
        return ((u1, z1), (u2, z2))

    return _mk_functor(name or f"{outer.name}.{inner.name}", mon, fiber_of, zip_of)
