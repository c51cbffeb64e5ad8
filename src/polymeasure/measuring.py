"""Measurings: coalgebra-indexed partial homomorphisms between algebras.

A measuring from algebra A to algebra B by coalgebra C is a table
phi : C x A -> B making the defining square commute:

    phi(c, alpha(fe)) = beta( nabla(chi(c), fe) ; phi )

where phi is applied to each (state, element) pair that nabla produces.
The set of all of them is ``mu(C, A, B)``.

Three enumeration strategies are provided and must agree:

* ``brute``       - filter every table (the oracle),
* ``convolution`` - algebra homomorphisms A -> [C,B],
* ``propagate``   - ``core.solve_tables`` on the (c, F(A)-cell) squares:
                    each square fires once its cells on the right are set,
                    and the search branches on the lowest cell left unset.

``forced_measuring`` additionally computes the unique candidate table for a
preinitial A by demand; it is exact whenever the demand cannot loop (acyclic
C, or values in a lazy initial algebra, where cyclic constraints have no
solution).  ``measuring_set`` takes it there and ``propagate`` elsewhere;
on a preinitial A every cell fires from the nullary squares, so
``propagate`` does not branch either.

The square kernel
-----------------
``measuring_violations``, ``is_measuring``, ``forced_measuring``, the
forced branch of ``measuring_set`` and the squares that ``propagate`` solves
all come from one kernel that works on integers.  A pair (C, A) is compiled
once into a ``_SquarePlan``:

* each state's position id and child indices,
* the F(A) cells in runs of one position, each run holding A's structure
  images ``alpha[k]`` and one column of argument indices per fiber element,
* one zip plan per (state position, cell position) pair:
  ``(composite position id, ((u, v), ...))``, the fiber indices that the
  nabla of the two positions pairs up (``functor.zip_plan``, cached on the
  functor),
* built on first forced use: A's preferred decomposition of each element
  and the demand order of the forced cells (c, a), or the cyclic cell the
  demand runs into.  The order depends on C and A only.

Memory is O(|C| + |A| + |F(A)| * arity + |positions|^2) plus the demand
order's |C| * |A| ints; nothing is stored per (c, F(A)-cell) square
(``propagate`` lists the squares afresh on each call).  The
plan is cached on the algebra's ``__dict__`` (as ``Carrier`` caches its
index) together with the coalgebra it was compiled against, and is reused
while C is the same object; checking A against another coalgebra replaces
it, and it lives as long as A.

Per target B nothing is cached.  A finite B is indexed once per call into a
dict from ``(composite id, *child indices)`` to the index of the image; a
lazy B is the same dict filled on a miss by ``B.apply``, with its values
interned to ids.  The kernel then fills the forced cells in demand order and
scans every (c, F(A)-cell) square in canonical order, so witnesses come out
in the order of the plain definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    Label,
    Map,
    STAR,
    UNIT,
    carrier,
    check_guard,
    label_key,
    label_text,
    mk_hom,
    solve_tables,
)
from .functor import (
    PolyFunctor,
    _nabla_element,
    apply_to_set,
    eta,
    fel_args,
    fel_pos,
    zip_plan,
)
from .fixpoints import (
    Algebra,
    Coalgebra,
    LazyAlgebra,
    coalg_out,
    _structure_cells,
    is_preinitial,
)

__all__ = [
    "Measuring",
    "measuring_from_fn",
    "is_measuring",
    "measuring_violations",
    "unit_coalgebra",
    "identity_measuring",
    "curry_partial_hom",
    "curry_conv_hom",
    "measuring_from_partial_hom",
    "measuring_from_conv_hom",
    "enumerate_measurings",
    "measuring_set",
    "ForcedFailure",
    "forced_measuring",
    "tensor_coalgebras",
    "compose_measurings",
    "coalgebra_measuring_check",
    "find_coalgebra_homs",
]


@dataclass(frozen=True)
class Measuring:
    """A validated table C x A -> B, stored canonically ordered."""

    C: Coalgebra
    A: Algebra
    B: object  # Algebra or LazyAlgebra
    entries: tuple  # ((c, a), value) pairs in canonical (c, a) order

    def value(self, c: Label, a: Label):
        return self._table[(c, a)]

    @property
    def _table(self) -> dict:
        cache = self.__dict__.get("_table_cache")
        if cache is None:
            cache = dict(self.entries)
            self.__dict__["_table_cache"] = cache
        return cache

    def as_dict(self) -> dict:
        return dict(self.entries)

    def sort_key(self):
        return tuple(label_key(v) for _, v in self.entries)

    def __repr__(self) -> str:
        cells = " ".join(
            f"({label_text(c)},{label_text(a)})->{label_text(v)}" for (c, a), v in self.entries
        )
        return f"<measuring {cells}>"


def _canonical_entries(c_coalg: Coalgebra, a_alg: Algebra, table) -> tuple:
    lookup = table if not callable(table) else None
    out = []
    for c in c_coalg.carrier:
        for a in a_alg.carrier:
            value = table(c, a) if callable(table) else lookup[(c, a)]
            out.append(((c, a), value))
    return tuple(out)


def measuring_from_fn(c_coalg: Coalgebra, a_alg: Algebra, b_alg, table) -> Measuring:
    return Measuring(c_coalg, a_alg, b_alg, _canonical_entries(c_coalg, a_alg, table))


# ---------------------------------------------------------------------------
# The square kernel (see the module docstring)
# ---------------------------------------------------------------------------

class _SquarePlan:
    """The pair (C, A) compiled to integer arrays."""

    def __init__(self, C: Coalgebra, A: Algebra):
        functor = A.functor
        # A itself is not kept: A holds the plan, and a cycle would outlive A
        self.C, self.a_carrier, self.cells = C, A.carrier, A.structure.dom.elements
        self.positions = functor.positions.carrier.elements
        self.pos_id = pos_id = {p: i for i, p in enumerate(self.positions)}
        c_index = C.carrier._index
        self.state_pos = [pos_id[fel_pos(e)] for e in C.structure.images]
        self.state_kids = [tuple(c_index[x] for x in fel_args(e)) for e in C.structure.images]
        self.runs = []  # (position id, first cell, alphas, argument columns)
        start = 0
        for pos, run in itertools.groupby(_structure_cells(A), key=lambda cell: cell[0]):
            _, args, alphas = zip(*run)
            self.runs.append((pos_id[pos], start, alphas, tuple(zip(*args))))
            start += len(alphas)
        self.zip_rows = [None] * len(self.positions)  # [p][q] -> (composite id, pairs)
        for p in set(self.state_pos):
            self.zip_rows[p] = [(pos_id[comp], pairs) for comp, pairs in
                                (zip_plan(functor, self.positions[p], d) for d in self.positions)]
        self._demand = None

    def demand(self) -> tuple:
        """(order, cycle).  ``order`` lists the cells c * |A| + a in the
        order in which a depth-first demand, started from each cell in
        canonical order, completes them; ``cycle`` is the (c, a) that the
        demand reached again while still computing it, or None.

        The value at (c, a) is forced through a's preferred decomposition,
        its first F(A)-cell; elements without one are leaves of the demand.
        """
        if self._demand is None:
            preferred: dict = {}
            for q, _, alphas, cols in self.runs:
                for i, a in enumerate(alphas):
                    if a not in preferred:
                        preferred[a] = (q, tuple(col[i] for col in cols))
            self.preferred = [preferred.get(a) for a in range(len(self.a_carrier))]
            self._demand = self._demand_order()
        return self._demand

    def _demand_order(self) -> tuple:
        n_a, preferred = len(self.a_carrier), self.preferred

        def children(cell):
            c, a = divmod(cell, n_a)
            q, args = preferred[a]
            _, pairs = self.zip_rows[self.state_pos[c]][q]
            kids = self.state_kids[c]
            return iter([kids[u] * n_a + args[v] for u, v in pairs])

        order: list = []
        status = bytearray(len(self.state_pos) * n_a)  # 0 new, 1 open, 2 done
        for root in range(len(status)):
            stack = [(None, iter([root]))]
            while stack:
                cell, todo = stack[-1]
                child = next(todo, None)
                if child is None:
                    stack.pop()
                    if cell is not None:
                        status[cell] = 2
                        order.append(cell)
                elif status[child] == 1:
                    return order, divmod(child, n_a)
                elif status[child] == 0:
                    if preferred[child % n_a] is None:
                        status[child] = 2
                        order.append(child)
                    else:
                        status[child] = 1
                        stack.append((child, children(child)))
        return order, None

    def fill(self, order: list, beta, filler) -> list:
        """Rows of value ids, one per state, computed in demand order."""
        n_a = len(self.a_carrier)
        rows = [[None] * n_a for _ in self.state_pos]
        preferred, state_pos, state_kids = self.preferred, self.state_pos, self.state_kids
        for cell in order:
            c, a = divmod(cell, n_a)
            if preferred[a] is None:
                rows[c][a] = filler
                continue
            q, args = preferred[a]
            comp, pairs = self.zip_rows[state_pos[c]][q]
            kids = state_kids[c]
            rows[c][a] = beta[(comp, *[rows[kids[u]][args[v]] for u, v in pairs])]
        return rows

    def squares(self) -> list:
        """Every (c, F(A)-cell) square for ``core.solve_tables``: the cell
        c * |A| + alpha(k) is beta at the composite position of the cells
        (child of c, argument of k) that the zip plan pairs up."""
        n_a, out = len(self.a_carrier), []
        for c, kids in enumerate(self.state_kids):
            zip_row = self.zip_rows[self.state_pos[c]]
            for q, _, alphas, cols in self.runs:
                comp, pairs = zip_row[q]
                out.extend((c * n_a + a, comp, tuple(kids[u] * n_a + cols[v][i] for u, v in pairs))
                           for i, a in enumerate(alphas))
        return out

    def rows(self, ids) -> list:
        """A table of value ids in canonical (c, a) order, cut into rows."""
        n_a = len(self.a_carrier)
        return [ids[c * n_a:(c + 1) * n_a] for c in range(len(self.state_pos))]

    def scan(self, rows: list, beta, first_only: bool) -> list:
        """The failing squares (c, k) in canonical order."""
        out = []
        for c, row in enumerate(rows):
            kids, zip_row = self.state_kids[c], self.zip_rows[self.state_pos[c]]
            for q, start, alphas, cols in self.runs:
                comp, pairs = zip_row[q]
                if not pairs:
                    rhs = beta[(comp,)]
                    bad = [i for i, a in enumerate(alphas) if row[a] != rhs]
                elif len(pairs) == 1:
                    (u, v), = pairs
                    r0 = rows[kids[u]]
                    bad = [i for i, (a, x) in enumerate(zip(alphas, cols[v]))
                           if row[a] != beta[(comp, r0[x])]]
                elif len(pairs) == 2:
                    (u0, v0), (u1, v1) = pairs
                    r0, r1 = rows[kids[u0]], rows[kids[u1]]
                    bad = [i for i, (a, x, y) in enumerate(zip(alphas, cols[v0], cols[v1]))
                           if row[a] != beta[(comp, r0[x], r1[y])]]
                else:
                    kid_rows = [rows[kids[u]] for u, _ in pairs]
                    kid_cols = [cols[v] for _, v in pairs]
                    bad = [i for i, a in enumerate(alphas)
                           if row[a] != beta[(comp, *[r[col[i]] for r, col in
                                                      zip(kid_rows, kid_cols)])]]
                if bad:
                    if first_only:
                        return [(c, start + bad[0])]
                    out.extend((c, start + i) for i in bad)
        return out


def _square_plan(C: Coalgebra, A: Algebra) -> _SquarePlan:
    plan = A.__dict__.get("_square_plan")
    if plan is None or plan.C is not C:
        plan = _SquarePlan(C, A)
        A.__dict__["_square_plan"] = plan
    return plan


class _LazyBeta(dict):
    """beta of a lazy algebra on interned value ids, applied on a miss."""

    def __init__(self, B: LazyAlgebra, positions: tuple):
        super().__init__()
        self.B, self.positions = B, positions
        self.values: list = []
        self.ids: dict = {}

    def encode(self, value) -> int:
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self.values)
            self.values.append(value)
        return i

    def __missing__(self, key):
        values = self.values
        i = self.encode(self.B.apply(self.positions[key[0]], tuple(values[j] for j in key[1:])))
        self[key] = i
        return i


def _target(plan: _SquarePlan, B) -> tuple:
    """(beta, encode, values): B's structure on value ids, the id of a value,
    and the value of an id."""
    if isinstance(B, LazyAlgebra):
        beta = _LazyBeta(B, plan.positions)
        return beta, beta.encode, beta.values
    b_index, pos_id = B.carrier._index, plan.pos_id
    beta = {(pos_id[fel_pos(fe)], *[b_index[x] for x in fel_args(fe)]): b_index[img]
            for fe, img in zip(B.structure.dom, B.structure.images)}
    return beta, b_index.__getitem__, B.carrier.elements


def _entries(plan: _SquarePlan, rows: list, values) -> tuple:
    a_elems = plan.a_carrier.elements
    return tuple(((c, a), values[v]) for c, row in zip(plan.C.carrier, rows)
                 for a, v in zip(a_elems, row))


def _witnesses(plan: _SquarePlan, bad: list) -> list:
    states, cells = plan.C.carrier.elements, plan.cells
    return [(states[c], cells[k]) for c, k in bad]


def measuring_violations(m: Measuring, first_only: bool = False) -> list:
    """Witnesses (c, F(A)-element) where the measuring square fails."""
    plan = _square_plan(m.C, m.A)
    beta, encode, _ = _target(plan, m.B)
    rows = plan.rows([encode(v) for _, v in m.entries])
    return _witnesses(plan, plan.scan(rows, beta, first_only))


def is_measuring(m: Measuring) -> bool:
    return not measuring_violations(m, first_only=True)


# ---------------------------------------------------------------------------
# The unit coalgebra and the identity measuring
# ---------------------------------------------------------------------------

def unit_coalgebra(functor: PolyFunctor) -> Coalgebra:
    """The one-point coalgebra carried by the monoidal unit via eta."""
    e = eta(functor)
    cod = apply_to_set(functor, UNIT)
    return Coalgebra(functor, UNIT, Map(UNIT, cod, (e(STAR),)), name="unit")


def identity_measuring(a: Algebra) -> Measuring:
    m = measuring_from_fn(unit_coalgebra(a.functor), a, a, lambda c, x: x)
    if not is_measuring(m):
        raise AssertionError("identity measuring failed its own validity check")
    return m


# ---------------------------------------------------------------------------
# Curried representations
# ---------------------------------------------------------------------------

def curry_partial_hom(m: Measuring, guard: int | None = None) -> Map:
    """The C-indexed family form: a map C -> [A,B]."""
    hom = mk_hom(m.A.carrier, m.B.carrier, guard)
    return Map.from_callable(
        m.C.carrier, hom, lambda c: tuple(m.value(c, a) for a in m.A.carrier)
    )


def curry_conv_hom(m: Measuring, guard: int | None = None) -> Map:
    """The convolution form: a map A -> [C,B]."""
    hom = mk_hom(m.C.carrier, m.B.carrier, guard)
    return Map.from_callable(
        m.A.carrier, hom, lambda a: tuple(m.value(c, a) for c in m.C.carrier)
    )


def measuring_from_partial_hom(f: Map, c_coalg: Coalgebra, a_alg: Algebra, b_alg) -> Measuring:
    return measuring_from_fn(
        c_coalg, a_alg, b_alg, lambda c, a: f(c)[a_alg.carrier.index(a)]
    )


def measuring_from_conv_hom(f: Map, c_coalg: Coalgebra, a_alg: Algebra, b_alg) -> Measuring:
    return measuring_from_fn(
        c_coalg, a_alg, b_alg, lambda c, a: f(a)[c_coalg.carrier.index(c)]
    )


# ---------------------------------------------------------------------------
# Enumeration strategies
# ---------------------------------------------------------------------------

def _measurings(C: Coalgebra, A: Algebra, B: Algebra, tables) -> list[Measuring]:
    """Measurings from tables of B's value ids in canonical (c, a) order."""
    cells = [(c, a) for c in C.carrier for a in A.carrier]
    values = B.carrier.elements
    return [Measuring(C, A, B, tuple(zip(cells, (values[i] for i in ids)))) for ids in tables]


def _enumerate_brute(C: Coalgebra, A: Algebra, B: Algebra, guard) -> list[Measuring]:
    n_cells = len(C.carrier) * len(A.carrier)
    check_guard(
        "brute-force measuring enumeration (the propagate strategy still fits)",
        len(B.carrier) ** n_cells if n_cells else 1,
        guard,
    )
    plan = _square_plan(C, A)
    beta, _, values = _target(plan, B)
    tables = itertools.product(range(len(values)), repeat=n_cells)
    return _measurings(C, A, B, (ids for ids in tables
                                 if not plan.scan(plan.rows(ids), beta, first_only=True)))


def _enumerate_convolution(C: Coalgebra, A: Algebra, B: Algebra, guard) -> list[Measuring]:
    from .universal import convolution_algebra
    from .fixpoints import enumerate_algebra_homs

    conv = convolution_algebra(C, B, guard=guard)
    return [measuring_from_conv_hom(f, C, A, B)
            for f in enumerate_algebra_homs(A, conv, guard=guard)]


def _enumerate_propagate(C: Coalgebra, A: Algebra, B: Algebra, guard) -> list[Measuring]:
    """The square solver on the (c, F(A)-cell) squares of the plan."""
    plan = _square_plan(C, A)
    beta, _, values = _target(plan, B)
    return _measurings(C, A, B, solve_tables(
        len(C.carrier) * len(A.carrier), len(values), plan.squares(), beta,
        "propagate measuring search", guard))


STRATEGIES = ("brute", "convolution", "propagate")


def enumerate_measurings(C: Coalgebra, A: Algebra, B: Algebra, strategy: str = "propagate",
                         guard: int | None = None) -> list[Measuring]:
    """All measurings from A to B by C, canonically ordered."""
    if strategy == "brute":
        out = _enumerate_brute(C, A, B, guard)
    elif strategy == "convolution":
        out = _enumerate_convolution(C, A, B, guard)
    elif strategy == "propagate":
        out = _enumerate_propagate(C, A, B, guard)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    return sorted(out, key=Measuring.sort_key)


# ---------------------------------------------------------------------------
# Forced computation (preinitial domain)
# ---------------------------------------------------------------------------

class ForcedFailure(NamedTuple):
    """Why no measuring exists: the blocking (state, element) plus a reason."""

    state: Label
    element: Label
    reason: str


def _is_acyclic(C: Coalgebra) -> bool:
    cached = C.__dict__.get("_acyclic")
    if cached is not None:
        return cached
    color = {s: 0 for s in C.carrier}

    def visit(s) -> bool:
        color[s] = 1
        for child in coalg_out(C, s)[1]:
            if color[child] == 1:
                return False
            if color[child] == 0 and not visit(child):
                return False
        color[s] = 2
        return True

    result = all(color[s] != 0 or visit(s) for s in C.carrier)
    C.__dict__["_acyclic"] = result
    return result


def forced_measuring(C: Coalgebra, A: Algebra, B) -> Measuring | ForcedFailure:
    """The unique measuring from a preinitial A, computed by demand.

    Every element of a preinitial algebra is a structure image, so the value
    at (c, a) is forced through a preferred decomposition of a; a cyclic
    demand means the value would have to be a strict subterm of itself.
    Exact when C is acyclic or B is a lazy initial algebra; in either case a
    cyclic constraint has no solution.
    """
    if not is_preinitial(A):
        raise ValueError("forced_measuring requires a preinitial algebra")
    if not isinstance(B, LazyAlgebra) and not _is_acyclic(C):
        raise ValueError(
            "forced_measuring into a finite codomain needs an acyclic coalgebra; "
            "use enumerate_measurings instead"
        )
    return _forced(C, A, B)


def _forced(C: Coalgebra, A: Algebra, B, filler: Label | None = None) -> Measuring | ForcedFailure:
    """The table forced through A's preferred decompositions, with ``filler``
    at the elements that have none, checked square by square."""
    plan = _square_plan(C, A)
    order, cycle = plan.demand()
    if cycle is not None:
        return ForcedFailure(C.carrier.elements[cycle[0]], A.carrier.elements[cycle[1]],
                             "cyclic demand has no well-founded value")
    beta, encode, values = _target(plan, B)
    rows = plan.fill(order, beta, None if filler is None else encode(filler))
    bad = plan.scan(rows, beta, first_only=True)
    if bad:
        (c, fe), = _witnesses(plan, bad)
        return ForcedFailure(c, fe, "forced table violates the measuring square")
    return Measuring(C, A, B, _entries(plan, rows, values))


def measuring_set(C: Coalgebra, A: Algebra, B, guard: int | None = None) -> list[Measuring]:
    """mu(C, A, B) by the cheapest exact route available."""
    if isinstance(B, LazyAlgebra) or (is_preinitial(A) and _is_acyclic(C)):
        result = forced_measuring(C, A, B)
        return [result] if isinstance(result, Measuring) else []
    return enumerate_measurings(C, A, B, "propagate", guard)


# ---------------------------------------------------------------------------
# Tensor of coalgebras, composition, coalgebra-valued measurings
# ---------------------------------------------------------------------------

def tensor_coalgebras(D: Coalgebra, C: Coalgebra, guard: int | None = None) -> Coalgebra:
    """The coalgebra on D x C with structure nabla . (delta x chi)."""
    if D.functor != C.functor:
        raise ValueError("tensor requires coalgebras over the same functor")
    functor = D.functor
    prod = carrier((d, c) for d in D.carrier for c in C.carrier)
    check_guard("coalgebra tensor carrier", len(prod), guard)

    cod = apply_to_set(functor, prod, guard)
    return Coalgebra(
        functor,
        prod,
        Map.from_callable(prod, cod, lambda s: _nabla_element(
            functor, D.structure(s[0]), C.structure(s[1]))),
        name=f"{D.name}(x){C.name}" if D.name and C.name else "",
    )


def compose_measurings(psi: Measuring, phi: Measuring, guard: int | None = None) -> Measuring:
    """psi in mu(D, A2, A3) after phi in mu(C, A1, A2): the table
    ((d, c), a) -> psi(d, phi(c, a)) over the coalgebra tensor."""
    if psi.A is not phi.B and psi.A != phi.B:
        raise ValueError("measurings do not compose: middle algebra mismatch")
    tensor = tensor_coalgebras(psi.C, phi.C, guard)
    m = measuring_from_fn(
        tensor, phi.A, psi.B, lambda dc, a: psi.value(dc[0], phi.value(dc[1], a))
    )
    if not is_measuring(m):
        raise AssertionError("composition produced an invalid measuring")
    return m


def coalgebra_measuring_check(table, C: Coalgebra, C1: Coalgebra, C2: Coalgebra):
    """A table C x C1 -> C2 measures coalgebras iff it is a coalgebra
    homomorphism out of the tensor.  Returns (ok, witness)."""
    tensor = tensor_coalgebras(C, C1)
    f = Map.from_callable(
        tensor.carrier, C2.carrier, lambda s: table(s[0], s[1]) if callable(table) else table[s]
    )
    for s in tensor.carrier:
        pos, args = coalg_out(tensor, s)
        dpos, dargs = coalg_out(C2, f(s))
        if pos != dpos or tuple(f(x) for x in args) != dargs:
            return False, s
    return True, None


def find_coalgebra_homs(C: Coalgebra, D: Coalgebra, limit: int = 2) -> list[Map]:
    """The first ``limit`` coalgebra homomorphisms C -> D in lexicographic
    order of the images.

    Each state s with chi(s) = (p, xs) gives one square that checks that
    f(s) has position p and one per child setting f(xs[i]) to child i of
    f(s), so the search space collapses quickly; for a subterminal D there
    is at most one hom.
    """
    d_index = D.carrier._index
    beta = {}
    for k, (q, ys) in enumerate(D.structure.images):
        beta[(q, None), k] = k
        for i, y in enumerate(ys):
            beta[(q, i), k] = d_index[y]
    c_index = C.carrier._index
    squares = []
    for s, (p, xs) in enumerate(C.structure.images):
        squares.append((s, (p, None), (s,)))
        squares.extend((c_index[x], (p, i), (s,)) for i, x in enumerate(xs))
    tables = solve_tables(len(C.carrier), len(D.carrier), squares, beta,
                          "coalgebra hom search")
    values = D.carrier.elements
    return [Map(C.carrier, D.carrier, tuple(values[i] for i in t))
            for t in itertools.islice(tables, limit)]
