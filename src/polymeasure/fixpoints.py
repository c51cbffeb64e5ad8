"""Algebras, coalgebras, and fixed-point machinery.

Initial algebras with infinite carriers (numbers, lists, trees) are never
materialized.  Closed terms stand in for their elements, ``LazyAlgebra``
wraps the term constructors for on-demand evaluation, and the stock
truncated algebras (``std_alg`` and friends) give the finite quotients that
the worked examples revolve around.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .core import (
    Carrier,
    Label,
    Map,
    STAR,
    Tag,
    UNIT,
    carrier,
    check_guard,
    classify_map,
    label_key,
    label_text,
    solve_tables,
)
from .functor import (
    PolyFunctor,
    apply_to_map,
    apply_to_set,
    fel_args,
    fel_pos,
    felement,
    maybe_functor,
)

__all__ = [
    "Algebra",
    "Coalgebra",
    "algebra",
    "coalgebra",
    "alg_apply",
    "coalg_out",
    "var",
    "node",
    "is_closed",
    "term_height",
    "cata",
    "Behavior",
    "unfold",
    "maybe_index",
    "INF",
    "AdamekResult",
    "adamek",
    "lambek_check",
    "reachable_set",
    "is_preinitial",
    "bisim_partition",
    "is_subterminal",
    "subcoalgebras",
    "quotient_algebra",
    "is_algebra_hom",
    "is_coalgebra_hom",
    "enumerate_algebra_homs",
    "unique_hom_from_preinitial",
    "enumerate_algebras",
    "enumerate_coalgebras",
    "witness_terms",
    "LazyAlgebra",
    "initial_lazy",
    "nat_lazy",
    "list_lazy",
    "nat_value",
    "list_value",
    "chop",
    "closed_terms_up_to_depth",
    "std_alg",
    "std_coalg",
    "nat_automaton",
    "INF_STATE",
    "list_alg",
    "list_coalg",
    "tree_alg",
    "tree_coalg",
    "truncated_initial_algebra",
    "term_coalgebra",
]

INF = math.inf
INF_STATE: Label = "inf"


@dataclass(frozen=True)
class Algebra:
    """A carrier with a structure map F(carrier) -> carrier."""

    functor: PolyFunctor
    carrier: Carrier
    structure: Map
    name: str = ""

    def __post_init__(self):
        if self.structure.cod != self.carrier:
            raise ValueError("algebra structure must land in the carrier")
        if self.structure.dom != apply_to_set(self.functor, self.carrier):
            raise ValueError("algebra structure must be defined on F(carrier)")

    def __repr__(self) -> str:
        return f"Algebra({self.name or self.carrier})"


@dataclass(frozen=True)
class Coalgebra:
    """A carrier with a structure map carrier -> F(carrier)."""

    functor: PolyFunctor
    carrier: Carrier
    structure: Map
    name: str = ""

    def __post_init__(self):
        if self.structure.dom != self.carrier:
            raise ValueError("coalgebra structure must be defined on the carrier")
        if self.structure.cod != apply_to_set(self.functor, self.carrier):
            raise ValueError("coalgebra structure must land in F(carrier)")

    def __repr__(self) -> str:
        return f"Coalgebra({self.name or self.carrier})"


def algebra(functor: PolyFunctor, elements: Iterable[Label], table, name: str = "") -> Algebra:
    """Build an algebra from a dict or callable on (position, args) pairs."""
    car = carrier(elements)
    dom = apply_to_set(functor, car)
    if callable(table):
        structure = Map.from_callable(dom, car, lambda e: table(fel_pos(e), fel_args(e)))
    else:
        structure = Map.from_dict(dom, car, table)
    return Algebra(functor, car, structure, name)


def coalgebra(functor: PolyFunctor, elements: Iterable[Label], table, name: str = "") -> Coalgebra:
    """Build a coalgebra from a dict or callable returning (position, args) pairs."""
    car = carrier(elements)
    cod = apply_to_set(functor, car)
    if callable(table):
        structure = Map.from_callable(car, cod, lambda c: felement(*table(c)))
    else:
        structure = Map.from_dict(car, cod, table)
    return Coalgebra(functor, car, structure, name)


def alg_apply(a: Algebra | "LazyAlgebra", pos: Label, args: tuple) -> Label:
    """One structure step: beta(pos, args) of a finite or a lazy algebra."""
    if isinstance(a, LazyAlgebra):
        return a.apply(pos, args)
    return a.structure(felement(pos, args))


def coalg_out(c: Coalgebra, state: Label) -> tuple:
    e = c.structure(state)
    return fel_pos(e), fel_args(e)


# ---------------------------------------------------------------------------
# Terms (finite well-founded trees over the functor's signature)
# ---------------------------------------------------------------------------

def var(name: Label) -> Label:
    return Tag("var", name)


def node(pos: Label, *children: Label) -> Label:
    return (pos, tuple(children))


def is_closed(term: Label) -> bool:
    if isinstance(term, Tag) and term.tag == "var":
        return False
    return all(is_closed(child) for child in fel_args(term))


def term_height(term: Label) -> int:
    if isinstance(term, Tag) and term.tag == "var":
        return 0
    children = fel_args(term)
    return 1 + (max(map(term_height, children)) if children else 0)


def cata(term: Label, target: Algebra | "LazyAlgebra", env: dict | None = None):
    """Bottom-up evaluation of a closed term (or one whose leaves are in env)."""
    if isinstance(term, Tag) and term.tag == "var":
        if env is None or term.value not in env:
            raise ValueError(f"unbound term variable {label_text(term.value)}")
        return env[term.value]
    pos, children = fel_pos(term), fel_args(term)
    return alg_apply(target, pos, tuple(cata(child, target, env) for child in children))


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

class Behavior(NamedTuple):
    """A depth-truncated unfolding of a coalgebra state.

    ``tree`` is a term whose frontier leaves are ``cut:<state>`` markers when
    the depth budget ran out; ``total`` is True when no marker remains.
    ``index`` is the distance to a nullary position for chain-like states
    (None when a state branches), with cycles detected so that an infinite
    index is reported exactly as ``math.inf``.
    """

    state: Label
    depth: int
    tree: Label
    total: bool
    index: float | int | None


def _unfold_tree(c: Coalgebra, state: Label, depth: int) -> tuple[Label, bool]:
    if depth == 0:
        return Tag("cut", state), False
    pos, args = coalg_out(c, state)
    total = True
    children = []
    for child in args:
        sub, sub_total = _unfold_tree(c, child, depth - 1)
        total = total and sub_total
        children.append(sub)
    return (pos, tuple(children)), total


def maybe_index(c: Coalgebra, state: Label):
    """The least number of structure steps to a nullary position.

    Exact for finite carriers: a revisited state means the chase never
    terminates and the index is infinite.  States whose position has more
    than one child have no single chase path and yield None.
    """
    seen = set()
    steps = 0
    while True:
        if state in seen:
            return INF
        seen.add(state)
        pos, args = coalg_out(c, state)
        if not args:
            return steps
        if len(args) > 1:
            return None
        state = args[0]
        steps += 1


def unfold(c: Coalgebra, state: Label, depth: int) -> Behavior:
    tree, total = _unfold_tree(c, state, depth)
    return Behavior(state, depth, tree, total, maybe_index(c, state))


# ---------------------------------------------------------------------------
# Adamek sequences
# ---------------------------------------------------------------------------

class AdamekResult(NamedTuple):
    direction: str
    stages: list  # carriers, stage 0 first
    maps: list  # connecting maps; forward: stage i -> i+1, backward: i+1 -> i
    stabilized: bool
    fixpoint: object  # Algebra (forward) or Coalgebra (backward), when stabilized


def adamek(functor: PolyFunctor, direction: str = "forward", budget: int = 8,
           guard: int | None = None) -> AdamekResult:
    """Iterate 0 -> F0 -> F^2 0 -> ... (or 1 <- F1 <- ... backward).

    Stops early when a connecting map is bijective, in which case the fixed
    point with its structure map is returned; otherwise the truncated
    sequence is flagged as such.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    start = carrier(()) if direction == "forward" else UNIT
    stages = [start]
    maps: list[Map] = []
    first = apply_to_set(functor, start, guard)
    if direction == "forward":
        connect = Map(start, first, ())
    else:
        connect = Map.from_callable(first, start, lambda e: STAR)
    for _ in range(budget):
        stages.append(connect.cod if direction == "forward" else connect.dom)
        maps.append(connect)
        image = set(connect.images)
        if len(image) == len(connect.images) and len(image) == len(connect.cod):
            inverse = Map.from_dict(
                connect.cod, connect.dom, {img: e for e, img in zip(connect.dom, connect.images)}
            )
            if direction == "forward":
                # connect: F^n 0 -> F^{n+1} 0 bijective; the colimit is F^n 0.
                fix = Algebra(functor, connect.dom, inverse, name="adamek-initial")
            else:
                # connect: F^{n+1} 1 -> F^n 1 bijective; the limit is F^n 1.
                fix = Coalgebra(functor, connect.cod, inverse, name="adamek-terminal")
            return AdamekResult(direction, stages, maps, True, fix)
        connect = apply_to_map(functor, connect, guard)
    return AdamekResult(direction, stages, maps, False, None)


def lambek_check(result: AdamekResult, hom_size: int = 3, guard: int | None = None):
    """For a stabilized forward run: the structure map is bijective and the
    fixed point admits exactly one homomorphism to every small algebra.

    Returns (ok, witness); the witness names the failing law or algebra.
    """
    if not result.stabilized or result.direction != "forward":
        raise ValueError("lambek_check needs a stabilized forward adamek run")
    fix: Algebra = result.fixpoint
    inj, surj = classify_map(fix.structure)
    if not (inj and surj):
        return False, ("structure map not bijective", fix.structure)
    for other in enumerate_algebras(fix.functor, hom_size, guard=guard):
        homs = enumerate_algebra_homs(fix, other, guard=guard)
        if len(homs) != 1:
            return False, ("non-unique homomorphism", other, len(homs))
    return True, None


# ---------------------------------------------------------------------------
# Preinitial / subterminal recognition
# ---------------------------------------------------------------------------

def _structure_cells(a: Algebra) -> list:
    """Each F(A) cell as (position, argument ids, image id), in F(A)'s order;
    an element's id is its index in A's carrier.

    The argument ids are read off F(A)'s order (positions in turn, then the
    product over the carrier, as ``apply_to_set`` builds it and
    ``Algebra.__post_init__`` checks), so no argument label is hashed.
    """
    functor, n = a.functor, len(a.carrier)
    index = a.carrier._index
    cells = ((pos, ids) for pos in functor.positions.carrier
             for ids in itertools.product(range(n), repeat=functor.arity(pos)))
    return [(pos, ids, index[x]) for (pos, ids), x in zip(cells, a.structure.images)]


def _released_cells(a: Algebra):
    """The F(A) cells whose arguments are all reachable, as (position,
    argument ids, image id) in the order a counter-driven pass releases
    them.

    Reachability is the least fixpoint of the Horn clauses "the arguments of
    a cell are reached => its image is reached", so one pass decides it in
    time linear in |F(A)| (Dowling and Gallier, 1984): each cell counts its
    distinct unreached arguments and is released when the count hits 0.
    """
    cells = _structure_cells(a)
    missing = []  # per cell, its distinct arguments not yet reached
    waiting: list = [[] for _ in a.carrier]  # per element, the cells that wait for it
    released = []
    for i, (_, ids, _) in enumerate(cells):
        distinct = set(ids)
        missing.append(len(distinct))
        for x in distinct:
            waiting[x].append(i)
        if not distinct:
            released.append(i)
    reached = bytearray(len(a.carrier))
    for i in released:  # released grows while it is read
        k = cells[i][2]
        yield cells[i]
        if not reached[k]:
            reached[k] = 1
            for j in waiting[k]:
                missing[j] -= 1
                if missing[j] == 0:
                    released.append(j)


def reachable_set(a: Algebra) -> frozenset:
    """Least subset closed under the structure map (images of F applied to it)."""
    elements = a.carrier.elements
    return frozenset(elements[k] for _, _, k in _released_cells(a))


def is_preinitial(a: Algebra) -> bool:
    """An algebra is preinitial when the unique map from the initial algebra
    is surjective, i.e. every element is reachable from the constants.
    The answer is cached on the algebra."""
    cached = a.__dict__.get("_preinitial")
    if cached is None:
        cached = len(reachable_set(a)) == len(a.carrier)
        a.__dict__["_preinitial"] = cached
    return cached


def bisim_partition(c: Coalgebra) -> tuple:
    """Coarsest bisimulation by partition refinement, canonically ordered."""
    if len(c.carrier) == 0:
        return ()
    block_of = {s: 0 for s in c.carrier}
    while True:
        signatures = {}
        for s in c.carrier:
            pos, args = coalg_out(c, s)
            signatures[s] = (block_of[s], pos, tuple(block_of[x] for x in args))
        ordered = sorted(
            set(signatures.values()), key=lambda sig: (sig[0], label_key(sig[1]), sig[2])
        )
        renumber = {sig: i for i, sig in enumerate(ordered)}
        new_block = {s: renumber[signatures[s]] for s in c.carrier}
        if new_block == block_of:
            break
        block_of = new_block
    blocks: dict[int, list] = {}
    for s in c.carrier:
        blocks.setdefault(block_of[s], []).append(s)
    classes = [tuple(members) for _, members in sorted(blocks.items())]
    return tuple(sorted(classes, key=lambda cls: label_key(cls[0])))


def is_subterminal(c: Coalgebra) -> bool:
    """A coalgebra is subterminal when the unique map to the terminal
    coalgebra is injective, i.e. no two distinct states are bisimilar."""
    return all(len(cls) == 1 for cls in bisim_partition(c))


def subcoalgebras(c: Coalgebra, guard: int | None = 20) -> list[Coalgebra]:
    """All structure-closed subsets with the restricted structure, by inclusion."""
    n = len(c.carrier)
    if guard is not None and n > guard:
        check_guard("subcoalgebra enumeration", 2**n, 2**guard)
    elems = c.carrier.elements
    closed_subsets = []
    for mask in range(2**n):
        subset = {elems[i] for i in range(n) if mask >> i & 1}
        ok = True
        for s in subset:
            _, args = coalg_out(c, s)
            if not all(x in subset for x in args):
                ok = False
                break
        if ok:
            closed_subsets.append(subset)
    closed_subsets.sort(key=lambda s: (len(s), tuple(sorted(map(label_key, s)))))
    out = []
    for subset in closed_subsets:
        sub = carrier(subset)
        out.append(
            Coalgebra(
                c.functor,
                sub,
                Map.from_callable(sub, apply_to_set(c.functor, sub), c.structure),
                name=f"{c.name}|{len(subset)}" if c.name else "",
            )
        )
    return out


def quotient_algebra(a: Algebra, pairs: Iterable[tuple]) -> tuple[Algebra, Map]:
    """Quotient by the congruence closure of the given pairs.

    Union-find closure: whenever two F-elements agree positionwise and have
    related children, their structure images are related.  Returns the
    quotient algebra (class representatives are minimal labels) and the
    projection map.
    """
    parent = {e: e for e in a.carrier}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        lo, hi = sorted((rx, ry), key=label_key)
        parent[hi] = lo
        return True

    for x, y in pairs:
        union(x, y)
    changed = True
    dom = a.structure.dom.elements
    while changed:
        changed = False
        for e1, e2 in itertools.combinations(dom, 2):
            if fel_pos(e1) != fel_pos(e2):
                continue
            if all(find(x) == find(y) for x, y in zip(fel_args(e1), fel_args(e2))):
                if union(a.structure(e1), a.structure(e2)):
                    changed = True
    reps = sorted({find(e) for e in a.carrier}, key=label_key)
    quotient = carrier(reps)

    def q_table(pos, args):
        return find(a.structure(felement(pos, args)))

    q = algebra(a.functor, quotient, q_table, name=f"{a.name}/~" if a.name else "")
    projection = Map.from_callable(a.carrier, quotient, find)
    return q, projection


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

def is_algebra_hom(f: Map, a: Algebra, b: Algebra) -> bool:
    for e in a.structure.dom:
        mapped = felement(fel_pos(e), tuple(f(x) for x in fel_args(e)))
        if f(a.structure(e)) != b.structure(mapped):
            return False
    return True


def is_coalgebra_hom(f: Map, c: Coalgebra, d: Coalgebra) -> bool:
    for s in c.carrier:
        pos, args = coalg_out(c, s)
        dpos, dargs = coalg_out(d, f(s))
        if pos != dpos or tuple(f(x) for x in args) != dargs:
            return False
    return True


def enumerate_algebra_homs(a: Algebra, b: Algebra, guard: int | None = None) -> list[Map]:
    """Every homomorphism a -> b, in lexicographic order of the images: one
    square per F(A) cell, f(alpha(pos, args)) = beta(pos, f(args))."""
    beta = {(pos, *ids): k for pos, ids, k in _structure_cells(b)}
    squares = [(k, pos, ids) for pos, ids, k in _structure_cells(a)]
    values = b.carrier.elements
    return [Map(a.carrier, b.carrier, tuple(values[i] for i in t))
            for t in solve_tables(len(a.carrier), len(values), squares, beta,
                                  "algebra hom enumeration", guard)]


def witness_terms(a: Algebra) -> dict:
    """A closed witness term per reachable element, found breadth-first."""
    terms: dict = {}
    changed = True
    while changed:
        changed = False
        for e in a.structure.dom:
            args = fel_args(e)
            if all(x in terms for x in args):
                img = a.structure(e)
                if img not in terms:
                    terms[img] = (fel_pos(e), tuple(terms[x] for x in args))
                    changed = True
    return terms


def unique_hom_from_preinitial(a: Algebra, b: Algebra | "LazyAlgebra"):
    """The unique homomorphism out of a preinitial algebra, or None.

    The candidate is forced: on one reachability pass, each element maps to
    beta applied to the values of the first cell released onto it, and every
    later cell is checked against that value.  A homomorphism's values do
    not depend on which cell came first, so when a check fails no
    homomorphism exists.  Returns a Map for finite b, or a dict for lazy b.
    """
    values: dict = {}  # element id -> value in b
    for pos, ids, k in _released_cells(a):
        value = alg_apply(b, pos, tuple(values[x] for x in ids))
        if values.setdefault(k, value) != value:
            if not is_preinitial(a):
                break
            return None
    if len(values) != len(a.carrier):
        raise ValueError("unique_hom_from_preinitial requires a preinitial algebra")
    images = tuple(values[k] for k in range(len(a.carrier)))
    if isinstance(b, LazyAlgebra):
        return dict(zip(a.carrier.elements, images))
    return Map(a.carrier, b.carrier, images)


def enumerate_algebras(functor: PolyFunctor, max_size: int, guard: int | None = None,
                       min_size: int = 1) -> list[Algebra]:
    """All algebras on the canonical carriers {0..m-1} for m <= max_size."""
    out = []
    for m in range(min_size, max_size + 1):
        car = carrier(range(m))
        dom = apply_to_set(functor, car)
        check_guard("algebra enumeration", m ** len(dom), guard)
        for images in itertools.product(car.elements, repeat=len(dom)):
            out.append(Algebra(functor, car, Map(dom, car, images)))
    return out


def enumerate_coalgebras(functor: PolyFunctor, max_size: int, guard: int | None = None,
                         min_size: int = 0) -> list[Coalgebra]:
    """All coalgebras on the canonical carriers {0..m-1} for m <= max_size."""
    out = []
    for m in range(min_size, max_size + 1):
        car = carrier(range(m))
        cod = apply_to_set(functor, car)
        check_guard("coalgebra enumeration", len(cod) ** m if m else 1, guard)
        if m == 0:
            out.append(Coalgebra(functor, car, Map(car, cod, ())))
            continue
        for images in itertools.product(cod.elements, repeat=m):
            out.append(Coalgebra(functor, car, Map(car, cod, images)))
    return out


# ---------------------------------------------------------------------------
# Lazy algebras (term-backed stand-ins for infinite initial algebras)
# ---------------------------------------------------------------------------

class LazyAlgebra:
    """An algebra whose carrier is not materialized.

    ``apply`` evaluates one structure step on already-computed values.  The
    initial algebra is the closed-term version; friendlier value domains
    (numbers for the maybe functor, tuples for lists) are provided by
    passing a custom ``apply``.
    """

    def __init__(self, functor: PolyFunctor, apply: Callable, name: str = "lazy"):
        self.functor = functor
        self._apply = apply
        self.name = name
        self._memo: dict = {}

    def apply(self, pos: Label, args: tuple):
        key = (pos, tuple(args))
        if key not in self._memo:
            self._memo[key] = self._apply(pos, tuple(args))
        return self._memo[key]

    def __repr__(self) -> str:
        return f"LazyAlgebra({self.name})"


def initial_lazy(functor: PolyFunctor) -> LazyAlgebra:
    """The initial algebra with closed terms as values."""
    return LazyAlgebra(functor, lambda pos, args: (pos, args), name=f"initial({functor.name})")


def nat_lazy() -> LazyAlgebra:
    """The initial maybe-algebra with ints as values."""
    return LazyAlgebra(
        maybe_functor(),
        lambda pos, args: 0 if pos == "Zero" else args[0] + 1,
        name="nat",
    )


def nat_value(term: Label) -> int:
    """Evaluate a closed maybe-term to the number it denotes."""
    n = 0
    while fel_args(term):
        term = fel_args(term)[0]
        n += 1
    return n


def list_value(term: Label) -> tuple:
    """Evaluate a closed list-term to the tuple it denotes."""
    out = []
    while fel_args(term):
        out.append(fel_pos(term))
        term = fel_args(term)[0]
    return tuple(out)


def list_lazy(functor: PolyFunctor) -> LazyAlgebra:
    """The initial list-algebra with tuples as values."""
    return LazyAlgebra(
        functor,
        lambda pos, args: () if not args else (pos,) + args[0],
        name="lists",
    )


# ---------------------------------------------------------------------------
# Stock truncated algebras and subterminal coalgebras
# ---------------------------------------------------------------------------

def std_alg(n: int) -> Algebra:
    """The quotient of the initial maybe-algebra identifying all k >= n."""
    return algebra(
        maybe_functor(),
        range(n + 1),
        lambda pos, args: 0 if pos == "Zero" else min(args[0] + 1, n),
        name=f"std_alg({n})",
    )


def std_coalg(n: int) -> Coalgebra:
    """The subterminal maybe-coalgebra on states of index 0..n."""
    return coalgebra(
        maybe_functor(),
        range(n + 1),
        lambda i: ("Zero", ()) if i == 0 else ("Succ", (i - 1,)),
        name=f"std_coalg({n})",
    )


def nat_automaton(k: int, with_inf: bool = True, name: str = "") -> Coalgebra:
    """The finite truncation {0..k} (+ a self-looping 'inf' state) of the
    terminal maybe-coalgebra; the self-loop makes infinite-index reasoning
    exact on a finite carrier."""
    elements: list[Label] = list(range(k + 1))
    if with_inf:
        elements.append(INF_STATE)

    def table(state):
        if state == INF_STATE:
            return ("Succ", (INF_STATE,))
        return ("Zero", ()) if state == 0 else ("Succ", (state - 1,))

    return coalgebra(maybe_functor(), elements, table,
                     name=name or (f"nat_inf({k})" if with_inf else f"nat_minus({k})"))


def _tuples_up_to(alphabet: Carrier, n: int) -> list[tuple]:
    out: list[tuple] = []
    for k in range(n + 1):
        out.extend(itertools.product(alphabet.elements, repeat=k))
    return out


def list_alg(functor: PolyFunctor, n: int) -> Algebra:
    """Lists over the functor's base monoid of length <= n, consing then
    dropping the last element past length n (the take-style quotient)."""
    base = carrier(e for e in functor.positions.carrier if functor.arity(e) == 1)
    return algebra(
        functor,
        _tuples_up_to(base, n),
        lambda pos, args: () if not args else ((pos,) + args[0])[: n],
        name=f"list_alg({n})",
    )


def list_coalg(functor: PolyFunctor, n: int) -> Coalgebra:
    """The subterminal coalgebra of lists of length <= n (head/tail out-map)."""
    base = carrier(e for e in functor.positions.carrier if functor.arity(e) == 1)
    zero = next((e for e in functor.positions.carrier if functor.arity(e) == 0), None)
    if zero is None:
        raise ValueError(f"list_coalg needs a nullary position; {functor.name} has none")
    return coalgebra(
        functor,
        _tuples_up_to(base, n),
        lambda xs: (zero, ()) if not xs else (xs[0], (xs[1:],)),
        name=f"list_coalg({n})",
    )


def _bottom_term(functor: PolyFunctor, bottom: Label | None) -> Label:
    nullaries = [p for p in functor.positions.carrier if functor.arity(p) == 0]
    if bottom is None:
        if len(nullaries) != 1:
            raise ValueError(
                "depth truncation needs a designated bottom among the nullary "
                f"positions {nullaries}"
            )
        bottom = nullaries[0]
    if bottom not in nullaries:
        raise ValueError(f"bottom position {label_text(bottom)} is not nullary")
    return (bottom, ())


def chop(term: Label, depth: int, bottom_term: Label) -> Label:
    """Replace every node at the given depth by the bottom constructor."""
    if term == bottom_term:
        return term
    if depth == 0:
        return bottom_term
    pos, args = fel_pos(term), fel_args(term)
    return (pos, tuple(chop(t, depth - 1, bottom_term) for t in args))


def closed_terms_up_to_depth(functor: PolyFunctor, depth: int,
                             bottom: Label | None = None,
                             guard: int | None = None) -> list[Label]:
    """All closed terms of constructor depth <= depth, canonically ordered."""
    bottom_term = _bottom_term(functor, bottom)
    current = {bottom_term}
    for _ in range(depth):
        new = {bottom_term}
        base = sorted(current, key=label_key)
        for pos in functor.positions.carrier:
            for args in itertools.product(base, repeat=functor.arity(pos)):
                new.add((pos, args))
                check_guard("truncated term carrier", len(new), guard)
        if new == current:
            break
        current = new
    return sorted(current, key=label_key)


def truncated_initial_algebra(functor: PolyFunctor, depth: int, bottom: Label | None = None,
                              name: str = "") -> Algebra:
    """The quotient of the initial algebra identifying terms with their
    depth-truncation (the generalization of min(i+1, n) and take(n)).

    Elements are closed terms of constructor depth <= depth, with the bottom
    constructor at depth 0; applying a constructor on top chops whatever
    falls below the bound down to bottom.
    """
    bottom_term = _bottom_term(functor, bottom)
    elements = closed_terms_up_to_depth(functor, depth, bottom)
    # chop((pos, args), depth) is (pos, args chopped at depth - 1): one chop per element
    cut = {t: chop(t, depth - 1, bottom_term) for t in elements} if depth else {}

    def table(pos, args):
        return (pos, tuple(cut[t] for t in args)) if depth else bottom_term

    return algebra(functor, elements, table, name=name or f"trunc({functor.name},{depth})")


def term_coalgebra(functor: PolyFunctor, depth: int, bottom: Label | None = None,
                   name: str = "") -> Coalgebra:
    """The subterminal coalgebra of closed terms of depth <= depth, with the
    destructuring out-map."""
    elements = closed_terms_up_to_depth(functor, depth, bottom)
    return coalgebra(
        functor,
        elements,
        lambda t: (fel_pos(t), fel_args(t)),
        name=name or f"terms({functor.name},{depth})",
    )


def tree_alg(functor: PolyFunctor, n: int) -> Algebra:
    """Depth-truncated trees for the bintree/bounded-tree functors."""
    from .functor import ZERO_POSITION

    return truncated_initial_algebra(functor, n, bottom=ZERO_POSITION, name=f"tree_alg({n})")


def tree_coalg(functor: PolyFunctor, n: int) -> Coalgebra:
    from .functor import ZERO_POSITION

    return term_coalgebra(functor, n, bottom=ZERO_POSITION, name=f"tree_coalg({n})")
