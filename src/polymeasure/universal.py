"""Representing objects for the measuring functor, duals, towers, and
C-initial algebras.

The three representations, wherever each side is finite enough to compute:

    mu(C, A, B)  ~=  Alg(A, [C,B])  ~=  coAlg(C, Alg(A,B))  ~=  Alg(C|>A, B)

* ``convolution_algebra``  builds [C,B],
* ``measuring_tensor``     presents C|>A by leveled terms and congruence
                           closure (never materializing free carriers),
* ``universal_measuring``  finds Alg(A,B) for preinitial A as the maximum
                           member of a declared chain of subterminal
                           coalgebras, realized exactly by finite automata
                           (a self-loop stands for infinite index).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import (
    Label,
    Map,
    Tag,
    UNIT,
    label_key,
    mk_hom,
)
from .functor import (
    PolyFunctor,
    _nabla_element,
    apply_to_map,
    apply_to_set,
    fel_args,
    fel_pos,
    felement,
    has_maybe_shape,
)
from .fixpoints import (
    Algebra,
    Coalgebra,
    INF_STATE,
    LazyAlgebra,
    alg_apply,
    coalg_out,
    enumerate_algebra_homs,
    enumerate_coalgebras,
    initial_lazy,
    is_preinitial,
    nat_automaton,
    std_coalg,
    term_coalgebra,
    term_height,
    unique_hom_from_preinitial,
    witness_terms,
)
from .measuring import (
    ForcedFailure,
    Measuring,
    _forced,
    find_coalgebra_homs,
    forced_measuring,
    measuring_from_fn,
    measuring_set,
    unit_coalgebra,
)

__all__ = [
    "convolution_algebra",
    "convolution_step",
    "convolution_unit_iso",
    "SubterminalDescriptor",
    "maybe_subterminal_family",
    "truncation_family",
    "universal_measuring",
    "verify_universal",
    "dual_coalgebra",
    "dual_pairing_check",
    "TensorPresentation",
    "measuring_tensor",
    "tensor_universal_map",
    "tensor_normal_term",
    "Tower",
    "tower",
    "c_initial_check",
    "c_initial_via_dual",
    "TerminalSearch",
    "terminal_c_initial_search",
    "map_to_dual_check",
]


# ---------------------------------------------------------------------------
# Convolution algebra
# ---------------------------------------------------------------------------

def convolution_step(C: Coalgebra, B: Algebra, pos: Label, f_labels: tuple) -> tuple:
    """One structure step of the convolution algebra [C,B], evaluated
    pointwise on a single element (position plus hom-tuple arguments).

    Each hom-tuple lists values of B in C's canonical order; iterating from
    the nullary positions walks the chain of points of [C,B] without
    materializing the function space.
    """
    fe = felement(pos, f_labels)
    out = []
    for c in C.carrier:
        composite, pairs = _nabla_element(B.functor, fe, C.structure(c))
        out.append(alg_apply(B, composite, tuple(f[C.carrier.index(x)] for f, x in pairs)))
    return tuple(out)


def convolution_algebra(C: Coalgebra, B: Algebra, guard: int | None = None) -> Algebra:
    """The function space [C,B] as an algebra: evaluate the lax closed
    structure at chi(c) and apply beta."""
    functor = B.functor
    hom = mk_hom(C.carrier, B.carrier, guard)
    dom = apply_to_set(functor, hom, guard)
    return Algebra(
        functor,
        hom,
        Map.from_callable(dom, hom, lambda fe: convolution_step(C, B, fel_pos(fe), fel_args(fe))),
        name=f"[{C.name or 'C'},{B.name or 'B'}]",
    )


def convolution_unit_iso(B: Algebra) -> Map:
    """The explicit algebra isomorphism B -> [I,B] (evaluation at *)."""
    conv = convolution_algebra(unit_coalgebra(B.functor), B)
    iso = Map.from_callable(B.carrier, conv.carrier, lambda b: (b,))
    from .fixpoints import is_algebra_hom

    if not is_algebra_hom(iso, B, conv):
        raise AssertionError("B -> [I,B] failed the homomorphism check")
    inj = len(set(iso.images)) == len(iso.images)
    if not (inj and len(conv.carrier) == len(B.carrier)):
        raise AssertionError("B -> [I,B] is not a bijection")
    return iso


# ---------------------------------------------------------------------------
# Subterminal descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubterminalDescriptor:
    """A subterminal coalgebra, either a finite one verified as such or a
    symbolic member of a chain with an exact finite realization.

    ``rank`` orders the members of one family:  the empty coalgebra, then
    the index-bounded members by level, then the all-finite-indices member,
    then the terminal.  The realization is exact: self-loop states have
    infinite index, and cycle detection keeps index reasoning exact.
    """

    kind: str  # "empty" | "bounded" | "unit-inf" | "all-finite" | "terminal" | "finite"
    level: int | None
    realization: Coalgebra | None

    def rank(self):
        order = {"empty": 0, "bounded": 1, "unit-inf": 2, "all-finite": 3, "terminal": 4}
        return (order[self.kind], self.level if self.level is not None else 0)

    def describe(self) -> str:
        if self.kind == "bounded":
            return f"index<={self.level}"
        if self.kind == "unit-inf":
            return "single-infinite-state"
        if self.kind == "all-finite":
            return "all-finite-indices"
        if self.kind == "terminal":
            return "terminal"
        if self.kind == "empty":
            return "empty"
        return f"finite({self.realization.name or len(self.realization.carrier)})"


def maybe_subterminal_family(max_level: int, loop_at: int | None = None) -> list[SubterminalDescriptor]:
    """The subterminal chain for 1 + X: empty, index-bounded members up to
    max_level, the single-infinite-state member, the all-finite member, and
    the terminal, the last two realized as automata with a self-loop."""
    from .functor import maybe_functor
    from .fixpoints import coalgebra

    k = loop_at if loop_at is not None else max_level + 1
    fam = [SubterminalDescriptor("empty", None, coalgebra(maybe_functor(), (), {}, name="empty"))]
    fam.extend(
        SubterminalDescriptor("bounded", n, std_coalg(n)) for n in range(max_level + 1)
    )
    unit_inf = coalgebra(
        maybe_functor(), (INF_STATE,), lambda s: ("Succ", (INF_STATE,)), name="unit_inf"
    )
    fam.append(SubterminalDescriptor("unit-inf", None, unit_inf))

    def loop_table(s):
        if s == k:
            return ("Succ", (k,))
        return ("Zero", ()) if s == 0 else ("Succ", (s - 1,))

    all_finite = coalgebra(maybe_functor(), range(k + 1), loop_table, name=f"nat_minus({k})")
    fam.append(SubterminalDescriptor("all-finite", None, all_finite))
    fam.append(SubterminalDescriptor("terminal", None, nat_automaton(k)))
    return fam


def truncation_family(functor: PolyFunctor, max_level: int,
                      bottom: Label | None = None) -> list[SubterminalDescriptor]:
    """The depth-truncation chain of subterminal coalgebras for a tree-like
    functor: closed terms of depth <= n, plus a terminal marker (decided by
    total-homomorphism existence, with no finite realization)."""
    from .fixpoints import coalgebra

    fam = [SubterminalDescriptor("empty", None, coalgebra(functor, (), {}, name="empty"))]
    for n in range(max_level + 1):
        fam.append(SubterminalDescriptor("bounded", n, term_coalgebra(functor, n, bottom)))
    fam.append(SubterminalDescriptor("terminal", None, None))
    return fam


def _default_family(a: Algebra) -> list[SubterminalDescriptor]:
    if has_maybe_shape(a.functor):
        return maybe_subterminal_family(len(a.carrier) + 1)
    max_depth = max(map(term_height, witness_terms(a).values()), default=0)
    from .functor import ZERO_POSITION

    bottom = ZERO_POSITION if ZERO_POSITION in a.functor.positions.carrier else None
    return truncation_family(a.functor, max_depth + 1, bottom)


def _mu_nonempty(desc: SubterminalDescriptor, a: Algebra, b) -> Measuring | None:
    """A measuring by the descriptor, or None.  The terminal marker without a
    realization is decided by total-homomorphism existence."""
    if desc.realization is None:
        hom = unique_hom_from_preinitial(a, b)
        if hom is None:
            return None
        return "total-homomorphism"
    ms = measuring_set(desc.realization, a, b)
    return ms[0] if ms else None


def universal_measuring(a: Algebra, b, universe: Iterable[SubterminalDescriptor] | None = None):
    """The maximum member of the universe that measures a into b, with its
    (unique) evaluation measuring.

    Requires a preinitial domain, for which every measuring set along the
    chain is empty or a singleton, so maximality determines the universal
    measuring coalgebra among the declared universe.
    """
    if not is_preinitial(a):
        raise ValueError("universal_measuring requires a preinitial algebra; "
                         "use verify_universal directly for general domains")
    family = sorted(universe if universe is not None else _default_family(a),
                    key=SubterminalDescriptor.rank, reverse=True)
    for desc in family:
        ev = _mu_nonempty(desc, a, b)
        if ev is not None:
            return desc, ev
    raise AssertionError("the empty coalgebra always measures; universe must include it")


def verify_universal(u: SubterminalDescriptor | Coalgebra, ev, a: Algebra, b,
                     k: int = 3, guard: int | None = None):
    """Terminality of a claimed universal measuring against every coalgebra
    of size <= k: each measuring factors through ev along exactly one
    coalgebra homomorphism.

    For a terminal marker without a finite realization the property is
    checked in counting form: mu(C, a, b) is a singleton for every C.
    Returns (ok, counterexample).
    """
    realization = u.realization if isinstance(u, SubterminalDescriptor) else u
    counting_only = realization is None
    for c_coalg in enumerate_coalgebras(a.functor, k, guard=guard):
        ms = measuring_set(c_coalg, a, b, guard=guard)
        if counting_only:
            if len(ms) != 1:
                return False, ("measuring set not a singleton", c_coalg, len(ms))
            continue
        homs = find_coalgebra_homs(c_coalg, realization, limit=2)
        for phi in ms:
            factoring = [
                h
                for h in homs
                if all(
                    ev.value(h(c), x) == phi.value(c, x)
                    for c in c_coalg.carrier
                    for x in a.carrier
                )
            ]
            if len(factoring) != 1:
                return False, ("factorizations != 1", c_coalg, phi, len(factoring))
        if not ms and len(homs) != 0:
            # A hom into the universal coalgebra yields a measuring by
            # precomposition, contradicting emptiness.
            return False, ("hom exists but no measuring", c_coalg)
    return True, None


def dual_coalgebra(a: Algebra, universe: Iterable[SubterminalDescriptor] | None = None,
                   lazy=None):
    """The dual of a preinitial algebra: its universal measuring into the
    (lazy, term-backed) initial algebra."""
    target = lazy if lazy is not None else initial_lazy(a.functor)
    return universal_measuring(a, target, universe)


def dual_pairing_check(c_coalg: Coalgebra, a: Algebra):
    """|Alg(a, [C, N])| == |coAlg(C, dual(a))| with N the lazy initial
    algebra; the left side is computed as forced measurings into N."""
    target = initial_lazy(a.functor)
    result = forced_measuring(c_coalg, a, target)
    left = 1 if isinstance(result, Measuring) else 0
    desc, _ = dual_coalgebra(a)
    homs = find_coalgebra_homs(c_coalg, desc.realization, limit=2)
    right = len(homs)
    return left == right, left, right


# ---------------------------------------------------------------------------
# Measuring tensor (leveled presentation with congruence closure)
# ---------------------------------------------------------------------------

@dataclass
class TensorPresentation:
    """A finite presentation of the tensor C|>A.

    Generators are leaf terms (c, a); relations rewrite a leaf whose algebra
    component is a structure image into a node over child leaves, and close
    under congruence.  ``status`` is "finite" when a whole level added no new
    class, else "truncated"; only finite presentations materialize.
    """

    functor: PolyFunctor
    C: Coalgebra
    A: Algebra
    status: str
    levels_run: int
    class_terms: list  # one canonical member term per class, canonical order
    leaf_class: dict  # (c, a) -> class index
    node_class: dict  # (pos, child class tuple) -> class index
    algebra: Algebra | None


class _UnionFind:
    def __init__(self):
        self.parent: list[int] = []

    def add(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        # lower id wins as representative, keeping tie-breaks deterministic
        lo, hi = min(ri, rj), max(ri, rj)
        self.parent[hi] = lo
        return True


def measuring_tensor(C: Coalgebra, A: Algebra, budget: int = 6,
                     class_guard: int = 20000) -> TensorPresentation:
    """Present C|>A by leveled term generation and union-find closure.

    Level 0 holds the generators (c, a); each level adds every node over
    existing classes; leaves whose algebra component is alpha(fe) are
    rewritten through chi and the zip into nodes over child leaves; closure
    under congruence runs after every level.  Generation stops when a level
    adds no new class (status "finite") or the budget or class guard is hit
    (status "truncated").
    """
    functor = A.functor
    uf = _UnionFind()
    leaf_id: dict = {}
    members: list = []  # id -> term (leaves: Tag('leaf', (c,a)); nodes: (pos, child ids))
    node_ids: dict = {}

    def add_leaf(c, a) -> int:
        if (c, a) not in leaf_id:
            i = uf.add()
            members.append(Tag("leaf", (c, a)))
            leaf_id[(c, a)] = i
        return leaf_id[(c, a)]

    def canon_node(pos, child_ids):
        return (pos, tuple(uf.find(i) for i in child_ids))

    def add_node(pos, child_ids) -> int:
        key = canon_node(pos, child_ids)
        if key not in node_ids:
            i = uf.add()
            members.append(key)
            node_ids[key] = i
        return node_ids[key]

    for c in C.carrier:
        for a in A.carrier:
            add_leaf(c, a)

    # Rewrite clause: a leaf at a structure image unfolds one step.
    pending_unions: list[tuple[int, int]] = []
    for c in C.carrier:
        chi_c = C.structure(c)
        for fe, img in zip(A.structure.dom, A.structure.images):
            composite, pairs = _nabla_element(functor, chi_c, fe)
            node = add_node(composite, tuple(add_leaf(x, y) for x, y in pairs))
            pending_unions.append((leaf_id[(c, img)], node))
    for i, j in pending_unions:
        uf.union(i, j)

    def rebuild() -> None:
        # Re-canonicalize nodes after unions; merged keys merge their classes.
        changed = True
        while changed:
            changed = False
            for key, i in list(node_ids.items()):
                canon = canon_node(key[0], key[1])
                if canon != key:
                    del node_ids[key]
                    if canon in node_ids:
                        if uf.union(node_ids[canon], i):
                            changed = True
                    else:
                        node_ids[canon] = i
                    changed = True

    rebuild()

    status = "truncated"
    levels = 0
    for level in range(1, budget + 1):
        levels = level
        roots = sorted({uf.find(i) for i in range(len(uf.parent))})
        added = False
        overflow = False
        for pos in functor.positions.carrier:
            for child_ids in itertools.product(roots, repeat=functor.arity(pos)):
                key = canon_node(pos, child_ids)
                if key not in node_ids:
                    added = True
                    add_node(*key)
                    if len(uf.parent) > class_guard:
                        overflow = True
                        break
            if overflow:
                break
        rebuild()
        if overflow:
            status = "truncated"
            break
        if not added:
            status = "finite"
            break

    classes: dict[int, list] = {}
    for i, term in enumerate(members):
        classes.setdefault(uf.find(i), []).append(term)

    def term_key(t):
        if isinstance(t, Tag):
            return (0, label_key(t.value))
        return (1, label_key(t[0]), t[1])

    roots_sorted = sorted(classes, key=lambda r: min(term_key(t) for t in classes[r]))
    class_index = {r: i for i, r in enumerate(roots_sorted)}
    class_terms = [sorted(classes[r], key=term_key)[0] for r in roots_sorted]
    leaf_class = {k: class_index[uf.find(i)] for k, i in leaf_id.items()}
    node_class = {
        (key[0], tuple(class_index[uf.find(ch)] for ch in key[1])): class_index[uf.find(i)]
        for key, i in node_ids.items()
    }

    algebra_obj = None
    if status == "finite":
        from .fixpoints import algebra as mk_algebra

        algebra_obj = mk_algebra(
            functor,
            range(len(roots_sorted)),
            lambda pos, args: node_class[(pos, tuple(args))],
            name=f"{C.name or 'C'}|>{A.name or 'A'}",
        )

    return TensorPresentation(
        functor, C, A, status, levels, class_terms, leaf_class, node_class, algebra_obj
    )


def tensor_universal_map(phi: Measuring, pres: TensorPresentation):
    """Evaluate the induced homomorphism C|>A -> B on the presented classes.

    Every class member must evaluate consistently; a conflict certifies that
    phi was not a measuring.  Returns (values per class, conflicts).
    """
    b = phi.B
    values: dict[int, object] = {}
    conflicts = []

    def offer(cls: int, value) -> None:
        if cls in values and values[cls] != value:
            conflicts.append((cls, values[cls], value))
        else:
            values[cls] = value

    for (c, a), cls in pres.leaf_class.items():
        offer(cls, phi.value(c, a))
    changed = True
    while changed:
        changed = False
        for (pos, child_classes), cls in pres.node_class.items():
            if all(ch in values for ch in child_classes) and cls not in values:
                offer(cls, alg_apply(b, pos, tuple(values[ch] for ch in child_classes)))
                changed = True
    # Re-apply node equations for consistency on already-valued classes.
    for (pos, child_classes), cls in pres.node_class.items():
        if all(ch in values for ch in child_classes):
            offer(cls, alg_apply(b, pos, tuple(values[ch] for ch in child_classes)))
    return values, conflicts


def tensor_normal_term(C: Coalgebra, A: Algebra, c: Label, a: Label):
    """The prefix-extraction normal form of the generator (c, a): a closed
    term over the functor, obtained by unfolding the tensor rewrite clause
    along canonical decompositions until the algebra components bottom out.

    Requires a preinitial A (every element decomposes); evaluating the term
    in B agrees with any measuring's value at (c, a).
    """
    functor = A.functor
    preferred: dict = {}
    for fe in A.structure.dom:
        img = A.structure(fe)
        if img not in preferred:
            preferred[img] = fe

    def expand(c, a):
        composite, pairs = _nabla_element(functor, C.structure(c), preferred[a])
        return (composite, tuple(expand(x, y) for x, y in pairs))

    return expand(c, a)


# ---------------------------------------------------------------------------
# Towers of partial measurings
# ---------------------------------------------------------------------------

class TowerStage(NamedTuple):
    k: int
    approximant: Algebra  # the k-fold application of the functor to 1
    dual: SubterminalDescriptor
    measurings: list


@dataclass
class Tower:
    stages: list
    restrictions: list  # restrictions[k]: index map stage k+1 -> stage k
    limit: list  # compatible families, one tuple of stage indices per family
    stabilized_at: int | None


def _approximant_chain(functor: PolyFunctor, n_max: int) -> list[Algebra]:
    """1 <- F1 <- F^2 1 <- ... as algebras: the structure on F^k 1 is F^k(!)."""
    one = UNIT
    f_one = apply_to_set(functor, one)
    bang = Map.from_callable(f_one, one, lambda e: "*")
    out = [Algebra(functor, one, bang, name="F^0(1)")]
    structure = bang
    for k in range(1, n_max + 1):
        structure = apply_to_map(functor, structure)
        out.append(Algebra(functor, structure.cod, structure, name=f"F^{k}(1)"))
    return out


def tower(a: Algebra, b, n_max: int,
          universe: Iterable[SubterminalDescriptor] | None = None) -> Tower:
    """Stage k is the measuring set by the dual of the k-th approximant of
    the terminal algebra; restrictions precompose with the dual inclusions.

    Each approximant is checked preinitial before dualizing (an error names
    the failing stage).  ``stabilized_at`` is the first stage from which, up
    to n_max, restrictions are bijective and each new state's row repeats
    its child state's row (reported for chain-like duals; None otherwise).
    """
    functor = a.functor
    stages: list[TowerStage] = []
    for k, approx in enumerate(_approximant_chain(functor, n_max)):
        if not is_preinitial(approx):
            raise ValueError(f"tower stage {k}: the approximant is not preinitial")
        desc, _ = dual_coalgebra(approx, universe)
        ms = measuring_set(desc.realization, a, b)
        stages.append(TowerStage(k, approx, desc, ms))

    restrictions: list[dict] = []
    inclusions: list[Map] = []
    for k in range(n_max):
        low, high = stages[k], stages[k + 1]
        homs = find_coalgebra_homs(low.dual.realization, high.dual.realization, limit=2)
        if len(homs) != 1:
            raise AssertionError(
                f"tower stage {k}: expected a unique dual inclusion, found {len(homs)}"
            )
        h = homs[0]
        inclusions.append(h)
        index_map: dict[int, int] = {}
        low_tables = [m.entries for m in low.measurings]
        for j, m in enumerate(high.measurings):
            restricted = measuring_from_fn(
                low.dual.realization, a, b, lambda c, x: m.value(h(c), x)
            )
            index_map[j] = low_tables.index(restricted.entries)
        restrictions.append(index_map)

    limit = []
    for j in range(len(stages[n_max].measurings)):
        family = [j]
        for k in range(n_max - 1, -1, -1):
            family.append(restrictions[k][family[-1]])
        limit.append(tuple(reversed(family)))

    stabilized_at = _tower_stabilization(stages, restrictions, inclusions, n_max)
    return Tower(stages, restrictions, limit, stabilized_at)


def _tower_stabilization(stages, restrictions, inclusions, n_max) -> int | None:
    if not stages[n_max].measurings:
        return None

    def bijective(k):
        r = restrictions[k]
        return len(stages[k].measurings) == len(stages[k + 1].measurings) and len(
            set(r.values())
        ) == len(r)

    def adds_nothing(k) -> bool | None:
        # Stage k repeats stage k-1 when every state outside the image of the
        # dual inclusion carries the same row as its (single) child state;
        # None when such a state branches (no chain reading).
        dual = stages[k].dual.realization
        old = set(inclusions[k - 1].images)
        for m in stages[k].measurings:
            for state in dual.carrier:
                if state in old:
                    continue
                _, children = coalg_out(dual, state)
                if len(children) > 1:
                    return None
                if not children or children[0] == state:
                    continue
                row = [m.value(state, x) for x in m.A.carrier]
                child_row = [m.value(children[0], x) for x in m.A.carrier]
                if row != child_row:
                    return False
        return True

    flags = {k: adds_nothing(k) for k in range(1, n_max + 1)}
    if any(f is None for f in flags.values()):
        return None
    for start in range(1, n_max + 1):
        if all(flags[k] for k in range(start, n_max + 1)) and all(
            bijective(k) for k in range(start, n_max)
        ):
            return start
    return None


# ---------------------------------------------------------------------------
# C-initial algebras
# ---------------------------------------------------------------------------

class CInitialReport(NamedTuple):
    ok: bool
    counts: list  # (test algebra, |mu(C, A, X)|)
    violation: object


def c_initial_check(a: Algebra, c_coalg: Coalgebra, test_family: Iterable[Algebra],
                    guard: int | None = None) -> CInitialReport:
    """A is C-initial when it has exactly one measuring by C into every
    algebra; checked against the given family."""
    counts = []
    violation = None
    for x in test_family:
        n = len(measuring_set(c_coalg, a, x, guard=guard))
        counts.append((x, n))
        if n != 1 and violation is None:
            violation = x
    return CInitialReport(violation is None, counts, violation)


def c_initial_via_dual(a: Algebra, c_coalg: Coalgebra) -> bool:
    """Exact C-initiality for a preinitial algebra, via one measuring into
    the lazy initial algebra.

    For preinitial A every measuring set is empty or a singleton, and a
    measuring into the initial algebra postcomposes with the unique map out
    of it to measure into every algebra; so nonemptiness at the initial
    algebra settles C-initiality for all targets at once.
    """
    if not is_preinitial(a):
        raise ValueError("c_initial_via_dual requires a preinitial algebra")
    return isinstance(forced_measuring(c_coalg, a, initial_lazy(a.functor)), Measuring)


class TerminalSearch(NamedTuple):
    status: str  # "found" | "none" | "ambiguous"
    winners: list
    c_initial: list
    evidence: dict  # (winner index, candidate index) -> hom


def terminal_c_initial_search(c_coalg: Coalgebra, candidates: list[Algebra],
                              test_family: Iterable[Algebra],
                              guard: int | None = None) -> TerminalSearch:
    """Filter candidates to the C-initial ones, then locate those receiving a
    unique homomorphism from every C-initial candidate.

    Ambiguity (several receivers, e.g. isomorphic candidates) is reported,
    never resolved by a guess.
    """
    test_family = list(test_family)
    c_initial = [
        cand for cand in candidates if c_initial_check(cand, c_coalg, test_family, guard).ok
    ]
    if not c_initial:
        return TerminalSearch("none", [], [], {})
    winners = []
    evidence = {}
    for ti, target in enumerate(c_initial):
        homs_per = {}
        for ci, cand in enumerate(c_initial):
            if is_preinitial(cand):
                hom = unique_hom_from_preinitial(cand, target)
                homs = [hom] if hom is not None else []
            else:
                homs = enumerate_algebra_homs(cand, target, guard=guard)
            if len(homs) != 1:
                homs_per = None
                break
            homs_per[ci] = homs[0]
        if homs_per is not None:
            winners.append(target)
            for ci, hom in homs_per.items():
                evidence[(ti, ci)] = hom
    status = "found" if len(winners) == 1 else ("none" if not winners else "ambiguous")
    return TerminalSearch(status, winners, c_initial, evidence)


class DualMapReport(NamedTuple):
    ok: bool
    measuring: Measuring | None
    curried: dict | None  # a -> tuple of values over C, the map into [C, N]
    witnesses: list  # two distinct measurings when uniqueness fails
    blocking: object


def map_to_dual_check(a: Algebra, c_coalg: Coalgebra) -> DualMapReport:
    """The canonical measuring C x A -> N exists uniquely for a C-initial A;
    its curried form is the unique map into the dual algebra [C, N].

    For a preinitial domain the table is forced; otherwise unforced cells
    are probed with two fillings to exhibit non-uniqueness.
    """
    target = initial_lazy(a.functor)
    if is_preinitial(a):
        result = forced_measuring(c_coalg, a, target)
        if isinstance(result, ForcedFailure):
            return DualMapReport(False, None, None, [], result)
        curried = {
            x: tuple(result.value(c, x) for c in c_coalg.carrier) for x in a.carrier
        }
        return DualMapReport(True, result, curried, [], None)
    # Non-preinitial: fill undecomposable elements two ways and validate.
    images = set(a.structure.images)
    free = [x for x in a.carrier if x not in images]
    zero = _some_closed_value(target)
    witnesses = []
    for filler in (zero, target.apply(_unary_position(a.functor), (zero,))
                   if _unary_position(a.functor) else zero):
        m = _forced(c_coalg, a, target, filler)
        if isinstance(m, Measuring):
            witnesses.append(m)
    distinct = []
    for w in witnesses:
        if not any(w.entries == seen.entries for seen in distinct):
            distinct.append(w)
    if len(distinct) >= 2:
        return DualMapReport(False, None, None, distinct[:2], ("free elements", free))
    if distinct:
        m = distinct[0]
        curried = {x: tuple(m.value(c, x) for c in c_coalg.carrier) for x in a.carrier}
        return DualMapReport(True, m, curried, [], None)
    return DualMapReport(False, None, None, [], ("no forced table", free))


def _some_closed_value(lazy: LazyAlgebra):
    for pos in lazy.functor.positions.carrier:
        if lazy.functor.arity(pos) == 0:
            return lazy.apply(pos, ())
    raise ValueError("functor has no nullary position; initial algebra is empty")


def _unary_position(functor: PolyFunctor):
    for pos in functor.positions.carrier:
        if functor.arity(pos) == 1:
            return pos
    return None
