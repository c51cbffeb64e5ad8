"""The one-pass reachability and unique homomorphism against the round-based
versions kept here, and the truncated algebras against ``chop``.

``reference_reachable_set`` rescans the pending cells round by round, and
``reference_unique_hom`` evaluates a breadth-first witness term per element
by ``cata`` and then checks the homomorphism square on every cell, so the
counter-driven pass of ``fixpoints`` is compared with an independent answer.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from polymeasure.core import Map
from polymeasure.functor import (
    ZERO_POSITION,
    bintree_functor,
    bounded_tree_functor,
    fel_args,
    fel_pos,
    list_functor,
    maybe_functor,
    trivial_monoid,
    z_mod,
)
from polymeasure.fixpoints import (
    Algebra,
    LazyAlgebra,
    alg_apply,
    algebra,
    cata,
    chop,
    initial_lazy,
    is_preinitial,
    nat_lazy,
    reachable_set,
    truncated_initial_algebra,
    unique_hom_from_preinitial,
    witness_terms,
)

from conftest import random_algebra, twisted_functor

FUNCTORS = {
    "maybe": maybe_functor(),
    "list": list_functor(z_mod(2)),
    "bintree": bintree_functor(z_mod(2)),
    "tree2": bounded_tree_functor(trivial_monoid(), 2),
    "twisted+nil": twisted_functor(grounded=True),
}

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Round-based references
# ---------------------------------------------------------------------------

def reference_reachable_set(a: Algebra) -> frozenset:
    reached: set = set()
    pending = list(zip(a.structure.dom.elements, a.structure.images))
    while pending:
        blocked = []
        for e, img in pending:
            if all(child in reached for child in fel_args(e)):
                reached.add(img)
            else:
                blocked.append((e, img))
        if len(blocked) == len(pending):
            break
        pending = blocked
    return frozenset(reached)


def reference_unique_hom(a: Algebra, b):
    terms = witness_terms(a)
    if len(terms) != len(a.carrier):
        raise ValueError("not preinitial")
    values = {e: cata(t, b) for e, t in terms.items()}
    for e in a.structure.dom:
        expected = alg_apply(b, fel_pos(e), tuple(values[x] for x in fel_args(e)))
        if values[a.structure(e)] != expected:
            return None
    if isinstance(b, LazyAlgebra):
        return values
    return Map.from_dict(a.carrier, b.carrier, values)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def is_cyclic(a: Algebra) -> bool:
    """Whether some element is reached again from itself along the structure."""
    edges = {x: set() for x in a.carrier}
    for e, img in zip(a.structure.dom, a.structure.images):
        for x in fel_args(e):
            edges[x].add(img)
    for x in a.carrier:
        seen, frontier = set(), list(edges[x])
        while frontier:
            y = frontier.pop()
            if y == x:
                return True
            if y not in seen:
                seen.add(y)
                frontier.extend(edges[y])
    return False


def targets(functor, size, rng):
    """A finite B, the same B behind a LazyAlgebra, and the initial algebra."""
    b = random_algebra(functor, size, rng)
    return b, LazyAlgebra(functor, lambda pos, args: b.structure((pos, args))), initial_lazy(functor)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       size=st.integers(1, 4))
def test_reachable_set_matches_the_round_based_reference(name, rng, size):
    a = random_algebra(FUNCTORS[name], size, rng)
    assert reachable_set(a) == reference_reachable_set(a)


@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_unique_hom_matches_the_witness_term_reference(name, rng, sizes):
    functor = FUNCTORS[name]
    a = random_algebra(functor, sizes[0], rng)
    for b in targets(functor, sizes[1], rng):
        got = outcome(unique_hom_from_preinitial, a, b)
        assert got == outcome(reference_unique_hom, a, b)
        assert (got is ValueError) == (not is_preinitial(a))


@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_unique_hom_on_preinitial_cyclic_algebras(name, rng, sizes):
    functor = FUNCTORS[name]
    a = random_algebra(functor, sizes[0], rng)
    assume(is_preinitial(a) and is_cyclic(a))
    for b in targets(functor, sizes[1], rng) + (a,):
        assert outcome(unique_hom_from_preinitial, a, b) == outcome(reference_unique_hom, a, b)
    assert unique_hom_from_preinitial(a, a) == Map.identity(a.carrier)


def test_named_cases():
    maybe = maybe_functor()
    # Z/2 under Succ: preinitial and cyclic; onto itself the identity, into N nothing
    flip = algebra(maybe, (0, 1), lambda pos, args: 0 if pos == "Zero" else 1 - args[0])
    assert is_cyclic(flip)
    assert unique_hom_from_preinitial(flip, flip) == Map.identity(flip.carrier)
    assert unique_hom_from_preinitial(flip, nat_lazy()) is None
    assert reference_unique_hom(flip, nat_lazy()) is None
    # a fixed point w that no constant reaches
    stray = algebra(maybe, (0, "w"), lambda pos, args: 0 if pos == "Zero" else args[0])
    assert reachable_set(stray) == reference_reachable_set(stray) == {0}
    with pytest.raises(ValueError):
        unique_hom_from_preinitial(stray, flip)


# ---------------------------------------------------------------------------
# Truncated initial algebras: one chop per element is the chop of each cell
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["bintree", "tree2", "list"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_truncated_structure_is_the_chop_of_each_cell(name, depth):
    functor = {"bintree": bintree_functor(trivial_monoid()),
               "tree2": FUNCTORS["tree2"], "list": FUNCTORS["list"]}[name]
    bottom = (ZERO_POSITION, ())
    a = truncated_initial_algebra(functor, depth, bottom=ZERO_POSITION)
    for cell, image in zip(a.structure.dom, a.structure.images):
        assert image == chop(cell, depth, bottom)
