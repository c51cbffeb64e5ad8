"""The compiled square kernel against a plain square check kept here.

The reference functions below evaluate the measuring square
``phi(c, alpha(fe)) = beta(nabla(chi(c), fe) ; phi)`` straight from the
definition on labels, and the forced table by demand-driven recursion, so
that every answer of the kernel is compared with an independent one.
"""

import itertools
import random

from hypothesis import assume, given, settings, strategies as st

from polymeasure.core import carrier
from polymeasure.functor import (
    apply_to_set,
    automaton_functor,
    bintree_functor,
    bounded_tree_functor,
    list_functor,
    maybe_functor,
    trivial_monoid,
    z_mod,
)
from polymeasure.fixpoints import (
    Algebra,
    Coalgebra,
    LazyAlgebra,
    alg_apply,
    initial_lazy,
    is_preinitial,
)
from polymeasure.core import Map
from polymeasure.measuring import (
    ForcedFailure,
    Measuring,
    forced_measuring,
    is_measuring,
    measuring_from_fn,
    measuring_set,
    measuring_violations,
    tensor_coalgebras,
)
from polymeasure.universal import tensor_normal_term

from conftest import random_algebra, random_coalgebra, twisted_functor

FUNCTORS = {
    "maybe": maybe_functor(),
    "list": list_functor(z_mod(2)),
    "bintree": bintree_functor(z_mod(2)),
    "tree2": bounded_tree_functor(trivial_monoid(), 2),
    "automaton": automaton_functor(carrier(["a", "b"])),
    "twisted": twisted_functor(),
    "twisted+nil": twisted_functor(grounded=True),
}
# functors with a nullary position, hence with preinitial algebras
GROUNDED = ["maybe", "list", "bintree", "tree2", "twisted+nil"]

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Reference square check
# ---------------------------------------------------------------------------

def reference_nabla(functor, ex, ey):
    """nabla on elements, read off the zip maps."""
    (c, xs), (d, ys) = ex, ey
    lam = functor.zip_pair(c, d)
    pairs = []
    for w in functor.fiber(functor.mul(c, d)):
        u, v = lam(w)
        pairs.append((xs[functor.fiber(c).index(u)], ys[functor.fiber(d).index(v)]))
    return functor.mul(c, d), tuple(pairs)


def reference_rhs(C, A, B, phi, c, fe):
    """beta of nabla(chi(c), fe) with phi applied childwise."""
    composite, pairs = reference_nabla(A.functor, C.structure(c), fe)
    children = [phi(x, a) for x, a in pairs]
    if isinstance(B, LazyAlgebra):
        return B.apply(composite, tuple(children))
    return alg_apply(B, composite, tuple(children))


def reference_violations(C, A, B, table: dict) -> list:
    phi = lambda c, a: table[(c, a)]  # noqa: E731
    return [(c, fe) for c in C.carrier for fe in A.structure.dom
            if table[(c, A.structure(fe))] != reference_rhs(C, A, B, phi, c, fe)]


class _Cyclic(Exception):
    pass


def reference_forced(C, A, B):
    """The forced table of a preinitial A by recursion, or its ForcedFailure."""
    preferred: dict = {}
    for fe in A.structure.dom:
        preferred.setdefault(A.structure(fe), fe)
    memo: dict = {}
    open_cells: set = set()

    def value(c, a):
        if (c, a) in memo:
            return memo[(c, a)]
        if (c, a) in open_cells:
            raise _Cyclic(c, a)
        open_cells.add((c, a))
        memo[(c, a)] = reference_rhs(C, A, B, value, c, preferred[a])
        open_cells.discard((c, a))
        return memo[(c, a)]

    try:
        table = {(c, a): value(c, a) for c in C.carrier for a in A.carrier}
    except _Cyclic as cyc:
        c, a = cyc.args
        return ForcedFailure(c, a, "cyclic demand has no well-founded value")
    bad = reference_violations(C, A, B, table)
    if bad:
        return ForcedFailure(bad[0][0], bad[0][1], "forced table violates the measuring square")
    return tuple(((c, a), table[(c, a)]) for c in C.carrier for a in A.carrier)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def acyclic_coalgebra(functor, size, rng) -> Coalgebra:
    """State i only has children below i."""
    car = carrier(range(size))
    cod = apply_to_set(functor, car)
    images = tuple(rng.choice([e for e in cod if all(x < i for x in e[1])])
                   for i in range(size))
    return Coalgebra(functor, car, Map(car, cod, images))


def preinitial_algebra(functor, size, rng):
    for _ in range(50):
        a = random_algebra(functor, size, rng)
        if is_preinitial(a):
            return a
    assume(False)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3)))
def test_violations_match_reference_in_order(name, rng, sizes):
    functor = FUNCTORS[name]
    c = random_coalgebra(functor, sizes[0], rng)
    a = random_algebra(functor, sizes[1], rng)
    b = random_algebra(functor, sizes[2], rng)
    table = {(x, y): rng.choice(b.carrier.elements) for x in c.carrier for y in a.carrier}
    m = measuring_from_fn(c, a, b, lambda x, y: table[(x, y)])
    expected = reference_violations(c, a, b, table)
    assert measuring_violations(m) == expected
    assert measuring_violations(m, first_only=True) == expected[:1]
    assert is_measuring(m) == (not expected)


@PROPERTY
@given(name=st.sampled_from(GROUNDED), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(1, 3)))
def test_forced_into_finite_target_matches_reference(name, rng, sizes):
    functor = FUNCTORS[name]
    c = acyclic_coalgebra(functor, sizes[0], rng)
    a = preinitial_algebra(functor, sizes[1], rng)
    b = random_algebra(functor, sizes[2], rng)
    result = forced_measuring(c, a, b)
    expected = reference_forced(c, a, b)
    if isinstance(expected, ForcedFailure):
        assert result == expected
    else:
        assert isinstance(result, Measuring) and result.entries == expected


@PROPERTY
@given(name=st.sampled_from(GROUNDED), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 4), st.integers(1, 3)))
def test_forced_into_lazy_initial_matches_reference(name, rng, sizes):
    functor = FUNCTORS[name]
    c = random_coalgebra(functor, sizes[0], rng)  # cycles allowed
    a = preinitial_algebra(functor, sizes[1], rng)
    result = forced_measuring(c, a, initial_lazy(functor))
    expected = reference_forced(c, a, initial_lazy(functor))
    if isinstance(expected, ForcedFailure):
        assert result == expected
    else:
        assert isinstance(result, Measuring) and result.entries == expected


@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(1, 3)),
       preinitial=st.booleans())
def test_measuring_set_is_the_brute_filter(name, rng, sizes, preinitial):
    functor = FUNCTORS[name]
    if preinitial:
        assume(name in GROUNDED)
        a = preinitial_algebra(functor, sizes[1], rng)
    else:
        a = random_algebra(functor, sizes[1], rng)
    c = random_coalgebra(functor, sizes[0], rng)
    b = random_algebra(functor, sizes[2], rng)
    cells = [(x, y) for x in c.carrier for y in a.carrier]
    expected = []
    for values in itertools.product(b.carrier.elements, repeat=len(cells)):
        table = dict(zip(cells, values))
        if not reference_violations(c, a, b, table):
            expected.append(tuple(zip(cells, values)))
    assert [m.entries for m in measuring_set(c, a, b)] == expected


@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_tensor_coalgebra_is_the_reference_nabla(name, rng, sizes):
    functor = FUNCTORS[name]
    d = random_coalgebra(functor, sizes[0], rng)
    c = random_coalgebra(functor, sizes[1], rng)
    t = tensor_coalgebras(d, c)
    for x, y in t.carrier:
        assert t.structure((x, y)) == reference_nabla(functor, d.structure(x), c.structure(y))


@PROPERTY
@given(name=st.sampled_from(GROUNDED), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 3), st.integers(1, 3)))
def test_normal_term_is_the_demand_in_the_initial_algebra(name, rng, sizes):
    functor = FUNCTORS[name]
    c = acyclic_coalgebra(functor, sizes[0], rng)
    a = preinitial_algebra(functor, sizes[1], rng)
    initial = initial_lazy(functor)
    preferred: dict = {}
    for fe in a.structure.dom:
        preferred.setdefault(a.structure(fe), fe)

    def value(x, y):
        return reference_rhs(c, a, initial, value, x, preferred[y])

    for x in c.carrier:
        for y in a.carrier:
            assert tensor_normal_term(c, a, x, y) == value(x, y)


def test_empty_algebra():
    # F(0) is empty for the automaton functor, so the empty set is an algebra
    functor = FUNCTORS["automaton"]
    empty = carrier(())
    a = Algebra(functor, empty, Map(apply_to_set(functor, empty), empty, ()))
    b = random_algebra(functor, 2, random.Random(0))
    for c in (random_coalgebra(functor, 2, random.Random(1)), acyclic_coalgebra(functor, 0, None)):
        m = measuring_from_fn(c, a, b, {})
        assert measuring_violations(m) == reference_violations(c, a, b, {}) == []
        assert [x.entries for x in measuring_set(c, a, b)] == [()]
        assert forced_measuring(c, a, initial_lazy(functor)).entries == ()
