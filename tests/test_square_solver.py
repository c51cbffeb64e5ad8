"""The square solver (``core.solve_tables``) against product-and-filter
searches kept here as references.

Each reference tries every table in lexicographic order and keeps the ones
that the plain predicate accepts (``is_algebra_hom``, ``is_coalgebra_hom``,
``mixed_measuring_check``, or the square equations themselves), so the
solver's answers are compared with independent ones, order included.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polymeasure.core import Map, SizeGuardError, carrier, solve_tables
from polymeasure.functor import (
    automaton_functor,
    bintree_functor,
    identity_functor,
    maybe_functor,
    trivial_monoid,
    unit_functor,
)
from polymeasure.fixpoints import (
    algebra,
    coalgebra,
    enumerate_algebra_homs,
    is_algebra_hom,
    is_coalgebra_hom,
    tree_alg,
    unique_hom_from_preinitial,
)
from polymeasure.measuring import enumerate_measurings, find_coalgebra_homs, measuring_set
from polymeasure.mixed import (
    MixedMeasuring,
    enumerate_mixed_measurings,
    mixed_measuring_check,
    mixed_setup,
)

from conftest import SMALL_FUNCTORS, random_algebra, random_coalgebra, twisted_functor

FUNCTORS = {f.name: f for f in SMALL_FUNCTORS + [twisted_functor(grounded=True)]}
MIXED = {inner.name: mixed_setup(inner, maybe_functor()) for inner in (
    automaton_functor(carrier(["a"])), identity_functor(), twisted_functor(),
    twisted_functor(grounded=True))}

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def tables(dom, cod):
    return itertools.product(cod.elements, repeat=len(dom))


# ---------------------------------------------------------------------------
# The solver on its own
# ---------------------------------------------------------------------------

@PROPERTY
@given(rng=st.randoms(use_true_random=False), n_cells=st.integers(0, 4),
       n_values=st.integers(0, 3), n_squares=st.integers(0, 6))
def test_solver_is_the_filter_of_every_table(rng, n_cells, n_values, n_squares):
    squares = []
    if n_cells:
        for _ in range(n_squares):
            sources = tuple(rng.randrange(n_cells) for _ in range(rng.randrange(3)))
            squares.append((rng.randrange(n_cells), rng.randrange(2), sources))
    beta = {}  # a partial beta: a missing key fails the square
    for tag in range(2):
        for arity in range(3):
            for args in itertools.product(range(n_values), repeat=arity):
                if n_values and rng.random() < 0.8:
                    beta[(tag, *args)] = rng.randrange(n_values)
    expected = [t for t in itertools.product(range(n_values), repeat=n_cells)
                if all(t[target] == beta.get((tag, *[t[s] for s in sources]))
                       for target, tag, sources in squares)]
    assert list(solve_tables(n_cells, n_values, squares, beta, "test")) == expected


def test_solver_charges_branches_and_tables():
    # two free cells: 3 branches at the first, 3 * 3 below it, 9 tables
    assert len(list(solve_tables(2, 3, [], {}, "free", guard=21))) == 9
    with pytest.raises(SizeGuardError) as err:
        list(solve_tables(2, 3, [], {}, "free", guard=20))
    assert err.value.what == "free" and err.value.bound == 20


def test_propagate_is_guarded():
    # the unit functor: A = {0, 1} with 1 unreachable, so each of the 3
    # states has a free cell over |B| = 10 values, 1000 measurings in all
    functor = unit_functor()
    a = algebra(functor, [0, 1], lambda pos, args: 0)
    b = algebra(functor, range(10), lambda pos, args: 0)
    c = coalgebra(functor, range(3), lambda s: ("*", ()))
    assert len(enumerate_measurings(c, a, b, "propagate")) == 1000
    with pytest.raises(SizeGuardError):
        enumerate_measurings(c, a, b, "propagate", guard=200)


# ---------------------------------------------------------------------------
# Each search against its product-and-filter reference
# ---------------------------------------------------------------------------

@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_algebra_homs_are_the_filter(name, rng, sizes):
    a = random_algebra(FUNCTORS[name], sizes[0], rng)
    b = random_algebra(FUNCTORS[name], sizes[1], rng)
    expected = [images for images in tables(a.carrier, b.carrier)
                if is_algebra_hom(Map(a.carrier, b.carrier, images), a, b)]
    assert [f.images for f in enumerate_algebra_homs(a, b)] == expected


@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 3), st.integers(1, 3)))
def test_coalgebra_homs_are_the_filter(name, rng, sizes):
    c = random_coalgebra(FUNCTORS[name], sizes[0], rng)
    d = random_coalgebra(FUNCTORS[name], sizes[1], rng)
    expected = [images for images in tables(c.carrier, d.carrier)
                if is_coalgebra_hom(Map(c.carrier, d.carrier, images), c, d)]
    for limit in (1, 2, len(expected) + 1):
        assert [f.images for f in find_coalgebra_homs(c, d, limit)] == expected[:limit]


@PROPERTY
@given(name=st.sampled_from(sorted(MIXED)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(1, 2)))
def test_mixed_measurings_are_the_filter(name, rng, sizes):
    setup = MIXED[name]
    c = random_coalgebra(setup.inner, sizes[0], rng)
    a = random_algebra(setup.composite, sizes[1], rng)
    b = random_algebra(setup.composite, sizes[2], rng)
    cells = [(x, y) for x in c.carrier for y in a.carrier]
    expected = []
    for values in itertools.product(b.carrier.elements, repeat=len(cells)):
        entries = tuple(zip(cells, values))
        if mixed_measuring_check(MixedMeasuring(setup, c, a, b, entries))[0]:
            expected.append(entries)
    assert [m.entries for m in enumerate_mixed_measurings(setup, c, a, b)] == expected


@PROPERTY
@given(name=st.sampled_from(sorted(FUNCTORS)), rng=st.randoms(use_true_random=False),
       sizes=st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(1, 3)))
def test_propagate_is_brute(name, rng, sizes):
    c = random_coalgebra(FUNCTORS[name], sizes[0], rng)
    a = random_algebra(FUNCTORS[name], sizes[1], rng)
    b = random_algebra(FUNCTORS[name], sizes[2], rng)
    brute = [m.entries for m in enumerate_measurings(c, a, b, "brute")]
    assert [m.entries for m in enumerate_measurings(c, a, b, "propagate")] == brute


# ---------------------------------------------------------------------------
# Reach: a cyclic coalgebra and a preinitial algebra far past |B|^|A|
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("depth", [3, 2])
def test_loop_measures_a_big_preinitial_algebra(depth):
    functor = bintree_functor(trivial_monoid())
    loop = coalgebra(functor, ["s"], lambda s: ("*", ("s", "s")))
    a = tree_alg(functor, 3)
    b = tree_alg(functor, depth)
    assert len(a.carrier) == 26
    ms = measuring_set(loop, a, b)
    assert len(ms) == 1
    hom = unique_hom_from_preinitial(a, b)
    assert all(ms[0].value("s", x) == hom(x) for x in a.carrier)
