import pytest

from polymeasure.core import STAR, carrier
from polymeasure.functor import (
    automaton_functor,
    identity_functor,
    maybe_functor,
    validate_functor,
)
from polymeasure.fixpoints import Algebra, coalgebra, enumerate_algebra_homs
from polymeasure.measuring import enumerate_measurings, unit_coalgebra
from polymeasure.mixed import (
    MixedMeasuring,
    enumerate_mixed_measurings,
    mixed_convolution_algebra,
    mixed_measuring_check,
    mixed_setup,
    validate_module_map,
)

from conftest import random_algebra, random_coalgebra, twisted_functor


@pytest.fixture
def setup():
    return mixed_setup(automaton_functor(carrier(["a"])), maybe_functor())


def test_composite_functor_passes_the_laws(setup):
    for law in validate_functor(setup.composite):
        assert law.ok, law


def test_module_map_laws(setup):
    x, y, z = carrier([0, 1]), carrier(["p", "q"]), carrier([0])
    ok, witness = validate_module_map(setup, x, y, z)
    assert ok, witness


def test_unit_coalgebra_measurings_are_algebra_homs(setup, rng):
    unit = unit_coalgebra(setup.inner)
    for _ in range(10):
        a = random_algebra(setup.composite, rng.choice([1, 2]), rng)
        b = random_algebra(setup.composite, rng.choice([1, 2]), rng)
        mixed = enumerate_mixed_measurings(setup, unit, a, b)
        homs = enumerate_algebra_homs(a, b)
        assert len(mixed) == len(homs)
        assert sorted(m.entries for m in mixed) == sorted(
            tuple(((STAR, x), h(x)) for x in a.carrier) for h in homs
        )


def test_degenerate_identity_inner_functor_is_ordinary_measuring(rng):
    setup = mixed_setup(identity_functor(), maybe_functor())
    comp = setup.composite
    chi = coalgebra(identity_functor(), ["u", "v"], lambda s: (STAR, ("v",)))
    translated = coalgebra(
        comp, ["u", "v"], lambda s: (("Succ", (STAR,)), ("v",))
    )
    for _ in range(6):
        a = random_algebra(comp, rng.choice([1, 2]), rng)
        b = random_algebra(comp, rng.choice([1, 2]), rng)
        mixed = enumerate_mixed_measurings(setup, chi, a, b)
        ordinary = enumerate_measurings(translated, a, b, "brute")
        assert sorted(m.entries for m in mixed) == sorted(m.entries for m in ordinary)


def test_mixed_convolution_agrees_with_direct_check(setup, rng):
    for _ in range(6):
        c = random_coalgebra(setup.inner, rng.choice([1, 2]), rng)
        a = random_algebra(setup.composite, rng.choice([1, 2]), rng)
        b = random_algebra(setup.composite, rng.choice([1, 2]), rng)
        conv = mixed_convolution_algebra(setup, c, b)
        homs = enumerate_algebra_homs(a, conv)
        direct = enumerate_mixed_measurings(setup, c, a, b)
        assert len(homs) == len(direct)


def test_violation_witnesses(setup):
    unit = unit_coalgebra(setup.inner)
    a = random_algebra(setup.composite, 2, __import__("random").Random(5))
    cells = tuple(((STAR, x), a.carrier.elements[0]) for x in a.carrier)
    m = MixedMeasuring(setup, unit, a, a, cells)
    ok, witnesses = mixed_measuring_check(m)
    if not ok:
        assert witnesses


def test_twisted_inner_functor(rng):
    # the inner zips are not diagonal, so the module map's index order shows
    setup = mixed_setup(twisted_functor(), maybe_functor())
    for law in validate_functor(setup.composite):
        assert law.ok, law
    ok, witness = validate_module_map(setup, carrier([0, 1]), carrier(["p", "q"]), carrier([0]))
    assert ok, witness
    unit = unit_coalgebra(setup.inner)
    for _ in range(6):
        a = random_algebra(setup.composite, rng.choice([1, 2]), rng)
        b = random_algebra(setup.composite, rng.choice([1, 2]), rng)
        mixed = enumerate_mixed_measurings(setup, unit, a, b)
        homs = enumerate_algebra_homs(a, b)
        assert sorted(m.entries for m in mixed) == sorted(
            tuple(((STAR, x), h(x)) for x in a.carrier) for h in homs
        )
        c = random_coalgebra(setup.inner, rng.choice([1, 2]), rng)
        conv = mixed_convolution_algebra(setup, c, b)
        assert len(enumerate_algebra_homs(a, conv)) == len(
            enumerate_mixed_measurings(setup, c, a, b))
