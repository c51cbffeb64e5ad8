import random

import pytest

from polymeasure.core import Carrier, Map, carrier, mk_product
from polymeasure.functor import (
    PolyFunctor,
    apply_to_set,
    automaton_functor,
    const_monoid_functor,
    identity_functor,
    list_functor,
    maybe_functor,
    monoid_from_op,
    unit_functor,
    z_mod,
)
from polymeasure.fixpoints import Algebra, Coalgebra


def twisted_functor(grounded: bool = False) -> PolyFunctor:
    """Positions Z/2 and fibers {0, 1}, with zip(c, d)(w) = (w xor d, w xor c).

    A lawful functor whose zips are not diagonal, so an answer changes when
    the two indices of a zip plan are swapped.  ``grounded`` adjoins an
    absorbing position nil with an empty fiber, which gives the functor
    preinitial algebras.
    """
    elements = (0, 1, "nil") if grounded else (0, 1)
    positions = monoid_from_op(
        elements, lambda a, b: "nil" if "nil" in (a, b) else a ^ b, 0)
    fibers = tuple((p, carrier(() if p == "nil" else (0, 1))) for p in elements)
    fiber = dict(fibers)
    zips = []
    for c in elements:
        for d in elements:
            pairs, _, _ = mk_product(fiber[c], fiber[d])
            zips.append(((c, d), Map.from_callable(
                fiber[positions.mul(c, d)], pairs, lambda w, c=c, d=d: (w ^ d, w ^ c))))
    return PolyFunctor("twisted+nil" if grounded else "twisted", positions, fibers, tuple(zips))


SMALL_FUNCTORS = [
    unit_functor(),
    identity_functor(),
    const_monoid_functor(z_mod(2)),
    maybe_functor(),
    list_functor(z_mod(2)),
    automaton_functor(carrier(["a"])),
    twisted_functor(),
]


def random_algebra(functor, size, rng: random.Random) -> Algebra:
    car = carrier(range(size))
    dom = apply_to_set(functor, car)
    images = tuple(rng.choice(car.elements) for _ in dom)
    return Algebra(functor, car, Map(dom, car, images))


def random_coalgebra(functor, size, rng: random.Random) -> Coalgebra:
    car = carrier(range(size))
    cod = apply_to_set(functor, car)
    images = tuple(rng.choice(cod.elements) for _ in car)
    return Coalgebra(functor, car, Map(car, cod, images))


@pytest.fixture
def rng():
    return random.Random(20260811)
