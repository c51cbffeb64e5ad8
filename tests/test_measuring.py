import itertools

import pytest

from polymeasure.core import STAR, carrier
from polymeasure.functor import (
    PolyFunctor,
    _mk_functor,
    bintree_functor,
    bounded_tree_functor,
    list_functor,
    has_maybe_shape,
    maybe_functor,
    monoid_from_op,
    trivial_monoid,
    z_mod,
)
from polymeasure.fixpoints import (
    algebra,
    coalgebra,
    enumerate_algebra_homs,
    is_algebra_hom,
    is_preinitial,
    list_alg,
    list_coalg,
    maybe_index,
    nat_lazy,
    std_alg,
    std_coalg,
)
from polymeasure.measuring import (
    ForcedFailure,
    Measuring,
    compose_measurings,
    coalgebra_measuring_check,
    curry_conv_hom,
    curry_partial_hom,
    enumerate_measurings,
    find_coalgebra_homs,
    forced_measuring,
    identity_measuring,
    is_measuring,
    measuring_from_conv_hom,
    measuring_from_fn,
    measuring_from_partial_hom,
    measuring_set,
    measuring_violations,
    tensor_coalgebras,
    unit_coalgebra,
)

from conftest import SMALL_FUNCTORS, random_algebra, random_coalgebra



class TestValidity:
    def test_min_table_is_the_unique_measuring(self):
        c, a = std_coalg(2), std_alg(2)
        ms = enumerate_measurings(c, a, std_alg(3), "brute")
        assert len(ms) == 1
        assert ms[0].as_dict() == {
            (i, j): min(i, j) for i in range(3) for j in range(3)
        }
        # same statement with a larger codomain, via propagation
        ms = enumerate_measurings(c, a, std_alg(4), "propagate")
        assert len(ms) == 1
        assert ms[0].as_dict() == {
            (i, j): min(i, j) for i in range(3) for j in range(3)
        }

    def test_min_into_lazy_nat(self):
        result = forced_measuring(std_coalg(3), std_alg(3), nat_lazy())
        assert isinstance(result, Measuring)
        assert all(result.value(i, j) == min(i, j) for i in range(4) for j in range(4))

    def test_violations_carry_witnesses(self):
        c, a, b = std_coalg(1), std_alg(1), std_alg(1)
        bad = measuring_from_fn(c, a, b, lambda i, j: 1)
        witnesses = measuring_violations(bad)
        assert witnesses and all(len(w) == 2 for w in witnesses)

    def test_empty_coalgebra_measures_vacuously(self):
        empty = coalgebra(maybe_functor(), (), {})
        ms = enumerate_measurings(empty, std_alg(1), std_alg(2), "brute")
        assert len(ms) == 1 and ms[0].entries == ()

    def test_list_measuring_from_the_worked_example(self):
        lf = list_functor(z_mod(2))
        a, c = list_alg(lf, 2), list_coalg(lf, 2)

        def phi(xs_, xs):
            if not xs_ or not xs:
                return ()
            return ((xs_[0] + xs[0]) % 2,) + phi(xs_[1:], xs[1:])

        m = measuring_from_fn(c, a, list_alg(lf, 4), lambda u, v: phi(u, v))
        assert is_measuring(m)


class TestStrategiesAgree:
    @pytest.mark.parametrize("functor", SMALL_FUNCTORS, ids=lambda f: f.name)
    def test_three_strategies_identical(self, functor, rng):
        for _ in range(6):
            c = random_coalgebra(functor, rng.randrange(0, 3), rng)
            a = random_algebra(functor, rng.randrange(1, 3), rng)
            b = random_algebra(functor, rng.randrange(1, 3), rng)
            brute = enumerate_measurings(c, a, b, "brute")
            conv = enumerate_measurings(c, a, b, "convolution")
            prop = enumerate_measurings(c, a, b, "propagate")
            tables = [m.entries for m in brute]
            assert [m.entries for m in conv] == tables
            assert [m.entries for m in prop] == tables

    @pytest.mark.parametrize("functor", SMALL_FUNCTORS, ids=lambda f: f.name)
    def test_unit_coalgebra_measurings_are_the_algebra_homs(self, functor, rng):
        # mu(I, A, B) = Alg(A, B); the homs are found without any nabla
        unit = unit_coalgebra(functor)
        for _ in range(6):
            a = random_algebra(functor, rng.randrange(1, 3), rng)
            for b in (random_algebra(functor, rng.randrange(1, 3), rng), a):
                homs = [tuple(((STAR, x), h(x)) for x in a.carrier)
                        for h in enumerate_algebra_homs(a, b)]
                for strategy in ("brute", "convolution", "propagate"):
                    ms = enumerate_measurings(unit, a, b, strategy)
                    assert sorted(m.entries for m in ms) == sorted(homs), strategy

    def test_propagate_handles_mixed_label_carriers(self):
        b = algebra(
            maybe_functor(), [0, "w"],
            lambda pos, args: 0 if pos == "Zero" else "w",
        )
        a = std_alg(1)
        prop = enumerate_measurings(std_coalg(1), a, b, "propagate")
        brute = enumerate_measurings(std_coalg(1), a, b, "brute")
        assert [m.entries for m in prop] == [m.entries for m in brute]

    def test_maybe_stage_path_agrees_with_propagate(self, rng):
        # 1 + X with a preinitial A, checked against the oracle
        functor = maybe_functor()
        for _ in range(12):
            c = random_coalgebra(functor, rng.randrange(0, 4), rng)
            a = std_alg(rng.randrange(0, 3))
            b = random_algebra(functor, rng.randrange(1, 4), rng)
            brute = enumerate_measurings(c, a, b, "brute")
            assert [m.entries for m in measuring_set(c, a, b)] == [m.entries for m in brute]

    def test_maybe_stage_path_on_a_cyclic_algebra(self):
        # Succ flips Z/2: the stage rows from f_0 fail at stage 1, yet the
        # identity is a total homomorphism, so an infinite-index state measures
        functor = maybe_functor()
        a = algebra(functor, range(2), lambda pos, args: 0 if pos == "Zero" else 1 - args[0])
        loop = coalgebra(functor, ["s"], lambda s: ("Succ", ("s",)))
        expected = [m.entries for m in enumerate_measurings(loop, a, a, "brute")]
        assert len(expected) == 1
        assert [m.entries for m in measuring_set(loop, a, a)] == expected

    def test_fast_path_is_chosen_by_structure_not_name(self):
        # named "maybe" but with other position labels: not the 1 + X shape
        mon = monoid_from_op(("Z", "S"), lambda x, y: "S" if x == y == "S" else "Z", "S")
        impostor = _mk_functor("maybe", mon, lambda p: carrier((0,) if p == "S" else ()),
                               lambda x, y, w: (w, w))
        a = algebra(impostor, range(2), lambda pos, args: 0 if pos == "Z" else 1)
        c = coalgebra(impostor, range(2), lambda i: ("Z", ()) if i == 0 else ("S", (0,)))
        assert not has_maybe_shape(impostor)
        expected = [m.entries for m in enumerate_measurings(c, a, a, "propagate")]
        assert len(expected) == 1
        assert [m.entries for m in measuring_set(c, a, a)] == expected
        # the 1 + X shape under another name is recognised as such
        renamed = PolyFunctor("nat", *(getattr(maybe_functor(), f)
                                       for f in ("positions", "fibers", "zips")))
        assert has_maybe_shape(renamed)

    def test_forced_agrees_on_acyclic_instances(self, rng):
        lf = list_functor(z_mod(2))
        a = list_alg(lf, 1)
        for n in range(3):
            c = list_coalg(lf, n)
            for _ in range(4):
                b = random_algebra(lf, rng.randrange(1, 3), rng)
                forced = forced_measuring(c, a, b)
                reference = enumerate_measurings(c, a, b, "propagate")
                if isinstance(forced, ForcedFailure):
                    assert reference == []
                else:
                    assert [m.entries for m in reference] == [forced.entries]


class TestCurrying:
    def test_round_trips(self, rng):
        c, a, b = std_coalg(2), std_alg(2), std_alg(1)
        m = enumerate_measurings(c, a, b, "brute")[0]
        partial = curry_partial_hom(m)
        conv = curry_conv_hom(m)
        assert measuring_from_partial_hom(partial, c, a, b).entries == m.entries
        assert measuring_from_conv_hom(conv, c, a, b).entries == m.entries

    def test_measuring_iff_conv_hom(self, rng):
        from polymeasure.universal import convolution_algebra

        functor = maybe_functor()
        c = random_coalgebra(functor, 2, rng)
        a = random_algebra(functor, 2, rng)
        b = random_algebra(functor, 2, rng)
        conv = convolution_algebra(c, b)
        for entries in itertools.product(b.carrier.elements, repeat=4):
            cells = [(cc, aa) for cc in c.carrier for aa in a.carrier]
            m = Measuring(c, a, b, tuple(zip(cells, entries)))
            hom = curry_conv_hom(m)
            assert is_measuring(m) == is_algebra_hom(hom, a, conv)

    def test_identity_measuring_curries_to_canonical_iso(self):
        a = std_alg(2)
        m = identity_measuring(a)
        conv_hom = curry_conv_hom(m)
        assert conv_hom.images == tuple((x,) for x in a.carrier)


class TestTensorCoalgebras:
    def test_unit_is_a_two_sided_unit(self):
        d = std_coalg(2)
        unit = unit_coalgebra(maybe_functor())
        t = tensor_coalgebras(d, unit)
        # (s, *) behaves exactly like s
        for s in d.carrier:
            assert maybe_index(t, (s, STAR)) == maybe_index(d, s)
        homs = find_coalgebra_homs(t, d, limit=2)
        assert len(homs) == 1 and all(homs[0]((s, STAR)) == s for s in d.carrier)

    def test_index_of_tensor_is_min(self):
        d, c = std_coalg(3), std_coalg(2)
        t = tensor_coalgebras(d, c)
        for i in d.carrier:
            for j in c.carrier:
                assert maybe_index(t, (i, j)) == min(i, j)

    def test_swap_is_an_isomorphism(self):
        d, c = std_coalg(1), std_coalg(2)
        t1, t2 = tensor_coalgebras(d, c), tensor_coalgebras(c, d)
        from polymeasure.core import Map
        from polymeasure.fixpoints import is_coalgebra_hom

        swap = Map.from_callable(t1.carrier, t2.carrier, lambda p: (p[1], p[0]))
        assert is_coalgebra_hom(swap, t1, t2)


class TestComposition:
    def test_composing_min_measurings_gives_triple_min(self):
        a = std_alg(3)
        phi = measuring_set(std_coalg(3), a, a)[0]
        psi = measuring_set(std_coalg(2), a, a)[0]
        composed = compose_measurings(psi, phi)
        for d in range(3):
            for c in range(4):
                for x in range(4):
                    assert composed.value((d, c), x) == min(d, c, x)

    def test_identity_is_a_unit_up_to_the_tensor_iso(self):
        a, b = std_alg(2), std_alg(2)
        psi = measuring_set(std_coalg(2), a, b)[0]
        ident = identity_measuring(a)
        composed = compose_measurings(psi, ident)
        assert all(
            composed.value((d, STAR), x) == psi.value(d, x)
            for d in psi.C.carrier
            for x in a.carrier
        )

    def test_associativity_up_to_the_canonical_iso(self, rng):
        a = std_alg(2)
        xi = measuring_set(std_coalg(1), a, a)[0]
        phi = measuring_set(std_coalg(2), a, a)[0]
        psi = measuring_set(std_coalg(3), a, a)[0]
        left = compose_measurings(compose_measurings(psi, phi), xi)
        right = compose_measurings(psi, compose_measurings(phi, xi))
        for e in psi.C.carrier:
            for d in phi.C.carrier:
                for c in xi.C.carrier:
                    for x in a.carrier:
                        assert left.value(((e, d), c), x) == right.value((e, (d, c)), x)

    def test_validity_is_closed_under_hom_composition(self):
        # precompose with a coalgebra hom and an algebra hom, postcompose with
        # an algebra hom: still a measuring
        a, b = std_alg(2), std_alg(1)
        phi = measuring_set(std_coalg(2), a, b)[0]
        c_small = std_coalg(1)
        inc = find_coalgebra_homs(c_small, std_coalg(2), limit=1)[0]
        pre_a = enumerate_algebra_homs(std_alg(3), a)[0]
        post_b = enumerate_algebra_homs(b, std_alg(1))[0]
        composite = measuring_from_fn(
            c_small, std_alg(3), std_alg(1),
            lambda c, x: post_b(phi.value(inc(c), pre_a(x))),
        )
        assert is_measuring(composite)


class TestCoalgebraMeasuring:
    def test_min_is_a_coalgebra_measuring(self):
        c, c1 = std_coalg(2), std_coalg(3)
        c2 = std_coalg(2)
        ok, witness = coalgebra_measuring_check(
            lambda i, j: min(i, j), c, c1, c2
        )
        assert ok, witness

    def test_unit_case_reduces_to_coalgebra_hom(self):
        unit = unit_coalgebra(maybe_functor())
        c1, c2 = std_coalg(2), std_coalg(3)
        inc = find_coalgebra_homs(c1, c2, limit=1)[0]
        ok, _ = coalgebra_measuring_check(lambda u, j: inc(j), unit, c1, c2)
        assert ok
        bad_ok, witness = coalgebra_measuring_check(
            lambda u, j: (j + 1) % 3, unit, c1, c2
        )
        assert not bad_ok and witness is not None


class TestForced:
    def test_requires_preinitial(self):
        a = algebra(
            maybe_functor(), [0, "w"],
            lambda pos, args: 0 if pos == "Zero" else args[0],
        )
        with pytest.raises(ValueError):
            forced_measuring(std_coalg(1), a, nat_lazy())

    def test_failure_reports_blocking_cell(self):
        result = forced_measuring(std_coalg(3), std_alg(2), nat_lazy())
        assert isinstance(result, ForcedFailure)

    def test_cyclic_into_lazy_detects_no_solution(self):
        loop = coalgebra(maybe_functor(), ["s"], lambda s: ("Succ", ("s",)))
        result = forced_measuring(loop, std_alg(1), nat_lazy())
        assert isinstance(result, ForcedFailure)
