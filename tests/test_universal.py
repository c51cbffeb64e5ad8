import itertools

import pytest

from polymeasure.core import Map, STAR, carrier
from polymeasure.functor import (
    apply_to_set,
    const_monoid_functor,
    identity_functor,
    list_functor,
    maybe_functor,
    unit_functor,
    z_mod,
)
from polymeasure.fixpoints import (
    INF,
    alg_apply,
    algebra,
    coalgebra,
    enumerate_algebra_homs,
    enumerate_algebras,
    initial_lazy,
    is_preinitial,
    list_alg,
    maybe_index,
    nat_automaton,
    nat_lazy,
    std_alg,
    std_coalg,
    unique_hom_from_preinitial,
)
from polymeasure.measuring import (
    Measuring,
    enumerate_measurings,
    forced_measuring,
    identity_measuring,
    measuring_from_fn,
    measuring_set,
    unit_coalgebra,
)
from polymeasure.universal import (
    SubterminalDescriptor,
    c_initial_check,
    c_initial_via_dual,
    convolution_algebra,
    convolution_unit_iso,
    dual_coalgebra,
    dual_pairing_check,
    map_to_dual_check,
    maybe_subterminal_family,
    measuring_tensor,
    tensor_normal_term,
    tensor_universal_map,
    terminal_c_initial_search,
    tower,
    universal_measuring,
    verify_universal,
)

from conftest import random_algebra, random_coalgebra, twisted_functor


def nth_point(alg, n):
    e = alg_apply(alg, "Zero", ())
    for _ in range(n):
        e = alg_apply(alg, "Succ", (e,))
    return e


class TestConvolution:
    def test_maybe_formula(self):
        # the n-th point of [C,B] evaluates states to min(index, n) in B
        c, b = nat_automaton(4), std_alg(3)
        conv = convolution_algebra(c, b)
        for n in range(6):
            fn = nth_point(conv, n)
            for i, state in enumerate(c.carrier):
                idx = maybe_index(c, state)
                expected = nth_point(b, n if idx == INF else int(min(idx, n)))
                assert fn[i] == expected

    def test_const_monoid_formula(self):
        # the structure sends x to c -> beta(chi(c) * x)
        mon = z_mod(3)
        functor = const_monoid_functor(mon)
        c = coalgebra(functor, ["c0", "c1"], lambda s: (1 if s == "c0" else 2, ()))
        b = algebra(functor, ["b0", "b1", "b2"], lambda pos, args: f"b{pos}")
        conv = convolution_algebra(c, b)
        for x in range(3):
            fn = alg_apply(conv, x, ())
            assert fn == tuple(f"b{(chi + x) % 3}" for chi in (1, 2))

    def test_empty_coalgebra_gives_the_terminal_algebra(self):
        c = coalgebra(maybe_functor(), (), {})
        conv = convolution_algebra(c, std_alg(2))
        assert len(conv.carrier) == 1

    def test_unit_iso(self):
        for b in (std_alg(0), std_alg(3)):
            iso = convolution_unit_iso(b)
            assert len(set(iso.images)) == len(b.carrier)


class TestMeasuringTensor:
    def test_const_monoid_closed_form(self, rng):
        # classes match the pushout ((C x A) + X) / (c, alpha(x)) ~ chi(c)*x
        mon = z_mod(3)
        functor = const_monoid_functor(mon)
        for _ in range(10):
            c_coalg = random_coalgebra(functor, rng.randrange(0, 3), rng)
            a_alg = random_algebra(functor, rng.randrange(1, 3), rng)
            pres = measuring_tensor(c_coalg, a_alg)
            assert pres.status == "finite"
            # oracle: union-find over (C x A) + X with the generating relation
            items = [("ca", c, a) for c in c_coalg.carrier for a in a_alg.carrier]
            items += [("x", x) for x in mon.carrier]
            parent = {i: i for i in items}

            def find(i):
                while parent[i] != i:
                    i = parent[i]
                return i

            def union(i, j):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

            for c in c_coalg.carrier:
                chi = c_coalg.structure(c)[0]
                for x in mon.carrier:
                    union(("ca", c, alg_apply(a_alg, x, ())), ("x", mon.mul(chi, x)))
            oracle = len({find(i) for i in items})
            assert len(pres.class_terms) == oracle

    def test_unit_functor_identifies_basepoint_rows(self):
        functor = unit_functor()
        a = algebra(functor, ["p", "q", "r"], lambda pos, args: "p")
        c = coalgebra(functor, ["c0", "c1"], lambda s: (STAR, ()))
        pres = measuring_tensor(c, a)
        assert pres.status == "finite"
        # (c, p) all identified with the point; (c, q), (c, r) stay apart
        assert len(pres.class_terms) == 1 + 2 * 2

    def test_empty_coalgebra_gives_the_initial_presentation(self):
        functor = const_monoid_functor(z_mod(2))
        a = random_algebra(functor, 2, __import__("random").Random(1))
        pres = measuring_tensor(coalgebra(functor, (), {}), a)
        assert pres.status == "finite"
        assert len(pres.class_terms) == 2  # the initial algebra X

    def test_unit_tensor_recovers_the_algebra(self):
        a = std_alg(2)
        pres = measuring_tensor(unit_coalgebra(maybe_functor()), a)
        assert pres.status == "finite"
        assert len(pres.class_terms) == len(a.carrier)

    def test_unit_tensor_over_the_twisted_functor(self, rng):
        # zip(0, 1) is not diagonal, so the rewrite clause's index order shows
        functor = twisted_functor()
        for _ in range(6):
            a = random_algebra(functor, rng.randrange(1, 3), rng)
            pres = measuring_tensor(unit_coalgebra(functor), a)
            assert pres.status == "finite"
            assert len(pres.class_terms) == len(a.carrier)
            _, conflicts = tensor_universal_map(identity_measuring(a), pres)
            assert not conflicts

    def test_adjunction_count(self, rng):
        functor = const_monoid_functor(z_mod(2))
        for _ in range(10):
            c_coalg = random_coalgebra(functor, rng.randrange(0, 3), rng)
            a_alg = random_algebra(functor, rng.randrange(1, 3), rng)
            b_alg = random_algebra(functor, rng.randrange(1, 3), rng)
            pres = measuring_tensor(c_coalg, a_alg)
            assert pres.status == "finite"
            lhs = len(enumerate_algebra_homs(pres.algebra, b_alg))
            rhs = len(enumerate_measurings(c_coalg, a_alg, b_alg, "brute"))
            assert lhs == rhs

    def test_universal_map_values_and_conflicts(self):
        mon = z_mod(2)
        functor = const_monoid_functor(mon)
        c_coalg = coalgebra(functor, ["c"], lambda s: (1, ()))
        a_alg = algebra(functor, ["a0", "a1"], lambda pos, args: f"a{pos}")
        b_alg = algebra(functor, ["b0", "b1"], lambda pos, args: f"b{pos}")
        phi = enumerate_measurings(c_coalg, a_alg, b_alg, "brute")[0]
        pres = measuring_tensor(c_coalg, a_alg)
        values, conflicts = tensor_universal_map(phi, pres)
        assert not conflicts
        assert len(values) == len(pres.class_terms)
        # pure monoid classes evaluate through beta
        for x in (0, 1):
            cls = pres.node_class[(x, ())]
            assert values[cls] == f"b{x}"
        # an invalid table produces a conflict witness
        bad = measuring_from_fn(c_coalg, a_alg, b_alg, lambda c, a: "b1")
        _, conflicts = tensor_universal_map(bad, pres)
        assert conflicts

    def test_normal_form_evaluation_agrees(self):
        c, a = std_coalg(2), std_alg(2)
        phi = measuring_set(c, a, std_alg(4))[0]
        from polymeasure.fixpoints import cata

        for state in c.carrier:
            for x in a.carrier:
                term = tensor_normal_term(c, a, state, x)
                assert cata(term, std_alg(4)) == phi.value(state, x)

    def test_maybe_tensor_truncates_but_grows(self):
        pres = measuring_tensor(std_coalg(1), std_alg(1), budget=3)
        assert pres.status == "truncated"
        assert pres.levels_run == 3


class TestUniversalMeasuring:
    def test_classification(self):
        for n in range(4):
            for m in range(4):
                desc, ev = universal_measuring(std_alg(n), std_alg(m))
                if m <= n:
                    assert desc.kind == "terminal", (n, m)
                else:
                    assert (desc.kind, desc.level) == ("bounded", n), (n, m)

    def test_passes_verification(self):
        desc, ev = universal_measuring(std_alg(2), std_alg(3))
        ok, cex = verify_universal(desc, ev, std_alg(2), std_alg(3), k=2)
        assert ok, cex

    def test_proper_subcoalgebra_fails_verification(self):
        # when a total hom exists the universal is terminal; claiming the
        # bounded member leaves the infinite-index measurings unfactored
        a, b = std_alg(2), std_alg(1)
        family = maybe_subterminal_family(4)
        bounded = next(d for d in family if d.kind == "bounded" and d.level == 2)
        ev = measuring_set(bounded.realization, a, b)[0]
        ok, cex = verify_universal(bounded, ev, a, b, k=2)
        assert not ok

    def test_no_measurings_from_nonempty_coalgebras(self):
        # identity functor, B a 4-cycle: no coalgebra of size <= 3 measures,
        # so the empty coalgebra is the universal measuring
        functor = identity_functor()
        a = algebra(functor, ["a"], lambda pos, args: "a")
        b = algebra(functor, range(4), lambda pos, args: (args[0] + 1) % 4)
        empty = SubterminalDescriptor("empty", None, coalgebra(functor, (), {}))
        ev = measuring_set(empty.realization, a, b)[0]
        ok, cex = verify_universal(empty, ev, a, b, k=3)
        assert ok, cex

    def test_requires_preinitial(self):
        bad = algebra(
            maybe_functor(), [0, "w"],
            lambda pos, args: 0 if pos == "Zero" else args[0],
        )
        with pytest.raises(ValueError):
            universal_measuring(bad, std_alg(1))


class TestDual:
    def test_dual_of_std_alg(self):
        for n in range(4):
            desc, ev = dual_coalgebra(std_alg(n))
            assert (desc.kind, desc.level) == ("bounded", n)

    def test_large_truncations_of_the_initial_algebra_dualize_to_terminal(self):
        # Alg(N, X) is the terminal coalgebra; via truncations: for m <= n the
        # dual computation against std_alg(m) reports the terminal symbol
        for n in (3, 4):
            desc, _ = universal_measuring(std_alg(n), std_alg(2))
            assert desc.kind == "terminal"

    def test_pairing_cardinalities(self, rng):
        for n in range(3):
            a = std_alg(n)
            for _ in range(6):
                c = random_coalgebra(maybe_functor(), rng.randrange(0, 4), rng)
                ok, left, right = dual_pairing_check(c, a)
                assert ok, (n, left, right)


class TestTower:
    def test_stages_and_stabilization(self):
        # A = std_alg(3), B = std_alg(1): stages singletons, stationary at 2
        result = tower(std_alg(3), std_alg(1), 4)
        assert [len(s.measurings) for s in result.stages] == [1] * 5
        assert result.stabilized_at == 2
        assert len(result.limit) == 1

    def test_limit_matches_total_hom(self):
        a, b = std_alg(3), std_alg(2)
        result = tower(a, b, 4)
        assert len(result.limit) == 1
        top = result.stages[4].measurings[result.limit[0][4]]
        hom = unique_hom_from_preinitial(a, b)
        top_state = max(
            result.stages[4].dual.realization.carrier,
            key=lambda s: maybe_index(result.stages[4].dual.realization, s),
        )
        assert all(top.value(top_state, x) == hom(x) for x in a.carrier)

    def test_tower_dies_when_no_total_hom(self):
        result = tower(std_alg(1), std_alg(3), 4)
        assert [len(s.measurings) for s in result.stages] == [1, 1, 0, 0, 0]
        assert result.limit == []
        assert result.stabilized_at is None

    def test_restrictions_compose_and_respect_stages(self):
        result = tower(std_alg(2), std_alg(2), 3)
        for k, restriction in enumerate(result.restrictions):
            assert set(restriction) == set(range(len(result.stages[k + 1].measurings)))
            assert set(restriction.values()) <= set(range(len(result.stages[k].measurings)))


class TestCInitial:
    def test_std_alg_is_std_coalg_initial(self):
        family = enumerate_algebras(maybe_functor(), 3)
        for n in (1, 2):
            report = c_initial_check(std_alg(n), std_coalg(n), family)
            assert report.ok, report.violation

    def test_every_algebra_is_empty_initial(self, rng):
        empty = coalgebra(maybe_functor(), (), {})
        for _ in range(5):
            a = random_algebra(maybe_functor(), rng.randrange(1, 4), rng)
            report = c_initial_check(a, empty, enumerate_algebras(maybe_functor(), 2))
            assert report.ok

    def test_const_monoid_c_initial_iff_tensor_is_initial(self, rng):
        # the pushout characterization: A is C-initial exactly when C|>A has
        # the initial algebra's classes with its structure
        from polymeasure.functor import monoid_from_op
        from polymeasure.measuring import unit_coalgebra
        from polymeasure.universal import measuring_tensor

        functor = const_monoid_functor(z_mod(2))
        family = enumerate_algebras(functor, 3)
        for _ in range(8):
            a = random_algebra(functor, rng.randrange(1, 3), rng)
            c = random_coalgebra(functor, rng.randrange(0, 3), rng)
            pres = measuring_tensor(c, a)
            assert pres.status == "finite"
            tensor_is_initial = len(pres.class_terms) == 2 and all(
                pres.node_class[(0, ())] != pres.node_class[(1, ())] for _ in (0,)
            )
            assert c_initial_check(a, c, family).ok == tensor_is_initial

    def test_preinitial_implies_c_initial_over_zero_valued_states(self):
        # with an absorbing zero in the monoid and zero-valued coalgebra
        # states, the tensor never collapses the initial algebra, so every
        # preinitial algebra is C-initial
        from polymeasure.functor import monoid_from_op

        and_monoid = monoid_from_op([0, 1], lambda a, b: a & b, 1)
        functor = const_monoid_functor(and_monoid)
        family = enumerate_algebras(functor, 3)
        preinitials = [a for a in enumerate_algebras(functor, 2) if is_preinitial(a)]
        assert preinitials
        zero_valued = [
            coalgebra(functor, range(size), lambda s: (0, ())) for size in range(4)
        ]
        for a in preinitials:
            for c in zero_valued:
                assert c_initial_check(a, c, family).ok

    def test_bijective_preinitial_is_c_initial_for_every_coalgebra(self, rng):
        functor = const_monoid_functor(z_mod(2))
        family = enumerate_algebras(functor, 3)
        x_itself = algebra(functor, [0, 1], lambda pos, args: pos)
        for _ in range(5):
            c = random_coalgebra(functor, rng.randrange(0, 4), rng)
            assert c_initial_check(x_itself, c, family).ok

    def test_via_dual_shortcut_agrees(self, rng):
        family = enumerate_algebras(maybe_functor(), 2)
        for n in (1, 2):
            for size in (0, 1, 2, 3):
                c = random_coalgebra(maybe_functor(), size, rng)
                direct = c_initial_check(std_alg(n), c, family).ok
                exact = c_initial_via_dual(std_alg(n), c)
                assert direct == exact


class TestTerminalCInitial:
    def test_std_alg_is_the_terminal_one(self):
        candidates = [std_alg(1), std_alg(2), std_alg(3)]
        # a non-preinitial distractor
        distractor = algebra(
            maybe_functor(), [0, "w"],
            lambda pos, args: 0 if pos == "Zero" else args[0],
        )
        candidates.append(distractor)
        family = enumerate_algebras(maybe_functor(), 2)
        result = terminal_c_initial_search(std_coalg(1), candidates, family)
        assert result.status == "found"
        assert result.winners[0].name == "std_alg(1)"

    def test_unit_coalgebra_selects_the_initial_algebra(self):
        # the terminal unit-coalgebra-initial algebra is the initial algebra
        functor = const_monoid_functor(z_mod(2))
        one = algebra(functor, [STAR], lambda pos, args: STAR, name="one")
        x_itself = algebra(functor, [0, 1], lambda pos, args: pos, name="x")
        family = enumerate_algebras(functor, 2)
        result = terminal_c_initial_search(unit_coalgebra(functor), [one, x_itself], family)
        assert result.status == "found"
        assert result.winners[0].name == "x"

    def test_zero_valued_states_make_the_terminal_algebra_terminal(self):
        # over a monoid with absorbing zero and zero-valued coalgebra states,
        # the one-point algebra is C-initial and receives every candidate
        from polymeasure.functor import monoid_from_op

        and_monoid = monoid_from_op([0, 1], lambda a, b: a & b, 1)
        functor = const_monoid_functor(and_monoid)
        one = algebra(functor, [STAR], lambda pos, args: STAR, name="one")
        x_itself = algebra(functor, [0, 1], lambda pos, args: pos, name="x")
        c = coalgebra(functor, ["c0", "c1"], lambda s: (0, ()))
        family = enumerate_algebras(functor, 2)
        result = terminal_c_initial_search(c, [one, x_itself], family)
        assert result.status == "found"
        assert result.winners[0].name == "one"

    def test_no_candidates_reported(self):
        family = enumerate_algebras(maybe_functor(), 2)
        distractor = algebra(
            maybe_functor(), [0, "w"],
            lambda pos, args: 0 if pos == "Zero" else args[0],
        )
        result = terminal_c_initial_search(std_coalg(1), [distractor], family)
        assert result.status == "none"


class TestMapToDual:
    def test_unique_map_lands_in_min_rows(self):
        report = map_to_dual_check(std_alg(2), std_coalg(2))
        assert report.ok
        from polymeasure.fixpoints import nat_value

        for x in std_alg(2).carrier:
            row = tuple(nat_value(v) for v in report.curried[x])
            assert row == tuple(min(c, x) for c in range(3))

    def test_non_c_initial_yields_two_measurings(self):
        # 'w' is not a structure image, so its value is genuinely free
        a = algebra(
            maybe_functor(), [0, "w"],
            lambda pos, args: 0,
        )
        report = map_to_dual_check(a, std_coalg(0))
        assert not report.ok
        assert len(report.witnesses) == 2
        assert report.witnesses[0].entries != report.witnesses[1].entries

    def test_forced_self_referential_decomposition_still_resolves(self):
        # every element is a structure image here (succ acts as identity), so
        # the table is forced to the constant zero and is unique
        a = algebra(
            maybe_functor(), [0, "w"],
            lambda pos, args: 0 if pos == "Zero" else args[0],
        )
        report = map_to_dual_check(a, std_coalg(0))
        assert report.ok
        zero = report.measuring.value(0, 0)
        assert all(v == zero for _, v in report.measuring.entries)

    def test_empty_coalgebra_is_trivially_unique(self):
        empty = coalgebra(maybe_functor(), (), {})
        report = map_to_dual_check(std_alg(2), empty)
        assert report.ok and report.measuring.entries == ()
