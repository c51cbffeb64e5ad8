import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polymeasure.core import (
    Map,
    STAR,
    UNIT,
    Tag,
    carrier,
    map_from_hom_label,
    mk_hom,
    mk_product,
)
from polymeasure.functor import (
    apply_to_map,
    apply_to_set,
    automaton_functor,
    bintree_functor,
    bounded_tree_functor,
    compose_functors,
    const_monoid_functor,
    eta,
    identity_functor,
    list_functor,
    maybe_functor,
    monoid_from_op,
    nabla,
    nabla_tilde,
    trivial_monoid,
    unit_functor,
    validate_functor,
    z_mod,
)

from conftest import twisted_functor

ALL_BUILTINS = [
    unit_functor(),
    identity_functor(),
    const_monoid_functor(z_mod(3)),
    maybe_functor(),
    list_functor(z_mod(2)),
    bintree_functor(z_mod(2)),
    bounded_tree_functor(trivial_monoid(), 2),
    automaton_functor(carrier(["a"])),
]
# the builtins plus one functor whose zips are not diagonal
LAWFUL = ALL_BUILTINS + [twisted_functor()]


# ---------------------------------------------------------------------------
# F(X), S x T and [S, T] are built in canonical order without a re-sort
# ---------------------------------------------------------------------------

# positions mixing ints and strs, and composite positions that nest tuples
ORDER_FUNCTORS = LAWFUL + [twisted_functor(grounded=True),
                           compose_functors(twisted_functor(grounded=True), maybe_functor())]
order_labels = st.recursive(
    st.integers(-9, 9) | st.sampled_from(["a", "b", "nil", "Zero"]),
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.builds(Tag, st.sampled_from(["inl", "inr"]), inner),
    max_leaves=4,
)
small_carriers = st.lists(order_labels, max_size=3, unique=True).map(carrier)


def assert_canonical(built, elements):
    """``built`` is the carrier that sorting ``elements`` gives."""
    expected = carrier(reversed(elements))
    assert built.elements == expected.elements
    assert built == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(functor=st.sampled_from(ORDER_FUNCTORS), x=small_carriers)
def test_apply_to_set_is_built_in_canonical_order(functor, x):
    built = apply_to_set(functor, x, guard=10**4)  # a guard skips the cache
    assert_canonical(built, [(pos, args) for pos in functor.positions.carrier
                             for args in itertools.product(x.elements, repeat=functor.arity(pos))])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s=small_carriers, t=small_carriers)
def test_product_and_hom_are_built_in_canonical_order(s, t):
    prod = mk_product(s, t)
    assert_canonical(prod.carrier, [(a, b) for a in s for b in t])
    assert prod.proj1.images == tuple(p[0] for p in prod.carrier)
    assert_canonical(mk_hom(s, t), list(itertools.product(t.elements, repeat=len(s))))


def test_equal_functors_share_the_apply_cache():
    f, g = bintree_functor(z_mod(2)), bintree_functor(z_mod(2))
    assert f is not g and f == g
    assert hash(f) == hash(g) == hash((f.name, f.positions, f.fibers, f.zips))
    x = carrier([0, 1])
    assert apply_to_set(f, x) is apply_to_set(g, x)


@pytest.mark.parametrize("functor", LAWFUL, ids=lambda f: f.name)
def test_builtin_instances_pass_all_laws(functor):
    for law in validate_functor(functor):
        assert law.ok, (functor.name, law)


def test_validator_reports_broken_associativity_with_witness():
    # x*y = x is not commutative or associative-with-unit on two elements
    bad = monoid_from_op([0, 1], lambda a, b: a if (a, b) != (1, 1) else 0, 0)
    functor = const_monoid_functor(bad, "broken")
    report = {law.law: law for law in validate_functor(functor)}
    assert not report["monoid unit"].ok or not report["monoid associativity"].ok
    failing = [law for law in report.values() if not law.ok]
    assert all(law.witness is not None for law in failing)


def test_apply_counts():
    maybe = maybe_functor()
    assert len(apply_to_set(maybe, carrier(()))) == 1
    assert len(apply_to_set(maybe, carrier(["a", "b"]))) == 3  # 1 + |X|
    bintree = bintree_functor(z_mod(2))
    assert len(apply_to_set(bintree, carrier(["p", "q"]))) == 9  # 1 + 2*2^2
    lst = list_functor(z_mod(2))
    assert len(apply_to_set(lst, carrier(["p", "q", "r"]))) == 7  # 1 + 2*3
    bounded = bounded_tree_functor(trivial_monoid(), 2)
    assert len(apply_to_set(bounded, carrier(["p"]))) == 4  # 1 + 1 + 1 + 1


@pytest.mark.parametrize("functor", ALL_BUILTINS, ids=lambda f: f.name)
def test_functor_laws_on_small_maps(functor):
    x = carrier([0, 1])
    y = carrier(["a", "b"])
    z = carrier([0, 1, 2])
    ident = apply_to_map(functor, Map.identity(x))
    assert ident.images == ident.dom.elements
    f = Map.from_dict(x, y, {0: "b", 1: "a"})
    g = Map.from_dict(y, z, {"a": 2, "b": 0})
    assert apply_to_map(functor, f.then(g)).images == (
        apply_to_map(functor, f).then(apply_to_map(functor, g)).images
    )


def test_maybe_zero_position_is_forced():
    maybe = maybe_functor()
    f = Map.from_dict(carrier([0]), carrier(["u"]), {0: "u"})
    lifted = apply_to_map(maybe, f)
    assert lifted(("Zero", ())) == ("Zero", ())


def test_maybe_nabla_cases():
    maybe = maybe_functor()
    x, y = carrier([0, 1]), carrier(["a"])
    nab = nabla(maybe, x, y)
    succ_pair = nab((("Succ", (1,)), ("Succ", ("a",))))
    assert succ_pair == ("Succ", ((1, "a"),))
    assert nab((("Zero", ()), ("Succ", ("a",)))) == ("Zero", ())
    assert nab((("Succ", (0,)), ("Zero", ()))) == ("Zero", ())


def test_list_nabla_multiplies_heads():
    lst = list_functor(z_mod(2))
    x, y = carrier(["p"]), carrier(["q"])
    nab = nabla(lst, x, y)
    assert nab(((1, ("p",)), (1, ("q",)))) == (0, (("p", "q"),))
    assert nab(((1, ("p",)), ("nil", ()))) == ("nil", ())


@pytest.mark.parametrize("functor", LAWFUL, ids=lambda f: f.name)
def test_nabla_symmetry(functor):
    x = carrier([0, 1])
    nab = nabla(functor, x, x)
    fx = apply_to_set(functor, x)
    xx, _, _ = mk_product(x, x)
    swap = Map.from_callable(xx, xx, lambda p: (p[1], p[0]))
    f_swap = apply_to_map(functor, swap)
    for a in fx:
        for b in fx:
            assert f_swap(nab((a, b))) == nab((b, a))


@pytest.mark.parametrize("functor", LAWFUL, ids=lambda f: f.name)
def test_nabla_associativity_and_unit(functor):
    x = carrier([0, 1])
    y = carrier(["a"])
    z = carrier([3])
    xy, _, _ = mk_product(x, y)
    yz, _, _ = mk_product(y, z)
    nab_xy = nabla(functor, x, y)
    nab_xy_z = nabla(functor, xy, z)
    nab_yz = nabla(functor, y, z)
    nab_x_yz = nabla(functor, x, yz)
    fx, fy, fz = (apply_to_set(functor, c) for c in (x, y, z))

    def reassoc(e):
        pos, args = e
        return (pos, tuple((a, (b, c)) for (a, b), c in args))

    for a in fx:
        for b in fy:
            for c in fz:
                left = nab_xy_z((nab_xy((a, b)), c))
                right = nab_x_yz((a, nab_yz((b, c))))
                assert reassoc(left) == right

    # unit coherence: nabla(eta(*), a) has the same shape as a (left unitor)
    e = eta(functor)(STAR)
    nab_ux = nabla(functor, UNIT, x)
    for a in fx:
        pos, args = nab_ux((e, a))
        assert pos == a[0]
        assert tuple(v for _, v in args) == a[1]


def test_eta_instances():
    assert eta(maybe_functor())(STAR) == ("Succ", (STAR,))
    mon = z_mod(3)
    assert eta(const_monoid_functor(mon))(STAR) == (0, ())
    bounded = bounded_tree_functor(trivial_monoid(), 2)
    assert eta(bounded)(STAR) == ((STAR, 2), (STAR, STAR))


def test_nabla_tilde_const_monoid_is_right_multiplication():
    mon = z_mod(3)
    functor = const_monoid_functor(mon)
    x = carrier([0, 1, 2])
    # identify F(hom) elements with monoid elements and check r_x behavior
    tilde = nabla_tilde(functor, x, x)
    fx = apply_to_set(functor, x)
    for m in range(3):
        out = tilde((m, ()))
        fn = map_from_hom_label(out, fx, fx)
        for m2 in range(3):
            assert fn((m2, ())) == ((m2 + m) % 3, ())


def test_nabla_tilde_maybe_zero_is_constant_zero():
    maybe = maybe_functor()
    x = carrier([0])
    tilde = nabla_tilde(maybe, x, x)
    fx = apply_to_set(maybe, x)
    out = map_from_hom_label(tilde(("Zero", ())), fx, fx)
    assert all(out(e) == ("Zero", ()) for e in fx)


@pytest.mark.parametrize(
    "functor",
    [maybe_functor(), const_monoid_functor(z_mod(2)), list_functor(z_mod(2)),
     automaton_functor(carrier(["a"]))],
    ids=lambda f: f.name,
)
def test_nabla_tilde_agrees_with_adjunct(functor):
    # ev . (tilde x id) == F(ev) . nabla on all inputs of a size-2 instance
    check_tilde_adjunct(functor, carrier([0, 1]), carrier(["a", "b"]))


def test_nabla_tilde_agrees_with_adjunct_twisted():
    # [F(X), F(Y)] has 8^8 elements at |X| = 2, above the size guard
    check_tilde_adjunct(twisted_functor(), carrier([0]), carrier(["a", "b"]))


def check_tilde_adjunct(functor, x, y):
    hom_xy = mk_hom(x, y)
    fx, fy = apply_to_set(functor, x), apply_to_set(functor, y)
    tilde = nabla_tilde(functor, x, y)
    nab = nabla(functor, hom_xy, x)
    for fe in apply_to_set(functor, hom_xy):
        lifted = map_from_hom_label(tilde(fe), fx, fy)
        for ex in fx:
            # left: apply the transposed map
            left = lifted(ex)
            # right: nabla then F(ev)
            pos, pairs = nab((fe, ex))
            right = (pos, tuple(map_from_hom_label(f, x, y)(v) for f, v in pairs))
            assert left == right


def test_composite_functor_satisfies_laws():
    comp = compose_functors(maybe_functor(), automaton_functor(carrier(["a"])))
    for law in validate_functor(comp):
        assert law.ok, law
    # composite of maybe after automaton: F(X) = 1 + 2 x X^{|Sigma|}
    x = carrier([0, 1])
    assert len(apply_to_set(comp, x)) == 1 + 2 * 2


def test_twisted_composites_satisfy_laws():
    twisted = twisted_functor()
    for comp in (compose_functors(twisted, maybe_functor()),
                 compose_functors(maybe_functor(), twisted)):
        for law in validate_functor(comp):
            assert law.ok, (comp.name, law)
