"""Mixed measurings: algebras of a composite functor measured by coalgebras
of the inner one.

For a lax symmetric monoidal F and any outer functor G, the composite G.F
carries an F-module structure

    module(fx, gy) : F(X) x (G.F)(Y) -> (G.F)(X x Y)

derived from the strength of G followed by G applied to the inner nabla.
On elements, ``module`` is the inner functor's one element-level nabla
(``functor._nabla_element`` on ``zip_plan``), applied once per outer fiber
element to fx and that element's slice of the composite arguments.

With it, algebras of G.F are measured by F-coalgebras: a table
phi : C x A -> B is a mixed measuring when

    phi(c, alpha(ge)) = beta( (G.F)(phi)( module(chi(c), ge) ) )

for every state c and every element ge of (G.F)(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from .core import Carrier, Label, Map, STAR, mk_hom, solve_tables
from .functor import (
    PolyFunctor,
    _nabla_element,
    apply_to_set,
    compose_functors,
    eta,
    fel_args,
    fel_pos,
    felement,
)
from .fixpoints import Algebra, Coalgebra, _structure_cells, alg_apply

__all__ = [
    "MixedSetup",
    "mixed_setup",
    "MixedMeasuring",
    "mixed_measuring_check",
    "validate_module_map",
    "mixed_convolution_algebra",
    "enumerate_mixed_measurings",
]


@dataclass(frozen=True)
class MixedSetup:
    """An inner lax symmetric monoidal functor, an outer functor, and their
    composite, with the derived module map."""

    inner: PolyFunctor
    outer: PolyFunctor
    composite: PolyFunctor

    def module(self, fx: Label, gy: Label) -> Label:
        """The derived module map on elements: strength then the inner nabla.

        ``fx`` is an element of inner(X); ``gy`` an element of composite(Y)
        with position (c, (b_u)) and arguments indexed by pairs (u, v).  The
        result is the composite(X x Y) element at position (c, (b * b_u))
        whose argument at (u, w) pairs fx's value with gy's.
        """
        (c, bs), ys = fel_pos(gy), fel_args(gy)
        # the composite fiber lists the inner fibers of the b_u one after another
        new_bs, out_args, start = [], [], 0
        for bu in bs:
            end = start + self.inner.arity(bu)
            pos, args = _nabla_element(self.inner, fx, felement(bu, ys[start:end]))
            new_bs.append(pos)
            out_args.extend(args)
            start = end
        return felement((c, tuple(new_bs)), tuple(out_args))


def mixed_setup(inner: PolyFunctor, outer: PolyFunctor) -> MixedSetup:
    return MixedSetup(inner, outer, compose_functors(outer, inner))


def validate_module_map(setup: MixedSetup, x: Carrier, y: Carrier, z: Carrier):
    """The unit and associativity squares of the module structure, checked
    elementwise.  Returns (ok, witness)."""
    inner, comp = setup.inner, setup.composite
    # Unit: module(eta(*), gy) must be gy with arguments paired with *.
    unit_elem = eta(inner)(STAR)
    for gy in apply_to_set(comp, y):
        result = setup.module(unit_elem, gy)
        pos, args = fel_pos(result), fel_args(result)
        expected_args = tuple((STAR, v) for v in fel_args(gy))
        if fel_pos(gy) != pos or args != expected_args:
            return False, ("unit", gy, result)
    # Associativity: module(nabla(fx, fy), gz) == assoc(module(fx, module(fy, gz))).
    fx_all = apply_to_set(inner, x)
    fy_all = apply_to_set(inner, y)
    for fx in fx_all:
        for fy in fy_all:
            nabla_elem = _nabla_element(inner, fx, fy)
            for gz in apply_to_set(comp, z):
                left = setup.module(nabla_elem, gz)
                right = setup.module(fx, setup.module(fy, gz))
                # right has arguments (x, (y, z)); left ((x, y), z)
                rpos, rargs = fel_pos(right), fel_args(right)
                reassoc = felement(rpos, tuple(((a, b), c) for a, (b, c) in rargs))
                if left != reassoc:
                    return False, ("associativity", fx, fy, gz)
    return True, None


@dataclass(frozen=True)
class MixedMeasuring:
    """A table C x A -> B with C an inner-functor coalgebra and A, B
    algebras of the composite."""

    setup: MixedSetup
    C: Coalgebra
    A: Algebra
    B: Algebra
    entries: tuple

    def value(self, c: Label, a: Label):
        cache = self.__dict__.get("_table_cache")
        if cache is None:
            cache = dict(self.entries)
            self.__dict__["_table_cache"] = cache
        return cache[(c, a)]


def mixed_measuring_check(m: MixedMeasuring, first_only: bool = True):
    """The mixed measuring square, checked on C x (G.F)(A).  Returns
    (ok, witnesses)."""
    setup = m.setup
    witnesses = []
    for c in m.C.carrier:
        chi_c = m.C.structure(c)
        for ge in m.A.structure.dom:
            lhs = m.value(c, m.A.structure(ge))
            moved = setup.module(chi_c, ge)
            pos, pairs = fel_pos(moved), fel_args(moved)
            rhs = alg_apply(m.B, pos, tuple(m.value(cc, aa) for cc, aa in pairs))
            if lhs != rhs:
                witnesses.append((c, ge))
                if first_only:
                    return False, witnesses
    return not witnesses, witnesses


def mixed_convolution_algebra(setup: MixedSetup, C: Coalgebra, B: Algebra,
                              guard: int | None = None) -> Algebra:
    """[C,B] as an algebra of the composite functor, via the module map."""
    comp = setup.composite
    hom = mk_hom(C.carrier, B.carrier, guard)
    dom = apply_to_set(comp, hom, guard)

    def structure(ge: Label) -> Label:
        out = []
        for c in C.carrier:
            moved = setup.module(C.structure(c), ge)
            pos, pairs = fel_pos(moved), fel_args(moved)
            out.append(
                alg_apply(B, pos, tuple(f[C.carrier.index(cc)] for cc, f in pairs))
            )
        return tuple(out)

    return Algebra(comp, hom, Map.from_callable(dom, hom, structure), name="mixed-conv")


def enumerate_mixed_measurings(setup: MixedSetup, C: Coalgebra, A: Algebra, B: Algebra,
                               guard: int | None = None) -> list[MixedMeasuring]:
    """All mixed measurings in lexicographic order of their values: one
    square per (c, ge), the cell (c, alpha(ge)) being beta of the cells that
    ``module(chi(c), ge)`` lists."""
    c_index, a_index = C.carrier._index, A.carrier._index
    n_a = len(A.carrier)
    squares = []
    for c, chi_c in enumerate(C.structure.images):
        for ge, a in zip(A.structure.dom, A.structure.images):
            moved = setup.module(chi_c, ge)
            squares.append((c * n_a + a_index[a], fel_pos(moved),
                            tuple(c_index[x] * n_a + a_index[y] for x, y in fel_args(moved))))
    beta = {(pos, *ids): k for pos, ids, k in _structure_cells(B)}
    cells = [(c, a) for c in C.carrier for a in A.carrier]
    values = B.carrier.elements
    return [MixedMeasuring(setup, C, A, B, tuple(zip(cells, (values[i] for i in t))))
            for t in solve_tables(len(cells), len(values), squares, beta,
                                  "mixed measuring search", guard)]
