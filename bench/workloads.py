"""The benchmark's four workloads.

Each workload builds its fixed inputs in ``__init__``, yields its verdicts
round by round from ``rounds()`` and runs one verdict in ``verdict()``, which
returns an answer that ``expected()`` knows in advance.  A round holds every
stratum of the workload in fixed proportion, so a run of whole rounds does
the same mix of work whatever the seed; the seed draws the concrete inputs
within each stratum and the order inside a round.

``RSS_ROUNDS`` is how many rounds a run does before its resident set has
reached the level every longer run shares.

Every call into the program goes through ``tracer.call`` under a
``<layer>.<function>`` span name, and every count through ``tracer.count``.
"""

import contextlib
import io
import random
from pathlib import Path

from polymeasure import cli
from polymeasure.core import STAR, Map, carrier
from polymeasure.fixpoints import (
    Algebra,
    Coalgebra,
    enumerate_algebra_homs,
    initial_lazy,
    tree_alg,
    tree_coalg,
    unique_hom_from_preinitial,
)
from polymeasure.functor import (
    ZERO_POSITION,
    apply_to_set,
    automaton_functor,
    bintree_functor,
    bounded_tree_functor,
    const_monoid_functor,
    identity_functor,
    list_functor,
    maybe_functor,
    monoid_from_op,
    trivial_monoid,
    unit_functor,
    z_mod,
)
from polymeasure.measuring import (
    Measuring,
    enumerate_measurings,
    forced_measuring,
    measuring_set,
    unit_coalgebra,
)
from polymeasure.mixed import enumerate_mixed_measurings, mixed_setup
from polymeasure.universal import c_initial_via_dual, measuring_tensor
from polymeasure.workspace import load_workspace


class Mismatch(Exception):
    """Two routes that must agree gave different results."""


def _shuffled(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _dom_size(functor, m: int) -> int:
    """|F({0..m-1})|, from the functor's arities alone."""
    return sum(m ** functor.arity(pos) for pos in functor.positions.carrier)


# ---------------------------------------------------------------------------
# tree_sweep: a sample of criterion 10's exhaustive sweep
# ---------------------------------------------------------------------------

class TreeSweep:
    """Criterion 10's sweep: for the three tree functors, target algebras B on
    {0..m-1}, each checked against the fixed pairs A = tree_alg(f, n),
    C = tree_coalg(f, n) at n = 1 and 2, as the sweep checks every B at both
    depths.  Every B of the sweep has exactly one measuring at each depth.

    A round holds ``ROUND`` targets split over the strata (functor, m) in
    proportion to how many algebras the sweep has in each, so the mix of
    cheap and expensive targets is the sweep's own.
    """

    ROUND = 1000
    DEPTHS = (1, 2)
    RSS_ROUNDS = 1

    def __init__(self, seed: int, tracer, known: dict):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.answer = [known["measurings"]] * len(self.DEPTHS)
        cases = [bintree_functor(trivial_monoid()), bintree_functor(z_mod(2)),
                 bounded_tree_functor(trivial_monoid(), 2)]
        self.fixed = {}
        strata, weights = [], []
        for functor in cases:
            self.fixed[functor] = [
                (tracer.call("fixpoints.tree_coalg", tree_coalg, functor, n),
                 tracer.call("fixpoints.tree_alg", tree_alg, functor, n))
                for n in self.DEPTHS]
            max_size = 3 if len(functor.positions.carrier) == 2 else 2
            for m in range(1, max_size + 1):
                strata.append((functor, m, _dom_size(functor, m)))
                weights.append(m ** _dom_size(functor, m))
        self.round_strata = _allot(strata, weights, self.ROUND)

    def rounds(self):
        while True:
            yield [(functor, m, tuple(self.rng.randrange(m) for _ in range(size)))
                   for functor, m, size in _shuffled(self.round_strata, self.rng)]

    def verdict(self, item):
        functor, m, images = item
        tr = self.tracer
        car = carrier(range(m))
        dom = tr.call("functor.apply_to_set", apply_to_set, functor, car)
        structure = tr.call("core.Map", Map, dom, car, images)
        b = tr.call("fixpoints.Algebra", Algebra, functor, car, structure)
        found = []
        for c, a in self.fixed[functor]:
            found.append(len(tr.call("measuring.measuring_set", measuring_set, c, a, b)))
            tr.count("measuring.square_cells", len(c.carrier) * len(a.structure.dom))
        return found

    def expected(self, item):
        return self.answer

    @staticmethod
    def describe(item) -> str:
        functor, m, images = item
        return f"{functor.name} B on {m} elements, table {images}"


def _allot(strata: list, weights: list, total: int) -> list:
    """``total`` slots split over the strata by largest remainder."""
    whole = sum(weights)
    shares = [w * total / whole for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(len(strata)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return [s for s, k in zip(strata, counts) for _ in range(k)]


# ---------------------------------------------------------------------------
# deep_tree: criterion 10's curated-candidate step on fresh functors
# ---------------------------------------------------------------------------

def cyclic_tree_functor(shape: str, labels: list):
    """The bintree or arity-2 bounded-tree functor over a copy of Z_k whose
    elements are ``labels`` (``labels[0]`` is the unit)."""
    k = len(labels)
    position = {x: i for i, x in enumerate(labels)}
    monoid = monoid_from_op(labels, lambda x, y: labels[(position[x] + position[y]) % k], labels[0])
    if shape == "bintree":
        return bintree_functor(monoid)
    return bounded_tree_functor(monoid, 2)


def full_unit_tree(depth: int, unit_pos, arity: int = 2):
    term = (ZERO_POSITION, ())
    for _ in range(depth):
        term = (unit_pos, tuple(term for _ in range(arity)))
    return term


class DeepTree:
    """For a fresh functor per verdict: build A = tree_alg(f, n),
    C = tree_coalg(f, n) and the deeper truncation tree_alg(f, n+1) cold, then
    check that A is C-initial, that the forced measuring from the deeper
    truncation into the initial algebra exists, and that its value at the full
    depth-n tree is the unique homomorphism onto A.

    Strata are (shape, k, n) with |F(tree_alg(f, n+1))| between 5e2 and 3e4
    cells; a round holds each stratum ``count`` times.  The largest stratum
    sets the peak memory and the middle one the tail.
    """

    RSS_ROUNDS = 1  # after that the apply_to_set cache keeps growing
    STRATA = (  # shape, k = |Z_k|, n, count per round
        ("tree2", 2, 1, 1),
        ("bintree", 3, 1, 4),
        ("bintree", 2, 1, 8),
        ("tree2", 1, 1, 8),
        ("bintree", 1, 2, 8),
    )

    def __init__(self, seed: int, tracer, known: dict):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.known = known

    def rounds(self):
        strata = [s[:3] for s in self.STRATA for _ in range(s[3])]
        while True:
            yield [(shape, k, n, self.rng.sample(range(10**6), k))
                   for shape, k, n in _shuffled(strata, self.rng)]

    def verdict(self, item):
        shape, k, n, labels = item
        tr = self.tracer
        functor = tr.call("functor.build", cyclic_tree_functor, shape, labels)
        a = tr.call("fixpoints.tree_alg", tree_alg, functor, n)
        c = tr.call("fixpoints.tree_coalg", tree_coalg, functor, n)
        deeper = tr.call("fixpoints.tree_alg", tree_alg, functor, n + 1)
        cells = len(deeper.structure.dom)
        tr.count("fixpoints.structure_cells", cells)
        c_initial = tr.call("universal.c_initial_via_dual", c_initial_via_dual, a, c)
        phi = tr.call("measuring.forced_measuring", forced_measuring,
                      c, deeper, initial_lazy(functor))
        hom = tr.call("fixpoints.unique_hom_from_preinitial",
                      unique_hom_from_preinitial, deeper, a)
        exists = isinstance(phi, Measuring)
        unit_pos = labels[0] if shape == "bintree" else (labels[0], 2)
        s_n = full_unit_tree(n, unit_pos)
        agrees = (exists and hom is not None and s_n in c.carrier
                  and all(phi.value(s_n, x) == hom(x) for x in deeper.carrier))
        return [c_initial, exists, agrees, len(a.carrier), len(deeper.carrier), cells]

    def expected(self, item):
        shape, k, n, _ = item
        return self.known[f"{shape}-{k}-{n}"]

    @staticmethod
    def describe(item) -> str:
        shape, k, n, labels = item
        return f"{shape} over Z_{k} labelled {labels}, n={n}"


# ---------------------------------------------------------------------------
# agreement: the search path, three strategies and the tensor adjunction
# ---------------------------------------------------------------------------

AGREEMENT_FUNCTORS = {
    "unit": unit_functor,
    "identity": identity_functor,
    "const": lambda: const_monoid_functor(z_mod(3)),
    "maybe": maybe_functor,
    "list": lambda: list_functor(z_mod(2)),
    "bintree": lambda: bintree_functor(z_mod(2)),
    "tree2": lambda: bounded_tree_functor(trivial_monoid(), 2),
    "automaton": lambda: automaton_functor(carrier(["a"])),
}
MIXED = "mixed"
FAMILIES = tuple(AGREEMENT_FUNCTORS) + (MIXED,)
POOL = 200  # instances per family with frozen answers
BRUTE_TABLE_BOUND = 10_000  # brute runs when |B|^(|C||A|) is at most this


def _random_images(rng: random.Random, count: int, choices: int) -> tuple:
    return tuple(rng.randrange(choices) for _ in range(count))


def agreement_instance(family: str, functors: dict, j: int) -> tuple:
    """Instance ``j`` of a family's pool: sizes and tables as index tuples.

    The pool is fixed (it does not depend on the run's seed) so that each
    instance's answer can be frozen; a run draws from it.
    """
    rng = random.Random(f"agreement-{family}-{j}")
    if family == MIXED:
        functor = functors[MIXED].composite
        a_size, b_size = rng.choice([1, 2]), rng.choice([1, 2])
        return (j, None,
                (a_size, _random_images(rng, _dom_size(functor, a_size), a_size)),
                (b_size, _random_images(rng, _dom_size(functor, b_size), b_size)))
    functor = functors[family]
    c_size, a_size, b_size = rng.randrange(0, 4), rng.randrange(1, 4), rng.randrange(1, 4)
    return (j,
            (c_size, _random_images(rng, c_size, _dom_size(functor, c_size))),
            (a_size, _random_images(rng, _dom_size(functor, a_size), a_size)),
            (b_size, _random_images(rng, _dom_size(functor, b_size), b_size)))


def _build_algebra(functor, spec) -> Algebra:
    size, images = spec  # the elements of {0..size-1} are their own indices
    car = carrier(range(size))
    return Algebra(functor, car, Map(apply_to_set(functor, car), car, images))


def _build_coalgebra(functor, spec) -> Coalgebra:
    size, images = spec
    car = carrier(range(size))
    cod = apply_to_set(functor, car)
    return Coalgebra(functor, car, Map(car, cod, tuple(cod.elements[i] for i in images)))


class Agreement:
    """Random (C, A, B) triples over criterion 4's eight functors, plus
    criterion 11's composite of 1 + X after the one-letter automaton functor.

    Functor triples: propagate and convolution agree, brute agrees when its
    table space is at most ``BRUTE_TABLE_BOUND``, and when the tensor C|>A is
    finite its algebra homs into B are as many as the measurings.  Composite
    triples: the mixed measurings at the unit coalgebra are the algebra homs.
    A round holds one instance of each family.  The largest resident set
    comes from the tensors that reach the class guard, which a run meets
    within its first ``RSS_ROUNDS`` rounds.
    """

    RSS_ROUNDS = 20

    def __init__(self, seed: int, tracer, known: dict):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.known = known
        self.functors = {name: make() for name, make in AGREEMENT_FUNCTORS.items()}
        inner = self.functors["automaton"]
        self.functors[MIXED] = mixed_setup(inner, maybe_functor())
        self.unit = unit_coalgebra(inner)

    def rounds(self):
        order = {f: _shuffled(range(POOL), self.rng) for f in FAMILIES}
        r = 0
        while True:
            yield [(f, agreement_instance(f, self.functors, order[f][r % POOL]))
                   for f in _shuffled(FAMILIES, self.rng)]
            r += 1

    def verdict(self, item):
        family, (_, c_spec, a_spec, b_spec) = item
        if family == MIXED:
            return self._mixed(a_spec, b_spec)
        tr = self.tracer
        functor = self.functors[family]
        c = _build_coalgebra(functor, c_spec)
        a = _build_algebra(functor, a_spec)
        b = _build_algebra(functor, b_spec)
        prop = tr.call("measuring.enumerate.propagate", enumerate_measurings, c, a, b, "propagate")
        conv = tr.call("measuring.enumerate.convolution", enumerate_measurings, c, a, b, "convolution")
        tables = [m.entries for m in prop]
        if [m.entries for m in conv] != tables:
            raise Mismatch("convolution and propagate disagree")
        space = len(b.carrier) ** (len(c.carrier) * len(a.carrier))
        if space <= BRUTE_TABLE_BOUND:
            brute = tr.call("measuring.enumerate.brute", enumerate_measurings, c, a, b, "brute")
            if [m.entries for m in brute] != tables:
                raise Mismatch("brute and propagate disagree")
            tr.count("measuring.brute.tables", space)
            tr.count("measuring.brute.found", len(brute))
        else:
            tr.count("measuring.brute.skipped")
        pres = tr.call("universal.measuring_tensor", measuring_tensor, c, a)
        tr.count("universal.tensor.classes", len(pres.class_terms))
        tr.count("universal.tensor.levels", pres.levels_run)
        homs = None
        if pres.status == "finite":
            homs = len(tr.call("fixpoints.enumerate_algebra_homs",
                               enumerate_algebra_homs, pres.algebra, b))
            if homs != len(tables):
                raise Mismatch(f"{homs} tensor homs but {len(tables)} measurings")
        else:
            tr.count("universal.tensor.truncated")
        return [len(tables), pres.status, homs]

    def _mixed(self, a_spec, b_spec):
        tr = self.tracer
        setup = self.functors[MIXED]
        a = _build_algebra(setup.composite, a_spec)
        b = _build_algebra(setup.composite, b_spec)
        mixed = tr.call("mixed.enumerate_mixed_measurings",
                        enumerate_mixed_measurings, setup, self.unit, a, b)
        homs = tr.call("fixpoints.enumerate_algebra_homs", enumerate_algebra_homs, a, b)
        if sorted(m.entries for m in mixed) != sorted(
                tuple(((STAR, x), h(x)) for x in a.carrier) for h in homs):
            raise Mismatch("mixed measurings at the unit are not the algebra homs")
        return [len(mixed)]

    def expected(self, item):
        family, (j, *_) = item
        return self.known[family][j]

    @staticmethod
    def describe(item) -> str:
        family, (j, *_) = item
        return f"{family} pool instance {j}"


# ---------------------------------------------------------------------------
# desk_cli: the shipped workspace commands through the CLI
# ---------------------------------------------------------------------------

def workspace_summary(ws) -> list:
    return [sorted(ws.functors), sorted(ws.algebras), sorted(ws.coalgebras), sorted(ws.measurings)]


class DeskCli:
    """Each round loads every shipped workspace once and runs every header
    command once through ``cli.run``, in a seeded order.  A command's answer
    is its exit code and stdout; a load's is the names it defines."""

    RSS_ROUNDS = 1

    def __init__(self, seed: int, tracer, known: dict):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.reports = {" ".join(argv): report for argv, report in known["commands"]}
        self.loads = known["loads"]
        self.round = ([("load", path) for path in sorted(self.loads)]
                      + [("cli", argv) for argv, _ in known["commands"]])

    def rounds(self):
        while True:
            yield _shuffled(self.round, self.rng)

    def verdict(self, item):
        kind, arg = item
        tr = self.tracer
        if kind == "load":
            return workspace_summary(tr.call("workspace.load_workspace", load_workspace, arg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(command_span(arg), cli.run, list(arg))
        return [code, out.getvalue()]

    def expected(self, item):
        kind, arg = item
        if kind == "load":
            return self.loads[arg]
        return [0, self.reports[" ".join(arg)]]

    @staticmethod
    def describe(item) -> str:
        kind, arg = item
        return f"load {arg}" if kind == "load" else "polymeasure " + " ".join(arg)


def command_span(argv: list) -> str:
    return f"cli.run.{Path(argv[0]).stem}.{argv[1]}"


WORKLOADS = {
    "tree_sweep": TreeSweep,
    "deep_tree": DeepTree,
    "agreement": Agreement,
    "desk_cli": DeskCli,
}
