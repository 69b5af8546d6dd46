"""Brute-force cross-validation of the K-class engine.

Three independent checks live here:

* :func:`verify_relations` evaluates both sides of the seven defining
  relations of the line/rank-2 generator presentation through the coordinate
  engine, for every choice of generators (exhaustively on finite cohomology,
  over a coordinate box otherwise).

* :func:`verify_ring_axioms` grinds through commutativity, associativity,
  distributivity, unit and inverse laws on a whole block of classes, or on
  random triples.  The eight laws are written once, on interned class
  indices.  Each checks a whole column of last operands at once by mapping
  memoised rows of engine results over it, so the n^3 grind runs as C-level
  lookups and the engine is called once per distinct operand pair.

* :func:`oracle_reduced_group` rebuilds the reduced K-group a second way:
  as the free abelian group on one formal symbol per line bundle, rank-2
  bundle and unit, modulo the additive relations, solved by Smith normal
  form.  :func:`oracle_compare` checks this against the twisted-extension
  presentation and confirms that the multiplicative relations are consistent
  with the quotient.

Relations and ring laws run through one tally loop, which counts instances
and failures and keeps the first counterexamples.  Nothing in this module
trusts the closed multiplication formula; that is the point.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .abelian import (
    Element,
    FgGroup,
    GroupStructureReport,
    InfiniteGroupError,
    IntMatrix,
    group_from_relations,
)
from .cohomology import CohomologyRing
from .kclasses import (
    KClass,
    integer_class,
    k_add,
    k_mul,
    k_neg,
    line_class,
    rank2_class,
)
from .structure import reduced_k_structure

__all__ = [
    "Counterexample",
    "OracleComparison",
    "RelationCheck",
    "VerificationReport",
    "oracle_compare",
    "oracle_reduced_group",
    "verify_relations",
    "verify_ring_axioms",
]

MAX_COUNTEREXAMPLES = 10
DEFAULT_BOUND = 2


@dataclass(frozen=True)
class Counterexample:
    inputs: tuple[tuple[str, object], ...]
    lhs: object
    rhs: object

    def __str__(self) -> str:
        args = ", ".join(f"{name}={value}" for name, value in self.inputs)
        return f"[{args}] lhs={self.lhs} rhs={self.rhs}"


@dataclass(frozen=True)
class RelationCheck:
    name: str
    description: str
    instances: int
    failures: int
    counterexamples: tuple[Counterexample, ...] = ()

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def total_instances(self) -> int:
        return sum(check.instances for check in self.checks)

    @property
    def total_failures(self) -> int:
        return sum(check.failures for check in self.checks)

    def check(self, name: str) -> RelationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _relations(r: CohomologyRing):
    """The seven defining relations as (name, description, variable names, law).

    A variable ranges over H^2 when its name starts with "x" and over H^4
    when it starts with "y"; each law evaluates both sides through the
    coordinate engine.
    """
    h2, h4 = r.h2, r.h4
    L = functools.partial(line_class, r)
    V = functools.partial(rank2_class, r)
    n = functools.partial(integer_class, r)
    return (
        ("1", "trivial bundles have ranks 1 and 2", (),
            lambda: ((L(h2.zero), V(h4.zero)), (n(1), n(2)))),
        ("2", "product of line classes adds first Chern classes", ("x", "x2"),
            lambda x, x2: (k_mul(r, L(x), L(x2)), L(h2.add(x, x2)))),
        ("3", "a line class plus its conjugate is a rank-2 class", ("x",),
            lambda x: (
                k_add(r, L(x), L(h2.negate(x))),
                V(h4.negate(r.cup_square(x))),
            )),
        ("4", "sum of rank-2 classes", ("y", "y2"),
            lambda y, y2: (k_add(r, V(y), V(y2)), k_add(r, n(2), V(h4.add(y, y2))))),
        ("5", "product of rank-2 classes", ("y", "y2"),
            lambda y, y2: (
                k_mul(r, V(y), V(y2)),
                k_add(r, n(2), V(h4.add(h4.scale(2, y), h4.scale(2, y2)))),
            )),
        ("6", "line class times rank-2 class", ("x", "y"),
            lambda x, y: (
                k_mul(r, L(x), V(y)),
                k_add(
                    r, k_add(r, L(h2.scale(2, x)), V(h4.add(r.cup_square(x), y))), n(-1)
                ),
            )),
        ("7", "sum of line classes", ("x", "x2"),
            lambda x, x2: (
                k_add(r, L(x), L(x2)),
                k_add(r, k_add(r, L(h2.add(x, x2)), V(r.cup(x, x2))), n(-1)),
            )),
    )


def _domain(group: FgGroup, bound: int) -> list[Element]:
    if group.is_finite:
        return list(group.elements())
    return list(group.bounded_elements(bound))


def _check(name: str, description: str, names: Iterable[str], cases: Iterable[tuple],
           law: Callable, show: Callable = lambda value: value) -> RelationCheck:
    """Run ``law`` on every case, tallying the instances where its sides differ.

    A case is (leading operands, column): ``law(*lead, column)`` returns the
    left and right sides for every last operand in the column, as two lists.
    Only a case whose lists differ is walked instance by instance; the first
    ``MAX_COUNTEREXAMPLES`` failures are kept, each operand and side passed
    through ``show`` for display.
    """
    instances = failures = 0
    examples: list[Counterexample] = []
    for lead, column in cases:
        lefts, rights = law(*lead, column)
        instances += len(column)
        if lefts == rights:
            continue
        for last, left, right in zip(column, lefts, rights):
            if left != right:
                failures += 1
                if len(examples) < MAX_COUNTEREXAMPLES:
                    inputs = tuple(zip(names, map(show, (*lead, last))))
                    examples.append(Counterexample(inputs, show(left), show(right)))
    return RelationCheck(name, description, instances, failures, tuple(examples))


def verify_relations(
    ring: CohomologyRing, bound: int = DEFAULT_BOUND, only: Iterable[str] | None = None
) -> VerificationReport:
    """Evaluate both sides of each defining relation for every input choice.

    Exhaustive when H^2 and H^4 are finite; otherwise all elements with
    coordinates in [-bound, bound].  A correct engine reports zero failures
    on every valid ring.
    """
    ring.require_valid()
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    wanted = None if only is None else set(only)
    domains = {"x": _domain(ring.h2, bound), "y": _domain(ring.h4, bound)}
    # Each relation instance is a column of one placeholder operand, which
    # lies past the end of ``names`` and so never shows in a counterexample.
    checks = [
        _check(name, description, names,
               ((case, (None,))
                for case in itertools.product(*(domains[var[0]] for var in names))),
               lambda *operands, law=law: tuple([side] for side in law(*operands[:-1])))
        for name, description, names, law in _relations(ring)
        if wanted is None or name in wanted
    ]
    return VerificationReport(tuple(checks))


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``, once per key.

    A subscript that hits is a C-level lookup, so a law can map a memo over a
    whole column of operands without a Python call per instance.
    """

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _ring_laws(add: _Memo, mul: _Memo, neg: _Memo, zero: int, one: int):
    """The eight ring laws as (name, description, operand names, column law).

    A law takes its leading operands and a list of last operands and returns
    both sides for each, as two lists of interned indices (equal classes
    compare equal).  Every sum, product and negative comes from the memos.
    """

    def rows(memo: _Memo, column: list[int]) -> map:
        return map(memo.__getitem__, column)

    return (
        ("add_commutative", "a + b = b + a", "ab",
            lambda a, bs: (list(rows(add[a], bs)), [add[b][a] for b in bs])),
        ("add_identity", "a + 0 = a", "a",
            lambda as_: ([add[a][zero] for a in as_], as_)),
        ("add_inverse", "a + (-a) = 0", "a",
            lambda as_: ([add[a][neg[a]] for a in as_], [zero] * len(as_))),
        ("mul_commutative", "a b = b a", "ab",
            lambda a, bs: (list(rows(mul[a], bs)), [mul[b][a] for b in bs])),
        ("mul_identity", "a * 1 = a", "a",
            lambda as_: ([mul[a][one] for a in as_], as_)),
        ("add_associative", "(a + b) + c = a + (b + c)", "abc",
            lambda a, b, cs: (list(rows(add[add[a][b]], cs)),
                              list(rows(add[a], rows(add[b], cs))))),
        ("mul_associative", "(a b) c = a (b c)", "abc",
            lambda a, b, cs: (list(rows(mul[mul[a][b]], cs)),
                              list(rows(mul[a], rows(mul[b], cs))))),
        ("distributive", "a (b + c) = a b + a c", "abc",
            lambda a, b, cs: (list(rows(mul[a], rows(add[b], cs))),
                              list(rows(add[mul[a][b]], rows(mul[a], cs))))),
    )


def verify_ring_axioms(
    ring: CohomologyRing,
    rank_range: tuple[int, int] = (-2, 2),
    samples: int | None = None,
    bound: int = 3,
    seed: int = 0,
) -> VerificationReport:
    """Check the abelian-ring laws on a block of classes.

    With ``samples=None`` the block is every class whose rank lies in
    ``rank_range`` (H^2 and H^4 must then be finite) and the ternary laws run
    over all triples.  With ``samples=k``, k random triples of classes with
    coordinates in [-bound, bound] are drawn instead, which also works over
    infinite cohomology.
    """
    ring.require_valid()
    lo, hi = rank_range
    # Sums and products escape the drawn classes, so the list grows as the
    # memos fill.  Each distinct class gets one index, so equal classes
    # compare equal as indices.
    classes: list[KClass] = []
    index: dict[tuple, int] = {}

    def intern(c: KClass) -> int:
        i = index.setdefault((c.rank, c.c1, c.c2), len(classes))
        if i == len(classes):
            classes.append(c)
        return i

    if samples is None:
        block = [
            intern(KClass(ring, rank, x, y))
            for rank in range(lo, hi + 1)
            for x in ring.h2.elements()
            for y in ring.h4.elements()
        ]

        def cases(arity: int) -> Iterable[tuple[tuple[int, ...], list[int]]]:
            # unary laws take each class, commutative laws each pair i < j,
            # ternary laws every triple: one column of last operands per lead
            if arity == 1:
                return [((), block)]
            if arity == 2:
                return (((a,), block[i + 1:]) for i, a in enumerate(block))
            return (((a, b), block) for a in block for b in block)

    else:
        rng = random.Random(seed)

        def random_element(group: FgGroup) -> Element:
            return group.canonical(
                rng.randint(-bound, bound) for _ in range(group.ngens)
            )

        def random_class() -> int:
            rank = rng.randint(lo, hi)
            return intern(
                KClass(ring, rank, random_element(ring.h2), random_element(ring.h4))
            )

        triples = [
            (random_class(), random_class(), random_class()) for _ in range(samples)
        ]

        def cases(arity: int) -> Iterable[tuple[tuple[int, ...], list[int]]]:
            return ((triple[:arity - 1], [triple[arity - 1]]) for triple in triples)

    # ``neg[a]`` is the interned -a; ``add[a]`` and ``mul[a]`` are the rows of
    # a, whose ``row[b]`` is the interned a + b or a b.  The engine functions
    # are read from the module here, so a replaced ``k_add``/``k_mul``/``k_neg``
    # reaches every law, and each is called once per distinct operand tuple.
    def engine(op: Callable) -> Callable[..., int]:
        return lambda *operands: intern(op(ring, *(classes[i] for i in operands)))

    add, mul = (_Memo(lambda a, op=engine(op): _Memo(functools.partial(op, a)))
                for op in (k_add, k_mul))
    neg = _Memo(engine(k_neg))
    zero = intern(integer_class(ring, 0))
    one = intern(integer_class(ring, 1))
    checks = [
        _check(name, description, names, cases(len(names)), law, classes.__getitem__)
        for name, description, names, law in _ring_laws(add, mul, neg, zero, one)
    ]
    return VerificationReport(tuple(checks))


def oracle_reduced_group(ring: CohomologyRing) -> GroupStructureReport:
    """Rebuild the reduced K-group from formal generators and relations.

    Free abelian group on {unit} + {one symbol per line bundle} + {one symbol
    per rank-2 bundle}, modulo the additive relations; the reduced part is
    the quotient by the unit, which splits off as the image of the rank map.
    Requires finite cohomology.
    """
    ring.require_valid()
    if not ring.is_finite:
        raise InfiniteGroupError(
            "the formal-generator oracle needs finite H^2 and H^4"
        )
    h2, h4 = ring.h2, ring.h4
    xs = list(h2.elements())
    ys = list(h4.elements())
    unit = 0
    line_index = {x: 1 + i for i, x in enumerate(xs)}
    v_index = {y: 1 + len(xs) + i for i, y in enumerate(ys)}
    width = 1 + len(xs) + len(ys)

    rows: list[list[int]] = []

    def relation(*terms: tuple[int, int]) -> None:
        row = [0] * width
        for index, coeff in terms:
            row[index] += coeff
        rows.append(row)

    # trivial bundles: L(0) = 1 and V(0) = 2
    relation((line_index[h2.zero], 1), (unit, -1))
    relation((v_index[h4.zero], 1), (unit, -2))
    # L(x) + L(-x) = V(-x^2)
    for x in xs:
        relation(
            (line_index[x], 1),
            (line_index[h2.negate(x)], 1),
            (v_index[h4.negate(ring.cup_square(x))], -1),
        )
    # V(y) + V(y') = 2 + V(y + y')
    for y, y2 in itertools.product(ys, repeat=2):
        relation(
            (v_index[y], 1),
            (v_index[y2], 1),
            (unit, -2),
            (v_index[h4.add(y, y2)], -1),
        )
    # L(x) + L(x') = L(x + x') + V(x x') - 1
    for x, x2 in itertools.product(xs, repeat=2):
        relation(
            (line_index[x], 1),
            (line_index[x2], 1),
            (line_index[h2.add(x, x2)], -1),
            (v_index[ring.cup(x, x2)], -1),
            (unit, 1),
        )
    # reduced part: kill the unit (the rank map splits off that copy of Z)
    relation((unit, 1))
    return group_from_relations(width, IntMatrix.from_rows(rows, cols=width))


@dataclass(frozen=True)
class OracleComparison:
    """Side-by-side result of the two reduced-group constructions."""

    engine_structure: GroupStructureReport
    oracle_structure: GroupStructureReport
    additive: VerificationReport
    multiplicative: VerificationReport
    generator_images_ok: bool

    @property
    def structures_match(self) -> bool:
        return self.engine_structure == self.oracle_structure

    @property
    def ok(self) -> bool:
        return (
            self.structures_match
            and self.additive.ok
            and self.multiplicative.ok
            and self.generator_images_ok
        )


def oracle_compare(ring: CohomologyRing) -> OracleComparison:
    """Cross-validate the coordinate engine against the formal quotient.

    Checks that both reduced-group constructions agree, that the coordinate
    engine kills every additive relation (so mapping formal symbols to
    engine classes is well defined on the quotient), and that the
    multiplicative relations also hold under the coordinate product.
    """
    ring.require_valid()
    engine = reduced_k_structure(ring)
    oracle = oracle_reduced_group(ring)
    additive = verify_relations(ring, only=("1", "3", "4", "7"))
    multiplicative = verify_relations(ring, only=("2", "5", "6"))
    images_ok = all(
        line_class(ring, x) == KClass(ring, 1, x, ring.h4.zero)
        for x in ring.h2.elements()
    ) and all(
        rank2_class(ring, y) == KClass(ring, 2, ring.h2.zero, y)
        for y in ring.h4.elements()
    )
    return OracleComparison(engine, oracle, additive, multiplicative, images_ok)
