"""Brute-force cross-validation of the K-class engine.

Three independent checks live here:

* :func:`verify_relations` evaluates both sides of the seven defining
  relations of the line/rank-2 generator presentation, written once in one
  table, through the coordinate engine, for every choice of generators
  (exhaustively on finite cohomology, over a coordinate box otherwise).
  The table's laws take one instance each; the check runs them by columns,
  every variable but the last fixed and the last one over its whole domain.

* :func:`verify_ring_axioms` grinds through commutativity, associativity,
  distributivity, unit and inverse laws on a whole block of classes, or on
  random triples.  The eight laws are written once, on interned class
  indices.  Each checks a whole column of last operands at once, each side
  one memoised row of engine results mapped over one column, so the n^3
  grind runs as C-level lookups and the engine is called once per distinct
  operand pair.  The exhaustive grind looks the column s + c or s c over the
  block up once per index s and reads it wherever a law needs it: for
  a + (b + c) and a (b c) that is the column of b, for (a + b) + c and
  (a b) c the column of a + b or a b itself.  So each pair (a, b) maps four
  memo rows over the block, not six.

* :func:`oracle_reduced_group` rebuilds the reduced K-group a second way:
  as the free abelian group on one formal symbol per line bundle, rank-2
  bundle and unit, modulo the additive relations of the same table, filled
  with formal sums instead of engine classes.  Each relation instance is one
  sparse row for the exact elimination of :mod:`kfour.abelian` (a dense
  Smith normal form of the whole matrix is the reference it is tested
  against), after the row that kills the unit, which clears each later
  row's unit entry in one step.
  :func:`oracle_compare` checks this against the twisted-extension
  presentation and confirms that the multiplicative relations are consistent
  with the quotient.

Relations and ring laws run through one tally loop, which counts instances
and failures and keeps the first counterexamples.  Nothing in this module
trusts the closed multiplication formula; that is the point.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Callable, Iterable

from .abelian import (
    Element,
    FgGroup,
    GroupStructureReport,
    InfiniteGroupError,
    _frozen,
    _solve_relations,
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


@_frozen
class Counterexample:
    inputs: tuple[tuple[str, object], ...]
    lhs: object
    rhs: object

    def __str__(self) -> str:
        args = ", ".join(f"{name}={value}" for name, value in self.inputs)
        return f"[{args}] lhs={self.lhs} rhs={self.rhs}"


@_frozen
class RelationCheck:
    name: str
    description: str
    instances: int
    failures: int
    counterexamples: tuple[Counterexample, ...] = ()

    @property
    def ok(self) -> bool:
        return self.failures == 0


@_frozen
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


# the relations without a product: the formal quotient takes only these
_ADDITIVE = ("1", "3", "4", "7")


def _relations(r: CohomologyRing, L, V, n, add: Callable, mul: Callable | None):
    """The seven defining relations as (name, description, variable names, law).

    A variable ranges over H^2 when its name starts with "x" and over H^4
    when it starts with "y".  Each law builds both sides from the generators
    ``L[x]``, ``V[y]`` and ``n[k]`` (the line bundle, the rank-2 bundle and
    the integer k) with ``add`` and ``mul``, so the one table serves both the
    coordinate engine and the formal quotient.  Relation 1 equates two pairs.
    """
    h2, h4 = r.h2, r.h4
    return (
        ("1", "trivial bundles have ranks 1 and 2", (),
            lambda: ((L[h2.zero], V[h4.zero]), (n[1], n[2]))),
        ("2", "product of line classes adds first Chern classes", ("x", "x2"),
            lambda x, x2: (mul(L[x], L[x2]), L[h2.add(x, x2)])),
        ("3", "a line class plus its conjugate is a rank-2 class", ("x",),
            lambda x: (add(L[x], L[h2.negate(x)]), V[h4.negate(r.cup_square(x))])),
        ("4", "sum of rank-2 classes", ("y", "y2"),
            lambda y, y2: (add(V[y], V[y2]), add(n[2], V[h4.add(y, y2)]))),
        ("5", "product of rank-2 classes", ("y", "y2"),
            lambda y, y2: (
                mul(V[y], V[y2]),
                add(n[2], V[h4.add(h4.scale(2, y), h4.scale(2, y2))]),
            )),
        ("6", "line class times rank-2 class", ("x", "y"),
            lambda x, y: (
                mul(L[x], V[y]),
                add(add(L[h2.scale(2, x)], V[h4.add(r.cup_square(x), y)]), n[-1]),
            )),
        ("7", "sum of line classes", ("x", "x2"),
            lambda x, x2: (
                add(L[x], L[x2]),
                add(add(L[h2.add(x, x2)], V[r.cup(x, x2)]), n[-1]),
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
    left and right sides for every last operand in the column, as two
    sequences.
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


def verify_relations(ring: CohomologyRing, bound: int = DEFAULT_BOUND) -> VerificationReport:
    """Evaluate both sides of each defining relation for every input choice.

    Exhaustive when H^2 and H^4 are finite; otherwise all elements with
    coordinates in [-bound, bound].  A correct engine reports zero failures
    on every valid ring.
    """
    ring._admits_classes
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    domains = {"x": _domain(ring.h2, bound), "y": _domain(ring.h4, bound)}
    # The engine functions are read from the module here, so a replaced
    # ``k_add``/``k_mul`` reaches every law.
    table = _relations(
        ring,
        _Memo(functools.partial(line_class, ring)),
        _Memo(functools.partial(rank2_class, ring)),
        _Memo(functools.partial(integer_class, ring)),
        functools.partial(k_add, ring),
        functools.partial(k_mul, ring),
    )
    checks = []
    for name, description, names, law in table:
        # a case is every variable but the last, and the last one's domain;
        # relation 1 is one column of a placeholder operand, which lies past
        # the end of ``names`` and so never shows
        *leads, column = [domains[var[0]] for var in names] or [(None,)]
        each = law if names else lambda _, law=law: law()
        checks.append(_check(
            name, description, names, ((lead, column) for lead in itertools.product(*leads)),
            lambda *case, each=each: zip(*map(functools.partial(each, *case[:-1]), case[-1])),
        ))
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


def _ring_laws(add: _Memo, mul: _Memo, neg: _Memo, zero: int, one: int,
               sums: Callable, products: Callable):
    """The eight ring laws as (name, description, operand names, column law).

    A law takes its leading operands and a list of last operands and returns
    both sides for each, as two lists of interned indices (equal classes
    compare equal).  Every sum, product and negative comes from the memos, and
    ``sums(b, cs)`` and ``products(b, cs)`` give the list of each b + c and
    b c for c in cs, so that a ternary side is that list, or one row mapped
    over it: (a + b) + c is the column of the index a + b, read as it is.
    """

    def rows(memo: _Memo, column: Iterable[int]) -> list[int]:
        return list(map(memo.__getitem__, column))

    return (
        ("add_commutative", "a + b = b + a", "ab",
            lambda a, bs: (rows(add[a], bs), [add[b][a] for b in bs])),
        ("add_identity", "a + 0 = a", "a",
            lambda as_: ([add[a][zero] for a in as_], as_)),
        ("add_inverse", "a + (-a) = 0", "a",
            lambda as_: ([add[a][neg[a]] for a in as_], [zero] * len(as_))),
        ("mul_commutative", "a b = b a", "ab",
            lambda a, bs: (rows(mul[a], bs), [mul[b][a] for b in bs])),
        ("mul_identity", "a * 1 = a", "a",
            lambda as_: ([mul[a][one] for a in as_], as_)),
        ("add_associative", "(a + b) + c = a + (b + c)", "abc",
            lambda a, b, cs: (sums(add[a][b], cs), rows(add[a], sums(b, cs)))),
        ("mul_associative", "(a b) c = a (b c)", "abc",
            lambda a, b, cs: (products(mul[a][b], cs), rows(mul[a], products(b, cs)))),
        ("distributive", "a (b + c) = a b + a c", "abc",
            lambda a, b, cs: (rows(mul[a], sums(b, cs)), rows(add[mul[a][b]], products(a, cs)))),
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
    ring._admits_classes
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

        def through(row: _Memo) -> Callable[[int, list[int]], list[int]]:
            # every ternary column is the block, so b + block and b block are
            # looked up once per index b, an operand or a sum or product of
            # two, and reused for every triple that reads them
            columns = _Memo(lambda b: list(map(row[b].__getitem__, block)))
            return lambda b, cs: columns[b]

    else:
        rng = random.Random(seed)

        def random_element(group: FgGroup) -> list[int]:
            return [rng.randint(-bound, bound) for _ in range(group.ngens)]

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

        def through(row: _Memo) -> Callable[[int, list[int]], list[int]]:
            return lambda b, cs: list(map(row[b].__getitem__, cs))

    # ``neg[a]`` is the interned -a; ``add[a]`` and ``mul[a]`` are the rows of
    # a, whose ``row[b]`` is the interned a + b or a b.  The engine functions
    # are read from the module here, so a replaced ``k_add``/``k_mul``/``k_neg``
    # reaches every law, and each is called once per distinct operand tuple.
    def engine(op: Callable) -> Callable[[int, int], int]:
        return lambda a, b: intern(op(ring, classes[a], classes[b]))

    add, mul = (_Memo(lambda a, op=engine(op): _Memo(functools.partial(op, a)))
                for op in (k_add, k_mul))
    neg = _Memo(lambda a: intern(k_neg(ring, classes[a])))
    zero = intern(integer_class(ring, 0))
    one = intern(integer_class(ring, 1))
    laws = _ring_laws(add, mul, neg, zero, one, through(add), through(mul))
    checks = [
        _check(name, description, names, cases(len(names)), law, classes.__getitem__)
        for name, description, names, law in laws
    ]
    return VerificationReport(tuple(checks))


def _require_finite(ring: CohomologyRing) -> None:
    ring.require_valid()
    if not ring.is_finite:
        raise InfiniteGroupError(
            "the formal-generator oracle needs finite H^2 and H^4"
        )


def oracle_reduced_group(ring: CohomologyRing) -> GroupStructureReport:
    """Rebuild the reduced K-group from formal generators and relations.

    Free abelian group on {unit} + {one symbol per line bundle} + {one symbol
    per rank-2 bundle}, modulo the additive relations of the table that
    :func:`verify_relations` evaluates, here filled with formal sums: tuples
    of (column, coefficient) terms, added by concatenation.  Each equation
    lhs - rhs is one sparse row.  The reduced part is the quotient by the
    unit, which splits off as the image of the rank map.  Requires finite
    cohomology.
    """
    _require_finite(ring)
    domains = {"x": list(ring.h2.elements()), "y": list(ring.h4.elements())}
    # column 0 is the unit, then one column per line bundle, then per rank-2 bundle
    L = {x: ((1 + i, 1),) for i, x in enumerate(domains["x"])}
    V = {y: ((1 + len(L) + i, 1),) for i, y in enumerate(domains["y"])}
    n = _Memo(lambda k: ((0, k),))
    # reduced part: kill the unit (the rank map splits off that copy of Z);
    # as the first row it is the pivot that clears every other row's unit
    # entry in one step
    rows = [{0: 1}]
    for name, _, names, law in _relations(ring, L, V, n, operator.add, None):
        if name not in _ADDITIVE:
            continue
        for case in itertools.product(*(domains[var[0]] for var in names)):
            sides = law(*case)
            for lhs, rhs in zip(*sides) if name == "1" else [sides]:
                row: dict[int, int] = {}
                for column, coeff in lhs + tuple((j, -c) for j, c in rhs):
                    row[column] = row.get(column, 0) + coeff
                rows.append({j: e for j, e in row.items() if e})
    return _solve_relations(1 + len(L) + len(V), rows)


@_frozen
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
    engine classes is well defined on the quotient), that the map is onto,
    every rank-0 class (0, x, y) being the sum (L(x) - 3) + V(y), so that
    with equal orders it is an isomorphism, and that the multiplicative
    relations also hold under the coordinate product.
    """
    _require_finite(ring)
    return _compare(ring, verify_relations(ring))


def _compare(ring: CohomologyRing, relations: VerificationReport) -> OracleComparison:
    """:func:`oracle_compare`, given the full ``verify_relations`` report of ``ring``.

    On finite cohomology the report does not depend on its bound, so a caller
    that has one need not have every instance evaluated again.
    """
    engine = reduced_k_structure(ring)
    oracle = oracle_reduced_group(ring)
    additive = VerificationReport(tuple(c for c in relations.checks if c.name in _ADDITIVE))
    multiplicative = VerificationReport(
        tuple(c for c in relations.checks if c.name not in _ADDITIVE)
    )
    lines = {x: line_class(ring, x) for x in ring.h2.elements()}
    planes = {y: rank2_class(ring, y) for y in ring.h4.elements()}
    # each symbol goes to the class it names, and (0, x, y) is (L(x) - 3) + V(y)
    shifted = {x: k_add(ring, line, integer_class(ring, -3)) for x, line in lines.items()}
    images_ok = (
        all(lines[x] == KClass(ring, 1, x, ring.h4.zero) for x in lines)
        and all(planes[y] == KClass(ring, 2, ring.h2.zero, y) for y in planes)
        and all(k_add(ring, shifted[x], planes[y]) == KClass(ring, 0, x, y)
                for x in shifted for y in planes)
    )
    return OracleComparison(engine, oracle, additive, multiplicative, images_ok)
