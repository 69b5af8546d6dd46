import itertools
import random

import pytest

from kfour.abelian import FgGroup, GroupStructureReport, InfiniteGroupError
from kfour.cohomology import CohomologyRing, CupForm
from kfour import oracle as oracle_module
from kfour.kclasses import KClass, integer_class
from kfour.oracle import (
    Counterexample,
    RelationCheck,
    VerificationReport,
    oracle_compare,
    oracle_reduced_group,
    verify_relations,
    verify_ring_axioms,
)
from kfour.structure import reduced_k_structure


def make_ring(h2, h4, pairs=None):
    return CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, pairs))


def rp4():
    return make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (1,)})


def cp2():
    return make_ring(FgGroup(1), FgGroup(1), {(0, 0): (1,)})


class TestVerifyRelations:
    def test_rp4_all_relations_pass(self):
        report = verify_relations(rp4())
        assert report.ok
        assert report.check("2").instances == 4
        assert {c.name for c in report.checks} == set("1234567")
        assert report.total_failures == 0

    def test_cp2_bounded_domain_sizes(self):
        report = verify_relations(cp2(), bound=2)
        assert report.ok
        assert report.check("7").instances == 25
        assert report.check("3").instances == 5
        assert report.check("6").instances == 25

    def test_trivial_ring(self):
        ring = make_ring(FgGroup(), FgGroup())
        report = verify_relations(ring)
        assert report.ok
        assert all(check.instances == 1 for check in report.checks)

    def test_battery_of_twisted_rings(self):
        rings = [
            rp4(),
            make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (0,)}),
            make_ring(FgGroup(0, (4,)), FgGroup(0, (4,)), {(0, 0): (1,)}),
            make_ring(FgGroup(0, (2, 2)), FgGroup(0, (2,)),
                      {(0, 0): (1,), (0, 1): (1,), (1, 1): (1,)}),
            make_ring(FgGroup(0, (3,)), FgGroup(0, (9,)), {(0, 0): (6,)}),
            make_ring(FgGroup(1), FgGroup(0, (2,)), {(0, 0): (1,)}),
        ]
        for ring in rings:
            assert ring.validate().ok
            assert verify_relations(ring, bound=1).ok

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_relations(cp2(), bound=0)

    def test_broken_engine_is_caught(self, monkeypatch):
        # sabotage the product; relations 2, 5 and 6 must start failing
        def broken_mul(ring, a, b):
            return KClass(ring, a.rank * b.rank, a.c1, a.c2)

        monkeypatch.setattr(oracle_module, "k_mul", broken_mul)
        report = verify_relations(rp4())
        assert not report.ok
        assert report.check("2").failures > 0
        assert report.check("5").failures > 0
        bad = report.check("2").counterexamples
        assert 0 < len(bad) <= 10
        assert bad[0].lhs != bad[0].rhs

    def test_counterexamples_capped(self, monkeypatch):
        def broken_mul(ring, a, b):
            return integer_class(ring, 99)

        monkeypatch.setattr(oracle_module, "k_mul", broken_mul)
        ring = make_ring(FgGroup(0, (4,)), FgGroup(0, (4,)), {(0, 0): (1,)})
        report = verify_relations(ring)
        check = report.check("5")
        assert check.failures == 16
        assert len(check.counterexamples) == 10


class TestVerifyRingAxioms:
    def test_exhaustive_on_rp4(self):
        report = verify_ring_axioms(rp4())
        assert report.ok
        names = {c.name for c in report.checks}
        assert names == {
            "add_commutative", "add_identity", "add_inverse", "mul_commutative",
            "mul_identity", "add_associative", "mul_associative", "distributive",
        }
        n = 5 * 2 * 2  # ranks -2..2, all c1, all c2
        assert report.check("mul_associative").instances == n**3
        assert report.check("add_commutative").instances == n * (n - 1) // 2

    def test_sampled_on_cp2(self):
        report = verify_ring_axioms(cp2(), samples=200, bound=3, seed=5)
        assert report.ok
        assert report.check("distributive").instances == 200

    def test_sampled_with_repeated_draws(self):
        # RP^4 has only 20 classes of rank -2..2, so 600 draws repeat many
        report = verify_ring_axioms(rp4(), samples=200)
        assert report.ok
        assert all(check.instances == 200 for check in report.checks)

    def test_sampled_counterexamples_list_operands_read(self, monkeypatch):
        real_mul = oracle_module.k_mul

        def broken_mul(ring, a, b):
            c = real_mul(ring, a, b)
            return KClass(ring, c.rank, c.c1, ring.h4.add(c.c2, ring.cup_square(a.c1)))

        monkeypatch.setattr(oracle_module, "k_mul", broken_mul)
        report = verify_ring_axioms(cp2(), samples=50, seed=2)
        for law, names in (("mul_identity", ["a"]), ("mul_commutative", ["a", "b"]),
                           ("mul_associative", ["a", "b", "c"])):
            examples = report.check(law).counterexamples
            assert examples
            assert all([name for name, _ in e.inputs] == names for e in examples)

    def test_sampled_is_deterministic(self):
        a = verify_ring_axioms(cp2(), samples=50, seed=1)
        b = verify_ring_axioms(cp2(), samples=50, seed=1)
        assert a == b

    def test_broken_add_is_caught(self, monkeypatch):
        real_add = oracle_module.k_add

        def broken_add(ring, a, b):
            out = real_add(ring, a, b)
            if a.rank == 2 and b.rank == 2:
                return integer_class(ring, 0)
            return out

        monkeypatch.setattr(oracle_module, "k_add", broken_add)
        report = verify_ring_axioms(rp4(), rank_range=(-1, 2))
        assert not report.ok


class _ReferenceMemo(dict):
    """The per-instance memo: one engine call per operand tuple."""

    def __init__(self, op, ring, classes, intern):
        super().__init__()
        self.op, self.ring, self.classes, self.intern = op, ring, classes, intern

    def __missing__(self, key):
        operands = key if isinstance(key, tuple) else (key,)
        result = self.op(self.ring, *(self.classes[i] for i in operands))
        value = self[key] = self.intern(result)
        return value


def reference_ring_axioms(ring, rank_range=(-2, 2), samples=None, bound=3, seed=0):
    """The ring-law check one instance at a time, as the differential oracle.

    Every instance is its own tuple of class indices, every law a lambda on
    one instance, and every sum, product and negative a tuple-keyed memo
    lookup.  The engine functions are read from the oracle module here, so a
    sabotaged engine reaches this path too.
    """
    lo, hi = rank_range
    classes, index = [], {}

    def intern(c):
        i = index.setdefault((c.rank, c.c1, c.c2), len(classes))
        if i == len(classes):
            classes.append(c)
        return i

    if samples is None:
        block = [intern(KClass(ring, rank, x, y)) for rank in range(lo, hi + 1)
                 for x in ring.h2.elements() for y in ring.h4.elements()]

        def cases(arity):
            if arity == 3:
                return itertools.product(block, repeat=3)
            return itertools.combinations(block, arity)
    else:
        rng = random.Random(seed)

        def random_element(group):
            return group.canonical(rng.randint(-bound, bound) for _ in range(group.ngens))

        def random_class():
            return intern(KClass(ring, rng.randint(lo, hi),
                                 random_element(ring.h2), random_element(ring.h4)))

        triples = [(random_class(), random_class(), random_class())
                   for _ in range(samples)]

        def cases(arity):
            return (triple[:arity] for triple in triples)

    add, mul, neg = (_ReferenceMemo(op, ring, classes, intern) for op in
                     (oracle_module.k_add, oracle_module.k_mul, oracle_module.k_neg))
    zero = intern(integer_class(ring, 0))
    one = intern(integer_class(ring, 1))
    laws = (
        ("add_commutative", "a + b = b + a", "ab",
            lambda a, b: (add[a, b], add[b, a])),
        ("add_identity", "a + 0 = a", "a", lambda a: (add[a, zero], a)),
        ("add_inverse", "a + (-a) = 0", "a", lambda a: (add[a, neg[a]], zero)),
        ("mul_commutative", "a b = b a", "ab", lambda a, b: (mul[a, b], mul[b, a])),
        ("mul_identity", "a * 1 = a", "a", lambda a: (mul[a, one], a)),
        ("add_associative", "(a + b) + c = a + (b + c)", "abc",
            lambda a, b, c: (add[add[a, b], c], add[a, add[b, c]])),
        ("mul_associative", "(a b) c = a (b c)", "abc",
            lambda a, b, c: (mul[mul[a, b], c], mul[a, mul[b, c]])),
        ("distributive", "a (b + c) = a b + a c", "abc",
            lambda a, b, c: (mul[a, add[b, c]], add[mul[a, b], mul[a, c]])),
    )
    checks = []
    for name, description, names, law in laws:
        instances = failures = 0
        examples = []
        for case in cases(len(names)):
            instances += 1
            left, right = law(*case)
            if left != right:
                failures += 1
                if len(examples) < oracle_module.MAX_COUNTEREXAMPLES:
                    inputs = tuple(zip(names, (classes[i] for i in case)))
                    examples.append(Counterexample(inputs, classes[left], classes[right]))
        checks.append(RelationCheck(name, description, instances, failures,
                                    tuple(examples)))
    return VerificationReport(tuple(checks))


def twisted_z4():
    return make_ring(FgGroup(0, (4,)), FgGroup(0, (4,)), {(0, 0): (1,)})


def mixed_80_class_ring():
    return make_ring(FgGroup(0, (2, 2)), FgGroup(0, (4,)), {(0, 0): (2,), (0, 1): (2,)})


def sabotaged_add(real):
    def broken(ring, a, b):
        c = real(ring, a, b)
        return KClass(ring, c.rank, c.c1, ring.h4.add(c.c2, ring.cup(a.c1, a.c1)))
    return broken


def sabotaged_mul(real):
    def broken(ring, a, b):
        c = real(ring, a, b)
        return KClass(ring, c.rank, c.c1, ring.h4.add(c.c2, ring.cup_square(a.c1)))
    return broken


def sabotaged_neg(real):
    def broken(ring, a):
        c = real(ring, a)
        return KClass(ring, c.rank, c.c1, ring.h4.add(c.c2, ring.cup_square(c.c1)))
    return broken


class TestAxiomsMatchReference:
    """The column-wise laws against the per-instance reference above."""

    @pytest.mark.parametrize("ring", [rp4, twisted_z4, mixed_80_class_ring])
    def test_exhaustive(self, monkeypatch, ring):
        ring = ring()
        assert ring.validate().ok
        calls = {}
        for op in ("k_add", "k_mul", "k_neg"):
            def counted(*args, _op=op, _real=getattr(oracle_module, op)):
                calls[_op] = calls.get(_op, 0) + 1
                return _real(*args)
            monkeypatch.setattr(oracle_module, op, counted)
        report = verify_ring_axioms(ring)
        new_calls = dict(calls)
        calls.clear()
        assert report.ok
        assert report == reference_ring_axioms(ring)
        # one engine call per distinct operand tuple, on either path
        assert new_calls == calls
        assert new_calls["k_neg"] == report.check("add_identity").instances

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sampled(self, seed):
        report = verify_ring_axioms(cp2(), samples=200, seed=seed)
        assert report.ok
        assert report == reference_ring_axioms(cp2(), samples=200, seed=seed)

    @pytest.mark.parametrize("op, sabotage", [
        ("k_add", sabotaged_add), ("k_mul", sabotaged_mul), ("k_neg", sabotaged_neg),
    ])
    def test_sabotaged_engine(self, monkeypatch, op, sabotage):
        monkeypatch.setattr(oracle_module, op, sabotage(getattr(oracle_module, op)))
        for ring, kwargs in ((rp4(), {}), (cp2(), {"samples": 200, "seed": 3})):
            report = verify_ring_axioms(ring, **kwargs)
            assert not report.ok
            assert report == reference_ring_axioms(ring, **kwargs)

class TestOracleReducedGroup:
    def test_rp4(self):
        assert oracle_reduced_group(rp4()) == GroupStructureReport(0, (4,))

    def test_untwisted_two_torsion(self):
        ring = make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (0,)})
        assert oracle_reduced_group(ring) == GroupStructureReport(0, (2, 2))

    def test_trivial_ring(self):
        ring = make_ring(FgGroup(), FgGroup())
        assert oracle_reduced_group(ring) == GroupStructureReport(0, ())

    def test_infinite_rejected(self):
        with pytest.raises(InfiniteGroupError):
            oracle_reduced_group(cp2())


class TestOracleCompare:
    def test_rp4_matches(self):
        result = oracle_compare(rp4())
        assert result.ok
        assert result.structures_match
        assert result.engine_structure == GroupStructureReport(0, (4,))

    def test_nine_untwisted_rings(self):
        groups = {1: FgGroup(), 2: FgGroup(0, (2,)), 4: FgGroup(0, (4,))}
        for s2, s4_ in itertools.product(groups, repeat=2):
            h2, h4 = groups[s2], groups[s4_]
            ring = make_ring(h2, h4)  # zero cup form
            result = oracle_compare(ring)
            assert result.ok, f"|H2|={s2}, |H4|={s4_}"
            assert result.engine_structure.order == s2 * s4_

    def test_twisted_z4_example(self):
        ring = make_ring(FgGroup(0, (4,)), FgGroup(0, (4,)), {(0, 0): (1,)})
        result = oracle_compare(ring)
        assert result.ok
        assert result.engine_structure == GroupStructureReport(0, (2, 8))

    def test_oracle_agrees_with_engine_on_mixed_shapes(self):
        rings = [
            make_ring(FgGroup(0, (2, 2)), FgGroup(0, (2,)),
                      {(0, 0): (1,), (0, 1): (0,), (1, 1): (1,)}),
            make_ring(FgGroup(0, (2,)), FgGroup(0, (2, 2)), {(0, 0): (1, 1)}),
            make_ring(FgGroup(0, (8,)), FgGroup(0, (2,)), {(0, 0): (1,)}),
            make_ring(FgGroup(0, (3,)), FgGroup(0, (3,)), {(0, 0): (2,)}),
        ]
        for ring in rings:
            assert ring.validate().ok
            result = oracle_compare(ring)
            assert result.ok
            assert oracle_reduced_group(ring) == reduced_k_structure(ring)

    def test_structure_mismatch_detected(self, monkeypatch):
        # sabotage the twisted-extension side; the comparison must notice
        monkeypatch.setattr(
            oracle_module,
            "reduced_k_structure",
            lambda ring: GroupStructureReport(0, (2, 2)),
        )
        result = oracle_compare(rp4())
        assert not result.structures_match
        assert not result.ok
