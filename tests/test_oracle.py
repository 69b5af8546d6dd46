import itertools

import pytest

from kfour.abelian import FgGroup, GroupStructureReport, InfiniteGroupError
from kfour.cohomology import CohomologyRing, CupForm
from kfour import oracle as oracle_module
from kfour.kclasses import KClass, integer_class
from kfour.oracle import (
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
