import functools
import itertools
import random

import pytest
from conftest import add_wrong_for_ranks
from conftest import sabotaged_add, sabotaged_mul, sabotaged_neg

from kfour import abelian as abelian_module
from kfour.abelian import FgGroup, GroupStructureReport, InfiniteGroupError
from kfour.cohomology import CohomologyRing, CupForm
from kfour import oracle as oracle_module
from kfour.kclasses import KClass, integer_class, line_class, rank2_class
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
    def test_unknown_check_name(self):
        with pytest.raises(KeyError):
            verify_relations(rp4()).check("8")

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

    def test_grind_reduces_each_result_once(self, monkeypatch):
        # 5 ranks x |Z/3| x |Z/9| = 135 classes; interning them takes 270
        # reductions, and the 90,531 engine calls of the grind take none.
        # Reducing after every cup term made about 1.4 million here.
        ring = make_ring(FgGroup(0, (3,)), FgGroup(0, (9,)), {(0, 0): (3,)})
        calls = [0]
        canonical = FgGroup.canonical

        def counted(group, coeffs):
            calls[0] += 1
            return canonical(group, coeffs)

        monkeypatch.setattr(FgGroup, "canonical", counted)
        report = verify_ring_axioms(ring)
        assert report.ok
        assert report.check("mul_associative").instances == 135**3
        assert calls[0] <= 300

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


def z4_z4():
    h = FgGroup(0, (4, 4))
    return make_ring(h, h, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 1)})


def mixed_80_class_ring():
    return make_ring(FgGroup(0, (2, 2)), FgGroup(0, (4,)), {(0, 0): (2,), (0, 1): (2,)})


class Unmemoised:
    """Stands in for oracle._Memo, building a fresh value on every lookup."""

    def __init__(self, fill):
        self.fill = fill

    def __getitem__(self, key):
        return self.fill(key)


class TestRelationOperands:
    """Relation operands come from memos; the reports are those of fresh classes."""

    def test_generator_classes_built_once(self, monkeypatch):
        # one ring check, then one per line class, rank-2 class and integer
        # class 1, 2 and -1, however many relation instances use them
        ring = z4_z4()
        calls = [0]
        require_valid = CohomologyRing.require_valid

        def counted(r):
            calls[0] += 1
            return require_valid(r)

        monkeypatch.setattr(CohomologyRing, "require_valid", counted)
        assert verify_relations(ring).ok
        assert calls[0] <= 1 + ring.h2.order + ring.h4.order + 3

    @pytest.mark.parametrize("op, sabotage", [("k_add", sabotaged_add), ("k_mul", sabotaged_mul)])
    def test_memoised_classes_keep_the_report(self, monkeypatch, op, sabotage):
        ring = z4_z4()
        monkeypatch.setattr(oracle_module, op, sabotage(getattr(oracle_module, op)))
        report = verify_relations(ring)
        assert not report.ok
        monkeypatch.setattr(oracle_module, "_Memo", Unmemoised)
        assert verify_relations(ring) == report


class TestOneRelationTable:
    """verify_relations and the formal quotient read the same relation table."""

    def test_changed_relation_reaches_both_checks(self, monkeypatch):
        # relation 7 without its cup term: the engine sees it fail, and the
        # quotient by it is no longer the engine's group
        real = oracle_module._relations

        def without_cup(r, L, V, n, add, mul):
            table = list(real(r, L, V, n, add, mul))
            [i] = [i for i, relation in enumerate(table) if relation[0] == "7"]
            name, description, names, _ = table[i]
            table[i] = (name, description, names, lambda x, x2: (
                add(L[x], L[x2]),
                add(add(L[r.h2.add(x, x2)], V[r.h4.zero]), n[-1]),
            ))
            return tuple(table)

        monkeypatch.setattr(oracle_module, "_relations", without_cup)
        report = verify_relations(rp4())
        assert [c.name for c in report.checks if not c.ok] == ["7"]
        result = oracle_compare(rp4())
        assert not result.structures_match
        assert result.engine_structure == GroupStructureReport(0, (4,))
        assert result.oracle_structure == GroupStructureReport(0, (2,))


def reference_relations(ring, bound=oracle_module.DEFAULT_BOUND):
    """The relation check one instance at a time, as the differential oracle.

    Every choice of all of a relation's variables is one instance, whose law
    is called on it alone, and the tally is kept here.  Operands come from the
    same memos, and the engine functions are read from the oracle module
    here, so a sabotaged engine reaches this path too.
    """
    domains = {"x": oracle_module._domain(ring.h2, bound),
               "y": oracle_module._domain(ring.h4, bound)}
    table = oracle_module._relations(
        ring,
        oracle_module._Memo(functools.partial(line_class, ring)),
        oracle_module._Memo(functools.partial(rank2_class, ring)),
        oracle_module._Memo(functools.partial(integer_class, ring)),
        functools.partial(oracle_module.k_add, ring),
        functools.partial(oracle_module.k_mul, ring),
    )
    checks = []
    for name, description, names, law in table:
        instances = failures = 0
        examples = []
        for case in itertools.product(*(domains[var[0]] for var in names)):
            instances += 1
            left, right = law(*case)
            if left != right:
                failures += 1
                if len(examples) < oracle_module.MAX_COUNTEREXAMPLES:
                    examples.append(Counterexample(tuple(zip(names, case)), left, right))
        checks.append(RelationCheck(name, description, instances, failures,
                                    tuple(examples)))
    return VerificationReport(tuple(checks))


def s4():
    return make_ring(FgGroup(), FgGroup(1))


def mixed_z_z2():
    h = FgGroup(1, (2,))
    return make_ring(h, h, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)})


class TestRelationsMatchReference:
    """The relations run by columns against the per-instance reference above."""

    RINGS = [(rp4, 2), (s4, 2), (twisted_z4, 2), (mixed_z_z2, 1), (cp2, 1), (cp2, 2)]

    @pytest.mark.parametrize("ring, bound", RINGS)
    def test_real_engine(self, ring, bound):
        report = verify_relations(ring(), bound=bound)
        assert report.ok
        assert report == reference_relations(ring(), bound)

    @pytest.mark.parametrize("ring, bound", RINGS)
    @pytest.mark.parametrize("op, sabotage", [
        ("k_add", sabotaged_add), ("k_mul", sabotaged_mul), ("k_neg", sabotaged_neg),
    ])
    def test_sabotaged_engine(self, monkeypatch, ring, bound, op, sabotage):
        # the same failures, counterexamples and their order, each displayed
        # as the same text
        monkeypatch.setattr(oracle_module, op, sabotage(getattr(oracle_module, op)))
        ring = ring()
        report = verify_relations(ring, bound=bound)
        reference = reference_relations(ring, bound)
        # the relations never negate a class; the other sabotages show where
        # a square is nonzero
        assert report.ok == (op == "k_neg" or not ring.cup_form.pairs)
        assert report == reference
        assert [list(map(str, c.counterexamples)) for c in report.checks] == [
            list(map(str, c.counterexamples)) for c in reference.checks
        ]


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

    @pytest.mark.parametrize("op, sabotage", [
        ("k_add", sabotaged_add), ("k_mul", sabotaged_mul), ("k_neg", sabotaged_neg),
    ])
    def test_sabotaged_engine_on_80_classes(self, monkeypatch, op, sabotage):
        # a larger block, whose memo rows fill in another order than the
        # reference's: the same failures, counterexamples and their order
        monkeypatch.setattr(oracle_module, op, sabotage(getattr(oracle_module, op)))
        ring = mixed_80_class_ring()
        report = verify_ring_axioms(ring)
        assert not report.ok
        assert report == reference_ring_axioms(ring)

    @pytest.mark.parametrize("rank_range", [(1, 0), (0, 0), (0, 1)],
                             ids=["no-class", "one-class", "two-classes"])
    @pytest.mark.parametrize("wrong", [False, True], ids=["engine", "wrong-0+0"])
    def test_blocks_of_at_most_two_classes(self, monkeypatch, rank_range, wrong):
        # columns of no last operand and of one read like any other
        ring = make_ring(FgGroup(), FgGroup())
        if wrong:
            monkeypatch.setattr(oracle_module, "k_add",
                                add_wrong_for_ranks(oracle_module.k_add, (0, 0)))
        report = verify_ring_axioms(ring, rank_range=rank_range)
        n = rank_range[1] - rank_range[0] + 1
        assert report.check("distributive").instances == n**3
        assert report.check("distributive").ok == (not wrong or not n)
        assert report == reference_ring_axioms(ring, rank_range=rank_range)


class TestOracleReducedGroup:
    def test_rp4(self):
        assert oracle_reduced_group(rp4()) == GroupStructureReport(0, (4,))

    def test_untwisted_two_torsion(self):
        ring = make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (0,)})
        assert oracle_reduced_group(ring) == GroupStructureReport(0, (2, 2))

    def test_trivial_ring(self):
        ring = make_ring(FgGroup(), FgGroup())
        assert oracle_reduced_group(ring) == GroupStructureReport(0, ())

    def test_infinite_rejected(self, monkeypatch):
        with pytest.raises(InfiniteGroupError):
            oracle_reduced_group(cp2())
        # oracle_compare refuses before evaluating any relation over a box
        monkeypatch.setattr(oracle_module, "verify_relations", None)
        with pytest.raises(InfiniteGroupError):
            oracle_compare(cp2())

    def test_smith_form_sees_only_the_echelon(self, monkeypatch):
        # 1278 relation rows over 1 + 25 + 25 = 51 formal generators are
        # solved by the witness-free elimination alone: the witnessed Smith
        # form is never called
        h = FgGroup(0, (5, 5))
        ring = make_ring(h, h, {(0, 0): (1, 2), (0, 1): (3, 0), (1, 1): (0, 4)})
        monkeypatch.setattr(abelian_module, "smith_normal_form", None)
        assert oracle_reduced_group(ring) == GroupStructureReport(0, (5, 5, 5, 5))


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

    @pytest.mark.parametrize("ring", [rp4, twisted_z4, z4_z4])
    @pytest.mark.parametrize("sabotage", [False, True])
    def test_shared_relation_report(self, monkeypatch, ring, sabotage):
        if sabotage:
            monkeypatch.setattr(oracle_module, "k_mul", sabotaged_mul(oracle_module.k_mul))
        ring = ring()
        result = oracle_module._compare(ring, verify_relations(ring))
        assert result == oracle_compare(ring)
        assert result.ok is not sabotage
        assert [c.name for c in result.additive.checks] == ["1", "3", "4", "7"]
        assert [c.name for c in result.multiplicative.checks] == ["2", "5", "6"]

    @pytest.mark.parametrize("ring", [rp4, twisted_z4, z4_z4, mixed_80_class_ring])
    def test_onto_check_visits_every_class(self, monkeypatch, ring):
        # one sum L(x) - 3 per x, then one sum with V(y) per (x, y)
        ring = ring()
        relations = verify_relations(ring)
        calls = [0]
        real = oracle_module.k_add

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(oracle_module, "k_add", counted)
        result = oracle_module._compare(ring, relations)
        assert result.generator_images_ok and result.ok
        assert calls[0] == ring.h2.order * (1 + ring.h4.order)

    @pytest.mark.parametrize("ring", [rp4, twisted_z4, mixed_80_class_ring])
    def test_onto_check_catches_a_sum_no_relation_takes(self, monkeypatch, ring):
        monkeypatch.setattr(
            oracle_module, "k_add", add_wrong_for_ranks(oracle_module.k_add, (-2, 2))
        )
        result = oracle_compare(ring())
        assert result.additive.ok and result.multiplicative.ok
        assert result.structures_match
        assert not result.generator_images_ok
        assert not result.ok

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
