import functools
import itertools
from fractions import Fraction
from operator import add

import pytest
from conftest import cup_entry_choices
from hypothesis import given, settings
from hypothesis import strategies as st

from kfour import cohomology, eval_expr, verify_relations, verify_ring_axioms
from kfour.abelian import FgGroup
from kfour.cohomology import MAX_COORDINATES, CohomologyRing, CupForm, InvalidRingError
from kfour.kclasses import (
    KClass,
    MixedRingError,
    choose2,
    decompose,
    integer_class,
    k_add,
    k_mul,
    k_neg,
    k_pow,
    k_scale,
    line_class,
    rank2_class,
    reduced_part,
)


def make_ring(h2, h4, pairs=None):
    return CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, pairs))


def rp4():
    return make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (1,)})


def cp2():
    return make_ring(FgGroup(1), FgGroup(1), {(0, 0): (1,)})


def s4():
    return make_ring(FgGroup(), FgGroup(1))


def all_classes(ring, ranks=range(-2, 3)):
    for rank in ranks:
        for x in ring.h2.elements():
            for y in ring.h4.elements():
                yield KClass(ring, rank, x, y)


class TestChoose2:
    def test_small_values(self):
        assert [choose2(n) for n in range(-3, 5)] == [6, 3, 1, 0, 0, 1, 3, 6]

    @given(st.integers(-10**6, 10**6))
    def test_always_integral(self, n):
        assert 2 * choose2(n) == n * (n - 1)


class TestConstructors:
    def test_trivial_line_is_unit(self):
        r = rp4()
        assert line_class(r, (0,)) == integer_class(r, 1)
        assert rank2_class(r, (0,)) == integer_class(r, 2)

    def test_line_class(self):
        r = rp4()
        u = line_class(r, (1,))
        assert (u.rank, u.c1, u.c2) == (1, (1,), (0,))

    def test_rank2_class(self):
        r = rp4()
        v = rank2_class(r, (1,))
        assert (v.rank, v.c1, v.c2) == (2, (0,), (1,))
        w = rank2_class(s4(), (1,))
        assert (w.rank, w.c1, w.c2) == (2, (), (1,))

    def test_invalid_ring_rejected(self):
        bad = make_ring(FgGroup(0, (2,)), FgGroup(1), {(0, 0): (1,)})
        with pytest.raises(InvalidRingError):
            line_class(bad, (1,))

    def test_class_over_invalid_ring_rejected(self):
        bad = make_ring(FgGroup(0, (2,)), FgGroup(1), {(0, 0): (1,)})
        with pytest.raises(InvalidRingError):
            KClass(bad, 1, (1,), (0,))

    def test_coordinates_canonicalized(self):
        r = rp4()
        assert line_class(r, (3,)) == line_class(r, (1,))


class TestAdd:
    def test_two_lines_make_a_rank2(self):
        r = rp4()
        L = line_class(r, (1,))
        assert k_add(r, L, L) == KClass(r, 2, (0,), (1,))

    def test_additive_identity(self):
        r = rp4()
        zero = integer_class(r, 0)
        for a in all_classes(r):
            assert k_add(r, a, zero) == a

    def test_cross_term(self):
        r = rp4()
        a = KClass(r, 1, (1,), (0,))
        b = KClass(r, 1, (1,), (1,))
        assert k_add(r, a, b) == KClass(r, 2, (0,), (0,))

    def test_mixed_ring_rejected(self):
        a = line_class(rp4(), (1,))
        b = line_class(cp2(), (1,))
        with pytest.raises(MixedRingError):
            k_add(rp4(), a, b)
        with pytest.raises(MixedRingError):
            a + b


class TestNeg:
    def test_zero(self):
        r = rp4()
        zero = integer_class(r, 0)
        assert k_neg(r, zero) == zero

    def test_line_inverse(self):
        r = rp4()
        a = line_class(r, (1,))
        assert k_neg(r, a) == KClass(r, -1, (1,), (1,))

    def test_free_case(self):
        r = cp2()
        a = KClass(r, 0, (1,), (0,))
        assert k_neg(r, a) == KClass(r, 0, (-1,), (1,))

    def test_inverse_law_exhaustive(self):
        r = rp4()
        zero = integer_class(r, 0)
        for a in all_classes(r):
            assert k_add(r, a, k_neg(r, a)) == zero


class TestScale:
    def test_double_of_reduced_line(self):
        r = rp4()
        u = reduced_part(line_class(r, (1,)))
        assert k_scale(r, 2, u) == KClass(r, 0, (0,), (1,))

    def test_order_four(self):
        r = rp4()
        u = reduced_part(line_class(r, (1,)))
        assert k_scale(r, 4, u) == integer_class(r, 0)
        for n in (1, 2, 3):
            assert k_scale(r, n, u) != integer_class(r, 0)

    def test_zero_multiple(self):
        r = rp4()
        for a in all_classes(r):
            assert k_scale(r, 0, a) == integer_class(r, 0)

    def test_scale_matches_repeated_addition(self):
        for r in [rp4(), cp2()]:
            samples = (
                list(all_classes(r, range(-1, 2)))
                if r.is_finite
                else [
                    KClass(r, rank, (x,), (y,))
                    for rank in (-1, 0, 2)
                    for x in (-2, 0, 1)
                    for y in (-1, 0, 3)
                ]
            )
            zero = integer_class(r, 0)
            for a in samples:
                total = zero
                for n in range(9):
                    assert k_scale(r, n, a) == total
                    total = k_add(r, total, a)
                assert k_scale(r, -5, a) == k_neg(r, k_scale(r, 5, a))


class TestMul:
    def test_lines_multiply_by_adding_chern_classes(self):
        for r in [rp4(), cp2()]:
            xs = list(r.h2.elements()) if r.is_finite else [(-2,), (0,), (3,)]
            for x, x2 in itertools.product(xs, repeat=2):
                lhs = k_mul(r, line_class(r, x), line_class(r, x2))
                assert lhs == line_class(r, r.h2.add(x, x2))

    def test_rank2_product_on_s4(self):
        r = s4()
        v = rank2_class(r, (1,))
        assert k_mul(r, v, v) == KClass(r, 4, (), (4,))

    def test_square_of_reduced_line_rp4(self):
        r = rp4()
        u = reduced_part(line_class(r, (1,)))
        assert k_mul(r, u, u) == KClass(r, 0, (0,), (1,))
        assert k_mul(r, u, u) == k_scale(r, -2, u)

    def test_line_times_rank2_rp4(self):
        r = rp4()
        lhs = k_mul(r, line_class(r, (1,)), rank2_class(r, (1,)))
        assert lhs == KClass(r, 2, (0,), (0,))
        # the product of the two generators equals L(2x) + V(x^2 + y) - 1
        rhs = k_add(
            r,
            k_add(r, line_class(r, (0,)), rank2_class(r, (0,))),
            integer_class(r, -1),
        )
        assert lhs == rhs

    def test_unit_law(self):
        r = rp4()
        one = integer_class(r, 1)
        for a in all_classes(r):
            assert k_mul(r, a, one) == a
            assert k_mul(r, one, a) == a

    def test_integer_class_multiplication_is_scaling(self):
        r = rp4()
        for n in range(-3, 4):
            for a in all_classes(r, range(-1, 2)):
                assert k_mul(r, integer_class(r, n), a) == k_scale(r, n, a)

    def test_ring_axioms_exhaustive_small(self):
        r = rp4()
        classes = list(all_classes(r, range(-1, 2)))
        for a, b in itertools.product(classes, repeat=2):
            assert k_add(r, a, b) == k_add(r, b, a)
            assert k_mul(r, a, b) == k_mul(r, b, a)
        for a, b, c in itertools.product(classes, repeat=3):
            assert k_add(r, k_add(r, a, b), c) == k_add(r, a, k_add(r, b, c))
            assert k_mul(r, k_mul(r, a, b), c) == k_mul(r, a, k_mul(r, b, c))
            lhs = k_mul(r, a, k_add(r, b, c))
            rhs = k_add(r, k_mul(r, a, b), k_mul(r, a, c))
            assert lhs == rhs

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ring_axioms_random_free(self, data):
        r = cp2()
        def cls():
            return KClass(
                r,
                data.draw(st.integers(-2, 2)),
                (data.draw(st.integers(-3, 3)),),
                (data.draw(st.integers(-3, 3)),),
            )
        a, b, c = cls(), cls(), cls()
        assert k_add(r, a, b) == k_add(r, b, a)
        assert k_mul(r, a, b) == k_mul(r, b, a)
        assert k_add(r, k_add(r, a, b), c) == k_add(r, a, k_add(r, b, c))
        assert k_mul(r, k_mul(r, a, b), c) == k_mul(r, a, k_mul(r, b, c))
        assert k_mul(r, a, k_add(r, b, c)) == k_add(r, k_mul(r, a, b), k_mul(r, a, c))

    def test_rank_and_c1_are_homomorphisms(self):
        r = rp4()
        classes = list(all_classes(r))
        for a, b in itertools.product(classes, repeat=2):
            s = k_add(r, a, b)
            p = k_mul(r, a, b)
            assert s.rank == a.rank + b.rank
            assert p.rank == a.rank * b.rank
            assert s.c1 == r.h2.add(a.c1, b.c1)
            assert p.c1 == r.h2.add(
                r.h2.scale(b.rank, a.c1), r.h2.scale(a.rank, b.c1)
            )
            assert s.c2 == r.h4.add(r.h4.add(a.c2, b.c2), r.cup(a.c1, b.c1))


class TestPow:
    def test_small_powers(self):
        r = cp2()
        u = reduced_part(line_class(r, (1,)))
        assert k_pow(r, u, 0) == integer_class(r, 1)
        assert k_pow(r, u, 1) == u
        assert k_pow(r, u, 2) == k_mul(r, u, u)
        assert k_pow(r, u, 3) == k_mul(r, u, k_mul(r, u, u))

    def test_cp2_nilpotence(self):
        r = cp2()
        u = reduced_part(line_class(r, (1,)))
        assert k_pow(r, u, 2) != integer_class(r, 0)
        assert k_pow(r, u, 3) == integer_class(r, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            k_pow(rp4(), integer_class(rp4(), 1), -1)


class TestDecompose:
    def test_examples(self):
        r = rp4()
        assert decompose(r, integer_class(r, 1)) == (-2, (0,), (0,))
        assert decompose(r, KClass(r, 0, (1,), (0,))) == (-3, (1,), (0,))
        rc = cp2()
        assert decompose(rc, KClass(rc, 3, (1,), (1,))) == (0, (1,), (1,))

    def test_round_trip(self):
        for r in [rp4(), s4()]:
            samples = (
                list(all_classes(r))
                if r.is_finite
                else [KClass(r, n, (), (y,)) for n in range(-2, 3) for y in range(-2, 3)]
            )
            for a in samples:
                n, x, y = decompose(r, a)
                rebuilt = k_add(
                    r,
                    k_add(r, k_scale(r, n, integer_class(r, 1)), line_class(r, x)),
                    rank2_class(r, y),
                )
                assert rebuilt == a


class TestReducedPart:
    def test_examples(self):
        r = rp4()
        u = reduced_part(line_class(r, (1,)))
        assert u == KClass(r, 0, (1,), (0,))
        assert reduced_part(integer_class(r, 0)) == integer_class(r, 0)
        assert reduced_part(rank2_class(r, (1,))) == KClass(r, 0, (0,), (1,))

    def test_rank_zero_and_idempotent(self):
        r = rp4()
        for a in all_classes(r):
            red = reduced_part(a)
            assert red.rank == 0
            assert reduced_part(red) == red


class TestOperators:
    def test_operator_sugar_matches_functions(self):
        r = rp4()
        L = line_class(r, (1,))
        V = rank2_class(r, (1,))
        u = L - 1
        assert u == reduced_part(L)
        assert u + u == k_add(r, u, u)
        assert -u == k_neg(r, u)
        assert 3 * u == k_scale(r, 3, u)
        assert u * 3 == k_scale(r, 3, u)
        assert L * V == k_mul(r, L, V)
        assert u**2 == k_mul(r, u, u)
        assert u**2 + 2 * u == integer_class(r, 0)
        assert 1 - L == k_add(r, integer_class(r, 1), k_neg(r, L))

    def test_str(self):
        r = rp4()
        assert str(KClass(r, 0, (1,), (0,))) == "(0, [1], [0])"

    @pytest.mark.parametrize("other", ["x", 1.5])
    def test_other_operands_rejected(self, other):
        a = line_class(rp4(), (1,))
        for op in (
            lambda: a + other,
            lambda: other + a,
            lambda: a - other,
            lambda: other - a,
            lambda: a * other,
            lambda: other * a,
        ):
            with pytest.raises(TypeError):
                op()


class TestMixedRings:
    def test_equal_rings_from_distinct_objects_combine(self):
        r, other = rp4(), rp4()
        assert r is not other
        a, b = line_class(r, (1,)), line_class(other, (1,))
        assert k_add(r, a, b) == KClass(r, 2, (0,), (1,))
        assert k_mul(other, a, b) == line_class(r, (0,))
        assert k_neg(other, a) == KClass(r, -1, (1,), (1,))
        assert k_scale(other, 2, a) == KClass(r, 2, (0,), (1,))

    def test_every_operation_rejects_another_ring(self):
        r = rp4()
        a = line_class(cp2(), (1,))
        for op in (
            lambda: k_add(r, a, a),
            lambda: k_mul(r, a, a),
            lambda: k_neg(r, a),
            lambda: k_scale(r, 3, a),
            lambda: k_pow(r, a, 2),
        ):
            with pytest.raises(MixedRingError):
                op()


# The reduce-every-term engine, kept as the reference for the per-ring cup
# kernel: each cup term, and each term of every result, goes through
# FgGroup.add/scale and so is reduced on its own.


def reference_cup(ring, a, b):
    a = ring.h2.canonical(a)
    b = ring.h2.canonical(b)
    total = ring.h4.zero
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            total = ring.h4.add(total, ring.h4.scale(ai * bj, ring.cup_form.entry(i, j)))
    return total


def reference_cup_square(ring, a):
    a = ring.h2.canonical(a)
    return reference_cup(ring, a, a)


def reference_add(ring, a, b):
    c2 = ring.h4.add(ring.h4.add(a.c2, b.c2), reference_cup(ring, a.c1, b.c1))
    return KClass(ring, a.rank + b.rank, ring.h2.add(a.c1, b.c1), c2)


def reference_neg(ring, a):
    h4 = ring.h4
    c2 = h4.add(reference_cup_square(ring, a.c1), h4.negate(a.c2))
    return KClass(ring, -a.rank, ring.h2.negate(a.c1), c2)


def reference_scale(ring, n, a):
    h4 = ring.h4
    c2 = h4.add(h4.scale(n, a.c2), h4.scale(choose2(n), reference_cup_square(ring, a.c1)))
    return KClass(ring, n * a.rank, ring.h2.scale(n, a.c1), c2)


def reference_mul(ring, a, b):
    h2, h4 = ring.h2, ring.h4
    ra, rb = a.rank, b.rank
    c1 = h2.add(h2.scale(rb, a.c1), h2.scale(ra, b.c1))
    c2 = h4.add(h4.scale(ra, b.c2), h4.scale(rb, a.c2))
    c2 = h4.add(c2, h4.scale(ra * rb - 1, reference_cup(ring, a.c1, b.c1)))
    c2 = h4.add(c2, h4.scale(choose2(rb), reference_cup_square(ring, a.c1)))
    c2 = h4.add(c2, h4.scale(choose2(ra), reference_cup_square(ring, b.c1)))
    return KClass(ring, ra * rb, c1, c2)


def reference_pow(ring, a, exponent):
    result = integer_class(ring, 1)
    for _ in range(exponent):
        result = reference_mul(ring, result, a)
    return result


TORSION_ORDERS = st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2)


@st.composite
def mixed_rings(draw):
    """Valid rings with free and torsion parts in H^2 and H^4 alike."""
    h2 = FgGroup(draw(st.integers(0, 2)), tuple(draw(TORSION_ORDERS)))
    h4 = FgGroup(draw(st.integers(0, 2)), tuple(draw(TORSION_ORDERS)))
    h4_torsion = FgGroup(0, h4.torsion_orders)
    free_values = st.lists(
        st.integers(-5, 5), min_size=h4.free_rank, max_size=h4.free_rank
    )
    pairs = {}
    for i in range(h2.ngens):
        for j in range(i, h2.ngens):
            # a cup with a torsion generator is torsion, so its free part is 0
            both_free = i < h2.free_rank and j < h2.free_rank
            free = draw(free_values) if both_free else [0] * h4.free_rank
            torsion = draw(st.sampled_from(cup_entry_choices(h2, h4_torsion, i, j)))
            pairs[(i, j)] = (*free, *torsion)
    ring = make_ring(h2, h4, pairs)
    assert ring.validate().ok
    return ring


def coordinates(group, size=10**6):
    return st.tuples(*[st.integers(-size, size)] * group.ngens)


def classes(ring, size=10**6):
    """Classes with ranks and coordinates up to size; torsion ones unreduced."""
    return st.builds(
        KClass,
        st.just(ring),
        st.integers(-size, size),
        coordinates(ring.h2, size),
        coordinates(ring.h4, size),
    )


def assert_canonical(value):
    ring = value.ring
    rebuilt = KClass(ring, value.rank, value.c1, value.c2)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    for group, coords in ((ring.h2, value.c1), (ring.h4, value.c2)):
        assert type(coords) is tuple
        for c, n in zip(coords[group.free_rank :], group.torsion_orders):
            assert 0 <= c < n


class TestCupKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_engine_ops(self, data):
        ring = data.draw(mixed_rings())
        a = data.draw(classes(ring))
        b = data.draw(classes(ring))
        n = data.draw(st.integers(-10**6, 10**6))
        exponent = data.draw(st.integers(0, 12))
        pairs = [
            (k_add(ring, a, b), reference_add(ring, a, b)),
            (k_neg(ring, a), reference_neg(ring, a)),
            (k_scale(ring, n, a), reference_scale(ring, n, a)),
            (k_scale(ring, -1, b), reference_scale(ring, -1, b)),
            (k_mul(ring, a, b), reference_mul(ring, a, b)),
            (k_pow(ring, a, exponent), reference_pow(ring, a, exponent)),
        ]
        for value, expected in pairs:
            assert value == expected
            assert_canonical(value)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cup_and_cup_square(self, data):
        ring = data.draw(mixed_rings())
        x = data.draw(coordinates(ring.h2))
        y = data.draw(coordinates(ring.h2))
        assert ring.cup(x, y) == reference_cup(ring, x, y)
        assert ring.cup(iter(x), list(y)) == reference_cup(ring, x, y)
        square = ring.cup_square(iter(x))
        assert square == reference_cup_square(ring, x)
        assert type(square) is tuple
        assert ring.h4.canonical(square) == square


# far past any loop: a^n in closed form against the binomial expansion
HUGE = 10**40


class TestPowClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_line_power_adds_chern_classes(self, data):
        ring = data.draw(mixed_rings())
        x = data.draw(coordinates(ring.h2))
        n = data.draw(st.sampled_from([HUGE, HUGE + 1]))
        expected = line_class(ring, tuple(n * c for c in x))
        assert k_pow(ring, line_class(ring, x), n) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reduced_class_is_nilpotent(self, data):
        ring = data.draw(mixed_rings())
        c = data.draw(classes(ring))
        u = reduced_part(c)
        zero = integer_class(ring, 0)
        assert k_pow(ring, u, 3) == zero
        assert k_pow(ring, u, HUGE) == zero
        assert k_pow(ring, u, 2) == k_mul(ring, u, u)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_minus_one_plus_reduced_class(self, data):
        # (-1 + u)^n = (-1)^n (1 - n u + C(n, 2) u^2), as u^3 = 0
        ring = data.draw(mixed_rings())
        u = reduced_part(data.draw(classes(ring)))
        for n in (HUGE, HUGE + 1):
            sign = (-1) ** n
            expected = k_add(
                ring,
                k_add(ring, integer_class(ring, sign), k_scale(ring, -sign * n, u)),
                k_scale(ring, sign * choose2(n), k_mul(ring, u, u)),
            )
            value = k_pow(ring, k_add(ring, integer_class(ring, -1), u), n)
            assert value == expected
            assert_canonical(value)


def five_generator_ring():
    """H^2 = Z^3 + Z/2 + Z/4 and H^4 = Z^2 + Z/2, with every kind of cup entry."""
    h2, h4 = FgGroup(3, (2, 4)), FgGroup(2, (2,))
    pairs = {
        (0, 0): (1, 0, 1), (0, 1): (2, -1, 0), (0, 2): (0, 1, 1), (1, 1): (0, 3, 1),
        (1, 2): (1, 1, 0), (2, 2): (-2, 0, 1), (3, 3): (0, 0, 1), (3, 4): (0, 0, 1),
        (4, 4): (0, 0, 1),
    }
    return make_ring(h2, h4, pairs)


class TestReductionCount:
    def test_engine_ops_reduce_nothing_twice(self, monkeypatch):
        # each result coordinate is reduced once, inline; a FgGroup.canonical
        # call would mean some term is reduced on its own again
        ring = five_generator_ring()
        a = KClass(ring, 3, (2, -1, 4, 1, 3), (5, -2, 1))
        b = KClass(ring, -2, (-3, 2, 1, 1, 2), (1, 7, 0))
        ring.require_valid()
        calls = [0]
        canonical = FgGroup.canonical

        def counted(group, coeffs):
            calls[0] += 1
            return canonical(group, coeffs)

        monkeypatch.setattr(FgGroup, "canonical", counted)
        k_add(ring, a, b)
        k_neg(ring, a)
        k_scale(ring, -3, a)
        k_mul(ring, a, b)
        k_pow(ring, a, 5)
        k_pow(ring, b, 2)
        assert calls[0] == 0

    def test_engine_ops_check_no_validity(self, monkeypatch):
        # a class is only built over a valid ring, so operations on classes
        # need not check the ring again
        ring = five_generator_ring()
        a = KClass(ring, 3, (2, -1, 4, 1, 3), (5, -2, 1))
        b = KClass(ring, -2, (-3, 2, 1, 1, 2), (1, 7, 0))
        calls = [0]
        require_valid = CohomologyRing.require_valid

        def counted(r):
            calls[0] += 1
            return require_valid(r)

        monkeypatch.setattr(CohomologyRing, "require_valid", counted)
        k_add(ring, a, b)
        k_neg(ring, a)
        k_scale(ring, -3, a)
        k_mul(ring, a, b)
        k_pow(ring, a, 5)
        k_pow(ring, b, 2)
        assert calls[0] == 0


class TestClassGate:
    def test_one_gate_per_ring(self, monkeypatch):
        ring = rp4()
        for kernel in ("_cup_kernel", "_add_kernel", "_mul_kernel", "_affine_kernel"):
            getattr(ring, kernel)  # compiled first: _compile checks the limit itself
        calls = {"limit": 0, "valid": 0}

        def counted(name, check):
            def wrapper(*args):
                calls[name] += 1
                return check(*args)
            return wrapper

        monkeypatch.setattr(cohomology, "_require_coordinates",
                            counted("limit", cohomology._require_coordinates))
        monkeypatch.setattr(CohomologyRing, "require_valid",
                            counted("valid", CohomologyRing.require_valid))
        for n in range(100):
            KClass(ring, n, (n,), (1,))
            integer_class(ring, n)
            line_class(ring, (n,))
            rank2_class(ring, (n,))
        assert eval_expr(ring, "L([1])*V([1]) - 2") == KClass(ring, 0, (0,), (0,))
        assert verify_relations(ring).ok and verify_ring_axioms(ring).ok
        assert calls == {"limit": 1, "valid": 1}

    def test_failing_ring_refused_every_time(self):
        invalid = make_ring(FgGroup(0, (2,)), FgGroup(1), {(0, 0): (1,)})
        huge = make_ring(FgGroup(MAX_COORDINATES), FgGroup(1))
        for _ in range(2):
            with pytest.raises(InvalidRingError):
                KClass(invalid, 1, (0,), (0,))
            with pytest.raises(ValueError, match=f"the limit is {MAX_COORDINATES}$"):
                KClass(huge, 1, huge.h2.zero, huge.h4.zero)


# An independent product check: expand a b over a = n 1 + L(x) + V(y) into
# nine terms and replace each product of generators by the right side of its
# defining relation, so only sums, negatives and the relations are used.


def multiple(ring, k, a):
    """k a by doubling and adding through k_add, negated through k_neg."""
    total, power, n = integer_class(ring, 0), a, abs(k)
    while n:
        if n & 1:
            total = k_add(ring, total, power)
        power = k_add(ring, power, power)
        n >>= 1
    return k_neg(ring, total) if k < 0 else total


def product_by_relations(ring, a, b):
    h2, h4 = ring.h2, ring.h4
    L = functools.partial(line_class, ring)
    V = functools.partial(rank2_class, ring)
    one = integer_class(ring, 1)

    def line_times_rank2(x, y):  # relation 6: L(2x) + V(x^2 + y) - 1
        return k_add(
            ring,
            k_add(ring, L(h2.scale(2, x)), V(h4.add(ring.cup_square(x), y))),
            integer_class(ring, -1),
        )

    (n, x, y), (m, x2, y2) = decompose(ring, a), decompose(ring, b)
    terms = [
        multiple(ring, n * m, one),
        multiple(ring, n, L(x2)),
        multiple(ring, n, V(y2)),
        multiple(ring, m, L(x)),
        multiple(ring, m, V(y)),
        L(h2.add(x, x2)),  # relation 2: L(x) L(x2) = L(x + x2)
        line_times_rank2(x, y2),
        line_times_rank2(x2, y),
        # relation 5: V(y) V(y2) = 2 + V(2y + 2y2)
        k_add(ring, integer_class(ring, 2), V(h4.add(h4.scale(2, y), h4.scale(2, y2)))),
    ]
    return functools.reduce(functools.partial(k_add, ring), terms)


def free_line_over_torsion(d, n):
    """H^2 = H^4 = Z + Z/n; the free square is d plus a torsion part."""
    h = FgGroup(1, (n,))
    return make_ring(h, h, {(0, 0): (d, 1), (0, 1): (0, 1), (1, 1): (0, n - 1)})


def two_spheres_over_torsion(d, n):
    """H^2 = Z^2 + Z/n over H^4 = Z + Z/n, the free part like S^2 x S^2 twisted by d."""
    h2, h4 = FgGroup(2, (n,)), FgGroup(1, (n,))
    pairs = {(0, 0): (d, 0), (0, 1): (1, 1), (0, 2): (0, 1), (2, 2): (0, 1)}
    return make_ring(h2, h4, pairs)


RING_FAMILIES = {
    "five_generators": lambda d, n: five_generator_ring(),
    "free_line_over_torsion": free_line_over_torsion,
    "two_spheres_over_torsion": two_spheres_over_torsion,
}


def wide_classes(ring):
    """Ranks up to 10^3 and coordinates up to 10^6, torsion ones unreduced."""
    size = 10**6
    return st.builds(
        KClass,
        st.just(ring),
        st.integers(-1000, 1000),
        coordinates(ring.h2, size),
        coordinates(ring.h4, size),
    )


class TestProductByRelations:
    @pytest.mark.parametrize("family", sorted(RING_FAMILIES))
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_k_mul(self, family, data):
        d = data.draw(st.integers(-5, 5))
        n = data.draw(st.sampled_from([2, 3, 4, 6]))
        ring = RING_FAMILIES[family](d, n)
        assert ring.validate().ok
        a = data.draw(wide_classes(ring))
        b = data.draw(wide_classes(ring))
        assert k_mul(ring, a, b) == product_by_relations(ring, a, b)


def chern_character(a):
    """ch(a) = (rank, c1, (c1^2 - 2 c2)/2) over H^4 (x) Q, read from the cup form."""
    square = form_cup(a.ring, a.c1, a.c1)
    return (
        Fraction(a.rank),
        tuple(map(Fraction, a.c1)),
        tuple(Fraction(s - 2 * y, 2) for s, y in zip(square, a.c2)),
    )


def form_cup(ring, x, y):
    """x . y summed straight from the generator table, with no reduction."""
    entry = ring.cup_form.entry
    return [
        sum(x[i] * y[j] * entry(i, j)[k] for i in range(len(x)) for j in range(len(y)))
        for k in range(ring.h4.ngens)
    ]


def ch_add(u, v):
    (r, x, z), (rr, xx, zz) = u, v
    return r + rr, tuple(map(add, x, xx)), tuple(map(add, z, zz))


def ch_scale(n, u):
    r, x, z = u
    return n * r, tuple(n * p for p in x), tuple(n * p for p in z)


def ch_mul(ring, u, v):
    """(r, x, z)(r', x', z') = (r r', r x' + r' x, r z' + r' z + x.x') in even degrees."""
    (r, x, z), (rr, xx, zz) = u, v
    cross = form_cup(ring, x, xx)
    return (
        r * rr,
        tuple(r * q + rr * p for p, q in zip(x, xx)),
        tuple(r * q + rr * p + c for p, q, c in zip(z, zz, cross)),
    )


@st.composite
def torsion_free_rings(draw):
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 2))
    h2, h4 = FgGroup(p), FgGroup(q)
    values = st.tuples(*[st.integers(-3, 3)] * q)
    pairs = {(i, j): draw(values) for i in range(p) for j in range(i, p)}
    return make_ring(h2, h4, pairs)


def s2xs2():
    return make_ring(FgGroup(2), FgGroup(1), {(0, 1): (1,)})


class TestChernCharacter:
    """On torsion-free rings ch is an injective ring map into H^even (x) Q, so
    it checks every sum and product independently of the closed formula
    (Atiyah-Hirzebruch 1961)."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ch_is_a_ring_homomorphism(self, data):
        ring = data.draw(st.sampled_from([cp2(), s2xs2()]) | torsion_free_rings())
        a = data.draw(classes(ring, 1000))
        b = data.draw(classes(ring, 1000))
        n = data.draw(st.integers(-1000, 1000))
        u, v = chern_character(a), chern_character(b)
        assert chern_character(k_add(ring, a, b)) == ch_add(u, v)
        assert chern_character(k_mul(ring, a, b)) == ch_mul(ring, u, v)
        assert chern_character(k_neg(ring, a)) == ch_scale(-1, u)
        assert chern_character(k_scale(ring, n, a)) == ch_scale(n, u)
        cube = ch_mul(ring, u, ch_mul(ring, u, u))
        assert chern_character(k_pow(ring, a, 3)) == cube

    def test_cp2_and_s2xs2_examples(self):
        r = cp2()
        L = line_class(r, (1,))
        # ch(L) = e^x = 1 + x + x^2/2 with x^2 the generator of H^4
        assert chern_character(L) == (1, (1,), (Fraction(1, 2),))
        r = s2xs2()
        product = k_mul(r, line_class(r, (1, 0)), line_class(r, (0, 1)))
        assert chern_character(product) == (1, (1, 1), (1,))
