import gc
import itertools
import math
import pickle
import random
import weakref
from collections import Counter

import pytest
from conftest import BATTERY_SHAPES, all_valid_forms, make_ring
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kfour import abelian as abelian_module
from kfour import oracle as oracle_module
from kfour.abelian import (
    FgGroup,
    GroupStructureReport,
    InfiniteGroupError,
    IntMatrix,
    _xgcd,
    group_from_relations,
    smith_normal_form,
)

Z2 = FgGroup(0, (2,))
Z3 = FgGroup(0, (3,))
Z4 = FgGroup(0, (4,))
Z = FgGroup(1)
Z_Z3 = FgGroup(1, (3,))
Z2_Z2 = FgGroup(0, (2, 2))
Z2_Z3 = FgGroup(0, (2, 3))

SAMPLE_FINITE = [FgGroup(), Z2, Z3, Z4, Z2_Z2, Z2_Z3, FgGroup(0, (4, 2, 3))]


def brute_force_order(g, a):
    """Independent oracle: repeated addition until the sum returns to zero."""
    a = g.canonical(a)
    total = a
    for n in range(1, 1000):
        if total == g.zero:
            return n
        total = g.add(total, a)
    return None


class TestElements:
    def test_add_order_two_cancels(self):
        assert Z2.add((1,), (1,)) == (0,)

    def test_add_mixed_free_torsion(self):
        assert Z_Z3.add((2, 2), (-1, 2)) == (1, 1)

    def test_add_identity(self):
        for g in SAMPLE_FINITE + [Z_Z3]:
            for a in [g.zero, g.canonical(range(g.ngens))]:
                assert g.add(a, g.zero) == a

    def test_add_length_mismatch(self):
        with pytest.raises(ValueError):
            Z2.add((1, 0), (1,))
        with pytest.raises(ValueError):
            Z2.add((1,), (1, 0))

    def test_negate(self):
        assert Z2.negate((1,)) == (1,)
        assert Z.negate((5,)) == (-5,)
        assert Z4.negate((1,)) == (3,)

    def test_scale(self):
        assert Z2.scale(2, (1,)) == (0,)
        assert Z.scale(3, (2,)) == (6,)
        assert Z4.scale(-1, (1,)) == Z4.negate((1,))

    def test_order_examples(self):
        assert Z2.element_order((1,)) == 2
        assert Z.element_order((1,)) is None
        assert Z2_Z3.element_order((1, 1)) == 6

    def test_order_against_brute_force(self):
        for g in SAMPLE_FINITE:
            for a in g.elements():
                assert g.element_order(a) == brute_force_order(g, a)

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError, match="free rank"):
            FgGroup(-1)
        with pytest.raises(ValueError, match="torsion orders"):
            FgGroup(0, (1,))

    def test_infinite_group_has_no_order(self):
        assert FgGroup(1).order is None
        assert Z_Z3.order is None

    def test_order_of_zero(self):
        for g in SAMPLE_FINITE + [Z, Z_Z3]:
            assert g.element_order(g.zero) == 1

    def test_canonical_reduces_torsion_only(self):
        assert Z_Z3.canonical((-7, 7)) == (-7, 1)

    def test_group_axioms_exhaustive(self):
        for g in [Z2, Z4, Z2_Z2, Z2_Z3]:
            elems = list(g.elements())
            for a, b in itertools.product(elems, repeat=2):
                assert g.add(a, b) == g.add(b, a)
                assert g.add(a, g.negate(a)) == g.zero
            for a, b, c in itertools.product(elems, repeat=3):
                assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=2),
           st.lists(st.integers(-50, 50), min_size=2, max_size=2),
           st.lists(st.integers(-50, 50), min_size=2, max_size=2))
    def test_group_axioms_random_infinite(self, a, b, c):
        g = FgGroup(1, (6,))
        a, b, c = g.canonical(a), g.canonical(b), g.canonical(c)
        assert g.add(a, b) == g.add(b, a)
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
        assert g.add(a, g.negate(a)) == g.zero

    def test_scale_is_repeated_addition(self):
        for g in [Z4, Z2_Z3, Z_Z3]:
            samples = list(g.elements()) if g.is_finite else list(g.bounded_elements(2))
            for a in samples:
                total = g.zero
                for n in range(9):
                    assert g.scale(n, a) == total
                    total = g.add(total, a)

    def test_scale_negative_matches_negated_repeat(self):
        g = Z2_Z3
        for a in g.elements():
            for n in range(9):
                assert g.scale(-n, a) == g.negate(g.scale(n, a))


class TestEnumeration:
    def test_counts(self):
        assert len(list(Z2_Z2.elements())) == 4
        assert list(FgGroup().elements()) == [()]
        assert list(Z3.elements()) == [(0,), (1,), (2,)]

    def test_distinct_and_canonical(self):
        g = FgGroup(0, (4, 2, 3))
        elems = list(g.elements())
        assert len(elems) == len(set(elems)) == g.order == 24
        assert all(g.canonical(a) == a for a in elems)

    def test_infinite_enumeration_rejected(self):
        with pytest.raises(InfiniteGroupError):
            Z.elements()

    def test_bounded_elements(self):
        assert list(Z.bounded_elements(2)) == [(-2,), (-1,), (0,), (1,), (2,)]
        assert sorted(Z2.bounded_elements(5)) == [(0,), (1,)]
        assert len(list(FgGroup(1, (7,)).bounded_elements(1))) == 3 * 3


class TestIntMatrix:
    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))

    def test_matmul_empty(self):
        a = IntMatrix.zeros(2, 0)
        b = IntMatrix.zeros(0, 3)
        assert (a @ b) == IntMatrix.zeros(2, 3)

    def test_det(self):
        assert IntMatrix.identity(3).det() == 1
        assert IntMatrix.from_rows([[2, -1], [0, 2]]).det() == 4
        assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
        assert IntMatrix.identity(0).det() == 1
        # a column with no pivot makes the determinant 0 at once
        assert IntMatrix.from_rows([[0, 1], [0, 2]]).det() == 0
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, 3).det()

    def test_det_against_permutation_expansion(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            )
            expected = sum(
                _perm_sign(p) * math.prod(m.entries[i][p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert m.det() == expected

    def test_transpose(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))
        assert IntMatrix.zeros(0, 3).transpose() == IntMatrix.zeros(3, 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(ValueError):
            IntMatrix(1, 2, ((1, 2, 3),))
        with pytest.raises(ValueError, match="non-negative"):
            IntMatrix(-1, 0, ())
        with pytest.raises(ValueError, match="column count is required"):
            IntMatrix.from_rows([])

    def test_matmul_rejections(self):
        a = IntMatrix.identity(2)
        with pytest.raises(TypeError):
            a @ 3
        with pytest.raises(ValueError, match="cannot multiply 2x2 by 3x3"):
            a @ IntMatrix.identity(3)

    def test_str(self):
        assert str(IntMatrix.from_rows([[1, -2], [3, 4]])) == "1 -2\n3 4"


def _perm_sign(p):
    sign = 1
    for i, j in itertools.combinations(range(len(p)), 2):
        if p[i] > p[j]:
            sign = -sign
    return sign


def assert_valid_snf(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    assert d.is_diagonal()
    diag = d.diagonal_entries()
    assert all(e >= 0 for e in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


class TestSmithNormalForm:
    def test_identity(self):
        _, d, _ = smith_normal_form(IntMatrix.identity(3))
        assert d == IntMatrix.identity(3)

    def test_derived_example(self):
        m = IntMatrix.from_rows([[2, -1], [0, 2]])
        diag = assert_valid_snf(m)
        assert diag == (1, 4)

    def test_zero_matrix(self):
        m = IntMatrix.zeros(2, 3)
        _, d, _ = smith_normal_form(m)
        assert d == m

    def test_empty_matrices(self):
        for m in [IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0)]:
            assert_valid_snf(m)

    def test_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(60):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            assert_valid_snf(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_snf_contract_hypothesis(self, rows, cols, data):
        entries = [
            [data.draw(st.integers(-20, 20)) for _ in range(cols)] for _ in range(rows)
        ]
        assert_valid_snf(IntMatrix.from_rows(entries))


class TestGroupFromRelations:
    def test_single_relation(self):
        rep = group_from_relations(1, IntMatrix.from_rows([[2]]))
        assert rep == GroupStructureReport(0, (2,))

    def test_derived_presentation(self):
        # 2a = b and 2b = 0 force a to generate a cyclic group of order 4
        rep = group_from_relations(2, IntMatrix.from_rows([[2, -1], [0, 2]]))
        assert rep == GroupStructureReport(0, (4,))
        assert rep.order == 4

    def test_free(self):
        rep = group_from_relations(1, IntMatrix.zeros(0, 1))
        assert rep == GroupStructureReport(1, ())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            group_from_relations(3, IntMatrix.from_rows([[2, 0]]))
        with pytest.raises(ValueError, match="non-negative"):
            group_from_relations(-1, IntMatrix.zeros(0, 0))

    def test_diagonal_presentations_match_crt_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            orders = [rng.randint(0, 12) for _ in range(rng.randint(0, 4))]
            rep = group_from_relations(
                len(orders), IntMatrix.diagonal(orders)
            )
            free, factors = _invariant_factors_by_crt(orders)
            assert rep.free_rank == free
            assert rep.invariant_factors == factors

    def test_order_matches_det(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            )
            rep = group_from_relations(n, m)
            det = m.det()
            if det:
                assert rep.order == abs(det)
            else:
                assert rep.free_rank > 0


def dense_smith_form(m):
    """The reference diagonal: a dense Smith normal form of all of m.

    Each step takes the smallest nonzero entry of the trailing submatrix as
    pivot, clears its row and column by gcd operations and folds in any row
    with an entry the pivot does not divide; it shares only ``_xgcd`` with
    the sparse elimination of the package.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]

    def row_op(i1, i2, x, y, z, w):
        # rows (r1, r2) <- (x r1 + y r2, z r1 + w r2); x*w - y*z = +-1
        r1, r2 = a[i1], a[i2]
        for j in range(nc):
            p, q = r1[j], r2[j]
            r1[j] = x * p + y * q
            r2[j] = z * p + w * q

    def col_op(j1, j2, x, y, z, w):
        for row in a:
            p, q = row[j1], row[j2]
            row[j1] = x * p + y * q
            row[j2] = z * p + w * q

    def clear(op, t, k, q):
        p = a[t][t]
        if p != 0 and q % p == 0:
            op(t, k, 1, 0, -(q // p), 1)
        else:
            g, x, y = _xgcd(p, q)
            op(t, k, x, y, -(q // g), p // g)

    for t in range(min(nr, nc)):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = a[i][j]
                if e != 0 and (pivot is None or abs(e) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_op(t, pivot[0], 0, 1, 1, 0)
        if pivot[1] != t:
            col_op(t, pivot[1], 0, 1, 1, 0)
        while True:
            for i in range(t + 1, nr):
                if a[i][t]:
                    clear(row_op, t, i, a[i][t])
            if any(a[t][j] for j in range(t + 1, nc)):
                for j in range(t + 1, nc):
                    if a[t][j]:
                        clear(col_op, t, j, a[t][j])
                if any(a[i][t] for i in range(t + 1, nr)):
                    continue
            d = a[t][t]
            offender = next(
                (i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % d),
                None,
            )
            if offender is None:
                break
            row_op(t, offender, 1, 1, 0, 1)
    return tuple(abs(a[t][t]) for t in range(min(nr, nc)))


def hand_written_oracle_rows(ring):
    """The reference formal presentation: each additive relation written out
    as dense rows on the unit, one column per line bundle and one per rank-2
    bundle, with the unit killed last."""
    h2, h4 = ring.h2, ring.h4
    xs = list(h2.elements())
    ys = list(h4.elements())
    unit = 0
    line_index = {x: 1 + i for i, x in enumerate(xs)}
    v_index = {y: 1 + len(xs) + i for i, y in enumerate(ys)}
    width = 1 + len(xs) + len(ys)
    rows = []

    def relation(*terms):
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
        relation((v_index[y], 1), (v_index[y2], 1), (unit, -2), (v_index[h4.add(y, y2)], -1))
    # L(x) + L(x') = L(x + x') + V(x x') - 1
    for x, x2 in itertools.product(xs, repeat=2):
        relation(
            (line_index[x], 1),
            (line_index[x2], 1),
            (line_index[h2.add(x, x2)], -1),
            (v_index[ring.cup(x, x2)], -1),
            (unit, 1),
        )
    relation((unit, 1))
    return rows


def snf_group(num_generators, m):
    """The reference solver: the diagonal of the dense Smith form of all of m."""
    diag = dense_smith_form(m)
    return GroupStructureReport(
        num_generators - sum(1 for e in diag if e), tuple(e for e in diag if e >= 2)
    )


@st.composite
def relation_matrices(draw):
    """Dense or sparse matrices with entries up to 10^4 in absolute value,
    zero rows, duplicate rows, rows that combine others (rank deficiency) and
    zero columns (a free part), in any order; 0 rows and 0 columns included."""
    cols = draw(st.integers(0, 6))
    bound = draw(st.sampled_from((1, 5, 10**4)))
    sparse = draw(st.booleans())

    def entry():
        if sparse and draw(st.integers(0, 3)):
            return 0
        return draw(st.integers(-bound, bound))

    rows = [[entry() for _ in range(cols)] for _ in range(draw(st.integers(0, 6)))]
    for j in draw(st.sets(st.integers(0, cols - 1))) if cols else ():
        for row in rows:
            row[j] = 0
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k, l = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([k * x + l * y for x, y in zip(a, b)])
        rows += [list(row) for row in draw(st.lists(st.sampled_from(rows), max_size=3))]
    rows += [[0] * cols for _ in range(draw(st.integers(0, 2)))]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return IntMatrix(len(rows), cols, rows)


# the extra shapes of the verify-battery benchmark workload (bench/workloads.py)
VERIFY_BATTERY_EXTRA_SHAPES = [
    ((2,), (2, 2, 2)), ((2, 2, 2), (2,)), ((3,), (3, 3)), ((3, 3), (3,)),
    ((4,), (8,)), ((8,), (4,)), ((6,), (6,)), ((2, 4), (2,)), ((2,), (2, 4)),
    ((6,), (3,)), ((3,), (6,)), ((5,), (5,)),
]


class TestGroupFromRelationsAgainstSmithForm:
    """The sparse elimination, with and without witnesses, against the dense
    reference Smith form of the whole matrix."""

    @settings(max_examples=300, deadline=None)
    @given(relation_matrices())
    @example(IntMatrix.zeros(0, 0))
    @example(IntMatrix.zeros(0, 4))
    @example(IntMatrix.zeros(3, 0))
    @example(IntMatrix.from_rows([[6, 4, 0], [6, 4, 0], [0, 0, 0], [-9, 3, 0], [0, 0, 0]]))
    def test_random_matrices(self, m):
        assert group_from_relations(m.cols, m) == snf_group(m.cols, m)
        assert assert_valid_snf(m) == dense_smith_form(m)

    @pytest.mark.parametrize("t2, t4", BATTERY_SHAPES + VERIFY_BATTERY_EXTRA_SHAPES)
    def test_oracle_matrices(self, monkeypatch, t2, t4):
        h2, h4 = FgGroup(0, t2), FgGroup(0, t4)
        form = random.Random(repr((t2, t4))).choice(list(all_valid_forms(h2, h4)))
        ring = make_ring(h2, h4, form)
        seen = []
        solve = oracle_module._solve_relations

        def recorded(num_generators, rows):
            seen.append((num_generators, rows))
            return solve(num_generators, rows)

        monkeypatch.setattr(oracle_module, "_solve_relations", recorded)
        report = oracle_module.oracle_reduced_group(ring)
        [(width, rows)] = seen
        m = IntMatrix.from_rows(
            ([row.get(j, 0) for j in range(width)] for row in rows), cols=width
        )
        assert report == snf_group(width, m)
        assert report.order == h2.order * h4.order
        reference = hand_written_oracle_rows(ring)
        assert len(reference[0]) == width

        def sparse(row):
            return frozenset((j, e) for j, e in enumerate(row) if e)

        assert Counter(map(sparse, m.entries)) == Counter(map(sparse, reference))

    def test_unused_generators_skip_the_smith_form(self, monkeypatch):
        # the solver keeps no witnesses, so it never builds the witnessed
        # Smith form; columns in no relation only add free rank
        monkeypatch.setattr(abelian_module, "smith_normal_form", None)
        assert group_from_relations(1001, IntMatrix.zeros(0, 1001)) == GroupStructureReport(1001)
        m = IntMatrix.from_rows([[2, -1, 0], [0, 2, 0], [2, -1, 0]])
        assert group_from_relations(3, m) == GroupStructureReport(1, (4,))


def _invariant_factors_by_crt(orders):
    """Independent oracle: split into prime powers, recombine largest-first."""
    free = sum(1 for n in orders if n == 0)
    primes = {}
    for n in orders:
        if n <= 1:
            continue
        for p in range(2, n + 1):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                primes.setdefault(p, []).append(e)
    chains = [sorted(v, reverse=True) for v in primes.values()]
    width = max((len(c) for c in chains), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p, exps in zip(primes, chains):
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return free, tuple(sorted(factors))


class TestGroupStructureReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupStructureReport(0, (1,))
        with pytest.raises(ValueError):
            GroupStructureReport(0, (4, 2))
        with pytest.raises(ValueError):
            GroupStructureReport(-1)

    def test_describe(self):
        assert GroupStructureReport(0, ()).describe() == "0"
        assert GroupStructureReport(1, (4,)).describe() == "Z ⊕ Z/4"
        assert GroupStructureReport(3, ()).describe() == "Z^3"
        assert str(GroupStructureReport(0, (2, 2))) == "Z/2 ⊕ Z/2"


# The element arithmetic as it stood before the coordinate orders moved into
# one cached table: each method sliced free and torsion coordinates itself.
# Kept as the reference the current methods must match, errors included.
def reference_canonical(g, coeffs):
    coeffs = tuple(coeffs)
    if len(coeffs) != g.ngens:
        raise ValueError(f"expected {g.ngens} coordinates for {g}, got {len(coeffs)}")
    free = coeffs[: g.free_rank]
    torsion = tuple(c % n for c, n in zip(coeffs[g.free_rank :], g.torsion_orders))
    return free + torsion


def reference_add(g, a, b):
    a, b = tuple(a), tuple(b)
    if len(a) != g.ngens or len(b) != g.ngens:
        raise ValueError(
            f"expected {g.ngens} coordinates for {g}, got {len(a)} and {len(b)}"
        )
    return reference_canonical(g, (x + y for x, y in zip(a, b)))


def reference_negate(g, a):
    return reference_canonical(g, (-x for x in tuple(a)))


def reference_scale(g, n, a):
    return reference_canonical(g, (n * x for x in tuple(a)))


def reference_element_order(g, a):
    a = reference_canonical(g, a)
    if any(a[: g.free_rank]):
        return None
    return math.lcm(
        *(n // math.gcd(n, c) for c, n in zip(a[g.free_rank :], g.torsion_orders))
    )


def reference_bounded_elements(g, bound):
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    box = range(-bound, bound + 1)
    ranges = [box] * g.free_rank
    for n in g.torsion_orders:
        ranges.append(sorted({c % n for c in box}))
    return itertools.product(*ranges)


def outcome(f, *args):
    """The value of f(*args), or the message of the ValueError it raises."""
    try:
        return "value", f(*args)
    except ValueError as err:
        return "error", str(err)


small_groups = st.builds(
    FgGroup, st.integers(0, 3), st.lists(st.integers(2, 12), max_size=4).map(tuple)
)
big_ints = st.integers(-(10**6), 10**6)


@st.composite
def group_and_coords(draw):
    """A group and two coordinate lists, usually of its length, sometimes not."""
    g = draw(small_groups)

    def coords():
        length = draw(st.one_of(st.just(g.ngens), st.integers(0, g.ngens + 2)))
        return draw(st.lists(big_ints, min_size=length, max_size=length))

    return g, coords(), coords()


class TestAgainstReferenceArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(group_and_coords(), big_ints, st.booleans())
    def test_element_methods(self, case, n, as_iterator):
        g, a, b = case
        # iterators are consumed by a call, so each call gets fresh ones
        wrap = iter if as_iterator else tuple
        pairs = [
            (g.canonical, reference_canonical, (a,)),
            (g.add, reference_add, (a, b)),
            (g.negate, reference_negate, (a,)),
            (g.element_order, reference_element_order, (a,)),
        ]
        for method, reference, args in pairs:
            assert outcome(method, *map(wrap, args)) == outcome(
                reference, g, *map(wrap, args)
            )
        assert outcome(g.scale, n, wrap(a)) == outcome(reference_scale, g, n, wrap(a))

    @settings(max_examples=100, deadline=None)
    @given(small_groups, st.integers(-2, 2))
    def test_bounded_elements(self, g, bound):
        def first(f, *args):
            return list(itertools.islice(f(*args), 2000))

        assert outcome(first, g.bounded_elements, bound) == outcome(
            first, reference_bounded_elements, g, bound
        )


# The element arithmetic as it stood before the compiled kernels: one generic
# reduction by the table of coordinate orders, after a length check.  Kept as
# the reference the kernels must match, errors included.
def loop_reduce(coords, moduli):
    return tuple([c % m if m else c for c, m in zip(coords, moduli)])


def loop_coords(g, coeffs):
    coeffs = tuple(coeffs)
    if len(coeffs) != g.ngens:
        raise ValueError(f"expected {g.ngens} coordinates for {g}, got {len(coeffs)}")
    return coeffs


def loop_moduli(g):
    return (0,) * g.free_rank + g.torsion_orders


def loop_canonical(g, coeffs):
    return loop_reduce(loop_coords(g, coeffs), loop_moduli(g))


def loop_add(g, a, b):
    a, b = tuple(a), tuple(b)
    if len(a) != g.ngens or len(b) != g.ngens:
        raise ValueError(
            f"expected {g.ngens} coordinates for {g}, got {len(a)} and {len(b)}"
        )
    return loop_reduce([x + y for x, y in zip(a, b)], loop_moduli(g))


def loop_negate(g, a):
    return loop_reduce([-x for x in loop_coords(g, a)], loop_moduli(g))


def loop_scale(g, n, a):
    return loop_reduce([n * x for x in loop_coords(g, a)], loop_moduli(g))


# mostly six-digit coordinates, and now and then one of a thousand digits
HUGE = (10**999 + 7, -(10**999) - 3, 7 * 10**998 + 1)
KERNEL_INTS = st.integers(-(10**6), 10**6) | st.sampled_from(HUGE)
KERNELS = ("_add_kernel", "_scale_kernel")


@st.composite
def kernel_cases(draw):
    """A group and two coordinate lists, usually of its length, sometimes not."""
    orders = draw(st.lists(st.integers(2, 12), max_size=3))
    g = FgGroup(draw(st.integers(0, 3)), tuple(orders))

    def coords():
        length = draw(st.one_of(st.just(g.ngens), st.integers(0, g.ngens + 2)))
        return draw(st.lists(KERNEL_INTS, min_size=length, max_size=length))

    return g, coords(), coords()


def use_every_kernel(g):
    a = tuple(range(g.ngens))
    return g.canonical(a), g.add(a, a), g.negate(a), g.scale(3, a)


class TestGroupKernels:
    """The compiled group arithmetic against the generic loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(), KERNEL_INTS, st.sampled_from([tuple, list, iter]))
    @example((FgGroup(), [], []), 5, iter)
    @example((FgGroup(), [HUGE[0]], []), 5, iter)
    def test_kernels_match_the_loop(self, case, n, wrap):
        g, a, b = case
        # an iterator is consumed by a call, so each call gets a fresh one
        cases = [
            (g.canonical, loop_canonical, (a,)),
            (g.add, loop_add, (a, b)),
            (g.negate, loop_negate, (a,)),
        ]
        for method, loop, args in cases:
            assert outcome(method, *map(wrap, args)) == outcome(loop, g, *map(wrap, args))
        assert outcome(g.scale, n, wrap(a)) == outcome(loop_scale, g, n, wrap(a))

    def test_one_compile_per_group_and_op(self, monkeypatch):
        compiled = Counter()
        real = abelian_module._compile

        def counted(group, op):
            compiled[group, op] += 1
            return real(group, op)

        monkeypatch.setattr(abelian_module, "_compile", counted)
        g = FgGroup(1, (2, 6))
        for _ in range(3):
            use_every_kernel(g)
        assert compiled == {(g, op): 1 for op in ("add", "scale")}
        # an equal group is another object, with kernels of its own
        use_every_kernel(FgGroup(1, (2, 6)))
        assert set(compiled.values()) == {2}

    def test_group_and_kernels_freed_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            g = FgGroup(2, (4, 6))
            results = use_every_kernel(g)
            refs = [weakref.ref(g)] + [weakref.ref(vars(g)[name]) for name in KERNELS]
            del g, results
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_groups_and_rings_with_kernels_pickle(self):
        g = FgGroup(1, (4,))
        results = use_every_kernel(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and not set(KERNELS) & set(vars(copy))
        assert use_every_kernel(copy) == results
        ring = make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (1,)})
        assert oracle_module.verify_relations(ring).ok
        assert set(KERNELS) <= set(vars(ring.h2)) and set(KERNELS) <= set(vars(ring.h4))
        copy = pickle.loads(pickle.dumps(ring))
        assert copy == ring and oracle_module.verify_relations(copy).ok
