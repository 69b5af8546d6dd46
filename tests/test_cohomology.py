import gc
import itertools
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfour import abelian, cohomology
from kfour.abelian import FgGroup
from kfour.cohomology import (
    CohomologyRing,
    CupForm,
    InvalidRingError,
    ValidationIssue,
    ValidationReport,
    validate_ring,
)
from kfour.dsl import ParseError, parse_ring
from kfour.kclasses import k_mul, line_class


def rp4():
    h2 = FgGroup(0, (2,))
    h4 = FgGroup(0, (2,))
    return CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, {(0, 0): (1,)}))


def cp2():
    h2 = FgGroup(1)
    h4 = FgGroup(1)
    return CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, {(0, 0): (1,)}))


def s4():
    return CohomologyRing(FgGroup(), FgGroup(1), CupForm.from_pairs(FgGroup(), FgGroup(1)))


def z4_z4():
    h2, h4 = FgGroup(0, (4, 4)), FgGroup(0, (4,))
    return CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, {(0, 1): (1,)}))


class TestValidation:
    def test_rp4_valid(self):
        assert validate_ring(rp4()).ok
        assert str(validate_ring(rp4())) == "valid"

    def test_torsion_violation(self):
        h2 = FgGroup(0, (2,))
        h4 = FgGroup(1)
        ring = CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, {(0, 0): (1,)}))
        report = validate_ring(ring)
        assert not report.ok
        assert [issue.kind for issue in report.issues] == ["torsion"]
        assert (report.issues[0].i, report.issues[0].j) == (0, 0)
        with pytest.raises(InvalidRingError):
            ring.require_valid()

    def test_symmetry_violation(self):
        h2 = FgGroup(0, (2, 2))
        h4 = FgGroup(0, (2,))
        table = CupForm(2, 1, (((0, 1), (1,)),))
        report = validate_ring(CohomologyRing(h2, h4, table))
        assert [issue.kind for issue in report.issues] == ["symmetry"]

    def test_from_pairs_rejects_conflicts(self):
        h2 = FgGroup(0, (2, 2))
        h4 = FgGroup(0, (2,))
        with pytest.raises(ValueError):
            CupForm.from_pairs(h2, h4, {(0, 1): (1,), (1, 0): (0,)})

    def test_from_pairs_rejects_an_index_out_of_range(self):
        h = FgGroup(0, (2,))
        with pytest.raises(ValueError, match="out of range"):
            CupForm.from_pairs(h, h, {(0, 1): (1,)})

    def test_from_pairs_fills_symmetric_entry(self):
        h2 = FgGroup(0, (2, 2))
        h4 = FgGroup(0, (2,))
        form = CupForm.from_pairs(h2, h4, {(0, 1): (1,)})
        assert form.entry(1, 0) == (1,)
        assert form.entry(0, 0) == (0,)

    def test_table_size_checked(self):
        with pytest.raises(ValueError):
            CohomologyRing(FgGroup(0, (2,)), FgGroup(0, (2,)), CupForm(0, 1, ()))

    def test_entry_length_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CohomologyRing(
                FgGroup(0, (2,)), FgGroup(0, (2, 2)), CupForm(1, 2, (((0, 0), (1,)),))
            )

    def test_validated_ring_is_not_kept_alive(self):
        # a shape no other test builds, so that no equal ring used earlier
        # can stand in for this one in a cache keyed by value
        h2, h4 = FgGroup(0, (2,)), FgGroup(0, (1009,))
        ring = CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4))
        assert validate_ring(ring).ok
        k_mul(ring, line_class(ring, (1,)), line_class(ring, (1,)))
        ref = weakref.ref(ring)
        del ring
        gc.collect()
        assert ref() is None


class TestCup:
    def test_rp4_square(self):
        ring = rp4()
        assert ring.cup((1,), (1,)) == (1,)
        assert ring.cup_square((1,)) == (1,)

    def test_zero_absorbs(self):
        for ring in [rp4(), cp2()]:
            b = ring.h2.canonical([1] * ring.h2.ngens)
            assert ring.cup(ring.h2.zero, b) == ring.h4.zero

    def test_bilinear_scaling_by_repeated_addition(self):
        # independent oracle: 2h * 3h must equal the generator square summed 6 times
        ring = cp2()
        expected = ring.h4.zero
        for _ in range(6):
            expected = ring.h4.add(expected, ring.cup_form.entry(0, 0))
        assert ring.cup((2,), (3,)) == expected == (6,)

    def test_square_of_multiple(self):
        assert cp2().cup_square((2,)) == (4,)

    def test_bilinearity_exhaustive_on_finite(self):
        h2 = FgGroup(0, (2, 4))
        h4 = FgGroup(0, (4,))
        ring = CohomologyRing(
            h2, h4, CupForm.from_pairs(h2, h4, {(0, 0): (2,), (0, 1): (2,), (1, 1): (1,)})
        )
        assert validate_ring(ring).ok
        elems = list(h2.elements())
        for a, a2, b in itertools.product(elems, repeat=3):
            left = ring.cup(h2.add(a, a2), b)
            right = h4.add(ring.cup(a, b), ring.cup(a2, b))
            assert left == right
        for a, b in itertools.product(elems, repeat=2):
            assert ring.cup(a, b) == ring.cup(b, a)

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
    def test_bilinearity_random_on_free(self, a, a2, b):
        ring = cp2()
        left = ring.cup((a + a2,), (b,))
        right = ring.h4.add(ring.cup((a,), (b,)), ring.cup((a2,), (b,)))
        assert left == right
        assert ring.cup((a,), (b,)) == ring.cup((b,), (a,))

    def test_scaling_small_multipliers(self):
        ring = rp4()
        h2, h4 = ring.h2, ring.h4
        for n in range(-8, 9):
            for a, b in itertools.product(h2.elements(), repeat=2):
                assert ring.cup(h2.scale(n, a), b) == h4.scale(n, ring.cup(a, b))

    def test_torsion_well_defined(self):
        # order-2 generator: cup(2e, b) must vanish however 2e is written
        ring = rp4()
        for b in ring.h2.elements():
            assert ring.cup(ring.h2.scale(2, (1,)), b) == ring.h4.zero
            assert ring.cup((0,), b) == ring.h4.zero

    def test_trivial_ring(self):
        ring = CohomologyRing(FgGroup(), FgGroup(), CupForm.from_pairs(FgGroup(), FgGroup()))
        assert validate_ring(ring).ok
        assert ring.cup((), ()) == ()
        assert ring.is_finite

    def test_s4_ring(self):
        ring = s4()
        assert validate_ring(ring).ok
        assert not ring.is_finite
        assert ring.cup((), ()) == (0,)

    @pytest.mark.parametrize("ring", [rp4, cp2, s4, z4_z4])
    def test_arguments_read_as_canonical_reads_them(self, ring):
        ring = ring()
        h2 = ring.h2
        x = tuple(range(1, h2.ngens + 1))
        long = x + (1,)
        # a wrong length gives canonical's message, for the first bad argument
        for a, b in [(long, x), (x, long), (long, long + (1,)), (long, long)]:
            bad = a if len(a) != h2.ngens else b
            with pytest.raises(ValueError) as expected:
                h2.canonical(bad)
            for call, args in [(ring.cup, (a, b)), (ring.cup, (iter(a), iter(b))),
                               (ring.cup_square, (iter(bad),))]:
                with pytest.raises(ValueError) as got:
                    call(*args)
                assert str(got.value) == str(expected.value)
        # an iterator is read once, also as both arguments of a square
        assert ring.cup(iter(x), iter(x)) == ring.cup(x, x)
        assert ring.cup_square(iter(x)) == ring.cup_square(list(x)) == ring.cup(x, x)
        it = iter(x)
        assert ring.cup(it, it) == ring.cup(x, x)

    def test_wrong_length_message(self):
        with pytest.raises(ValueError, match="^expected 2 coordinates for Z/4 ⊕ Z/4, got 3$"):
            z4_z4().cup((1, 0), iter((1, 2, 3)))

    def test_arguments_reduced_on_an_invalid_ring(self):
        # 2 cup(e, e) is not 0 here, so only reduced arguments give the table
        h2, h4 = FgGroup(0, (2,)), FgGroup(1)
        ring = CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, {(0, 0): (1,)}))
        assert not validate_ring(ring).ok
        assert ring.cup((3,), (-1,)) == ring.cup_square((5,)) == (1,)


class TestDirectForms:
    def test_malformed_forms_rejected(self):
        with pytest.raises(ValueError):
            CupForm(1, 1, (((0, 1), (1,)),))
        with pytest.raises(ValueError):
            CupForm(2, 1, (((0, 1), (1,)), ((0, 1), (1,))))
        with pytest.raises(ValueError):
            CohomologyRing(FgGroup(0, (2,)), FgGroup(0, (2, 2)), CupForm(1, 1, ()))


# The dense validation and canonicalisation of the cup table, kept as the
# reference for the sparse ones: every one of the p^2 ordered pairs is read,
# zeros included, and each entry is reduced by FgGroup.canonical.


def reference_table(h2, h4, pairs):
    table = [[h4.zero] * h2.ngens for _ in range(h2.ngens)]
    for (i, j), coeffs in pairs.items():
        table[i][j] = h4.canonical(coeffs)
    return table


def reference_validate(h2, h4, table):
    issues = []
    p = h2.ngens
    for i in range(p):
        for j in range(i + 1, p):
            if table[i][j] != table[j][i]:
                issues.append(
                    ValidationIssue(
                        "symmetry",
                        i,
                        j,
                        f"cup entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) differ",
                    )
                )
    for k, n in enumerate(h2.torsion_orders):
        i = h2.free_rank + k
        for j in range(p):
            if h4.scale(n, table[i][j]) != h4.zero:
                issues.append(
                    ValidationIssue(
                        "torsion",
                        i,
                        j,
                        f"generator {i + 1} of H^2 has order {n} but "
                        f"{n} * cup({i + 1}, {j + 1}) is nonzero in H^4",
                    )
                )
    return ValidationReport(tuple(issues))


ORDERS = st.lists(st.sampled_from([2, 3, 4]), max_size=2)


def moduli(group):
    return (0,) * group.free_rank + group.torsion_orders


def unreduced(draw, value, group):
    """value with each torsion coordinate moved by a multiple of its order."""
    return tuple(v + m * draw(st.integers(-2, 2)) for v, m in zip(value, moduli(group)))


@st.composite
def raw_pairs(draw, h2, h4):
    """Ordered pairs with unreduced values, each one-sided or mirrored by the
    same value, the same value unreduced, or another value; many are zero."""
    if not h2.ngens:
        return {}
    index = st.integers(0, h2.ngens - 1)
    values = st.tuples(*[st.integers(-4, 4)] * h4.ngens)
    pairs = {}
    for (i, j), value in draw(st.dictionaries(st.tuples(index, index), values, max_size=5)).items():
        pairs[(i, j)] = value
        mirror = draw(st.sampled_from(["none", "same", "unreduced", "other"]))
        if mirror == "same":
            pairs[(j, i)] = value
        elif mirror == "unreduced":
            pairs[(j, i)] = unreduced(draw, value, h4)
        elif mirror == "other":
            pairs[(j, i)] = draw(values)
    return pairs


class TestSparseFormMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_validation_and_equality(self, data):
        h2 = FgGroup(data.draw(st.integers(0, 2)), tuple(data.draw(ORDERS)))
        h4 = FgGroup(data.draw(st.integers(0, 2)), tuple(data.draw(ORDERS)))
        pairs = data.draw(raw_pairs(h2, h4))
        ring = CohomologyRing(h2, h4, CupForm(h2.ngens, h4.ngens, tuple(pairs.items())))
        table = reference_table(h2, h4, pairs)
        assert ring.validate() == reference_validate(h2, h4, table)
        # the same table written another way: values moved by multiples of
        # their orders, explicit zeros added, pairs listed in another order
        rewritten = {key: unreduced(data.draw, v, h4) for key, v in reversed(pairs.items())}
        if h2.ngens:
            index = st.integers(0, h2.ngens - 1)
            for i, j in data.draw(st.lists(st.tuples(index, index), max_size=2)):
                if not any(table[i][j]):
                    rewritten[(i, j)] = moduli(h4)
        for other_pairs in (rewritten, data.draw(raw_pairs(h2, h4))):
            other = CohomologyRing(
                h2, h4, CupForm(h2.ngens, h4.ngens, tuple(other_pairs.items()))
            )
            same = reference_table(h2, h4, other_pairs) == table
            assert (other == ring) == same
            if same:
                assert hash(other) == hash(ring)


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestReadingCompilesNoKernel:
    """Parsing, building and validating a ring compile no group or ring kernel."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        count = [0]
        for module in (abelian, cohomology):
            def counted(*args, real=module._compile):
                count[0] += 1
                return real(*args)

            monkeypatch.setattr(module, "_compile", counted)
        return count

    def test_golden_rings(self, compiles):
        parsed = 0
        for path in sorted(GOLDEN.glob("*.ring")):
            try:
                parse_ring(path.read_text(encoding="utf-8"))
            except ParseError:
                continue
            parsed += 1
            assert compiles[0] == 0, path.name
        assert parsed >= 6

    def test_one_entry_written_in_two_forms(self, compiles):
        # 1 and 3 are one class of H^4 = Z/2; 2 is another
        ring = parse_ring("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1\ncup 1 1 = 3\n")
        assert ring.cup_form.pairs == (((0, 0), (1,)),) and ring.validate().ok
        with pytest.raises(ParseError, match="conflicting cup entry"):
            parse_ring("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1\ncup 1 1 = 2\n")
        assert compiles[0] == 0

    def test_from_pairs_given_a_pair_and_its_mirror_in_two_forms(self, compiles):
        h2, h4 = FgGroup(0, (2, 2)), FgGroup(0, (2,))
        ring = CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, {(0, 1): (1,), (1, 0): (3,)}))
        assert ring.cup_form.pairs == (((0, 1), (1,)), ((1, 0), (1,))) and ring.validate().ok
        with pytest.raises(ValueError, match="conflicting cup entries"):
            CupForm.from_pairs(h2, h4, {(0, 1): (1,), (1, 0): (2,)})
        assert compiles[0] == 0
