import pytest

from kfour.abelian import FgGroup
from kfour.cohomology import CohomologyRing, CupForm
from kfour.dsl import MAX_NESTING, ParseError, eval_expr, parse_ring, serialize_ring
from kfour.kclasses import KClass, integer_class, k_mul, k_pow, line_class, rank2_class

RP4_SOURCE = """\
# real projective 4-space
H2 free 0 torsion 2
H4 free 0 torsion 2
cup 1 1 = 1
"""


def make_ring(h2, h4, pairs=None):
    return CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, pairs))


def position(err):
    return err.value.line, err.value.col


class TestParseRing:
    def test_rp4(self):
        ring = parse_ring(RP4_SOURCE)
        assert ring.h2 == FgGroup(0, (2,))
        assert ring.h4 == FgGroup(0, (2,))
        assert ring.cup((1,), (1,)) == (1,)

    def test_trivial_ring(self):
        ring = parse_ring("H2 free 0 torsion\nH4 free 0 torsion\n")
        assert ring.h2 == FgGroup()
        assert ring.h4 == FgGroup()

    def test_format_line(self):
        ring = parse_ring("format 1\n" + RP4_SOURCE)
        assert ring == parse_ring(RP4_SOURCE)

    def test_unsupported_format_version(self):
        with pytest.raises(ParseError) as err:
            parse_ring("format 2\n" + RP4_SOURCE)
        assert position(err) == (1, 8)

    def test_format_must_be_first(self):
        source = "H2 free 0 torsion\nformat 1\nH4 free 0 torsion\n"
        with pytest.raises(ParseError) as err:
            parse_ring(source)
        assert position(err) == (2, 1)

    def test_torsion_compatibility_rejected_with_position(self):
        source = "H2 free 0 torsion 2\nH4 free 1 torsion\ncup 1 1 = 1\n"
        with pytest.raises(ParseError) as err:
            parse_ring(source)
        assert position(err) == (3, 1)
        assert "order 2" in err.value.message

    def test_cup_symmetry_autofilled(self):
        source = (
            "H2 free 0 torsion 2 2\nH4 free 0 torsion 2\n"
            "cup 1 2 = 1\ncup 1 1 = 1\n"
        )
        ring = parse_ring(source)
        assert ring.cup_form.entry(1, 0) == (1,)

    def test_consistent_duplicate_allowed(self):
        source = (
            "H2 free 0 torsion 2 2\nH4 free 0 torsion 2\n"
            "cup 1 2 = 1\ncup 2 1 = 1\n"
        )
        assert parse_ring(source).cup_form.entry(0, 1) == (1,)

    def test_conflicting_duplicate_rejected(self):
        source = (
            "H2 free 0 torsion 2 2\nH4 free 0 torsion 2\n"
            "cup 1 2 = 1\ncup 2 1 = 0\n"
        )
        with pytest.raises(ParseError) as err:
            parse_ring(source)
        assert position(err) == (4, 1)

    @pytest.mark.parametrize(
        "source, line, col",
        [
            ("H2 complicated\nH4 free 0 torsion\n", 1, 4),
            ("H2 free x torsion\nH4 free 0 torsion\n", 1, 9),
            ("H2 free 0 torsion 1\nH4 free 0 torsion\n", 1, 19),
            ("H2 free -1 torsion\nH4 free 0 torsion\n", 1, 9),
            ("H2 free 0 torsion\nH4 free 0 torsion\nbogus 1\n", 3, 1),
            ("H2 free 0 torsion\nH2 free 0 torsion\n", 2, 1),
            ("H2 free 0 torsion 2\nH4 free 0 torsion\ncup 2 1 =\n", 3, 5),
            ("cup 1 1 = 1\nH2 free 0 torsion 2\nH4 free 0 torsion 2\n", 1, 1),
            ("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1 7\n", 3, 13),
            ("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 =\n", 3, 10),
            ("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 1\n", 3, 9),
            ("H2 free 0 torsion 2 wide\nH4 free 0 torsion\n", 1, 21),
            pytest.param(
                "H2 free 0 torsion " + "1" * 5000 + "\nH4 free 0 torsion\n", 1, 19,
                id="literal-over-digit-limit",
            ),
        ],
    )
    def test_malformed_inputs_have_positions(self, source, line, col):
        with pytest.raises(ParseError) as err:
            parse_ring(source)
        assert position(err) == (line, col)

    def test_missing_declarations(self):
        with pytest.raises(ParseError) as err:
            parse_ring("")
        assert err.value.message == "missing H2 declaration"
        with pytest.raises(ParseError) as err:
            parse_ring("H2 free 1 torsion\n# only half the data\n")
        assert err.value.message == "missing H4 declaration"
        assert position(err) == (3, 1)

    def test_comments_and_blank_lines_ignored(self):
        source = "\n\n# intro\nH2 free 0 torsion 2  # inline\n\nH4 free 0 torsion 2\ncup 1 1 = 1\n"
        assert parse_ring(source) == parse_ring(RP4_SOURCE)


class TestSerializeRing:
    def rings(self):
        yield parse_ring(RP4_SOURCE)
        yield make_ring(FgGroup(), FgGroup())
        yield make_ring(FgGroup(1), FgGroup(1), {(0, 0): (1,)})
        yield make_ring(FgGroup(1, (2, 4)), FgGroup(0, (2, 8)),
                        {(1, 1): (1, 0), (1, 2): (0, 4), (2, 2): (1, 4)})
        yield make_ring(FgGroup(), FgGroup(2, (3,)))

    def test_round_trip(self):
        for ring in self.rings():
            assert ring.validate().ok
            assert parse_ring(serialize_ring(ring)) == ring

    def test_canonical_and_idempotent(self):
        noisy = "# comment\nH4 free 0 torsion 2\nH2 free 0  torsion   2\ncup  1 1  = 3\n"
        ring = parse_ring(noisy)
        text = serialize_ring(ring)
        assert text == "format 1\nH2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1\n"
        assert serialize_ring(parse_ring(text)) == text

    def test_trivial_ring_source(self):
        ring = make_ring(FgGroup(), FgGroup())
        assert serialize_ring(ring) == "format 1\nH2 free 0 torsion\nH4 free 0 torsion\n"


class TestEvalExpr:
    def setup_method(self):
        self.rp4 = parse_ring(RP4_SOURCE)

    def test_reduced_line_class(self):
        u = eval_expr(self.rp4, "L([1]) - 1")
        assert u == KClass(self.rp4, 0, (1,), (0,))

    def test_square_relation(self):
        value = eval_expr(self.rp4, "(L([1]) - 1)^2 + 2*(L([1]) - 1)")
        assert value == integer_class(self.rp4, 0)

    def test_unit_law(self):
        value = eval_expr(self.rp4, "L([0]) * V([0])")
        assert value == integer_class(self.rp4, 2)

    def test_precedence(self):
        r = self.rp4
        assert eval_expr(r, "1 + 2 * 3") == integer_class(r, 7)
        assert eval_expr(r, "(1 + 2) * 3") == integer_class(r, 9)
        assert eval_expr(r, "2 * 2 ^ 3") == integer_class(r, 16)
        assert eval_expr(r, "-2 ^ 2") == integer_class(r, -4)
        assert eval_expr(r, "2 - 1 - 1") == integer_class(r, 0)

    def test_power_chains_left(self):
        r = self.rp4
        assert eval_expr(r, "2 ^ 2 ^ 3") == integer_class(r, 64)

    def test_matches_direct_evaluation(self):
        r = self.rp4
        expected = k_mul(r, line_class(r, (1,)), rank2_class(r, (1,)))
        assert eval_expr(r, "L([1]) * V([1])") == expected

    def test_negative_coordinates(self):
        ring = parse_ring("H2 free 1 torsion\nH4 free 1 torsion\ncup 1 1 = 1\n")
        assert eval_expr(ring, "L([-2])") == line_class(ring, (-2,))

    def test_empty_coordinate_lists(self):
        ring = parse_ring("H2 free 0 torsion\nH4 free 1 torsion\n")
        assert eval_expr(ring, "V([3]) - L([])") == KClass(ring, 1, (), (3,))

    @pytest.mark.parametrize(
        "expr, line, col",
        [
            ("L([1,2])", 1, 3),
            ("V([])", 1, 3),
            ("W([1])", 1, 1),
            ("L(1)", 1, 3),
            ("1 +", 1, 4),
            ("(1", 1, 3),
            ("1 ^ -2", 1, 5),
            ("1 ^ x", 1, 5),
            ("L([1]) V([1])", 1, 8),
            ("$", 1, 1),
            ("L([1,])", 1, 6),
            ("", 1, 1),
            ("L([1])^²", 1, 8),
            pytest.param("1 + " + "9" * 5000, 1, 5, id="literal-over-digit-limit"),
            pytest.param("(" * 3000 + "1" + ")" * 3000, 1, MAX_NESTING + 1,
                         id="nesting-over-cap"),
            pytest.param("V([0])^100000000", 1, 8, id="power-over-digit-limit"),
            # 2^14285 has 4301 digits
            pytest.param("V([0]) ^ 14285", 1, 10, id="power-one-digit-over"),
            pytest.param("9^4000 * 9^4000", 1, 8, id="product-over-digit-limit"),
        ],
    )
    def test_expression_errors_have_positions(self, expr, line, col):
        with pytest.raises(ParseError) as err:
            eval_expr(self.rp4, expr)
        assert position(err) == (line, col)

    def test_nesting_up_to_the_cap(self):
        text = "(" * MAX_NESTING + "L([1])" + ")" * MAX_NESTING
        assert eval_expr(self.rp4, text) == line_class(self.rp4, (1,))

    def test_long_run_of_minus_signs(self):
        assert eval_expr(self.rp4, "-" * 5001 + "L([1])") == -line_class(self.rp4, (1,))

    def test_power_just_under_digit_limit(self):
        # 2^14284 has 4300 digits, the interpreter's default limit
        value = eval_expr(self.rp4, "V([0])^14284")
        assert value == integer_class(self.rp4, 2**14284)
        assert len(str(value.rank)) == 4300

    def test_power_bound_covers_c2(self):
        # on CP^2 the rank of (L + 1)^n has about 0.3 n digits and its c2
        # about 0.6 n, so c2 is what passes the limit first, at n = 7131
        ring = parse_ring("H2 free 1 torsion\nH4 free 1 torsion\ncup 1 1 = 1\n")
        value = eval_expr(ring, "(L([1]) + 1)^7130")
        assert value == k_pow(ring, line_class(ring, (1,)) + 1, 7130)
        assert len(str(value.c2[0])) == 4300
        with pytest.raises(ParseError) as err:
            eval_expr(ring, "(L([1]) + 1)^7131")
        assert position(err) == (1, 14)

    def test_multiline_positions(self):
        with pytest.raises(ParseError) as err:
            eval_expr(self.rp4, "1 +\n+ $")
        assert err.value.line == 2
