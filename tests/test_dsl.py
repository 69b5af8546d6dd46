import re
from dataclasses import dataclass

import pytest
from conftest import EXPR_FUZZ_PIECES
from hypothesis import given, settings
from hypothesis import strategies as st

from kfour import cohomology, dsl
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

CP2_SOURCE = "H2 free 1 torsion\nH4 free 1 torsion\ncup 1 1 = 1\n"
# free and torsion generators in H^2 and H^4 alike
MIXED_SOURCE = """\
H2 free 1 torsion 2
H4 free 1 torsion 2
cup 1 1 = 1 1
cup 2 2 = 0 1
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

    def test_cost_independent_of_generator_count(self, monkeypatch):
        # the ring is built from its given entries, not from every pair of
        # generators, so a thousand unused generators cost no reductions
        calls = [0]
        canonical = FgGroup.canonical

        def counted(group, coeffs):
            calls[0] += 1
            return canonical(group, coeffs)

        reduce = cohomology._reduce

        def counted_reduce(coeffs, moduli):
            calls[0] += 1
            return reduce(coeffs, moduli)

        monkeypatch.setattr(FgGroup, "canonical", counted)
        monkeypatch.setattr(cohomology, "_reduce", counted_reduce)
        counts = []
        for p in (1, 1000):
            calls[0] = 0
            parse_ring(f"H2 free {p} torsion\nH4 free 1 torsion\ncup 1 1 = 1\n")
            counts.append(calls[0])
        assert counts == [1, 1]

    def test_each_cup_entry_reduced_once(self, monkeypatch):
        # the ring reduces each given entry, and the mirror of an off-diagonal
        # one shares its reduction; parsing itself reduces nothing
        reduced = []
        canonical, reduce = FgGroup.canonical, cohomology._reduce
        monkeypatch.setattr(
            FgGroup, "canonical", lambda g, c: reduced.append(c) or canonical(g, c)
        )
        monkeypatch.setattr(
            cohomology, "_reduce", lambda c, m: reduced.append(c) or reduce(c, m)
        )
        ring = parse_ring(
            "H2 free 0 torsion 2 2\nH4 free 0 torsion 2 2\n"
            "cup 1 1 = 3 0\ncup 2 1 = 0 -1\ncup 2 2 = 1 1\n"
        )
        assert sorted(reduced) == [(0, -1), (1, 1), (3, 0)]
        assert ring.cup_form.pairs == (
            ((0, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (0, 1)), ((1, 1), (1, 1))
        )


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


@st.composite
def ring_and_expression(draw):
    """A ring, and a small expression over it of literals, L, V, + - * and unary minus."""
    ring = parse_ring(draw(st.sampled_from([RP4_SOURCE, CP2_SOURCE, MIXED_SOURCE])))

    def vector(name, group):
        coords = st.lists(st.integers(-3, 3), min_size=group.ngens, max_size=group.ngens)
        return coords.map(lambda c: f"{name}([{','.join(map(str, c))}])")

    atoms = st.one_of(
        st.integers(0, 4).map(str), vector("L", ring.h2), vector("V", ring.h4)
    )
    expressions = st.recursive(
        atoms,
        lambda e: st.one_of(
            st.tuples(e, st.sampled_from("+-*"), e).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            e.map(lambda t: f"-{t}"),
        ),
        max_leaves=4,
    )
    return ring, draw(expressions)


@settings(max_examples=200, deadline=None)
@given(ring_and_expression(), st.integers(0, 8))
def test_power_is_the_product_chain(ring_expr, n):
    ring, e = ring_expr
    chain = "*".join([f"({e})"] * n) or "1"
    assert eval_expr(ring, f"({e})^{n}") == eval_expr(ring, chain)


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
        ring = parse_ring(CP2_SOURCE)
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
            # the rank fits, but the decomposition's n = rank - 3 has 4301 digits
            pytest.param("-" + "9" * 4300, 1, 1, id="decomposition-over-digit-limit"),
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
        ring = parse_ring(CP2_SOURCE)
        value = eval_expr(ring, "(L([1]) + 1)^7130")
        assert value == k_pow(ring, line_class(ring, (1,)) + 1, 7130)
        assert len(str(value.c2[0])) == 4300
        with pytest.raises(ParseError) as err:
            eval_expr(ring, "(L([1]) + 1)^7131")
        assert position(err) == (1, 14)

    def test_rank_too_large_is_refused_before_computing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the power was computed")

        monkeypatch.setattr(dsl, "k_pow", refuse)
        # refused up front from n = 14288, past (4300 + 1) / log10(2) = 14287.6
        for text in ("V([0])^100000000", "3^" + "9" * 4000, "V([0]) ^ 14289"):
            with pytest.raises(ParseError, match="power too large"):
                eval_expr(self.rp4, text)

    def test_power_refused_only_by_its_exact_value(self):
        # a bound that ignored cancellation refused both of these powers
        ring = parse_ring(CP2_SOURCE)
        x = 10**2200
        value = eval_expr(ring, f"L([{x}])^2")
        assert value == eval_expr(ring, f"L([{x}]) * L([{x}])")
        assert value == line_class(ring, (2 * x,))
        # rank -1: c2 = (C(-n, 2) - C(n, 2)) x^2 = n x^2 has 4201 digits
        n, x = 10**200, 10**2000
        value = eval_expr(ring, f"(L([{x}]) - 2)^{n}")
        assert value == KClass(ring, 1, (-n * x,), (n * x * x,))
        assert len(str(value.c2[0])) == 4201

    def test_multiline_positions(self):
        with pytest.raises(ParseError) as err:
            eval_expr(self.rp4, "1 +\n+ $")
        assert err.value.line == 2

    def test_success_computes_no_position(self, monkeypatch):
        def refuse(text, offset):
            raise AssertionError("a position was computed")

        monkeypatch.setattr(dsl, "_line_col", refuse)
        cp2 = parse_ring(CP2_SOURCE)
        rp4_expressions = [
            "(L([1])-1)^2 + 2*(L([1])-1)", "L([1])", "V([1])", "L([1]) - 1",
            "(L([1]) - 1)^2 + 2*(L([1]) - 1)", "L([0]) * V([0])", "1 + 2 * 3",
            "(1 + 2) * 3", "2 * 2 ^ 3", "-2 ^ 2", "2 - 1 - 1", "2 ^ 2 ^ 3",
            "L([1]) * V([1])", "1 +\r\n\u2028 L([1])\x1f",
        ]
        cp2_expressions = [
            *(f"(L([1]) - 1)^{n}" for n in range(4)), "2 - V([1])", "1",
            "L([1]) - 1", "L([-2])", "(L([1]) + 1)^7130",
        ]
        for ring, texts in ((self.rp4, rp4_expressions), (cp2, cp2_expressions)):
            for text in texts:
                eval_expr(ring, text)
        with pytest.raises(AssertionError):
            eval_expr(self.rp4, "1 +")


# The expression tokenizer as it stood when each token was an object that
# carried its kind and position, computed line by line.  Kept as the
# reference for the token strings of the parser and for the positions it
# works out on an error.
@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "punct", "end"
    text: str
    line: int
    col: int


_REFERENCE_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[()\[\],+\-*^]|\S")


def reference_tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for m in _REFERENCE_TOKEN.finditer(line):
            piece = m.group()
            col = m.start() + 1
            if piece.isascii() and piece.isdigit():
                kind = "int"
            elif piece[0].isalpha() or piece[0] == "_":
                kind = "name"
            elif piece in "()[],+-*^":
                kind = "punct"
            else:
                raise ParseError(f"unexpected character '{piece}'", lineno, col)
            tokens.append(_Token(kind, piece, lineno, col))
    last_line = max(1, len(text.splitlines()))
    end_col = len(text.splitlines()[-1]) + 1 if text.splitlines() else 1
    tokens.append(_Token("end", "", last_line, end_col))
    return tokens


def token_kind(tok):
    """A token string's kind, by the parser's rules."""
    if not tok:
        return "end"
    if tok.isdigit():
        return "int"
    if tok[0].isalpha() or tok[0] == "_":
        return "name"
    return "punct"


class TestTokensAgainstReference:
    rp4 = parse_ring(RP4_SOURCE)

    def assert_matches_reference(self, text):
        try:
            expected = reference_tokenize(text)
        except ParseError as ref_err:
            with pytest.raises(ParseError) as err:
                dsl._ExprParser(self.rp4, text)
            assert (str(err.value), err.value.message, position(err)) == (
                str(ref_err), ref_err.message, (ref_err.line, ref_err.col)
            )
            return
        parser = dsl._ExprParser(self.rp4, text)
        assert parser.tokens == [tok.text for tok in expected]
        assert [token_kind(tok) for tok in parser.tokens] == [tok.kind for tok in expected]
        positions = [parser.position(i) for i in range(len(parser.tokens))]
        assert positions == [(tok.line, tok.col) for tok in expected]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(EXPR_FUZZ_PIECES), max_size=40).map("".join))
    def test_tokens_positions_and_errors(self, text):
        self.assert_matches_reference(text)

    @pytest.mark.parametrize(
        "text, end", [("", (1, 1)), ("\n", (1, 1)), ("a\n", (1, 2)), ("a\r\nb", (2, 2))]
    )
    def test_end_position(self, text, end):
        self.assert_matches_reference(text)
        parser = dsl._ExprParser(self.rp4, text)
        assert parser.position(len(parser.tokens) - 1) == end

    def test_line_breaks_are_whitespace(self):
        # so that no token spans a line break
        breaks = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        assert "".join(f"x{c}" for c in breaks).splitlines() == ["x"] * len(breaks)
        assert all(re.fullmatch(r"\s", c) for c in breaks)
