"""Text formats: the ring description file and the class-expression grammar.

Ring files are line oriented, whitespace insensitive, with '#' comments::

    format 1                      # optional version marker
    H2 free 1 torsion 2 4         # Z (+) Z/2 (+) Z/4; torsion list may be empty
    H4 free 0 torsion 2
    cup 1 1 = 1                   # coordinates of (gen i) * (gen j) over H4
    cup 1 2 = 0                   # generators are 1-based, free ones first

Pairs not mentioned are zero; ``cup i j`` also fills ``cup j i``; repeating a
pair is allowed only with the same value.  Parsing validates the resulting
ring and reports the offending line and column on any failure.

Expressions combine the two bundle constructors with ring arithmetic::

    (L([1]) - 1)^2 + 2*(L([1]) - 1)

``L([k1,...,kp])`` / ``V([k1,...,kq])`` take coordinate lists over the H^2 /
H^4 generators, integer literals are ASCII digits of any length the
interpreter converts (a longer one is a ParseError), and ``^`` (non-negative
integer exponent only) binds tighter than ``*``, which binds tighter than
``+`` and ``-``.  Parentheses nest at most ``MAX_NESTING`` deep, and every
value must stay printable: a power whose coordinates would pass the
interpreter's digit limit is refused before it is computed, and any other
operation whose result passes it is refused at its operator.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass

from .abelian import FgGroup
from .cohomology import CohomologyRing, CupForm, validate_ring
from .kclasses import (
    KClass,
    integer_class,
    k_add,
    k_mul,
    k_neg,
    k_pow,
    line_class,
    rank2_class,
)

__all__ = ["ParseError", "eval_expr", "parse_ring", "serialize_ring"]

FORMAT_VERSION = 1
MAX_NESTING = 100  # parenthesis depth; each level costs a few stack frames


class ParseError(ValueError):
    """A syntax or validation failure, with its 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _int_literal(text: str, line: int, col: int) -> int:
    """``int(text)`` for a token already known to be an integer literal."""
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        digits = len(text.lstrip("+-"))
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"integer literal too long ({digits} digits; the limit is {limit})",
            line,
            col,
        ) from None


# ---------------------------------------------------------------------------
# ring files

_INT_RE = re.compile(r"[+-]?\d+$")


def _tokenize_line(raw: str) -> list[tuple[str, int]]:
    hash_index = raw.find("#")
    text = raw if hash_index < 0 else raw[:hash_index]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text)]


class _LineParser:
    def __init__(self, tokens: list[tuple[str, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    @property
    def end_col(self) -> int:
        if self.tokens:
            tok, col = self.tokens[-1]
            return col + len(tok)
        return 1

    def error(self, message: str, col: int | None = None) -> ParseError:
        if col is None:
            col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.end_col
        return ParseError(message, self.lineno, col)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, what: str) -> tuple[str, int]:
        if self.done():
            raise self.error(f"expected {what} at end of line")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def keyword(self, word: str) -> None:
        tok, col = self.take(f"keyword '{word}'")
        if tok != word:
            raise ParseError(f"expected keyword '{word}', got '{tok}'", self.lineno, col)

    def integer(self, what: str) -> tuple[int, int]:
        tok, col = self.take(what)
        if not _INT_RE.match(tok):
            raise ParseError(f"expected {what}, got '{tok}'", self.lineno, col)
        return _int_literal(tok, self.lineno, col), col

    def rest_integers(self, what: str) -> list[tuple[int, int]]:
        values = []
        while not self.done():
            values.append(self.integer(what))
        return values


def _parse_group_line(parser: _LineParser) -> FgGroup:
    parser.keyword("free")
    free, col = parser.integer("free rank")
    if free < 0:
        raise parser.error("free rank must be non-negative", col)
    parser.keyword("torsion")
    orders = []
    for n, col in parser.rest_integers("torsion order"):
        if n < 2:
            raise ParseError(
                f"torsion orders must be >= 2, got {n}", parser.lineno, col
            )
        orders.append(n)
    return FgGroup(free, tuple(orders))


def parse_ring(text: str) -> CohomologyRing:
    """Parse and validate a ring description; raise ParseError with position."""
    h2: FgGroup | None = None
    h4: FgGroup | None = None
    cup_entries: dict[tuple[int, int], tuple[int, ...]] = {}
    entry_position: dict[tuple[int, int], tuple[int, int]] = {}
    first_directive_seen = False

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno)
        head, head_col = parser.take("directive")
        if head == "format":
            if first_directive_seen:
                raise parser.error("'format' must be the first directive", head_col)
            version, col = parser.integer("format version")
            if version != FORMAT_VERSION:
                raise ParseError(
                    f"unsupported format version {version}", lineno, col
                )
        elif head in ("H2", "H4"):
            if (h2 if head == "H2" else h4) is not None:
                raise parser.error(f"duplicate {head} declaration", head_col)
            group = _parse_group_line(parser)
            if head == "H2":
                h2 = group
            else:
                h4 = group
        elif head == "cup":
            if h2 is None or h4 is None:
                raise parser.error(
                    "cup entries must come after the H2 and H4 declarations", head_col
                )
            i, col_i = parser.integer("H2 generator index")
            j, col_j = parser.integer("H2 generator index")
            for index, col in ((i, col_i), (j, col_j)):
                if not 1 <= index <= h2.ngens:
                    raise ParseError(
                        f"H2 generator index {index} out of range 1..{h2.ngens}",
                        lineno,
                        col,
                    )
            eq, col_eq = parser.take("'='")
            if eq != "=":
                raise ParseError(f"expected '=', got '{eq}'", lineno, col_eq)
            coords = parser.rest_integers("H4 coordinate")
            if len(coords) != h4.ngens:
                raise ParseError(
                    f"expected {h4.ngens} H4 coordinates, got {len(coords)}",
                    lineno,
                    coords[h4.ngens][1] if len(coords) > h4.ngens else parser.end_col,
                )
            value = h4.canonical(c for c, _ in coords)
            key = (min(i, j) - 1, max(i, j) - 1)
            if key in cup_entries and cup_entries[key] != value:
                raise ParseError(
                    f"conflicting cup entry for generators {key[0] + 1} {key[1] + 1}",
                    lineno,
                    head_col,
                )
            cup_entries[key] = value
            entry_position.setdefault(key, (lineno, head_col))
        else:
            raise ParseError(f"unknown directive '{head}'", lineno, head_col)
        if not parser.done():
            tok, col = parser.tokens[parser.pos]
            raise ParseError(f"unexpected trailing token '{tok}'", lineno, col)
        first_directive_seen = True

    end_line = len(lines) + 1
    if h2 is None:
        raise ParseError("missing H2 declaration", end_line, 1)
    if h4 is None:
        raise ParseError("missing H4 declaration", end_line, 1)

    ring = CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, cup_entries))
    report = validate_ring(ring)
    if not report.ok:
        issue = report.issues[0]
        key = (min(issue.i, issue.j), max(issue.i, issue.j))
        line, col = entry_position.get(key, (end_line, 1))
        suffix = "" if len(report.issues) == 1 else f" ({len(report.issues)} issues total)"
        raise ParseError(f"{issue.message}{suffix}", line, col)
    return ring


def serialize_ring(ring: CohomologyRing) -> str:
    """Canonical source text; parse_ring(serialize_ring(r)) == r."""
    ring.require_valid()

    def group_line(name: str, group: FgGroup) -> str:
        parts = [name, "free", str(group.free_rank), "torsion"]
        parts.extend(str(n) for n in group.torsion_orders)
        return " ".join(parts)

    lines = [
        f"format {FORMAT_VERSION}",
        group_line("H2", ring.h2),
        group_line("H4", ring.h4),
    ]
    p = ring.h2.ngens
    for i in range(p):
        for j in range(i, p):
            entry = ring.cup_form.entry(i, j)
            if entry != ring.h4.zero:
                coords = " ".join(str(c) for c in entry)
                lines.append(f"cup {i + 1} {j + 1} = {coords}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# expressions

@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "punct", "end"
    text: str
    line: int
    col: int


_EXPR_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[()\[\],+\-*^]|\S")


def _tokenize_expr(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for m in _EXPR_TOKEN.finditer(line):
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


@functools.lru_cache(maxsize=1)
def _power_of_ten(digits: int) -> int:
    return 10**digits  # some 50 us at the default limit, so kept


class _ExprParser:
    def __init__(self, ring: CohomologyRing, tokens: list[_Token]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        # values must stay printable: str() refuses ints over ``limit`` digits
        # (0 means no limit), which is every magnitude from ``too_big`` on
        self.limit = sys.get_int_max_str_digits()
        self.too_big = _power_of_ten(self.limit) if self.limit else None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            got = "end of input" if tok.kind == "end" else f"'{tok.text}'"
            raise ParseError(f"expected '{text}', got {got}", tok.line, tok.col)
        return tok

    def parse(self) -> KClass:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing token '{tok.text}'", tok.line, tok.col)
        return value

    def fits(self, *values: int) -> bool:
        return self.too_big is None or max(map(abs, values)) < self.too_big

    def apply(self, op_tok: _Token, op, *operands: KClass) -> KClass:
        """``op(ring, *operands)``, refused at its operator if it is unprintable."""
        value = op(self.ring, *operands)
        if not self.fits(value.rank, *value.c1, *value.c2):
            raise ParseError(
                f"result has a coordinate over {self.limit} digits",
                op_tok.line,
                op_tok.col,
            )
        return value

    def expr(self) -> KClass:
        value = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next()
            rhs = self.term()
            if op.text == "-":
                rhs = self.apply(op, k_neg, rhs)
            value = self.apply(op, k_add, value, rhs)
        return value

    def term(self) -> KClass:
        value = self.unary()
        while self.peek().text == "*":
            op = self.next()
            value = self.apply(op, k_mul, value, self.unary())
        return value

    def unary(self) -> KClass:
        # iterative, so a long run of minus signs cannot exhaust the stack
        signs = []
        while self.peek().text == "-":
            signs.append(self.next())
        value = self.power()
        for op in reversed(signs):
            value = self.apply(op, k_neg, value)
        return value

    def power(self) -> KClass:
        value = self.atom()
        while self.peek().text == "^":
            self.next()
            tok = self.next()
            if tok.kind != "int":
                raise ParseError(
                    "exponent must be a non-negative integer literal", tok.line, tok.col
                )
            exponent = _int_literal(tok.text, tok.line, tok.col)
            if not self.power_fits(value, exponent):
                raise ParseError(
                    f"power too large: a coordinate would pass {self.limit} digits",
                    tok.line,
                    tok.col,
                )
            value = k_pow(self.ring, value, exponent)
        return value

    def power_fits(self, a: KClass, n: int) -> bool:
        """Whether an upper bound on the coordinates of a^n fits the limit.

        With a = r + u, where u = a - r has rank 0, u^2 = (0, 0, -c1^2) and
        u^3 = 0, so a^n = r^n + m u + k u^2 with m = n r^(n-1) and
        k = C(n, 2) r^(n-2): the rank is r^n, c1 is m c1(a) and c2 is
        m c2(a) + (C(m, 2) - k) c1(a)^2.  Torsion coordinates are reduced,
        so only free ones are bounded; a cup with a torsion generator has no
        free part, so c1(a)^2 is bounded by the free block of the cup form.
        """
        if self.too_big is None or n < 2:
            return True
        r = abs(a.rank)
        # a rank past the limit by a digit needs no exact bound, which could
        # itself be too large to compute
        if r > 1 and n > (self.limit + 1) / math.log10(r):
            return False
        f2, f4 = self.ring.h2.free_rank, self.ring.h4.free_rank
        x = max(map(abs, a.c1[:f2]), default=0)
        y = max(map(abs, a.c2[:f4]), default=0)
        entries = self.ring.cup_form.entries[:f2]
        q = x * x * sum(abs(v) for row in entries for e in row[:f2] for v in e[:f4])
        m = n * r ** (n - 1)
        k = n * (n - 1) // 2 * r ** (n - 2)
        return self.fits(r**n, m * x, m * y + ((m * m + m) // 2 + k) * q)

    def atom(self) -> KClass:
        tok = self.next()
        if tok.kind == "int":
            return integer_class(self.ring, _int_literal(tok.text, tok.line, tok.col))
        if tok.kind == "name":
            if tok.text == "L":
                return line_class(self.ring, self.vector(self.ring.h2, tok))
            if tok.text == "V":
                return rank2_class(self.ring, self.vector(self.ring.h4, tok))
            raise ParseError(
                f"unknown name '{tok.text}' (expected L or V)", tok.line, tok.col
            )
        if tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col
                )
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        got = "end of input" if tok.kind == "end" else f"'{tok.text}'"
        raise ParseError(f"expected a class expression, got {got}", tok.line, tok.col)

    def vector(self, group: FgGroup, name_tok: _Token) -> tuple[int, ...]:
        self.expect("(")
        opening = self.expect("[")
        coords: list[int] = []
        if self.peek().text != "]":
            while True:
                coords.append(self.signed_int())
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect("]")
        self.expect(")")
        if len(coords) != group.ngens:
            raise ParseError(
                f"{name_tok.text}(...) needs {group.ngens} coordinates, got {len(coords)}",
                opening.line,
                opening.col,
            )
        return tuple(coords)

    def signed_int(self) -> int:
        sign = 1
        tok = self.next()
        if tok.text == "-":
            sign = -1
            tok = self.next()
        if tok.kind != "int":
            got = "end of input" if tok.kind == "end" else f"'{tok.text}'"
            raise ParseError(f"expected an integer, got {got}", tok.line, tok.col)
        return sign * _int_literal(tok.text, tok.line, tok.col)


def eval_expr(ring: CohomologyRing, text: str) -> KClass:
    """Parse and evaluate a class expression over the given ring."""
    ring.require_valid()
    return _ExprParser(ring, _tokenize_expr(text)).parse()
