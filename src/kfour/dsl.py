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
H^4 generators, integer literals are ASCII digits, no more of them than the
interpreter's digit limit (a longer one is a ParseError), and ``^``
(non-negative integer exponent only) binds tighter than ``*``, which binds
tighter than ``+`` and ``-``.  Parentheses nest at most ``MAX_NESTING`` deep,
and every value must stay printable, together with its decomposition n*1 +
L(x) + V(y): an operation whose result passes the interpreter's digit limit
is refused at its operator, a power at its exponent.  With no digit limit
(``sys.set_int_max_str_digits(0)``), every literal and every result is held
to the default limit, ``sys.int_info.default_max_str_digits`` digits, all the
same.  A power is computed in closed form and refused by its exact value,
unless its rank alone is too large to compute, which is refused before
anything is computed.

An expression is tokenized into plain strings by one regex scan, once a scan
for stray characters (any but whitespace, letters and the grammar's own) has
found none; a token's line and column are worked out only for an error.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys

from .abelian import FgGroup, _reduce
from .cohomology import CohomologyRing, CupForm, validate_ring
from .kclasses import (
    KClass,
    decompose,
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
        # a parser is only built for a line with tokens
        tok, col = self.tokens[-1]
        return col + len(tok)

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
            value = tuple(c for c, _ in coords)
            key = (min(i, j) - 1, max(i, j) - 1)
            known = cup_entries.setdefault(key, value)
            if known != value and _reduce(known, h4._moduli) != _reduce(value, h4._moduli):
                message = f"conflicting cup entry for generators {key[0] + 1} {key[1] + 1}"
                raise ParseError(message, lineno, head_col)
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
    for (i, j), entry in ring.cup_form.pairs:
        if i <= j:
            coords = " ".join(str(c) for c in entry)
            lines.append(f"cup {i + 1} {j + 1} = {coords}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# expressions

_EXPR_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[()\[\],+\-*^]|\S")
# what only the catch-all ``\S`` matches: a letter is a one-character name,
# anything else is rejected before parsing
_EXPR_STRAY = re.compile(r"[^\s0-9A-Za-z_()\[\],+\-*^]")


def _line_col(text: str, offset: int | None) -> tuple[int, int]:
    """1-based line and column of ``text[offset]``, or of the end for None.

    Lines are those of ``str.splitlines``, and the end lies just past the
    last one.  No token spans a line break, as every break is whitespace.
    """
    if offset is None:
        lines = text.splitlines() or [""]
        return len(lines), len(lines[-1]) + 1
    lines = (text[:offset] + "x").splitlines()  # "x" stands in for text[offset]
    return len(lines), len(lines[-1])


@functools.lru_cache(maxsize=1)
def _power_of_ten(digits: int) -> int:
    return 10**digits  # some 50 us at the default limit, so kept


class _ExprParser:
    """Recursive descent over the token strings, with "" for the end.

    With stray characters rejected, a token is an integer literal exactly when
    it ``isdigit``.  Tokens are kept by index; a position is found on error.
    """

    def __init__(self, ring: CohomologyRing, text: str):
        for m in _EXPR_STRAY.finditer(text):
            if not m.group().isalpha():
                message = f"unexpected character '{m.group()}'"
                raise ParseError(message, *_line_col(text, m.start()))
        self.ring = ring
        self.text = text
        self.tokens = _EXPR_TOKEN.findall(text) + [""]
        self.pos = 0
        self.depth = 0
        # values must stay printable: str() refuses ints over ``limit`` digits,
        # which is every magnitude from ``too_big`` on; with no limit (0), the
        # interpreter's default bounds every result all the same
        self.limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        self.too_big = _power_of_ten(self.limit)

    def position(self, i: int) -> tuple[int, int]:
        """Line and column of token ``i``, found by scanning the text again."""
        matches = itertools.islice(_EXPR_TOKEN.finditer(self.text), i, None)
        return _line_col(self.text, next(matches).start() if self.tokens[i] else None)

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, *self.position(i))

    def got(self, i: int) -> str:
        return f"'{self.tokens[i]}'" if self.tokens[i] else "end of input"

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> int:
        """The index of the current token, moving past it unless it is the end."""
        i = self.pos
        if self.tokens[i]:
            self.pos = i + 1
        return i

    def expect(self, text: str) -> int:
        i = self.next()
        if self.tokens[i] != text:
            raise self.error(f"expected '{text}', got {self.got(i)}", i)
        return i

    def literal(self, i: int) -> int:
        digits = len(self.tokens[i])
        if digits > self.limit:  # int() refuses these too, unless the limit is off
            raise self.error(
                f"integer literal too long ({digits} digits; the limit is {self.limit})", i
            )
        return int(self.tokens[i])

    def parse(self) -> KClass:
        value = self.expr()
        if self.peek():
            raise self.error(f"unexpected trailing token '{self.peek()}'", self.pos)
        return value

    def apply(self, op_index: int, op, *operands, refusal: str = "") -> KClass:
        """``op(ring, *operands)``, refused at its operator if it is unprintable.

        A value is printed with its decomposition n*1 + L(x) + V(y), whose
        n = rank - 3 can pass the limit when the rank itself does not.
        """
        value = op(self.ring, *operands)
        n, _, _ = decompose(self.ring, value)
        if max(map(abs, (value.rank, n, *value.c1, *value.c2))) >= self.too_big:
            message = refusal or f"result has a coordinate over {self.limit} digits"
            raise self.error(message, op_index)
        return value

    def expr(self) -> KClass:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            if self.tokens[op] == "-":
                rhs = self.apply(op, k_neg, rhs)
            value = self.apply(op, k_add, value, rhs)
        return value

    def term(self) -> KClass:
        value = self.unary()
        while self.peek() == "*":
            op = self.next()
            value = self.apply(op, k_mul, value, self.unary())
        return value

    def unary(self) -> KClass:
        # iterative, so a long run of minus signs cannot exhaust the stack
        signs = []
        while self.peek() == "-":
            signs.append(self.next())
        value = self.power()
        for op in reversed(signs):
            value = self.apply(op, k_neg, value)
        return value

    def power(self) -> KClass:
        value = self.atom()
        while self.peek() == "^":
            self.next()
            i = self.next()
            if not self.tokens[i].isdigit():
                raise self.error("exponent must be a non-negative integer literal", i)
            n, r = self.literal(i), abs(value.rank)
            refusal = f"power too large: a coordinate would pass {self.limit} digits"
            # a rank past the limit by a digit is refused before it is
            # computed: r^n itself could be far too large to compute
            if r > 1 and n > (self.limit + 1) / math.log10(r):
                raise self.error(refusal, i)
            value = self.apply(i, k_pow, value, n, refusal=refusal)
        return value

    def atom(self) -> KClass:
        i = self.next()
        tok = self.tokens[i]
        if tok.isdigit():
            return integer_class(self.ring, self.literal(i))
        if tok == "L":
            return line_class(self.ring, self.vector(self.ring.h2, tok))
        if tok == "V":
            return rank2_class(self.ring, self.vector(self.ring.h4, tok))
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", i)
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if tok[:1].isalpha() or tok[:1] == "_":
            raise self.error(f"unknown name '{tok}' (expected L or V)", i)
        raise self.error(f"expected a class expression, got {self.got(i)}", i)

    def vector(self, group: FgGroup, name: str) -> tuple[int, ...]:
        self.expect("(")
        opening = self.expect("[")
        coords: list[int] = []
        if self.peek() != "]":
            coords.append(self.signed_int())
            while self.peek() == ",":
                self.next()
                coords.append(self.signed_int())
        self.expect("]")
        self.expect(")")
        if len(coords) != group.ngens:
            message = f"{name}(...) needs {group.ngens} coordinates, got {len(coords)}"
            raise self.error(message, opening)
        return tuple(coords)

    def signed_int(self) -> int:
        sign = 1
        i = self.next()
        if self.tokens[i] == "-":
            sign = -1
            i = self.next()
        if not self.tokens[i].isdigit():
            raise self.error(f"expected an integer, got {self.got(i)}", i)
        return sign * self.literal(i)


def eval_expr(ring: CohomologyRing, text: str) -> KClass:
    """Parse and evaluate a class expression over the given ring."""
    ring.require_valid()
    return _ExprParser(ring, text).parse()
