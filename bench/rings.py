"""Benchmark inputs and the reference arithmetic that checks the outputs.

Everything here is independent of the package under test: rings are
described by plain ints and rendered to ring-file text by this module,
expressions are generated as small syntax trees and rendered to text, and
the expected results come from the Chern-coordinate formulas applied to
unreduced ints with a single reduction at the end (valid because a valid cup
form kills torsion multiples, so reduction commutes with every formula).
On torsion-free rings the Chern character gives a second, formula-free
check: ch = rank + c1 + (c1^2 - 2 c2)/2 is a ring homomorphism into
H^even(X; Q) and injective there.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

Coords = tuple[int, ...]
Raw = tuple[int, list[int], list[int]]  # (rank, c1, c2), unreduced


def choose2(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(frozen=True)
class RingSpec:
    """H^2 = Z^f2 + torsion t2, H^4 = Z^f4 + torsion t4, cup table on H^2 gens."""

    f2: int
    t2: tuple[int, ...]
    f4: int
    t4: tuple[int, ...]
    cup: tuple[tuple[Coords, ...], ...]  # symmetric p x p table of canonical H^4 coords

    @property
    def p(self) -> int:
        return self.f2 + len(self.t2)

    @property
    def q(self) -> int:
        return self.f4 + len(self.t4)

    @property
    def is_finite(self) -> bool:
        return self.f2 == 0 and self.f4 == 0

    @property
    def order2(self) -> int:
        return math.prod(self.t2)

    @property
    def order4(self) -> int:
        return math.prod(self.t4)

    @property
    def torsion_free(self) -> bool:
        return not self.t2 and not self.t4

    def reduce2(self, c) -> Coords:
        return tuple(c[: self.f2]) + tuple(x % n for x, n in zip(c[self.f2 :], self.t2))

    def reduce4(self, c) -> Coords:
        return tuple(c[: self.f4]) + tuple(x % n for x, n in zip(c[self.f4 :], self.t4))

    def elements2(self) -> list[Coords]:
        return list(itertools.product(*(range(n) for n in self.t2)))

    def elements4(self) -> list[Coords]:
        return list(itertools.product(*(range(n) for n in self.t4)))

    def text(self) -> str:
        """Canonical ring-file text, as the `fmt` command prints it."""
        lines = [
            "format 1",
            " ".join(["H2", "free", str(self.f2), "torsion", *map(str, self.t2)]),
            " ".join(["H4", "free", str(self.f4), "torsion", *map(str, self.t4)]),
        ]
        for i in range(self.p):
            for j in range(i, self.p):
                entry = self.cup[i][j]
                if any(entry):
                    lines.append(f"cup {i + 1} {j + 1} = {' '.join(map(str, entry))}")
        return "\n".join(lines) + "\n"

    def messy_text(self, rng: random.Random) -> str:
        """The same ring with comments, odd spacing, swapped and unreduced entries."""
        pad = lambda: " " * rng.randint(1, 3)  # noqa: E731
        lines = ["# generated ring", ""]
        if rng.random() < 0.5:
            lines.append(f"format{pad()}1")
        for name, free, tors in (("H2", self.f2, self.t2), ("H4", self.f4, self.t4)):
            lines.append(pad().join([name, "free", str(free), "torsion", *map(str, tors)]) + pad())
        for i in range(self.p):
            for j in range(i, self.p):
                entry = list(self.cup[i][j])
                if not any(entry) and rng.random() < 0.7:
                    continue
                for k, n in enumerate(self.t4):
                    entry[self.f4 + k] += n * rng.randint(-1, 1)
                a, b = (i, j) if rng.random() < 0.5 else (j, i)
                coords = pad().join(map(str, entry))
                lines.append(f"cup {a + 1}{pad()}{b + 1} ={pad()}{coords}  # entry".rstrip())
        return "\n".join(lines) + "\n"

    # reference arithmetic on unreduced coordinates -------------------------

    def cup_raw(self, a, b) -> list[int]:
        out = [0] * self.q
        for i, ai in enumerate(a):
            if ai:
                row = self.cup[i]
                for j, bj in enumerate(b):
                    if bj:
                        s = ai * bj
                        for k, e in enumerate(row[j]):
                            out[k] += s * e
        return out

    def add(self, a: Raw, b: Raw) -> Raw:
        cross = self.cup_raw(a[1], b[1])
        return (
            a[0] + b[0],
            [x + y for x, y in zip(a[1], b[1])],
            [x + y + z for x, y, z in zip(a[2], b[2], cross)],
        )

    def neg(self, a: Raw) -> Raw:
        sq = self.cup_raw(a[1], a[1])
        return (-a[0], [-x for x in a[1]], [s - y for s, y in zip(sq, a[2])])

    def mul(self, a: Raw, b: Raw) -> Raw:
        ra, rb = a[0], b[0]
        ab = self.cup_raw(a[1], b[1])
        aa = self.cup_raw(a[1], a[1])
        bb = self.cup_raw(b[1], b[1])
        c1 = [rb * x + ra * y for x, y in zip(a[1], b[1])]
        c2 = [
            ra * y2 + rb * x2 + (ra * rb - 1) * m + choose2(rb) * s + choose2(ra) * t
            for x2, y2, m, s, t in zip(a[2], b[2], ab, aa, bb)
        ]
        return (ra * rb, c1, c2)

    def integer(self, n: int) -> Raw:
        return (n, [0] * self.p, [0] * self.q)

    def canonical(self, a: Raw) -> tuple[int, Coords, Coords]:
        return (a[0], self.reduce2(a[1]), self.reduce4(a[2]))

    # Chern character over Q (torsion-free rings only) ----------------------

    def ch(self, rank: int, c1, c2) -> tuple:
        sq = self.cup_raw(c1, c1)
        return (
            Fraction(rank),
            tuple(Fraction(x) for x in c1),
            tuple(Fraction(s - 2 * y, 2) for s, y in zip(sq, c2)),
        )

    def ch_mul(self, a: tuple, b: tuple) -> tuple:
        cross = [Fraction(0)] * self.q
        for i, ai in enumerate(a[1]):
            for j, bj in enumerate(b[1]):
                for k, e in enumerate(self.cup[i][j]):
                    cross[k] += ai * bj * e
        return (
            a[0] * b[0],
            tuple(a[0] * y + b[0] * x for x, y in zip(a[1], b[1])),
            tuple(a[0] * y + b[0] * x + c for x, y, c in zip(a[2], b[2], cross)),
        )


def make_ring(f2, t2, f4, t4, pairs=None) -> RingSpec:
    """Ring from 0-based {(i, j): H^4 coords}; missing pairs are zero."""
    p = f2 + len(t2)
    probe = RingSpec(f2, tuple(t2), f4, tuple(t4), ())
    table = [[(0,) * probe.q for _ in range(p)] for _ in range(p)]
    for (i, j), coords in (pairs or {}).items():
        table[i][j] = table[j][i] = probe.reduce4(coords)
    return RingSpec(f2, tuple(t2), f4, tuple(t4), tuple(tuple(row) for row in table))


def _entry_choices(t2, t4, i: int, j: int) -> list[Coords]:
    """Values cup(e_i, e_j) may take on finite groups: g e_i e_j = 0, g = gcd of orders."""
    g = math.gcd(t2[i], t2[j])
    return list(itertools.product(*(
        range(0, m, m // math.gcd(g, m)) for m in t4
    )))


def valid_forms(t2, t4) -> list[RingSpec]:
    """Every valid (symmetric, torsion-compatible) cup form on finite groups."""
    pairs = [(i, j) for i in range(len(t2)) for j in range(i, len(t2))]
    choices = [_entry_choices(t2, t4, i, j) for i, j in pairs]
    return [make_ring(0, t2, 0, t4, dict(zip(pairs, combo)))
            for combo in itertools.product(*choices)]


def random_ring(rng: random.Random, t2, t4) -> RingSpec:
    """A uniformly random valid cup form on finite groups."""
    pairs = [(i, j) for i in range(len(t2)) for j in range(i, len(t2))]
    return make_ring(0, t2, 0, t4, {
        (i, j): rng.choice(_entry_choices(t2, t4, i, j)) for i, j in pairs
    })


RP4 = make_ring(0, (2,), 0, (2,), {(0, 0): (1,)})
CP2 = make_ring(1, (), 1, (), {(0, 0): (1,)})
S4 = make_ring(0, (), 1, ())
# H^2 = Z^3 + Z/2 + Z/4, H^4 = Z^2 + Z/2
FIVE = make_ring(
    3, (2, 4), 2, (2,),
    {
        (0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (1, 1): (2, 1, 1), (1, 2): (1, 0, 1),
        (2, 2): (0, -1, 0), (0, 3): (0, 0, 1), (2, 4): (0, 0, 1), (3, 3): (0, 0, 1),
        (4, 4): (0, 0, 1),
    },
)

# Known K-groups: (full, reduced) as the package renders them.
GOLDEN = {
    RP4: ("Z ⊕ Z/4", "Z/4"),
    CP2: ("Z^3", "Z^2"),
    S4: ("Z^2", "Z"),
}

# (H2 torsion orders, H4 torsion orders) of the test-suite battery
BATTERY_SHAPES = [
    ((), ()), ((2,), (2,)), ((2,), (4,)), ((2,), (3,)), ((2,), (2, 2)),
    ((4,), (2,)), ((4,), (4,)), ((2, 2), (2,)), ((2, 2), (2, 2)), ((3,), (3,)),
    ((3,), (9,)), ((9,), (3,)), ((9,), ()), ((), (9,)), ((8,), (2,)),
    ((2,), (8,)), ((8,), ()), ((), (8,)), ((), (2,)), ((2,), ()),
    ((3,), (2,)), ((4,), (2, 2)), ((2, 2), (4,)),
]


# ---------------------------------------------------------------------------
# class expressions: ("int", n) ("L", coords) ("V", coords) ("neg", a)
# ("add"|"sub"|"mul", a, b) ("pow", a, e)


def random_expr(rng: random.Random, ring: RingSpec, depth: int = 3):
    if depth <= 0 or rng.random() < 0.2:
        kind = rng.random()
        if kind < 0.4:
            return ("L", _coords(rng, ring.f2, ring.t2))
        if kind < 0.7:
            return ("V", _coords(rng, ring.f4, ring.t4))
        return ("int", rng.randint(0, 4))
    op = rng.random()
    if op < 0.3:
        return ("add", random_expr(rng, ring, depth - 1), random_expr(rng, ring, depth - 1))
    if op < 0.45:
        return ("sub", random_expr(rng, ring, depth - 1), random_expr(rng, ring, depth - 1))
    if op < 0.75:
        return ("mul", random_expr(rng, ring, depth - 1), random_expr(rng, ring, depth - 1))
    if op < 0.9:
        return ("pow", random_expr(rng, ring, depth - 1), rng.randint(0, 3))
    return ("neg", random_expr(rng, ring, depth - 1))


def _coords(rng: random.Random, free: int, torsion) -> Coords:
    return tuple(rng.randint(-3, 3) for _ in range(free)) + tuple(
        rng.randint(-n, 2 * n - 1) for n in torsion
    )


def render(node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind in ("L", "V"):
        return f"{kind}([{','.join(map(str, node[1]))}])"
    if kind == "neg":
        return f"-({render(node[1])})"
    if kind == "pow":
        return f"({render(node[1])})^{node[2]}"
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    return f"({render(node[1])} {op} {render(node[2])})"


def evaluate(ring: RingSpec, node) -> tuple[int, Coords, Coords]:
    """Reference value of an expression, reduced once."""
    return ring.canonical(_eval_raw(ring, node))


def _eval_raw(ring: RingSpec, node) -> Raw:
    kind = node[0]
    if kind == "int":
        return ring.integer(node[1])
    if kind == "L":
        return (1, list(node[1]), [0] * ring.q)
    if kind == "V":
        return (2, [0] * ring.p, list(node[1]))
    if kind == "neg":
        return ring.neg(_eval_raw(ring, node[1]))
    if kind == "pow":
        base = _eval_raw(ring, node[1])
        out = ring.integer(1)
        for _ in range(node[2]):
            out = ring.mul(out, base)
        return out
    a, b = _eval_raw(ring, node[1]), _eval_raw(ring, node[2])
    if kind == "add":
        return ring.add(a, b)
    if kind == "sub":
        return ring.add(a, ring.neg(b))
    return ring.mul(a, b)


def chern_character(ring: RingSpec, node) -> tuple:
    """ch of an expression, computed in H^even(X; Q) without the K-ring formulas."""
    kind = node[0]
    if kind == "int":
        return ring.ch(node[1], [0] * ring.p, [0] * ring.q)
    if kind == "L":
        return ring.ch(1, node[1], [0] * ring.q)
    if kind == "V":
        return ring.ch(2, [0] * ring.p, node[1])
    if kind == "neg":
        r, c1, c2 = chern_character(ring, node[1])
        return (-r, tuple(-x for x in c1), tuple(-x for x in c2))
    if kind == "pow":
        base = chern_character(ring, node[1])
        out = ring.ch(1, [0] * ring.p, [0] * ring.q)
        for _ in range(node[2]):
            out = ring.ch_mul(out, base)
        return out
    a, b = chern_character(ring, node[1]), chern_character(ring, node[2])
    if kind == "mul":
        return ring.ch_mul(a, b)
    if kind == "sub":
        b = (-b[0], tuple(-x for x in b[1]), tuple(-x for x in b[2]))
    return (a[0] + b[0], tuple(x + y for x, y in zip(a[1], b[1])),
            tuple(x + y for x, y in zip(a[2], b[2])))


# ---------------------------------------------------------------------------
# verification combinatorics


def domain_size(free: int, torsion, bound: int = 2) -> int:
    """Elements the relation checker visits: all of a finite group, else a box."""
    if not free:
        return math.prod(torsion)
    box = 2 * bound + 1
    return box**free * math.prod(min(n, box) for n in torsion)


def relation_counts(ring: RingSpec, bound: int = 2) -> dict[str, int]:
    """Instances per defining relation: one per choice of generator arguments."""
    x = domain_size(ring.f2, ring.t2, bound)
    y = domain_size(ring.f4, ring.t4, bound)
    return {"1": 1, "2": x * x, "3": x, "4": y * y, "5": y * y, "6": x * y, "7": x * x}


AXIOM_LAWS = (
    "add_commutative", "add_identity", "add_inverse", "mul_commutative",
    "mul_identity", "add_associative", "mul_associative", "distributive",
)


def axiom_counts(n_classes: int | None, samples: int | None = None) -> dict[str, int]:
    """Instances per ring law: n(n-1)/2 per binary, n per unary, n^3 per ternary."""
    if samples is not None:
        return dict.fromkeys(AXIOM_LAWS, samples)
    n = n_classes
    pairs = n * (n - 1) // 2
    return dict(zip(AXIOM_LAWS, (pairs, n, n, pairs, n, n**3, n**3, n**3)))
