"""Arithmetic of stable complex vector bundle classes on a 4-complex.

On a 4-dimensional complex a stable class is pinned down by three Chern
coordinates: the virtual rank, c1 in H^2 and c2 in H^4.  Two families of
bundles realize every coordinate: line bundles L(x) = (1, x, 0) and rank-2
bundles V(y) = (2, 0, y).  All arithmetic happens directly on the triples:

    addition        (Whitney)   c2 picks up the cross term  c1(a) c1(b)
    scaling by n                n*c2 + T(n) * c1^2,  T(n) = n(n-1)/2
    multiplication  rank(ab)  = rank(a) rank(b)
                    c1(ab)    = rank(b) c1(a) + rank(a) c1(b)
                    c2(ab)    = rank(a) c2(b) + rank(b) c2(a)
                              + (rank(a) rank(b) - 1) * c1(a) c1(b)
                              + T(rank(b)) * c1(a)^2 + T(rank(a)) * c1(b)^2
    power a^n       rank(a)^n, m c1, m c2 + (T(m) - k) c1^2,
                    m = n rank^(n-1), k = T(n) rank^(n-2)

T(n) is an exact integer for every integer n (T(-1) = 1), so no rational
intermediates appear even when H^4 has torsion.  The multiplication formula
extends the products of the L and V generators to all virtual classes; the
oracle module re-derives those generator products independently and checks
the formula against them.

Each operation runs a kernel that the cohomology module compiles for its
ring on the operation's first call and keeps with the ring: straight-line
code that sums every coordinate of the closed form as a raw integer, one
statement per cup term, reduces it once and builds the class without a
second pass through the groups.  Addition and the product have a kernel
each; negation, scaling and powers share the affine one, which gives
(rank, m c1, m c2 + w c1^2).  A class has h2.ngens + h4.ngens coordinates,
and none is built past the cohomology module's MAX_COORDINATES.

Classes remember their ring, and every binary operation refuses operands
from different rings.  A class can only be built over a valid ring, so the
operations, whose operands are classes, do not check the ring again.
"""

from __future__ import annotations

from .abelian import Element, _frozen
from .cohomology import CohomologyRing, _require_coordinates

__all__ = [
    "KClass",
    "MixedRingError",
    "choose2",
    "decompose",
    "integer_class",
    "k_add",
    "k_mul",
    "k_neg",
    "k_pow",
    "k_scale",
    "line_class",
    "rank2_class",
    "reduced_part",
]


class MixedRingError(ValueError):
    """Operands of a K-class operation live over different cohomology rings."""


def choose2(n: int) -> int:
    """n(n-1)/2 as an exact integer for any integer n, e.g. choose2(-1) == 1."""
    return n * (n - 1) // 2


@_frozen
class KClass:
    """A stable class in Chern coordinates (rank, c1, c2); rank may be negative."""

    ring: CohomologyRing
    rank: int
    c1: Element
    c2: Element

    def __post_init__(self) -> None:
        _require_coordinates(self.ring)
        self.ring.require_valid()
        object.__setattr__(self, "c1", self.ring.h2.canonical(self.c1))
        object.__setattr__(self, "c2", self.ring.h4.canonical(self.c2))

    def __str__(self) -> str:
        return f"({self.rank}, {list(self.c1)}, {list(self.c2)})"

    def __repr__(self) -> str:
        return f"KClass(rank={self.rank}, c1={self.c1}, c2={self.c2})"

    def _coerce(self, other: KClass | int) -> KClass:
        if isinstance(other, KClass):
            return other
        if isinstance(other, int):
            return integer_class(self.ring, other)
        return NotImplemented

    def __add__(self, other: KClass | int) -> KClass:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return k_add(self.ring, self, other)

    __radd__ = __add__

    def __neg__(self) -> KClass:
        return k_neg(self.ring, self)

    def __sub__(self, other: KClass | int) -> KClass:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return k_add(self.ring, self, k_neg(self.ring, other))

    def __rsub__(self, other: KClass | int) -> KClass:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return k_add(self.ring, other, k_neg(self.ring, self))

    def __mul__(self, other: KClass | int) -> KClass:
        if isinstance(other, int):
            return k_scale(self.ring, other, self)
        if isinstance(other, KClass):
            return k_mul(self.ring, self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> KClass:
        return k_pow(self.ring, self, exponent)


def _check_ring(ring: CohomologyRing, *classes: KClass) -> None:
    # the operations call this only when an operand's ring is another object
    for c in classes:
        # equal rings that are distinct objects still combine
        if c.ring is not ring and c.ring != ring:
            raise MixedRingError(
                "K-classes from different cohomology rings cannot be combined"
            )


def integer_class(ring: CohomologyRing, n: int) -> KClass:
    """n copies of the trivial line bundle: the class (n, 0, 0)."""
    _require_coordinates(ring)  # before a zero of the declared length
    return KClass(ring, n, ring.h2.zero, ring.h4.zero)


def line_class(ring: CohomologyRing, x) -> KClass:
    """The line bundle with first Chern class x: the class (1, x, 0)."""
    _require_coordinates(ring)  # before a zero of the declared length
    return KClass(ring, 1, x, ring.h4.zero)


def rank2_class(ring: CohomologyRing, y) -> KClass:
    """The rank-2 bundle with c1 = 0 and c2 = y: the class (2, 0, y)."""
    _require_coordinates(ring)  # before a zero of the declared length
    return KClass(ring, 2, ring.h2.zero, y)


def k_add(ring: CohomologyRing, a: KClass, b: KClass) -> KClass:
    """Whitney sum: ranks and c1 add, c2 adds plus the cup cross term."""
    if a.ring is not ring or b.ring is not ring:
        _check_ring(ring, a, b)
    return ring._add_kernel(ring, a, b)


def k_neg(ring: CohomologyRing, a: KClass) -> KClass:
    """Additive inverse: (-rank, -c1, c1^2 - c2), the -1 multiple as T(-1) = 1."""
    if a.ring is not ring:
        _check_ring(ring, a)
    return ring._affine_kernel(ring, a, -a.rank, -1, 1)


def k_scale(ring: CohomologyRing, n: int, a: KClass) -> KClass:
    """n-fold sum: (n rank, n c1, n c2 + T(n) c1^2)."""
    if a.ring is not ring:
        _check_ring(ring, a)
    return ring._affine_kernel(ring, a, n * a.rank, n, choose2(n))


def k_mul(ring: CohomologyRing, a: KClass, b: KClass) -> KClass:
    """Tensor product of stable classes, in closed Chern-coordinate form.

    c2 takes one pass over the cup terms, each weighted by
    (ra rb - 1) a_i b_j + T(rb) a_i a_j + T(ra) b_i b_j.
    """
    if a.ring is not ring or b.ring is not ring:
        _check_ring(ring, a, b)
    return ring._mul_kernel(ring, a, b)


def k_pow(ring: CohomologyRing, a: KClass, exponent: int) -> KClass:
    """Non-negative integer power, in closed binomial form.

    With r = rank(a), u = a - r has rank 0, u^2 = (0, 0, -c1^2) and u^3 = 0,
    so a^n = r^n + m u + k u^2 with m = n r^(n-1) and k = T(n) r^(n-2):
    (r^n, m c1, m c2 + (T(m) - k) c1^2).
    """
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    if a.ring is not ring:
        _check_ring(ring, a)
    n, r = exponent, a.rank
    # spelled out for small n, which would need r^-1 (0**-1 fails for r = 0)
    m = n * r ** (n - 1) if n else 0
    k = choose2(n) * r ** (n - 2) if n > 1 else 0
    return ring._affine_kernel(ring, a, r**n, m, choose2(m) - k)


def decompose(ring: CohomologyRing, a: KClass) -> tuple[int, Element, Element]:
    """Write a as n*1 + L(x) + V(y): returns (rank - 3, c1, c2).

    Recombining through k_scale/k_add reproduces the class exactly.
    """
    _check_ring(ring, a)
    return a.rank - 3, a.c1, a.c2


def reduced_part(a: KClass) -> KClass:
    """Project onto the kernel of the rank map: a - rank(a) * 1."""
    return k_add(a.ring, a, integer_class(a.ring, -a.rank))
