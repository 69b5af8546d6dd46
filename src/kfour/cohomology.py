"""Even integral cohomology of a 4-complex: H^2, H^4 and the cup pairing.

Only the degree-2 x degree-2 -> degree-4 part of the cup product carries
information here; H^0 acts by integer scaling and every other product of
positive-degree classes lands above the dimension of the space.  The pairing
is stored as its nonzero values on pairs of generators only, reduced once
when the ring is built, and extended bilinearly on demand.  On the first
use of an operation, the cup or one of the K-class engine's, a ring compiles
it into a straight-line kernel, written as the group kernels are: every
coordinate a local, every cup term one statement with its coefficients as
literals, and every result coordinate reduced once, by its modulus as a
literal.  The cup kernel reduces its arguments too, so a cup calls no
``canonical``.  Building, validating and
printing a ring cost what its entries cost, whatever ranks it declares; a
class or a kernel is built only over a ring with at most MAX_COORDINATES
coordinates in H^2 and H^4 together.

A ring value can always be constructed, even from mathematically inconsistent
data; :func:`validate_ring` reports every violation.  A K-class cannot be
built over an invalid ring, and the ring-level entry points, which take a
ring and no class, check it themselves.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from .abelian import (Element, FgGroup, _define, _factor, _frozen, _reduce, _reduced,
                      _unpack, _without_kernels)

__all__ = [
    "CohomologyRing",
    "CupForm",
    "InvalidRingError",
    "ValidationIssue",
    "ValidationReport",
    "validate_ring",
]


@_frozen
class CupForm:
    """The cup pairing on ordered pairs of H^2 generators, by its nonzero values.

    ``size`` is the number of H^2 generators and ``rank`` the number of H^4
    coordinates.  ``pairs`` is a sorted tuple of ((i, j), coefficients), one
    for each ordered pair of 0-based generators whose product is nonzero, the
    product given over the H^4 generators; every pair not listed is zero.
    Pairs are ordered, so a form built directly may be asymmetric, which
    validation reports.  A ring keeps its form canonical: each coefficient
    tuple reduced, and no pair whose product reduces to zero.
    """

    size: int
    rank: int
    pairs: tuple[tuple[tuple[int, int], Element], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(((i, j), tuple(coeffs)) for (i, j), coeffs in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        for (i, j), coeffs in pairs:
            if not (0 <= i < self.size and 0 <= j < self.size and len(coeffs) == self.rank):
                raise ValueError(f"cup entry {(i, j)}: {coeffs} is not in the form's shape")
        if len(dict(pairs)) != len(pairs):
            raise ValueError("an ordered pair of generators has two cup entries")

    @classmethod
    def from_pairs(
        cls,
        h2: FgGroup,
        h4: FgGroup,
        pairs: Mapping[tuple[int, int], Iterable[int]] | None = None,
    ) -> CupForm:
        """Build a symmetric form from 0-based {(i, j): coefficients}.

        Missing pairs are zero; giving (i, j) also fills (j, i).  Two entries
        for the same unordered pair must agree in H^4.  Coefficients are kept
        as given: a ring reduces them once, when it is built.
        """
        p = h2.ngens
        seen: dict[tuple[int, int], Element] = {}
        for (i, j), coeffs in (pairs or {}).items():
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"generator index ({i}, {j}) out of range")
            value = h4._coords(coeffs)
            key = (min(i, j), max(i, j))
            known = seen.setdefault(key, value)
            if known != value and _reduce(known, h4._moduli) != _reduce(value, h4._moduli):
                raise ValueError(f"conflicting cup entries for generators {key}")
        nonzero = [((i, j), v) for (i, j), v in seen.items() if any(v)]
        nonzero += [((j, i), v) for (i, j), v in nonzero if i != j]
        return cls(p, h4.ngens, tuple(nonzero))

    def entry(self, i: int, j: int) -> Element:
        """The product of generators i and j, found by a scan of ``pairs``."""
        return dict(self.pairs).get((i, j), (0,) * self.rank)


@_frozen
class ValidationIssue:
    kind: str  # "symmetry" or "torsion"
    i: int  # 0-based H^2 generator indices
    j: int
    message: str

    def __str__(self) -> str:
        return self.message


@_frozen
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(str(issue) for issue in self.issues)


class InvalidRingError(ValueError):
    """A computation was attempted on a ring whose validation fails."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"invalid cohomology ring: {report}")
        self.report = report


# h2.ngens + h4.ngens, the length of a class, past which no class or kernel
# is built; a kernel unrolls every coordinate, so it compiles in time linear
# in their number (about 15 ms for 1,000 on Python 3.11)
MAX_COORDINATES = 10_000


def _require_coordinates(ring: CohomologyRing) -> None:
    """Refuse a ring whose classes would have over ``MAX_COORDINATES`` coordinates.

    A class has h2.ngens + h4.ngens coordinates and a kernel a few statements
    per coordinate, so the check is made on the declared ranks, before
    anything of that length is built.
    """
    count = ring.h2.ngens + ring.h4.ngens
    if count > MAX_COORDINATES:
        raise ValueError(
            f"a class over this ring has {count} coordinates; "
            f"the limit is {MAX_COORDINATES}"
        )


def _compile(ring: CohomologyRing, op: str):
    """The ring's straight-line kernel for ``op``, compiled from source.

    ``op`` is "cup", taking two tuples of H^2 coordinates, which it reduces,
    or one of the K-class engine's "add" (ring, a, b), "mul" (ring, a, b) and
    "affine" (ring, a, rank, m, w), which gives the class (rank, m c1,
    m c2 + w c1^2).  Every
    coordinate is a local, every ordered cup term one statement with its
    coefficients as literals, and every result coordinate is reduced once, by
    its modulus as a literal.  The kernel keeps no reference to the ring, so
    a ring that holds its kernels is freed without the cycle collector.
    """
    _require_coordinates(ring)
    m2, m4 = ring.h2._moduli, ring.h4._moduli
    terms = [
        (i, j, [(k, v) for k, v in enumerate(entry) if v])
        for (i, j), entry in ring.cup_form.pairs
    ]

    # a, b: the H^2 operands; f, g: the H^4 ones; r: the H^4 sums; u and t
    # weigh a generator's coordinates once, for every term that reads them
    firsts, seconds = sorted({i for i, _, _ in terms}), sorted({j for _, j, _ in terms})
    a, b = [_unpack("a", len(m2), "a.c1")], [_unpack("b", len(m2), "b.c1")]
    f, g = [_unpack("f", len(m4), "a.c2")], [_unpack("g", len(m4), "b.c2")]
    if op == "cup":
        # the arguments are reduced here, each torsion coordinate by its order
        head = [_unpack("a", len(m2), "a"), _unpack("b", len(m2), "b")]
        head += [f"{v}{k} %= {m}" for v in "ab" for k, m in enumerate(m2) if m]
        weight, start, c1 = "a{i} * b{j}", "0", None
    elif op == "add":
        head = a + b + f + g
        weight, start, c1, rank = "a{i} * b{j}", "f{k} + g{k}", "a{k} + b{k}", "a.rank + b.rank"
    elif op == "mul":
        # p a_i b_j + q a_i a_j + s b_i b_j = a_i (p b_j + q a_j) + (s b_i) b_j
        head = ["ra = a.rank", "rb = b.rank", *a, *b, *f, *g]
        if terms:
            head += ["p = ra * rb - 1", "q = rb * (rb - 1) // 2", "s = ra * (ra - 1) // 2"]
        head += [f"u{j} = p * b{j} + q * a{j}" for j in seconds]
        head += [f"t{i} = s * b{i}" for i in firsts]
        weight, start = "a{i} * u{j} + t{i} * b{j}", "ra * g{k} + rb * f{k}"
        c1, rank = "rb * a{k} + ra * b{k}", "ra * rb"
    else:  # affine
        head = a + f + [f"t{i} = w * a{i}" for i in firsts]
        weight, start, c1, rank = "t{i} * a{j}", "m * f{k}", "m * a{k}", "rank"
    body = [f"r{k} = {start.format(k=k)}" for k in range(len(m4))]
    for i, j, coeffs in terms:
        w = weight.format(i=i, j=j)
        if len(coeffs) > 1:  # weighed once, added to each coordinate
            body.append(f"z = {w}")
            w = "z"
        body += [f"r{k} += {w}" if v == 1 else f"r{k} += {v} * {_factor(w)}" for k, v in coeffs]
    c2 = _reduced((f"r{k}" for k in range(len(m4))), m4)
    namespace: dict = {}
    if c1 is None:
        args, tail = "a, b", [f"return {c2}"]
    else:
        from .kclasses import KClass  # a late import: kclasses builds on this module

        namespace.update(new=object.__new__, KClass=KClass)
        args = "ring, a, rank, m, w" if op == "affine" else "ring, a, b"
        tail = [
            "value = new(KClass)",
            "fields = value.__dict__",
            "fields['ring'] = ring",
            f"fields['rank'] = {rank}",
            f"fields['c1'] = {_reduced((c1.format(k=k) for k in range(len(m2))), m2)}",
            f"fields['c2'] = {c2}",
            "return value",
        ]
    return _define(op, args, head + body + tail, namespace)


@_frozen
class CohomologyRing:
    """H^2, H^4 and the symmetric cup pairing H^2 x H^2 -> H^4."""

    h2: FgGroup
    h4: FgGroup
    cup_form: CupForm

    def __post_init__(self) -> None:
        form = self.cup_form
        if (form.size, form.rank) != (self.h2.ngens, self.h4.ngens):
            raise ValueError(
                f"cup form on {form.size} generators with {form.rank} coordinates, "
                f"but H^2 has {self.h2.ngens} generators and H^4 {self.h4.ngens}"
            )
        # reduce each distinct entry once (a mirrored pair shares its value)
        # and drop those that vanish, so that equality of rings is well defined
        reduced = {c: _reduce(c, self.h4._moduli) for c in {c for _, c in form.pairs}}
        pairs = tuple((key, reduced[c]) for key, c in form.pairs if any(reduced[c]))
        if pairs != form.pairs:
            object.__setattr__(self, "cup_form", CupForm(form.size, form.rank, pairs))

    @property
    def is_finite(self) -> bool:
        return self.h2.is_finite and self.h4.is_finite

    def cup(self, a: Iterable[int], b: Iterable[int]) -> Element:
        """Bilinear extension of the generator table: sum of a_i b_j (e_i e_j).

        Each argument is read as ``FgGroup.canonical`` reads it, a square's
        once, for the kernel, which reduces it.
        """
        square = b is a
        if a.__class__ is not tuple:
            a = tuple(a)
        if square:
            b = a
        elif b.__class__ is not tuple:
            b = tuple(b)
        try:
            return self._cup_kernel(a, b)
        except ValueError:
            h2 = self.h2
            raise h2._length_error(a if len(a) != h2.ngens else b) from None

    def cup_square(self, a: Iterable[int]) -> Element:
        return self.cup(a, a)

    def validate(self) -> ValidationReport:
        return self._validation

    def require_valid(self) -> None:
        report = self._validation
        if not report.ok:
            raise InvalidRingError(report)

    @cached_property
    def _validation(self) -> ValidationReport:
        # Computed once per ring object and kept in its __dict__, which a
        # frozen value class still allows, so the report dies with the ring.
        return _validate(self)

    # The straight-line kernels of :func:`_compile`: each is compiled on its
    # first use and kept in the ring's __dict__, like the validation.
    _cup_kernel, _add_kernel, _mul_kernel, _affine_kernel = (
        cached_property(lambda self, op=op: _compile(self, op))
        for op in ("cup", "add", "mul", "affine")
    )

    __getstate__ = _without_kernels

    def __str__(self) -> str:
        return f"CohomologyRing(H2={self.h2}, H4={self.h4})"


def _validate(ring: CohomologyRing) -> ValidationReport:
    issues: list[ValidationIssue] = []
    pairs = ring.cup_form.pairs
    table = dict(pairs)
    asymmetric = {(min(i, j), max(i, j)) for (i, j), e in pairs if table.get((j, i)) != e}
    for i, j in sorted(asymmetric):
        issues.append(
            ValidationIssue(
                "symmetry",
                i,
                j,
                f"cup entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) differ",
            )
        )
    free, orders = ring.h2.free_rank, ring.h2.torsion_orders
    for (i, j), e in pairs:
        n = orders[i - free] if i >= free else 0
        # n e in H^4, reduced here: every parse validates, and compiles no kernel
        if n and any(n * c % m if m else n * c for c, m in zip(e, ring.h4._moduli)):
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


def validate_ring(ring: CohomologyRing) -> ValidationReport:
    """Check symmetry and torsion compatibility of the cup table.

    Returns a report listing every violation with the generator indices
    involved; an empty report means the ring is usable downstream.
    """
    return ring.validate()
