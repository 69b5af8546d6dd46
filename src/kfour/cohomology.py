"""Even integral cohomology of a 4-complex: H^2, H^4 and the cup pairing.

Only the degree-2 x degree-2 -> degree-4 part of the cup product carries
information here; H^0 acts by integer scaling and every other product of
positive-degree classes lands above the dimension of the space.  The pairing
is stored as its nonzero values on pairs of generators only, reduced once
when the ring is built, and extended bilinearly on demand: each ring
flattens those values into plain-int terms once, on first use, and a cup
(like every K-class result built on it) is summed on raw ints and reduced
once at the end.  Building, validating and printing a ring cost what its
entries cost, whatever ranks it declares.

A ring value can always be constructed, even from mathematically inconsistent
data; :func:`validate_ring` reports every violation.  A K-class cannot be
built over an invalid ring, and the ring-level entry points, which take a
ring and no class, check it themselves.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from .abelian import Element, FgGroup, _frozen, _reduce

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
            if known != value and h4.canonical(known) != h4.canonical(value):
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


def _add_cup(out: list[int], terms, a, b, p: int, q: int = 0, s: int = 0) -> None:
    """Add sum over (i, j) of (p a_i b_j + q a_i a_j + s b_i b_j) e_ij to out.

    ``out`` holds raw H^4 coordinates; nothing is reduced here.
    """
    for i, j, entry in terms:
        w = p * a[i] * b[j]
        if q:
            w += q * a[i] * a[j]
        if s:
            w += s * b[i] * b[j]
        if w:
            for k, v in entry:
                out[k] += w * v


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
        """Bilinear extension of the generator table: sum of a_i b_j (e_i e_j)."""
        x = self.h2.canonical(a)
        # a square reads its argument once, which may be an iterator
        y = x if b is a else self.h2.canonical(b)
        moduli = self.h4._moduli
        total = [0] * len(moduli)
        _add_cup(total, self._cup_kernel, x, y, 1)
        return _reduce(total, moduli)

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

    @cached_property
    def _cup_kernel(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """The cup form as plain-int terms, the input of :func:`_add_cup`.

        Every nonzero entry e_ij appears as (i, j, ((k, coeff), ...)) over
        the H^4 coordinates k.  Built on first use and kept with the ring,
        like the validation.
        """
        return tuple(
            (i, j, tuple((k, v) for k, v in enumerate(entry) if v))
            for (i, j), entry in self.cup_form.pairs
        )

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
        if n and any(ring.h4.scale(n, e)):
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
