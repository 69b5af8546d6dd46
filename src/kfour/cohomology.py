"""Even integral cohomology of a 4-complex: H^2, H^4 and the cup pairing.

Only the degree-2 x degree-2 -> degree-4 part of the cup product carries
information here; H^0 acts by integer scaling and every other product of
positive-degree classes lands above the dimension of the space.  The pairing
is stored on generators only and extended bilinearly on demand: each ring
flattens its nonzero entries into plain-int terms once, on first use, and a
cup (like every K-class result built on it) is summed on raw ints and
reduced once at the end.

A ring value can always be constructed, even from mathematically inconsistent
data; :func:`validate_ring` reports every violation, and all downstream
computations insist on a clean report first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .abelian import Element, FgGroup

__all__ = [
    "CohomologyRing",
    "CupForm",
    "InvalidRingError",
    "ValidationIssue",
    "ValidationReport",
    "validate_ring",
]


@dataclass(frozen=True)
class CupForm:
    """Values of the cup pairing on ordered pairs of H^2 generators.

    entries[i][j] is the H^4 element (generator i) * (generator j), as a
    canonical coefficient tuple over the H^4 generators.
    """

    entries: tuple[tuple[Element, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(tuple(tuple(e) for e in row) for row in self.entries)
        )
        for row in self.entries:
            if len(row) != len(self.entries):
                raise ValueError("cup table must be square")

    @classmethod
    def from_pairs(
        cls,
        h2: FgGroup,
        h4: FgGroup,
        pairs: Mapping[tuple[int, int], Iterable[int]] | None = None,
    ) -> CupForm:
        """Build a symmetric table from 0-based {(i, j): coefficients}.

        Missing pairs are zero; giving (i, j) also fills (j, i).  Two entries
        for the same unordered pair must agree.
        """
        p = h2.ngens
        table: list[list[Element]] = [[h4.zero] * p for _ in range(p)]
        seen: dict[tuple[int, int], Element] = {}
        for (i, j), coeffs in (pairs or {}).items():
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"generator index ({i}, {j}) out of range")
            value = h4.canonical(coeffs)
            key = (min(i, j), max(i, j))
            if key in seen and seen[key] != value:
                raise ValueError(f"conflicting cup entries for generators {key}")
            seen[key] = value
            table[i][j] = value
            table[j][i] = value
        return cls(tuple(tuple(row) for row in table))

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Element:
        return self.entries[i][j]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # "symmetry" or "torsion"
    i: int  # 0-based H^2 generator indices
    j: int
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
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


def _moduli(group: FgGroup) -> tuple[int, ...]:
    return (0,) * group.free_rank + group.torsion_orders


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


def _reduce(coords: Iterable[int], moduli: tuple[int, ...]) -> Element:
    """Canonical form of raw coordinates: each torsion one taken mod its order."""
    return tuple([c % m if m else c for c, m in zip(coords, moduli)])


@dataclass(frozen=True)
class CohomologyRing:
    """H^2, H^4 and the symmetric cup pairing H^2 x H^2 -> H^4."""

    h2: FgGroup
    h4: FgGroup
    cup_form: CupForm

    def __post_init__(self) -> None:
        if self.cup_form.size != self.h2.ngens:
            raise ValueError(
                f"cup table is {self.cup_form.size}x{self.cup_form.size} "
                f"but H^2 has {self.h2.ngens} generators"
            )
        # canonicalize entries so equality of rings is well defined
        canonical = tuple(
            tuple(self.h4.canonical(e) for e in row) for row in self.cup_form.entries
        )
        if canonical != self.cup_form.entries:
            object.__setattr__(self, "cup_form", CupForm(canonical))

    @property
    def is_finite(self) -> bool:
        return self.h2.is_finite and self.h4.is_finite

    def cup(self, a: Iterable[int], b: Iterable[int]) -> Element:
        """Bilinear extension of the generator table: sum of a_i b_j (e_i e_j)."""
        a = self.h2.canonical(a)
        b = self.h2.canonical(b)
        terms, _, h4_moduli = self._cup_kernel
        total = [0] * len(h4_moduli)
        _add_cup(total, terms, a, b, 1)
        return _reduce(total, h4_moduli)

    def cup_square(self, a: Iterable[int]) -> Element:
        a = self.h2.canonical(a)
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
        # frozen dataclass still allows, so the report dies with the ring.
        return _validate(self)

    @cached_property
    def _cup_kernel(self) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
        """The cup form as plain ints: (terms, H^2 moduli, H^4 moduli).

        ``terms`` lists every nonzero entry e_ij as (i, j, ((k, coeff), ...))
        over the H^4 coordinates k; the moduli give each coordinate's order,
        with 0 marking a free one.  Built on first use and kept with the
        ring, like the validation.
        """
        terms = tuple(
            (i, j, tuple((k, v) for k, v in enumerate(entry) if v))
            for i, row in enumerate(self.cup_form.entries)
            for j, entry in enumerate(row)
            if any(entry)
        )
        return terms, _moduli(self.h2), _moduli(self.h4)

    def __str__(self) -> str:
        return f"CohomologyRing(H2={self.h2}, H4={self.h4})"


def _validate(ring: CohomologyRing) -> ValidationReport:
    issues: list[ValidationIssue] = []
    h2, h4, table = ring.h2, ring.h4, ring.cup_form.entries
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


def validate_ring(ring: CohomologyRing) -> ValidationReport:
    """Check symmetry and torsion compatibility of the cup table.

    Returns a report listing every violation with the generator indices
    involved; an empty report means the ring is usable downstream.
    """
    return ring.validate()
