"""Exact arithmetic for finitely generated abelian groups and integer matrices.

A group is presented as Z^r (+) Z/n1 (+) ... (+) Z/nk, free coordinates
first.  Elements are plain tuples of ints in canonical form: every torsion
coordinate is reduced into [0, order), free coordinates are unbounded.
Python's arbitrary-precision integers make all of this exact; there is no
overflow to guard against.

The integer-matrix side provides Smith normal form with explicit unimodular
witnesses, and the standard presentation solver: the abelian group presented
by a relation matrix is its cokernel, whose invariant factors are read off
the diagonal of a Smith form.  The solver keeps no witnesses: it first
reduces the relation rows to a sparse row echelon form by exact gcd
elimination, with no modulus, and takes the Smith form of that echelon,
which has at most one row per generator.  The witnessed Smith normal form
of the whole matrix is the reference it is tested against.

Everything in this module is immutable and side-effect free, so any value
may be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

Element = tuple[int, ...]

__all__ = [
    "Element",
    "FgGroup",
    "GroupStructureReport",
    "InfiniteGroupError",
    "IntMatrix",
    "group_from_relations",
    "smith_normal_form",
]


class InfiniteGroupError(ValueError):
    """An operation that needs a finite group was given one with free rank."""


@dataclass(frozen=True)
class FgGroup:
    """A finitely generated abelian group Z^free_rank (+) Z/n1 (+) ... (+) Z/nk.

    Torsion orders may appear in any order and need not form a divisibility
    chain; producing canonical invariant factors is the business of
    :class:`GroupStructureReport`, not of the presentation.

    >>> g = FgGroup(1, (3,))
    >>> g.add((2, 2), (-1, 2))
    (1, 1)
    """

    free_rank: int = 0
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion_orders", tuple(self.torsion_orders))
        if self.free_rank < 0:
            raise ValueError(f"free rank must be non-negative, got {self.free_rank}")
        for n in self.torsion_orders:
            if n < 2:
                raise ValueError(f"torsion orders must be >= 2, got {n}")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int | None:
        """Number of elements, or None when the group is infinite."""
        if not self.is_finite:
            return None
        return math.prod(self.torsion_orders)

    @property
    def zero(self) -> Element:
        return (0,) * self.ngens

    def canonical(self, coeffs: Iterable[int]) -> Element:
        """Canonical form: torsion coordinates reduced into [0, order)."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.ngens:
            raise ValueError(
                f"expected {self.ngens} coordinates for {self}, got {len(coeffs)}"
            )
        free = coeffs[: self.free_rank]
        torsion = tuple(
            c % n for c, n in zip(coeffs[self.free_rank :], self.torsion_orders)
        )
        return free + torsion

    def add(self, a: Iterable[int], b: Iterable[int]) -> Element:
        a, b = tuple(a), tuple(b)
        if len(a) != self.ngens or len(b) != self.ngens:
            raise ValueError(
                f"expected {self.ngens} coordinates for {self}, "
                f"got {len(a)} and {len(b)}"
            )
        return self.canonical(x + y for x, y in zip(a, b))

    def negate(self, a: Iterable[int]) -> Element:
        return self.canonical(-x for x in tuple(a))

    def scale(self, n: int, a: Iterable[int]) -> Element:
        return self.canonical(n * x for x in tuple(a))

    def element_order(self, a: Iterable[int]) -> int | None:
        """Least n >= 1 with n*a = 0, or None for infinite order."""
        a = self.canonical(a)
        if any(a[: self.free_rank]):
            return None
        return math.lcm(
            *(n // math.gcd(n, c) for c, n in zip(a[self.free_rank :], self.torsion_orders))
        )

    def elements(self) -> Iterator[Element]:
        """Every element exactly once; only defined for finite groups."""
        if not self.is_finite:
            raise InfiniteGroupError(f"cannot enumerate the infinite group {self}")
        return itertools.product(*(range(n) for n in self.torsion_orders))

    def bounded_elements(self, bound: int) -> Iterator[Element]:
        """Canonical forms of the coordinate box [-bound, bound]^ngens.

        Free coordinates range over [-bound, bound]; torsion coordinates over
        the canonical residues of that interval (the whole cyclic factor when
        its order is small enough).
        """
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        box = range(-bound, bound + 1)
        ranges: list[Iterable[int]] = [box] * self.free_rank
        for n in self.torsion_orders:
            ranges.append(sorted({c % n for c in box}))
        return itertools.product(*ranges)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{n}" for n in self.torsion_orders)
        return " ⊕ ".join(parts) if parts else "0"


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix with exact entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], *, cols: int | None = None) -> IntMatrix:
        entries = tuple(tuple(row) for row in rows)
        if cols is None:
            if not entries:
                raise ValueError("column count is required for a matrix with no rows")
            cols = len(entries[0])
        return cls(len(entries), cols, entries)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, diag: Iterable[int], rows: int | None = None, cols: int | None = None) -> IntMatrix:
        diag = tuple(diag)
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        entries = tuple(
            tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(cols))
            for i in range(rows)
        )
        return cls(rows, cols, entries)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        entries = tuple(
            tuple(
                sum(row[k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, entries)

    def transpose(self) -> IntMatrix:
        entries = tuple(
            tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)
        )
        return IntMatrix(self.cols, self.rows, entries)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (U, D, V) with D = U @ m @ V, U and V unimodular (determinant
    +-1), and D diagonal with non-negative entries forming a divisibility
    chain d1 | d2 | ... (ones first, zeros last).
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i1: int, i2: int, x: int, y: int, z: int, w: int) -> None:
        # rows (r1, r2) <- (x r1 + y r2, z r1 + w r2); x*w - y*z = +-1
        for mat in (a, u):
            r1, r2 = mat[i1], mat[i2]
            for j in range(len(r1)):
                p, q = r1[j], r2[j]
                r1[j] = x * p + y * q
                r2[j] = z * p + w * q

    def col_op(j1: int, j2: int, x: int, y: int, z: int, w: int) -> None:
        # cols (c1, c2) <- (x c1 + y c2, z c1 + w c2); x*w - y*z = +-1
        for mat in (a, v):
            for row in mat:
                p, q = row[j1], row[j2]
                row[j1] = x * p + y * q
                row[j2] = z * p + w * q

    def clear_row_entry(t: int, i: int) -> None:
        # make a[i][t] zero, pivoting at a[t][t]
        p, q = a[t][t], a[i][t]
        if p != 0 and q % p == 0:
            row_op(t, i, 1, 0, -(q // p), 1)
        else:
            g, x, y = _xgcd(p, q)
            row_op(t, i, x, y, -(q // g), p // g)

    def clear_col_entry(t: int, j: int) -> None:
        p, q = a[t][t], a[t][j]
        if p != 0 and q % p == 0:
            col_op(t, j, 1, 0, -(q // p), 1)
        else:
            g, x, y = _xgcd(p, q)
            col_op(t, j, x, y, -(q // g), p // g)

    limit = min(nr, nc)
    for t in range(limit):
        # smallest nonzero entry of the trailing submatrix as pivot
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = a[i][j]
                if e != 0 and (pivot is None or abs(e) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_op(t, pivot[0], 0, 1, 1, 0)
        if pivot[1] != t:
            col_op(t, pivot[1], 0, 1, 1, 0)
        while True:
            for i in range(t + 1, nr):
                if a[i][t]:
                    clear_row_entry(t, i)
            if any(a[t][j] for j in range(t + 1, nc)):
                for j in range(t + 1, nc):
                    if a[t][j]:
                        clear_col_entry(t, j)
                # column ops may have dirtied the pivot column again
                if any(a[i][t] for i in range(t + 1, nr)):
                    continue
            d = a[t][t]
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if a[i][j] % d
                ),
                None,
            )
            if offender is None:
                break
            # fold the non-divisible row into the pivot row; the next round
            # of clearing strictly shrinks |pivot| (gcd step), so this ends
            row_op(t, offender[0], 1, 1, 0, 1)

    for t in range(limit):
        if a[t][t] < 0:
            a[t] = [-e for e in a[t]]
            u[t] = [-e for e in u[t]]
    return (
        IntMatrix(nr, nr, tuple(tuple(row) for row in u)),
        IntMatrix(nr, nc, tuple(tuple(row) for row in a)),
        IntMatrix(nc, nc, tuple(tuple(row) for row in v)),
    )


@dataclass(frozen=True)
class GroupStructureReport:
    """Isomorphism type of a finitely generated abelian group.

    Invariant factors form a divisibility chain d1 | d2 | ... with every
    factor >= 2; the group is Z^free_rank (+) Z/d1 (+) ... (+) Z/dk.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariant_factors", tuple(self.invariant_factors))
        if self.free_rank < 0:
            raise ValueError(f"free rank must be non-negative, got {self.free_rank}")
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2, got {d}")
        for d, e in zip(self.invariant_factors, self.invariant_factors[1:]):
            if e % d:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, got {d} and {e}"
                )

    @property
    def order(self) -> int | None:
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def as_group(self) -> FgGroup:
        return FgGroup(self.free_rank, self.invariant_factors)

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " ⊕ ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.describe()


def _add_multiple(row: dict[int, int], k: int, other: dict[int, int]) -> None:
    """row += k * other on sparse rows, in place, dropping entries that vanish."""
    for j, e in other.items():
        v = row.get(j, 0) + k * e
        if v:
            row[j] = v
        else:
            row.pop(j, None)


def _echelon(relations: IntMatrix) -> list[dict[int, int]]:
    """A row echelon basis of the row lattice of `relations`, as sparse rows.

    Zero and duplicate rows are dropped.  Each remaining row is reduced,
    column by column from the left, against the pivot rows found so far, by
    exact unimodular gcd operations on pairs of rows, until it vanishes or
    reaches a column without a pivot, where it becomes that column's pivot
    row.  So the result spans the same lattice with at most `cols` rows.  No
    modulus is used, and no witness is kept.
    """
    pivots: dict[int, dict[int, int]] = {}
    for entries in dict.fromkeys(relations.entries):
        row = {j: e for j, e in enumerate(entries) if e}
        for col in range(relations.cols):
            if col not in row:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            p, q = pivot[col], row[col]
            if q % p:
                # (pivot, row) <- (x pivot + y row, (p/g) row - (q/g) pivot),
                # a unimodular step; y and p/g are nonzero since p does not
                # divide q, so neither scaled row has a zero entry
                g, x, y = _xgcd(p, q)
                pivots[col] = {j: y * e for j, e in row.items()}
                _add_multiple(pivots[col], x, pivot)
                row = {j: p // g * e for j, e in row.items()}
                _add_multiple(row, -(q // g), pivot)
            else:
                _add_multiple(row, -(q // p), pivot)
    return [pivots[col] for col in sorted(pivots)]


def group_from_relations(num_generators: int, relations: IntMatrix) -> GroupStructureReport:
    """Invariant factors of Z^num_generators modulo the row span of `relations`.

    The rows are first brought to a sparse row echelon form by exact gcd
    elimination (:func:`_echelon`), which has at most `num_generators` rows
    and the same row lattice; the Smith normal form of that small echelon
    gives the invariant factors.  The witnessed :func:`smith_normal_form` of
    the whole matrix is the reference this is tested against.
    """
    if num_generators < 0:
        raise ValueError("generator count must be non-negative")
    if relations.cols != num_generators:
        raise ValueError(
            f"relation matrix has {relations.cols} columns for {num_generators} generators"
        )
    echelon = _echelon(relations)
    # columns in no echelon row add only free rank, so the Smith form is
    # taken of the others
    cols = sorted({j for row in echelon for j in row})
    reduced = IntMatrix(
        len(echelon), len(cols), tuple(tuple(row.get(j, 0) for j in cols) for row in echelon)
    )
    _, d, _ = smith_normal_form(reduced)
    diag = d.diagonal_entries()
    rank = sum(1 for e in diag if e)
    factors = tuple(e for e in diag if e >= 2)
    return GroupStructureReport(num_generators - rank, factors)
