"""Exact arithmetic for finitely generated abelian groups and integer matrices.

A group is presented as Z^r (+) Z/n1 (+) ... (+) Z/nk, free coordinates
first.  Elements are plain tuples of ints in canonical form: every torsion
coordinate is reduced into [0, order), free coordinates are unbounded.
Python's arbitrary-precision integers make all of this exact; there is no
overflow to guard against.  A group compiles two straight-line kernels, each
on its first use for that group: ``add`` (a, b) and ``scale`` (n, a), which
``canonical`` (n = 1) and ``negate`` (n = -1) run too.  Every coordinate is a
local, each torsion coordinate reduced once, by its order as a literal.  The
cohomology kernels share its source helpers.  Parsing, building and
validating a ring compile none: they use :func:`_reduce`.

The integer-matrix side has one exact elimination, :func:`_diagonalize`:
sparse row echelon forms of the rows and of the columns in turn, by gcd
operations with no modulus, until the matrix is diagonal, then folds of
neighbouring entries until they form a divisibility chain.  With unimodular
witnesses carried along it is :func:`smith_normal_form`; without them it is
the presentation solver on sparse rows, whose group, the cokernel of the
relations, has the chain as its invariant factors.

Everything in this module is immutable and side-effect free, so any value
may be shared freely across threads.  :func:`_frozen`, a stand-in for
``dataclass(frozen=True)`` that spares its import, freezes every value class.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
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


def _reduce(coords: Iterable[int], moduli: tuple[int, ...]) -> Element:
    """Canonical form of raw coordinates: each torsion one taken mod its order."""
    return tuple([c % m if m else c for c, m in zip(coords, moduli)])


def _unpack(name: str, count: int, source: str) -> str:
    """Source that binds the coordinates of ``source`` to name0, name1, ...

    It raises ValueError when ``source`` has another length.
    """
    return f"{''.join(f'{name}{k}, ' for k in range(count)) or '()'} = {source}"


def _factor(expr: str) -> str:
    return expr if expr.isidentifier() else f"({expr})"


def _reduced(exprs: Iterable[str], moduli: tuple[int, ...]) -> str:
    """A tuple display of ``exprs``, each reduced by its modulus when it has one."""
    return "(" + "".join(f"{_factor(e)} % {m}, " if m else f"{e}, "
                         for e, m in zip(exprs, moduli)) + ")"


def _define(name: str, args: str, body: list[str], namespace: dict):
    """The function ``def name(args)`` with ``body``, compiled in ``namespace``."""
    exec(f"def {name}({args}):\n" + "".join(f" {line}\n" for line in body), namespace)
    # taken out, so that the namespace and the function do not form a cycle
    return namespace.pop(name)


def _compile(group: FgGroup, op: str):
    """The group's straight-line kernel for ``op``, compiled from source.

    ``op`` is "add" (a, b) or "scale" (n, a), and the kernel returns the
    canonical a + b or n a; ``canonical`` and ``negate`` are n a for n = 1
    and n = -1.  It unpacks each element argument, so one of another length
    raises ValueError.  It keeps no reference to the group, so a group that
    holds its kernels is freed without the cycle collector.
    """
    args, exprs = {"add": ("a, b", "a{k} + b{k}"), "scale": ("n, a", "n * a{k}")}[op]
    moduli = group._moduli
    result = _reduced((exprs.format(k=k) for k in range(len(moduli))), moduli)
    unpack = [_unpack(name, len(moduli), name) for name in ("ab" if op == "add" else "a")]
    return _define(op, args, [*unpack, f"return {result}"], {})


def _without_kernels(value) -> dict:
    """Pickled state: pickle cannot name a kernel, so an unpickled value compiles its own."""
    return {k: v for k, v in value.__dict__.items() if not k.endswith("_kernel")}


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _frozen(cls):
    """Make ``cls`` an immutable value class, as ``dataclass(frozen=True)`` would.

    Fields are the class annotations in order; a class attribute is a field's
    default.  ``__init__`` (then ``__post_init__``), ``__eq__`` and ``__hash__``
    on the tuple of fields are generated from source, for speed; ``__repr__``
    is added unless the class has its own.  Setting or deleting an attribute
    raises AttributeError; ``object.__setattr__`` and ``cached_property`` write.
    """
    own = cls.__dict__
    names = list(own.get("__annotations__", {}))
    args = ", ".join(f"{n}=own[{n!r}]" if n in own else n for n in names)
    sets = "".join(f" _set(self, {n!r}, {n})\n" for n in names)
    post = " self.__post_init__()\n" if "__post_init__" in own else ""
    mine, theirs = (", ".join(f"{s}.{n}" for n in names) + "," for s in ("self", "other"))

    def __repr__(self):  # a closure: compiling it from source would double the cost
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    ns = {"_set": object.__setattr__, "own": own, "__repr__": __repr__}
    exec(
        f"def __init__(self, {args}):\n{sets}{post}"
        "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
        f"  return ({mine}) == ({theirs})\n return NotImplemented\n"
        f"def __hash__(self):\n return hash(({mine}))\n",
        ns,
    )
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        if name not in own:
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


@_frozen
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

    @cached_property
    def _moduli(self) -> tuple[int, ...]:
        """Each coordinate's order, 0 for a free one; built on first use."""
        return (0,) * self.free_rank + self.torsion_orders

    def _length_error(self, *args: Element) -> ValueError:
        got = " and ".join(str(len(arg)) for arg in args)
        return ValueError(f"expected {self.ngens} coordinates for {self}, got {got}")

    def _coords(self, coeffs: Iterable[int]) -> Element:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.ngens:
            raise self._length_error(coeffs)
        return coeffs

    # Each operation reads its arguments once, into tuples, for its kernel;
    # the kernel's only ValueError is that of unpacking a wrong length.

    def canonical(self, coeffs: Iterable[int]) -> Element:
        """Canonical form: torsion coordinates reduced into [0, order)."""
        coeffs = coeffs if coeffs.__class__ is tuple else tuple(coeffs)
        try:
            return self._scale_kernel(1, coeffs)
        except ValueError:
            raise self._length_error(coeffs) from None

    def add(self, a: Iterable[int], b: Iterable[int]) -> Element:
        a = a if a.__class__ is tuple else tuple(a)
        b = b if b.__class__ is tuple else tuple(b)
        try:
            return self._add_kernel(a, b)
        except ValueError:
            raise self._length_error(a, b) from None

    def negate(self, a: Iterable[int]) -> Element:
        return self.scale(-1, a)

    def scale(self, n: int, a: Iterable[int]) -> Element:
        a = a if a.__class__ is tuple else tuple(a)
        try:
            return self._scale_kernel(n, a)
        except ValueError:
            raise self._length_error(a) from None

    # The straight-line kernels of :func:`_compile`: each is compiled on its
    # first use and kept in the group's __dict__, like ``_moduli``.
    _add_kernel, _scale_kernel = (
        cached_property(lambda self, op=op: _compile(self, op)) for op in ("add", "scale")
    )

    __getstate__ = _without_kernels

    def element_order(self, a: Iterable[int]) -> int | None:
        """Least n >= 1 with n*a = 0, or None for infinite order."""
        a = self.canonical(a)
        if any(c for c, m in zip(a, self._moduli) if not m):
            return None
        return math.lcm(*(m // math.gcd(m, c) for c, m in zip(a, self._moduli) if m))

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
        ranges = (sorted({c % m for c in box}) if m else box for m in self._moduli)
        return itertools.product(*ranges)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{n}" for n in self.torsion_orders)
        return " ⊕ ".join(parts) if parts else "0"


@_frozen
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


@_frozen
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
        return str(self.as_group())

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


def _echelon(rows: Iterable[dict[int, int]], n: int) -> tuple[dict, list[dict[int, int]]]:
    """A row echelon form of sparse rows, pivoting only in the columns below n.

    Each row is reduced, column by column from the left, against the pivot
    rows found so far, by exact unimodular gcd operations on pairs of rows,
    until it has no entry below n or reaches a column without a pivot, where
    it becomes that column's pivot row.  Keys from n on are carried along but
    never pivoted on, so a witness stored there records every operation.
    Returns the pivot rows by column and the other rows that are not empty;
    together they span the lattice of the given rows.  No modulus is used.
    """
    pivots: dict[int, dict[int, int]] = {}
    rest = []
    for row in rows:
        while (col := min(row, default=n)) in pivots:
            pivot = pivots[col]
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
        if col < n:
            pivots[col] = row
        elif row:
            rest.append(row)
    return pivots, rest


def _diagonalize(rows: list[dict[int, int]], n: int, left: list | None = None,
                 right: list | None = None) -> tuple[list[tuple[int, int, int]], list, list]:
    """Bring the sparse rows (keys below n) of a matrix to Smith form.

    Row echelon forms of the rows and of the columns alternate (Kannan &
    Bachem, SIAM J. Comput. 8, 1979) until each row has at most one entry.
    Then, with the rows in order of the size of their entry, the first row
    whose entry does not divide the next one gets that neighbour's row added,
    and the alternation resumes: it replaces the pair by their gcd and lcm,
    until the entries form a divisibility chain.

    Returns ``(entries, U, V^T)``.  Each entry (i, j, d) is the only nonzero
    value of row i and column j of U @ m @ V, in chain order, with d up to
    sign.  The witnesses exist only when the rows of ``left`` (U, one per
    row) and ``right`` (V transposed, one per column) are given: they start
    as given and ride along as the keys from n on of the rows they follow.
    Without them a transpose keeps only the columns that have entries.
    The row dicts given may be changed in place.
    """
    witness = left is not None
    if witness:
        rows = [row | {n + k: e for k, e in u.items()} for row, u in zip(rows, left)]
    other, flipped = right, False
    while True:
        pivots, rest = _echelon(rows, n)
        cols = sorted(pivots)
        if all(sum(j < n for j in pivots[c]) == 1 for c in cols):
            cols.sort(key=lambda c: abs(pivots[c][c]))
            d = [pivots[c][c] for c in cols]
            fold = next((t for t in range(len(d) - 1) if d[t + 1] % d[t]), None)
            if fold is None:
                break
            _add_multiple(pivots[cols[fold]], 1, pivots[cols[fold + 1]])
        # transpose: the columns become rows keyed by row position, followed
        # by the other witness, and this side's witness is set aside
        rows = [pivots[c] for c in cols] + rest
        columns = {j: {} for j in range(n)} if witness else {}
        for i, row in enumerate(rows):
            for j, e in row.items():
                if j < n:
                    columns.setdefault(j, {})[i] = e
        if witness:
            for column, v in zip(columns.values(), other):
                column.update((len(rows) + k, e) for k, e in v.items())
        other = [{j - n: e for j, e in row.items() if j >= n} for row in rows]
        rows, n, flipped = [columns[j] for j in sorted(columns)], len(rows), not flipped
    rows = [pivots[c] for c in cols] + rest
    mine = [{j - n: e for j, e in row.items() if j >= n} for row in rows]
    entries = [(t, c, pivots[c][c]) for t, c in enumerate(cols)]
    if flipped:
        return [(i, j, e) for j, i, e in entries], other, mine
    return entries, mine, other


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (U, D, V) with D = U @ m @ V, U and V unimodular (determinant
    +-1), and D diagonal with non-negative entries forming a divisibility
    chain d1 | d2 | ... (ones first, zeros last).
    """
    nr, nc = m.rows, m.cols
    entries, u, vt = _diagonalize(
        [{j: e for j, e in enumerate(row) if e} for row in m.entries],
        nc,
        [{i: 1} for i in range(nr)],
        [{j: 1} for j in range(nc)],
    )
    # move the entries onto the diagonal in chain order, their signs into U
    for i, _, e in entries:
        if e < 0:
            u[i] = {k: -x for k, x in u[i].items()}
    rows = [i for i, _, _ in entries]
    rows += sorted(set(range(nr)) - set(rows))
    cols = [j for _, j, _ in entries]
    cols += sorted(set(range(nc)) - set(cols))
    return (
        IntMatrix(nr, nr, tuple(tuple(u[i].get(k, 0) for k in range(nr)) for i in rows)),
        IntMatrix.diagonal([abs(e) for _, _, e in entries], nr, nc),
        IntMatrix(nc, nc, tuple(tuple(vt[j].get(k, 0) for j in cols) for k in range(nc))),
    )


def _solve_relations(num_generators: int, rows: Iterable[dict[int, int]]) -> GroupStructureReport:
    """Invariant factors of Z^num_generators modulo the span of sparse rows.

    A row maps a column below `num_generators` to its nonzero entry.  The
    distinct rows are brought to Smith form by the same exact elimination as
    :func:`smith_normal_form`, without witnesses: a sparse row echelon form
    first, which leaves at most `num_generators` rows, then echelon forms of
    columns and rows in turn.  Its nonzero entries are the invariant factors
    (and ones); every other generator adds free rank.
    """
    distinct = [dict(row) for row in dict.fromkeys(frozenset(row.items()) for row in rows)]
    diag = [abs(e) for _, _, e in _diagonalize(distinct, num_generators)[0]]
    return GroupStructureReport(num_generators - len(diag), tuple(e for e in diag if e >= 2))


def group_from_relations(num_generators: int, relations: IntMatrix) -> GroupStructureReport:
    """Invariant factors of Z^num_generators modulo the row span of `relations`.

    The presentation solver on the nonzero entries of each row.
    """
    if num_generators < 0:
        raise ValueError("generator count must be non-negative")
    if relations.cols != num_generators:
        raise ValueError(
            f"relation matrix has {relations.cols} columns for {num_generators} generators"
        )
    return _solve_relations(
        num_generators, ({j: e for j, e in enumerate(row) if e} for row in relations.entries)
    )
