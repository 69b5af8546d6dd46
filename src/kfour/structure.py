"""Isomorphism type of the K-theory of a 4-complex as an abelian group.

The rank-zero classes form the set H^2 x H^4 under the twisted addition
(x, y) + (x', y') = (x + x', y + y' + x x'); the cup form is symmetric, so
this is an abelian group.  It is presented on the generators of H^2 and H^4
with one relation per torsion generator:

    order-m generator f of H^4:   m f = 0
    order-n generator e of H^2:   n e = T(n) e^2   with T(n) = n(n-1)/2,

because the n-fold twisted sum of (e, 0) is (n e, T(n) e^2).  Solving the
presentation, as sparse rows of at most 1 + rank H^4 entries, by the exact
elimination of :mod:`kfour.abelian` yields the invariant factors; the full
K-group adds one free rank for the virtual-rank coordinate.

The oracle module rebuilds the same group from a completely different
presentation, and the test suite checks both against brute-force enumeration.
"""

from __future__ import annotations

from .abelian import GroupStructureReport, _solve_relations
from .cohomology import CohomologyRing
from .kclasses import choose2

__all__ = ["full_k_structure", "reduced_k_structure"]


def _twisted_relations(ring: CohomologyRing) -> list[dict[int, int]]:
    p = ring.h2.ngens
    rows = [{p + ring.h4.free_rank + k: m} for k, m in enumerate(ring.h4.torsion_orders)]
    cup = dict(ring.cup_form.pairs)
    for k, n in enumerate(ring.h2.torsion_orders):
        i = ring.h2.free_rank + k
        row = {i: n}
        t = choose2(n)
        for j, c in enumerate(cup.get((i, i), ())):
            if c:
                row[p + j] = -t * c
        rows.append(row)
    return rows


def reduced_k_structure(ring: CohomologyRing) -> GroupStructureReport:
    """Invariant factors and free rank of the rank-zero classes."""
    ring.require_valid()
    report = _solve_relations(ring.h2.ngens + ring.h4.ngens, _twisted_relations(ring))
    expected_free = ring.h2.free_rank + ring.h4.free_rank
    if report.free_rank != expected_free:
        raise RuntimeError(
            f"twisted presentation produced free rank {report.free_rank}, "
            f"expected {expected_free}"
        )
    if ring.is_finite and report.order != ring.h2.order * ring.h4.order:
        raise RuntimeError(
            f"twisted presentation produced a group of order {report.order}, "
            f"expected {ring.h2.order * ring.h4.order}"
        )
    return report


def _full_from_reduced(reduced: GroupStructureReport) -> GroupStructureReport:
    return GroupStructureReport(reduced.free_rank + 1, reduced.invariant_factors)


def full_k_structure(ring: CohomologyRing) -> GroupStructureReport:
    """The whole K-group: one extra free rank for the virtual rank."""
    return _full_from_reduced(reduced_k_structure(ring))
