"""K⁰ rings from the literature, checked as rings through the engine.

Each ring is a presentation Z[t1, ..., tk]/(relations) with a monomial basis
of its reduced part.  The generators go to engine classes.  Every relation
must vanish, evaluated twice through ``k_add`` and ``k_mul``: with its powers
taken by ``k_pow`` and by repeated ``k_mul``.  The images of the reduced
monomials must span the whole reduced group of the engine: by enumeration
when it is finite, and by a unimodular matrix of additive coordinates when
it is free.  The map from the presentation is then a well-defined ring map
onto K⁰.

- CPⁿ: K = Z[η]/(ηⁿ⁺¹), η = L - 1 (Atiyah, K-Theory, 1967), here n = 2.
- S⁴: Z[β]/(β²), β = V(1) - 2, the Bott class.
- S² × S²: Z[a, b]/(a², b²), the product of two copies of K(S²).
- RP⁴: Z[λ]/(λ² + 2λ, 4λ), λ = L - 1 (Adams, Ann. of Math. 75, 1962).
- The 4-skeleton of BZ/m, H² = H⁴ = Z/m with x² = y:
  Z[σ]/(σ³, (1 + σ)^m - 1), σ = L - 1 (Kambe, J. Math. Soc. Japan 18, 1966,
  for the odd-prime lens spaces).
"""

import functools
import math

import pytest

from conftest import make_ring
from kfour.abelian import FgGroup, IntMatrix
from kfour.kclasses import integer_class, k_add, k_mul, k_neg, k_pow, line_class, rank2_class
from kfour.structure import reduced_k_structure


def power_by_products(ring, a, n):
    return functools.reduce(functools.partial(k_mul, ring), [a] * n, integer_class(ring, 1))


def evaluate(ring, poly, gens, power):
    """Σ c·Π gᵢ^eᵢ over {exponents: c}, every power taken by ``power``."""
    total = integer_class(ring, 0)
    for exponents, c in poly.items():
        term = integer_class(ring, 1)
        for g, e in zip(gens, exponents):
            term = k_mul(ring, term, power(ring, g, e))
        for _ in range(abs(c)):
            total = k_add(ring, total, term if c > 0 else k_neg(ring, term))
    return total


def eta(ring, i=0):
    """L(eᵢ) - 1."""
    e = tuple(int(k == i) for k in range(ring.h2.ngens))
    return k_add(ring, line_class(ring, e), integer_class(ring, -1))


def cp2():
    ring = make_ring(FgGroup(1), FgGroup(1), {(0, 0): (1,)})
    return ring, [eta(ring)], [{(3,): 1}], [(1,), (2,)]


def s4():
    ring = make_ring(FgGroup(), FgGroup(1))
    beta = k_add(ring, rank2_class(ring, (1,)), integer_class(ring, -2))
    return ring, [beta], [{(2,): 1}], [(1,)]


def s2_s2():
    ring = make_ring(FgGroup(2), FgGroup(1), {(0, 1): (1,)})
    relations, basis = [{(2, 0): 1}, {(0, 2): 1}], [(1, 0), (0, 1), (1, 1)]
    return ring, [eta(ring, 0), eta(ring, 1)], relations, basis


def rp4():
    ring = make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (1,)})
    return ring, [eta(ring)], [{(2,): 1, (1,): 2}, {(1,): 4}], [(1,)]


def lens(m):
    ring = make_ring(FgGroup(0, (m,)), FgGroup(0, (m,)), {(0, 0): (1,)})
    binomial = {(k,): math.comb(m, k) for k in range(1, m + 1)}  # (1 + σ)^m - 1
    return ring, [eta(ring)], [{(3,): 1}, binomial], [(1,), (2,)]


RINGS = {"CP2": cp2, "S4": s4, "S2xS2": s2_s2, "RP4": rp4}
RINGS.update({f"BZ/{m}": functools.partial(lens, m) for m in (2, 3, 4, 5, 8)})


def span(ring, classes):
    """The subgroup that rank-0 classes generate, by closure under k_add."""
    zero = integer_class(ring, 0)
    seen, frontier = {zero}, [zero]
    while frontier:
        a = frontier.pop()
        for g in classes:
            s = k_add(ring, a, g)
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def additive_coordinates(ring, a):
    """(x, c2(a - Σ xᵢ (L(eᵢ) - 1))) for a rank-0 class a = (0, x, y) of a free ring.

    a ↦ Σ xᵢ (L(eᵢ) - 1) is a homomorphism that keeps c1, and rank-0 classes
    with c1 = 0 add as H⁴ does, so these coordinates are additive.
    """
    rest = a
    for i, x in enumerate(a.c1):
        for _ in range(abs(x)):
            step = eta(ring, i)
            rest = k_add(ring, rest, k_neg(ring, step) if x > 0 else step)
    return a.c1 + rest.c2


@pytest.mark.parametrize("name", RINGS)
def test_relations_hold_and_monomials_span(name):
    ring, gens, relations, basis = RINGS[name]()
    zero = integer_class(ring, 0)
    for relation in relations:
        assert evaluate(ring, relation, gens, k_pow) == zero, relation
        assert evaluate(ring, relation, gens, power_by_products) == zero, relation
    images = [evaluate(ring, {b: 1}, gens, k_pow) for b in basis]
    assert images == [evaluate(ring, {b: 1}, gens, power_by_products) for b in basis]
    assert all(a.rank == 0 for a in images)
    structure = reduced_k_structure(ring)
    if ring.is_finite:
        assert len(span(ring, images)) == structure.order
    else:
        # as many monomials as free generators, and a unimodular matrix of them
        assert structure.invariant_factors == () and len(basis) == structure.free_rank
        det = IntMatrix.from_rows([additive_coordinates(ring, a) for a in images]).det()
        assert abs(det) == 1


def test_reduced_groups_as_cited():
    groups = {name: reduced_k_structure(RINGS[name]()[0]) for name in RINGS}
    assert [str(groups[n]) for n in ("CP2", "S4", "S2xS2", "RP4")] == ["Z^2", "Z", "Z^3", "Z/4"]
    assert [str(groups[f"BZ/{m}"]) for m in (2, 3, 4, 5, 8)] == [
        "Z/4", "Z/3 ⊕ Z/3", "Z/2 ⊕ Z/8", "Z/5 ⊕ Z/5", "Z/4 ⊕ Z/16"
    ]

