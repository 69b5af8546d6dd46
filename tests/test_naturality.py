"""Isomorphic inputs give isomorphic outputs: naturality under automorphisms of H².

Let φ be an automorphism of H², and let R′ have the groups of R with
cup′(a, b) = cup(φa, φb).  Then Φ: (r, x, y) ↦ (r, φx, y) is a ring
isomorphism K(R′) → K(R): it keeps c2 of a sum, since cup′(x, x′) =
cup(φx, φx′), and of a product likewise.  So R′ validates, both rings have
the same reduced group by the engine and by the oracle, and Φ commutes with
``k_add``, ``k_mul`` and ``k_pow``.  φ is a product of elementary moves on
the generators of H² = Z^f ⊕ ⊕ Z/nᵢ, and is evaluated with ``FgGroup``'s own
``add``, ``scale`` and ``negate``, so a basis-dependent mistake in those, in
the engine or in the structure shows as two answers for one space.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cup_entry_choices, make_ring
from kfour.abelian import FgGroup
from kfour.kclasses import KClass, k_add, k_mul, k_pow
from kfour.oracle import oracle_compare, verify_relations
from kfour.structure import reduced_k_structure

@st.composite
def rings(draw):
    """A valid ring with two H² generators, each cup entry nonzero where it can be.

    Every order is 0 (free, in H² only), p or 2p for one prime p, so that the
    moves below change the form more often than not.
    """
    p = draw(st.sampled_from([2, 3]))
    orders = sorted(draw(st.lists(st.sampled_from([0, p, 2 * p]), min_size=2, max_size=2)),
                    key=bool)
    h2 = FgGroup(orders.count(0), tuple(n for n in orders if n))
    h4 = FgGroup(0, tuple(draw(st.lists(st.sampled_from([p, 2 * p]), min_size=1, max_size=2))))
    pairs = {}
    for i, j in ((0, 0), (0, 1), (1, 1)):
        choices = cup_entry_choices(h2, h4, i, j)
        pairs[i, j] = draw(st.sampled_from([v for v in choices if any(v)] or choices))
    return make_ring(h2, h4, pairs)


def generator_orders(group):
    return (0,) * group.free_rank + group.torsion_orders


@st.composite
def automorphisms(draw, h2):
    """The images of the generators under a product of elementary moves.

    eᵢ ↦ u eᵢ for a unit u (±1 on a free generator), and eᵢ ↦ eᵢ + c eⱼ,
    a homomorphism when eᵢ is free or the order of eⱼ divides c nᵢ.  Each
    move is applied after the ones before it, to the images so far.
    """
    n = generator_orders(h2)
    images = [tuple(int(k == i) for k in range(h2.ngens)) for i in range(h2.ngens)]
    for move in draw(st.lists(st.sampled_from(["shear", "unit"]), max_size=3)) + ["shear"]:
        i, j = draw(st.permutations(range(h2.ngens)))
        if move == "unit":
            units = [u for u in range(2, n[i]) if math.gcd(u, n[i]) == 1] or [-1]
            u = draw(st.sampled_from(units))
            images[i] = h2.negate(images[i]) if u in (-1, n[i] - 1) else h2.scale(u, images[i])
        else:
            if n[i] and not n[j]:
                i, j = j, i  # a free generator takes any shear
            step = n[j] // math.gcd(n[j], n[i]) if n[i] else 1
            c = step * draw(st.sampled_from([1, -1]))
            images[i] = h2.add(images[i], h2.scale(c, images[j]))
    return images


def apply(h2, images, x):
    """φ(x) = Σ xₖ φ(eₖ)."""
    total = h2.zero
    for xk, image in zip(x, images):
        total = h2.add(total, h2.scale(xk, image))
    return total


@st.composite
def classes(draw, ring):
    def coords(group):
        return tuple(draw(st.integers(-7, 7)) for _ in range(group.ngens))

    return KClass(ring, draw(st.integers(-1, 2)), coords(ring.h2), coords(ring.h4))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_automorphism_of_h2_gives_an_isomorphic_ring(data):
    ring = data.draw(rings())
    h2, h4 = ring.h2, ring.h4
    images = data.draw(automorphisms(h2))
    moved = make_ring(h2, h4, {(i, j): ring.cup(images[i], images[j])
                               for i in range(h2.ngens) for j in range(i, h2.ngens)})
    assert moved.validate().ok
    assert reduced_k_structure(moved) == reduced_k_structure(ring)
    if ring.is_finite:
        before, after = oracle_compare(ring), oracle_compare(moved)
        assert before.ok and after.ok
        assert after.oracle_structure == before.oracle_structure
    else:
        assert verify_relations(ring, 1).ok and verify_relations(moved, 1).ok

    def image(a):
        return KClass(ring, a.rank, apply(h2, images, a.c1), a.c2)

    for _ in range(3):
        a, b = data.draw(classes(moved)), data.draw(classes(moved))
        assert image(k_add(moved, a, b)) == k_add(ring, image(a), image(b))
        assert image(k_mul(moved, a, b)) == k_mul(ring, image(a), image(b))
        n = data.draw(st.integers(0, 3))
        assert image(k_pow(moved, a, n)) == k_pow(ring, image(a), n)
