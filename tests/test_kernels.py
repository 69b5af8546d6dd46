"""The per-ring compiled kernels against the generic loop they replaced.

The reference below is the engine as it was before kernels: every K-class
operation summed its closed form over the ring's flattened cup terms with
one generic loop, ``loop_cup``, and reduced each coordinate once at the end.
The kernels compute the same sums as straight-line code, so they must agree
on every valid ring, including ones with no H^2 or no H^4.
"""

import gc
import os
import pickle
import resource
import subprocess
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLI_MEMORY_CAP, SRC, cup_entry_choices, make_ring
from kfour import cohomology, eval_expr
from kfour.abelian import FgGroup
from kfour.cohomology import MAX_COORDINATES
from kfour.kclasses import (KClass, choose2, integer_class, k_add, k_mul, k_neg, k_pow,
                            k_scale, line_class, rank2_class)


def reduce(coords, moduli):
    return tuple([c % m if m else c for c, m in zip(coords, moduli)])


def loop_cup(out, ring, a, b, p, q=0, s=0):
    """Add sum over (i, j) of (p a_i b_j + q a_i a_j + s b_i b_j) e_ij to out."""
    for (i, j), entry in ring.cup_form.pairs:
        w = p * a[i] * b[j]
        if q:
            w += q * a[i] * a[j]
        if s:
            w += s * b[i] * b[j]
        if w:
            for k, v in enumerate(entry):
                out[k] += w * v


def loop_result(ring, rank, c1, c2):
    return rank, reduce(c1, ring.h2._moduli), reduce(c2, ring.h4._moduli)


def loop_add(ring, a, b):
    c2 = [x + y for x, y in zip(a.c2, b.c2)]
    loop_cup(c2, ring, a.c1, b.c1, 1)
    return loop_result(ring, a.rank + b.rank, [x + y for x, y in zip(a.c1, b.c1)], c2)


def loop_scale(ring, n, a):
    c2 = [n * y for y in a.c2]
    loop_cup(c2, ring, a.c1, a.c1, choose2(n))
    return loop_result(ring, n * a.rank, [n * x for x in a.c1], c2)


def loop_mul(ring, a, b):
    ra, rb = a.rank, b.rank
    c2 = [ra * y + rb * x for x, y in zip(a.c2, b.c2)]
    loop_cup(c2, ring, a.c1, b.c1, ra * rb - 1, choose2(rb), choose2(ra))
    c1 = [rb * x + ra * y for x, y in zip(a.c1, b.c1)]
    return loop_result(ring, ra * rb, c1, c2)


def loop_pow(ring, a, n):
    r = a.rank
    m = n * r ** (n - 1) if n else 0
    k = choose2(n) * r ** (n - 2) if n > 1 else 0
    c2 = [m * y for y in a.c2]
    loop_cup(c2, ring, a.c1, a.c1, choose2(m) - k)
    return loop_result(ring, r**n, [m * x for x in a.c1], c2)


def loop_ring_cup(ring, x, y):
    total = [0] * ring.h4.ngens
    loop_cup(total, ring, ring.h2.canonical(x), ring.h2.canonical(y), 1)
    return reduce(total, ring.h4._moduli)


@st.composite
def rings(draw):
    """Valid rings mixing free and torsion parts, H^2 or H^4 possibly 0.

    Free entries may be negative, and torsion ones are given unreduced, moved
    by a multiple of their order that may be negative.
    """
    orders = st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2)
    h2 = FgGroup(draw(st.integers(0, 3)), tuple(draw(orders)))
    h4 = FgGroup(draw(st.integers(0, 2)), tuple(draw(orders)))
    torsion4 = FgGroup(0, h4.torsion_orders)
    pairs = {}
    for i in range(h2.ngens):
        for j in range(i, h2.ngens):
            if draw(st.booleans()):
                continue  # a zero entry
            # a cup with a torsion generator is torsion, so its free part is 0
            both_free = i < h2.free_rank and j < h2.free_rank
            free = [draw(st.integers(-5, 5)) if both_free else 0 for _ in range(h4.free_rank)]
            torsion = draw(st.sampled_from(cup_entry_choices(h2, torsion4, i, j)))
            torsion = [t + n * draw(st.integers(-2, 2)) for t, n in zip(torsion, h4.torsion_orders)]
            pairs[(i, j)] = (*free, *torsion)
    ring = make_ring(h2, h4, pairs)
    assert ring.validate().ok
    return ring


# mostly six-digit coordinates, and now and then one of a thousand digits
HUGE = (10**999 + 7, -(10**999) - 3, 7 * 10**998 + 1)
INTS = st.integers(-10**6, 10**6) | st.sampled_from(HUGE)


def classes(ring):
    return st.builds(
        KClass,
        st.just(ring),
        st.integers(-3, 3),
        st.tuples(*[INTS] * ring.h2.ngens),
        st.tuples(*[INTS] * ring.h4.ngens),
    )


def triple(value):
    assert type(value) is KClass and type(value.c1) is tuple and type(value.c2) is tuple
    return value.rank, value.c1, value.c2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernels_match_the_loop_reference(data):
    ring = data.draw(rings())
    a, b = data.draw(classes(ring)), data.draw(classes(ring))
    n = data.draw(INTS)
    exponent = data.draw(st.integers(0, 6))
    assert triple(k_add(ring, a, b)) == loop_add(ring, a, b)
    assert triple(k_add(ring, b, a)) == loop_add(ring, b, a)
    assert triple(k_mul(ring, a, b)) == loop_mul(ring, a, b)
    assert triple(k_mul(ring, b, a)) == loop_mul(ring, b, a)
    assert triple(k_neg(ring, a)) == loop_scale(ring, -1, a)
    assert triple(k_scale(ring, n, a)) == loop_scale(ring, n, a)
    assert triple(k_pow(ring, b, exponent)) == loop_pow(ring, b, exponent)
    x, y = a.c1, data.draw(st.tuples(*[INTS] * ring.h2.ngens))
    assert ring.cup(x, y) == loop_ring_cup(ring, x, y)
    assert ring.cup_square(iter(y)) == loop_ring_cup(ring, y, y)


def test_one_compile_per_ring_and_op(monkeypatch):
    compiled = Counter()
    real = cohomology._compile

    def counted(ring, op):
        compiled[op] += 1
        return real(ring, op)

    monkeypatch.setattr(cohomology, "_compile", counted)
    ring = make_ring(FgGroup(1, (2,)), FgGroup(1, (2,)), {(0, 0): (1, 1), (1, 1): (0, 1)})
    a, b = KClass(ring, 2, (1, 1), (3, 0)), KClass(ring, -1, (-2, 0), (1, 1))
    for _ in range(3):
        k_add(ring, a, b), k_mul(ring, a, b), k_neg(ring, a), k_scale(ring, 5, b)
        k_pow(ring, a, 4), ring.cup((1, 0), (0, 1)), ring.cup_square((1, 1))
    assert compiled == {"add": 1, "mul": 1, "affine": 1, "cup": 1}
    # an equal ring is another object, with kernels of its own
    twin = make_ring(FgGroup(1, (2,)), FgGroup(1, (2,)), {(0, 0): (1, 1), (1, 1): (0, 1)})
    k_add(twin, a, b)
    assert compiled["add"] == 2


def test_ring_and_kernels_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        ring = make_ring(FgGroup(2, (4,)), FgGroup(1, (2,)),
                         {(0, 1): (3, 1), (2, 2): (0, 1)})
        a, b = KClass(ring, 3, (1, 2, 3), (4, 1)), KClass(ring, -2, (0, 5, 1), (2, 0))
        results = [k_add(ring, a, b), k_mul(ring, a, b), k_pow(ring, a, 3),
                   ring.cup((1, 0, 2), (0, 1, 1))]
        names = ("_add_kernel", "_mul_kernel", "_affine_kernel", "_cup_kernel")
        refs = [weakref.ref(ring)] + [weakref.ref(vars(ring)[name]) for name in names]
        del ring, a, b, results
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_ring_with_kernels_pickles():
    ring = make_ring(FgGroup(1, (2,)), FgGroup(0, (2,)), {(1, 1): (1,)})
    a = KClass(ring, 2, (3, 1), (1,))
    product = k_mul(ring, a, a)
    copy = pickle.loads(pickle.dumps(product))
    assert copy == product and "_mul_kernel" not in vars(copy.ring)
    assert k_mul(copy.ring, copy, copy) == k_mul(ring, product, product)


@pytest.mark.parametrize("h2, h4", [(FgGroup(MAX_COORDINATES), FgGroup(1)),
                                    (FgGroup(0, (2,) * MAX_COORDINATES), FgGroup(0, (2,)))])
def test_no_class_or_kernel_past_the_coordinate_limit(h2, h4):
    ring = make_ring(h2, h4)
    message = f"{MAX_COORDINATES + 1} coordinates; the limit is {MAX_COORDINATES}"
    with pytest.raises(ValueError, match=message):
        KClass(ring, 1, h2.zero, h4.zero)
    with pytest.raises(ValueError, match=message):
        cohomology._compile(ring, "add")
    for build in (lambda: integer_class(ring, 1), lambda: line_class(ring, h2.zero),
                  lambda: rank2_class(ring, h4.zero), lambda: eval_expr(ring, "1")):
        with pytest.raises(ValueError, match=message):
            build()
    # past the gate, each would first list an H^2 domain of 5^10000 or 2^10000
    # elements, so they run in a capped child
    refusal = f"a class over this ring has {message}"
    assert capped_calls(ring, ("verify_relations",), ("verify_ring_axioms",)) == [refusal] * 2


def test_constructors_refused_before_their_zeros():
    # a zero of 10^11 coordinates would exhaust the capped child's memory
    ring = make_ring(FgGroup(10**11), FgGroup(10**11))
    refusal = (f"a class over this ring has {2 * 10**11} coordinates; "
               f"the limit is {MAX_COORDINATES}")
    calls = [("integer_class", 1), ("line_class", ()), ("rank2_class", ())]
    assert capped_calls(ring, *calls) == [refusal] * 3


# Makes each call (name, *args) of a kfour function on a pickled ring, one
# line per call: the message of the ValueError it raised, or "returned"
CAPPED_CALLS = """
import pickle, sys
import kfour
ring, calls = pickle.load(sys.stdin.buffer)
for name, *args in calls:
    try:
        getattr(kfour, name)(ring, *args)
    except ValueError as err:
        print(err)
    else:
        print("returned")
"""


def capped_calls(ring, *calls):
    """CAPPED_CALLS's lines on ``ring``, in a child capped as run_cli_capped caps the CLI."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CLI_MEMORY_CAP, CLI_MEMORY_CAP))

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    result = subprocess.run([sys.executable, "-c", CAPPED_CALLS],
                            input=pickle.dumps((ring, calls)), capture_output=True, timeout=5,
                            env=env, preexec_fn=cap)
    return result.stdout.decode().splitlines()


def test_invalid_ring_past_the_limit_refused_alike_everywhere():
    # the gate checks the limit before validity, so every entry point that
    # builds classes gives the limit's error, not InvalidRingError
    h2, h4 = FgGroup(MAX_COORDINATES, (2,)), FgGroup(1)
    ring = make_ring(h2, h4, {(MAX_COORDINATES, MAX_COORDINATES): (1,)})
    assert not ring.validate().ok
    refusal = (f"a class over this ring has {MAX_COORDINATES + 2} coordinates; "
               f"the limit is {MAX_COORDINATES}")
    for build in (lambda: KClass(ring, 1, h2.zero, h4.zero), lambda: integer_class(ring, 1),
                  lambda: line_class(ring, h2.zero), lambda: rank2_class(ring, h4.zero),
                  lambda: eval_expr(ring, "L([1")):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == refusal
    assert capped_calls(ring, ("verify_relations",), ("verify_ring_axioms",)) == [refusal] * 2
