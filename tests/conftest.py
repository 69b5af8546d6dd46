"""Shared fixtures: the battery of finite test rings and common examples.

The battery covers |H^2|, |H^4| in {1, 2, 3, 4, 8, 9}.  For the order-2
cases every valid symmetric cup form is included; larger cases carry five
deterministically sampled valid forms (or all of them when fewer exist).
Sizes 8 and 9 are paired with small partners so that exhaustive ternary
axiom checks stay tractable.
"""

import importlib.util
import itertools
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from kfour.abelian import FgGroup
from kfour.cohomology import CohomologyRing, CupForm
from kfour.kclasses import KClass

BATTERY_SEED = 20240809
SAMPLE_FORMS = 5

# (H2 torsion orders, H4 torsion orders); all battery groups are finite
BATTERY_SHAPES = [
    ((), ()),
    ((2,), (2,)),
    ((2,), (4,)),
    ((2,), (3,)),
    ((2,), (2, 2)),
    ((4,), (2,)),
    ((4,), (4,)),
    ((2, 2), (2,)),
    ((2, 2), (2, 2)),
    ((3,), (3,)),
    ((3,), (9,)),
    ((9,), (3,)),
    ((9,), ()),
    ((), (9,)),
    ((8,), (2,)),
    ((2,), (8,)),
    ((8,), ()),
    ((), (8,)),
    ((), (2,)),
    ((2,), ()),
    ((3,), (2,)),
    ((4,), (2, 2)),
    ((2, 2), (4,)),
]

# malformed ring sources with the expected diagnostic position
MALFORMED_RING_SOURCES = [
    ("H2 complicated\nH4 free 0 torsion\n", 1, 4),
    ("H2 free x torsion\nH4 free 0 torsion\n", 1, 9),
    ("H2 free 0 torsion 1\nH4 free 0 torsion\n", 1, 19),
    ("H2 free 0 torsion\nH2 free 0 torsion\n", 2, 1),
    ("H2 free 0 torsion 2\nH4 free 0 torsion\ncup 2 1 =\n", 3, 5),
    ("cup 1 1 = 1\nH2 free 0 torsion 2\nH4 free 0 torsion 2\n", 1, 1),
    ("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1 7\n", 3, 13),
    ("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 =\n", 3, 10),
    ("H2 free 0 torsion 2\nH4 free 1 torsion\ncup 1 1 = 1\n", 3, 1),
    ("H2 free 0 torsion 2 2\nH4 free 0 torsion 2\ncup 1 2 = 1\ncup 2 1 = 0\n", 4, 1),
    ("format 9\nH2 free 0 torsion\nH4 free 0 torsion\n", 1, 8),
    ("format 1 2\nH2 free 0 torsion\nH4 free 0 torsion\n", 1, 10),
    ("H2\nH4 free 0 torsion\n", 1, 3),
    ("H2 free\nH4 free 0 torsion\n", 1, 8),
    ("H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1\n", 3, 8),
    ("", 1, 1),
]

# pieces that class-expression fuzzing joins: the grammar's characters, every
# line break of str.splitlines ("\r\n" among them), whitespace that breaks no
# line, a non-ASCII letter and digit, a stray character and a longer name
EXPR_FUZZ_PIECES = [
    *"0123456789LV()[],+-*^ \t",
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\x1f", "é", "٣", "$", "_x",
]


SRC = Path(__file__).resolve().parents[1] / "src"
CLI_MEMORY_CAP = 1 << 30  # bytes of address space for a capped CLI run

# tools/golden.py: the golden records' matrix and runner, and the sabotaged
# engines that tests/test_oracle.py uses as well
_spec = importlib.util.spec_from_file_location("golden", SRC.parent / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
sabotaged_add, sabotaged_mul, sabotaged_neg = (
    golden.sabotaged_add, golden.sabotaged_mul, golden.sabotaged_neg
)


def run_cli_capped(*argv, stdin, timeout, env=None):
    """Run ``python -m kfour.cli argv`` in a child process with capped memory.

    The child's address space is limited to ``CLI_MEMORY_CAP`` and its wall
    time to ``timeout`` seconds (``subprocess.TimeoutExpired`` past that), so
    a case whose cost follows a huge declared generator count fails its test
    instead of exhausting the host.  Run such cases only through here, never
    in-process.  ``env`` adds variables to the child's environment.  Returns
    the ``CompletedProcess`` with text stdout and stderr.
    """

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CLI_MEMORY_CAP, CLI_MEMORY_CAP))

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{path}" if path else str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "kfour.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=cap,
    )


def make_ring(h2, h4, pairs=None):
    return CohomologyRing(h2, h4, CupForm.from_pairs(h2, h4, pairs))


def add_wrong_for_ranks(real, ranks):
    """``real`` k_add, off by one in rank on operands of exactly these ranks.

    No defining relation adds a class of rank -2 to one of rank 2, so
    ``(-2, 2)`` is seen only by a check that reaches every rank-0 class.
    """
    def broken(ring, a, b):
        c = real(ring, a, b)
        if (a.rank, b.rank) != ranks:
            return c
        return KClass(ring, c.rank + 1, c.c1, c.c2)
    return broken


def cup_entry_choices(h2, h4, i, j):
    """All H^4 values the cup of generators i, j may take (finite groups)."""
    orders = [
        h2.torsion_orders[idx - h2.free_rank] for idx in (i, j) if idx >= h2.free_rank
    ]
    if not orders:
        return list(h4.elements())
    g = math.gcd(*orders)
    per_coord = []
    for m in h4.torsion_orders:
        step = m // math.gcd(g, m)
        per_coord.append([t * step for t in range(math.gcd(g, m))])
    return [tuple(v) for v in itertools.product(*per_coord)]


def all_valid_forms(h2, h4):
    """Every symmetric, torsion-compatible cup form on the given groups."""
    pairs = [(i, j) for i in range(h2.ngens) for j in range(i, h2.ngens)]
    choices = [cup_entry_choices(h2, h4, i, j) for i, j in pairs]
    for combo in itertools.product(*choices):
        yield dict(zip(pairs, combo))


def build_battery():
    rng = random.Random(BATTERY_SEED)
    rings = []
    for t2, t4 in BATTERY_SHAPES:
        h2, h4 = FgGroup(0, t2), FgGroup(0, t4)
        forms = list(all_valid_forms(h2, h4))
        exhaustive = h2.order == 2 or len(forms) <= SAMPLE_FORMS
        chosen = forms if exhaustive else rng.sample(forms, SAMPLE_FORMS)
        for form in chosen:
            ring = make_ring(h2, h4, form)
            assert ring.validate().ok
            rings.append(ring)
    return rings


@pytest.fixture(scope="session")
def battery():
    return build_battery()


@pytest.fixture(scope="session")
def rp4_ring():
    return make_ring(FgGroup(0, (2,)), FgGroup(0, (2,)), {(0, 0): (1,)})


@pytest.fixture(scope="session")
def cp2_ring():
    return make_ring(FgGroup(1), FgGroup(1), {(0, 0): (1,)})


@pytest.fixture(scope="session")
def s4_ring():
    return make_ring(FgGroup(), FgGroup(1))
