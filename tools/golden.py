#!/usr/bin/env python3
"""Write the golden records of the kfour command line.

    PYTHONPATH=src python3 tools/golden.py --write

A record is one in-process ``kfour.cli.main`` run in tests/golden/, beside
the ring files it reads: its argv, the engine operation it sabotages (or
null), and the stdout, stderr and exit code the run produced.  They go to
tests/golden/records.json, which tests/test_golden.py replays and never
writes.  A change that rewrites a record lists the record and its reason in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

from kfour import KClass, cli, oracle

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
RECORDS = GOLDEN / "records.json"

# ring file and a class expression over it; the invalid ring never gets as
# far as its expression
EXPRESSIONS = {
    "rp4.ring": "(L([1]) - 1)^2 + 2*(L([1]) - 1)",
    "cp2.ring": "(L([1]) - 1)^3 + V([2]) * L([-1])",
    "s4.ring": "-(V([3]) - 2)^2 + 5",
    "z4-twisted.ring": "L([1])^3 * V([3]) - L([2])",
    "z2-z2.ring": "L([1,1]) * L([0,1]) - V([1])",
    "z-z2.ring": "(L([1,1]) - 1)^2 + V([2,1])",
    "invalid.ring": "1",
}
REFUSED = "2^-1"
SABOTAGED_RINGS = ("rp4.ring", "s4.ring", "cp2.ring", "z2-z2.ring")


# engines wrong on an H^4 term, which tests/test_oracle.py sabotages with too
def sabotaged_add(real):
    def broken(ring, a, b):
        c = real(ring, a, b)
        return KClass(ring, c.rank, c.c1, ring.h4.add(c.c2, ring.cup(a.c1, a.c1)))
    return broken


def sabotaged_mul(real):
    def broken(ring, a, b):
        c = real(ring, a, b)
        return KClass(ring, c.rank, c.c1, ring.h4.add(c.c2, ring.cup_square(a.c1)))
    return broken


def sabotaged_neg(real):
    def broken(ring, a):
        c = real(ring, a)
        return KClass(ring, c.rank, c.c1, ring.h4.add(c.c2, ring.cup_square(c.c1)))
    return broken


SABOTAGES = {"k_add": sabotaged_add, "k_mul": sabotaged_mul, "k_neg": sabotaged_neg}


def invocations():
    """(argv, sabotaged operation or None) of every record, in file order."""
    yield [], None
    yield ["frobnicate"], None
    yield ["structure", "missing.ring"], None
    for ring, expr in EXPRESSIONS.items():
        for flags in ([], ["--json"]):
            for args in (
                ["structure"],
                ["eval", expr],
                ["eval", REFUSED],
                ["verify"],
                ["verify", "--bound", "1"],
                ["verify", "--axioms"],
                ["table"],
                ["table", "--limit", "0"],
                ["fmt"],
            ):
                yield [args[0], ring, *args[1:], *flags], None
    for op in SABOTAGES:
        for ring in SABOTAGED_RINGS:
            for flags in ([], ["--json"]):
                yield ["verify", ring, "--axioms", *flags], op


def replay(argv: list[str], sabotage: str | None) -> dict:
    """The record of one run of ``cli.main(argv)`` from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    real = getattr(oracle, sabotage) if sabotage else None
    if sabotage:
        setattr(oracle, sabotage, SABOTAGES[sabotage](real))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        if sabotage:
            setattr(oracle, sabotage, real)
    return {"argv": argv, "sabotage": sabotage, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "exit": code}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"rewrite {RECORDS.relative_to(GOLDEN.parent.parent)}")
    parser.parse_args(argv)
    os.chdir(GOLDEN)
    records = [replay(argv, sabotage) for argv, sabotage in invocations()]
    text = json.dumps(records, indent=1, ensure_ascii=False)
    RECORDS.write_text(text + "\n", encoding="utf-8")
    print(f"golden: wrote {len(records)} records")


if __name__ == "__main__":
    main()
