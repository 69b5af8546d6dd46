#!/usr/bin/env python3
"""Mutation checks: each mutant is one edit of src/kfour that named tests must catch.

    python3 tools/mutants.py [NAME ...]

Each row of MUTANTS is a mutant: a file under src/kfour, an exact snippet
that occurs once in it, its replacement, and the pytest node IDs that must
catch the edit.  For each mutant, every row or the ones named, the script
copies src/, tests/, tools/ and pyproject.toml to a temporary directory,
makes the edit there and runs pytest on the row's node IDs against the copy,
stopping at the first failure.  Hypothesis runs without its shrink phase,
through a plugin module written into the temporary directory and loaded with
``-p``, so a failing example is reported as found.  pytest's exit status 1
means killed and 0 survived; any other status is an error in the row.  The
working tree is never written.  The exit status is 1 if any mutant survives
or errs.

tests/test_mutants.py checks that every snippet still occurs exactly once,
so a refactor that moves a snippet updates its row.  A mutant that no test
catches is a finding, and its row keeps expecting a kill.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
PLUGIN = "mutants_noshrink"
PLUGIN_SOURCE = (
    "from hypothesis import Phase, settings\n"
    "settings.register_profile('noshrink', phases=[\n"
    "    phase for phase in settings.default.phases if phase is not Phase.shrink])\n"
    "settings.load_profile('noshrink')\n"
)

# (name, file under src/kfour, snippet, replacement, node IDs that must catch it)
MUTANTS = [
    ("gate-kclass", "kclasses.py",
     "        self.ring._admits_classes\n", "",
     ["tests/test_kernels.py::test_no_class_or_kernel_past_the_coordinate_limit"]),
    ("gate-line-class", "kclasses.py",
     "    ring._admits_classes  # before a zero of the declared length\n"
     "    return KClass(ring, 1, x,",
     "    return KClass(ring, 1, x,",
     ["tests/test_kernels.py::test_constructors_refused_before_their_zeros"]),
    ("gate-verify-relations", "oracle.py",
     "    ring._admits_classes\n    if bound < 1:", "    if bound < 1:",
     ["tests/test_kernels.py::test_no_class_or_kernel_past_the_coordinate_limit"]),
    ("gate-eval-expr", "dsl.py",
     "    ring._admits_classes\n    return _ExprParser", "    return _ExprParser",
     ["tests/test_kernels.py::test_invalid_ring_past_the_limit_refused_alike_everywhere",
      "tests/test_cli.py::test_huge_declared_rank_refused_where_classes_are_built"]),
    ("gate-cli-table", "cli.py",
     "    ring._admits_classes\n    if not ring.is_finite:", "    if not ring.is_finite:",
     ["tests/test_cli.py::test_huge_declared_rank_refused_where_classes_are_built"]),
    ("limit-in-compile", "cohomology.py",
     "    _require_coordinates(ring)\n    m2, m4 =", "    m2, m4 =",
     ["tests/test_kernels.py::test_no_class_or_kernel_past_the_coordinate_limit"]),
    ("mul-minus-one-dropped", "cohomology.py",
     '"p = ra * rb - 1"', '"p = ra * rb"',
     ["tests/test_kernels.py::test_kernels_match_the_loop_reference",
      "tests/test_literature.py::test_relations_hold_and_monomials_span"]),
    ("mul-q-s-swapped", "cohomology.py",
     '"q = rb * (rb - 1) // 2", "s = ra * (ra - 1) // 2"',
     '"q = ra * (ra - 1) // 2", "s = rb * (rb - 1) // 2"',
     ["tests/test_kernels.py::test_kernels_match_the_loop_reference",
      "tests/test_literature.py::test_relations_hold_and_monomials_span"]),
    ("group-scale-n-dropped", "abelian.py",
     '"n * a{k}"', '"a{k}"',
     ["tests/test_abelian.py::TestElements::test_scale",
      "tests/test_abelian.py::TestGroupKernels::test_kernels_match_the_loop"]),
    ("group-negate-sign", "abelian.py",
     "return self.scale(-1, a)", "return self.scale(1, a)",
     ["tests/test_abelian.py::TestElements::test_negate"]),
    ("quotient-unit-row", "oracle.py",
     "rows = [{0: 1}]", "rows = [{0: 2}]",
     ["tests/test_oracle.py::TestOracleReducedGroup",
      "tests/test_oracle.py::TestOracleCompare::test_rp4_matches"]),
    ("twisted-choose2", "structure.py",
     "t = choose2(n)", "t = n",
     ["tests/test_structure.py::TestReducedStructure::test_rp4_is_cyclic_of_order_four"]),
    ("cup-arguments-unreduced", "cohomology.py",
     '        head += [f"{v}{k} %= {m}" for v in "ab" for k, m in enumerate(m2) if m]\n', "",
     ["tests/test_cohomology.py::TestCup::test_arguments_reduced_on_an_invalid_ring"]),
    ("pow-k-sign", "kclasses.py",
     "choose2(m) - k)", "choose2(m) + k)",
     ["tests/test_kclasses.py::TestPow", "tests/test_kclasses.py::TestPowClosedForm"]),
    ("frozen-eq-class-check", "abelian.py",
     " if other.__class__ is self.__class__:", " if True:",
     ["tests/test_frozen.py::TestAgainstDataclass::test_other_classes_and_tuples_are_not_equal"]),
    ("frozen-no-post-init", "abelian.py",
     'post = " self.__post_init__()\\n" if "__post_init__" in own else ""', 'post = ""',
     ["tests/test_frozen.py::TestAgainstDataclass::test_refusals_match"]),
]


def mutate(root: Path, path: str, snippet: str, replacement: str) -> None:
    """Replace the one occurrence of ``snippet`` in src/kfour/``path`` under ``root``."""
    target = root / "src" / "kfour" / path
    text = target.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise ValueError(f"{path}: the snippet occurs {text.count(snippet)} times, not once")
    target.write_text(text.replace(snippet, replacement), encoding="utf-8")


def run(name: str, path: str, snippet: str, replacement: str, tests: list[str]) -> str:
    """'killed', 'survived' or 'error (...)' for one mutant, run in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="kfour-mutant-") as tmp:
        root = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, root / item,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, root / item)
        (root / f"{PLUGIN}.py").write_text(PLUGIN_SOURCE, encoding="utf-8")
        try:
            mutate(root, path, snippet, replacement)
        except ValueError as err:
            return f"error ({err})"
        env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}",
                   PYTHONDONTWRITEBYTECODE="1")
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-p", PLUGIN, *tests],
            cwd=root, env=env, capture_output=True, text=True,
        ).returncode
    if status == 1:
        return "killed"
    if status == 0:
        return "survived"
    return f"error (pytest exit {status})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="run only these mutants")
    args = parser.parse_args(argv)
    rows = {row[0]: row for row in MUTANTS}
    unknown = [name for name in args.names if name not in rows]
    if unknown:
        parser.error(f"unknown mutant {', '.join(unknown)}")
    names = args.names or list(rows)
    failed = 0
    start = time.perf_counter()
    for name in names:
        began = time.perf_counter()
        outcome = run(*rows[name])
        failed += outcome != "killed"
        print(f"{name:<26} {outcome:<10} {time.perf_counter() - began:6.1f} s", flush=True)
    print(f"{len(names) - failed} of {len(names)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
