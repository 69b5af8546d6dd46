"""Command-line interface.

Subcommands: structure, eval, verify, table, fmt.  Ring files are read from a
path or from standard input when the path is '-'.  Exit codes: 0 success,
1 usage error, 2 parse or validation error, 3 verification failure, 130
interrupted (Ctrl-C), as shells report a SIGINT.
"""

from __future__ import annotations

import argparse
import sys

from .abelian import GroupStructureReport
from .cohomology import CohomologyRing, _require_coordinates
from .dsl import ParseError, eval_expr, parse_ring, serialize_ring
from .kclasses import KClass, decompose
from .oracle import (
    DEFAULT_BOUND,
    OracleComparison,
    VerificationReport,
    _compare,
    verify_relations,
    verify_ring_axioms,
)
from .structure import _full_from_reduced, reduced_k_structure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_INTERRUPT = 130

DEFAULT_TABLE_LIMIT = 64


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for parsing
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="kfour",
        description=(
            "Compute the complex K-theory ring of a 4-dimensional CW complex "
            "from its even cohomology ring."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, run, classes=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("ringfile", help="ring description file, or '-' for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(run=run, classes=classes)
        return p

    add("structure", "print the isomorphism type of the K-group", _cmd_structure, False)
    p_eval = add("eval", "evaluate a class expression", _cmd_eval)
    p_eval.add_argument("expr", help="expression over L([...]), V([...]) and integers")
    p_verify = add("verify", "re-check the defining relations by brute force", _cmd_verify)
    p_verify.add_argument(
        "--bound", type=int, default=DEFAULT_BOUND, metavar="N",
        help=f"coordinate box radius for infinite cohomology (default {DEFAULT_BOUND})",
    )
    p_verify.add_argument(
        "--axioms", action="store_true",
        help="also grind through the ring axioms on a block of classes",
    )
    p_table = add("table", "print addition and multiplication tables", _cmd_table)
    p_table.add_argument(
        "--limit", type=int, default=DEFAULT_TABLE_LIMIT, metavar="N",
        help=f"largest class count to tabulate (default {DEFAULT_TABLE_LIMIT})",
    )
    add("fmt", "canonicalize a ring description", _cmd_fmt, False)
    return parser


def _load_ring(path: str) -> CohomologyRing:
    if path == "-":
        text = sys.stdin.read()
    else:
        # undecodable bytes become lone surrogates, as on stdin, so the
        # parser reports them with a position
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            text = handle.read()
    return parse_ring(text)


def _element_str(coords) -> str:
    if len(coords) == 1:
        return str(coords[0])
    return "(" + ",".join(str(c) for c in coords) + ")"


def _class_json(a: KClass) -> dict:
    return {"rank": a.rank, "c1": list(a.c1), "c2": list(a.c2)}


def _group_json(report: GroupStructureReport) -> dict:
    return {
        "free_rank": report.free_rank,
        "invariant_factors": list(report.invariant_factors),
    }


def _print_json(payload) -> None:
    import json  # only --json output needs it
    print(json.dumps(payload, indent=2))


def _cmd_structure(ring: CohomologyRing, args) -> int:
    reduced = reduced_k_structure(ring)
    full = _full_from_reduced(reduced)
    try:
        rendered = {"full": str(full), "reduced": str(reduced)}
    except ValueError:  # str() refuses an int past the digit limit
        raise _UsageError(
            "an invariant factor of the K-group has over "
            f"{sys.get_int_max_str_digits()} digits, the limit for printing integers"
        ) from None
    if args.json:
        _print_json(
            {
                "full": _group_json(full),
                "reduced": _group_json(reduced),
                "rendered": rendered,
            }
        )
    else:
        print(f"K0 = {rendered['full']}; reduced = {rendered['reduced']}")
    return EXIT_OK


def _cmd_eval(ring: CohomologyRing, args) -> int:
    value = eval_expr(ring, args.expr)
    n, x, y = decompose(ring, value)
    if args.json:
        _print_json(
            {
                "class": _class_json(value),
                "decomposition": {"n": n, "x": list(x), "y": list(y)},
            }
        )
    else:
        print(
            f"{value} = {n}·1 + [L_{_element_str(x)}] + [V_{_element_str(y)}]"
        )
    return EXIT_OK


def _report_json(report: VerificationReport) -> list[dict]:
    return [
        {
            "name": check.name,
            "description": check.description,
            "instances": check.instances,
            "failures": check.failures,
            "counterexamples": [str(c) for c in check.counterexamples],
        }
        for check in report.checks
    ]


def _print_report(title: str, report: VerificationReport) -> None:
    print(title)
    width = max(len(check.name) for check in report.checks)
    print(f"  {'name'.ljust(width)}  {'checked':>8}  {'failures':>8}")
    for check in report.checks:
        print(
            f"  {check.name.ljust(width)}  {check.instances:>8}  {check.failures:>8}"
        )
        for example in check.counterexamples:
            print(f"    counterexample: {example}")


def _cmd_verify(ring: CohomologyRing, args) -> int:
    if args.bound < 1:
        raise _UsageError("--bound must be >= 1")
    relations = verify_relations(ring, bound=args.bound)
    axioms = None
    if args.axioms:
        if ring.is_finite:
            axioms = verify_ring_axioms(ring)
        else:
            axioms = verify_ring_axioms(ring, samples=1000, bound=args.bound)
    comparison: OracleComparison | None = None
    if ring.is_finite:
        # finite domains are whole groups, so --bound leaves this report
        # complete and the oracle takes it instead of evaluating again
        comparison = _compare(ring, relations)
    ok = relations.ok and (axioms is None or axioms.ok) and (
        comparison is None or comparison.ok
    )
    if args.json:
        payload = {
            "relations": _report_json(relations),
            "axioms": None if axioms is None else _report_json(axioms),
            "oracle": None
            if comparison is None
            else {
                "engine_structure": _group_json(comparison.engine_structure),
                "oracle_structure": _group_json(comparison.oracle_structure),
                "structures_match": comparison.structures_match,
                "generator_images_ok": comparison.generator_images_ok,
                "additive_failures": comparison.additive.total_failures,
                "multiplicative_failures": comparison.multiplicative.total_failures,
            },
            "ok": ok,
        }
        _print_json(payload)
    else:
        _print_report("defining relations:", relations)
        if axioms is not None:
            _print_report("ring axioms:", axioms)
        if comparison is not None:
            print("formal-generator oracle:")
            print(f"  engine structure: {comparison.engine_structure}")
            print(f"  oracle structure: {comparison.oracle_structure}")
            verdict = "match" if comparison.structures_match else "MISMATCH"
            print(f"  structures: {verdict}")
        print(f"result: {'OK' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_table(ring: CohomologyRing, args) -> int:
    if not ring.is_finite:
        raise _UsageError("table requires finite H^2 and H^4")
    if args.limit < 1:
        raise _UsageError("--limit must be >= 1")
    count = 2 * ring.h2.order * ring.h4.order
    if count > args.limit:
        raise _UsageError(
            f"{count} classes exceed the table limit {args.limit}; "
            "raise it with --limit"
        )
    classes = [
        KClass(ring, rank, x, y)
        for rank in (0, 1)
        for x in ring.h2.elements()
        for y in ring.h4.elements()
    ]
    index = {(c.rank, c.c1, c.c2): i for i, c in enumerate(classes)}

    def cell(value: KClass) -> str:
        i = index.get((value.rank, value.c1, value.c2))
        return f"#{i}" if i is not None else str(value)

    add_rows = [[cell(a + b) for b in classes] for a in classes]
    mul_rows = [[cell(a * b) for b in classes] for a in classes]
    if args.json:
        _print_json(
            {
                "classes": [_class_json(c) for c in classes],
                "add": [[str(x) for x in row] for row in add_rows],
                "mul": [[str(x) for x in row] for row in mul_rows],
            }
        )
        return EXIT_OK
    print("classes (rank 0 and rank 1):")
    for i, c in enumerate(classes):
        print(f"  #{i} = {c}")

    def print_grid(title, rows):
        print(title)
        width = max(len(x) for row in rows for x in row)
        width = max(width, len(f"#{len(classes) - 1}"))
        header = " ".join(f"#{i}".rjust(width) for i in range(len(classes)))
        print(f"  {'':>{width}} {header}")
        for i, row in enumerate(rows):
            body = " ".join(x.rjust(width) for x in row)
            print(f"  {f'#{i}':>{width}} {body}")

    print_grid("addition:", add_rows)
    print_grid("multiplication:", mul_rows)
    return EXIT_OK


def _cmd_fmt(ring: CohomologyRing, args) -> int:
    text = serialize_ring(ring)
    if args.json:
        _print_json({"text": text})
    else:
        print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
        ring = _load_ring(args.ringfile)
        if args.classes:  # refused before anything of the declared length is built
            try:
                _require_coordinates(ring)
            except ValueError as err:
                raise _UsageError(err) from None
        return args.run(ring, args)
    except (_UsageError, OSError) as err:
        print(f"kfour: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as err:
        print(f"kfour: {err}", file=sys.stderr)
        return EXIT_PARSE
    except KeyboardInterrupt:
        print("kfour: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
