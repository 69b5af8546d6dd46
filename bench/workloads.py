"""The four benchmark workloads.

A workload draws batch k of its inputs from the seed (`load`, which also
does the package-side preparation of that batch), executes one op at a time
(`execute`) and checks each result against the reference in rings.py
(`check`, outside the timed region).  Batches have a fixed size; the
harness in run.py does the timing.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import rings
from rings import CP2, FIVE, GOLDEN, RP4, S4
from tracing import children_cpu_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).with_name("cli_child.py")


class Workload:
    name = ""
    why = ""
    in_process = True  # whether the package is imported and called in this process

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list = []

    def bind(self, kfour) -> None:
        self.kfour = kfour

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}")

    def load(self, k: int) -> None:
        """Make batch k the current `ops`."""
        raise NotImplementedError

    def execute(self, i: int):
        raise NotImplementedError

    def units(self, i: int) -> int:
        """Ops of `ops_per_s` that op i stands for."""
        return 1

    def check(self, i: int, result) -> int:
        """Failed units of op i; the harness fails all of them if this raises."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove what `load` left on disk."""


class EvalStream(Workload):
    """One client evaluating a stream of class expressions over four rings."""

    name = "eval-stream"
    why = (
        "A few rings are reused thousands of times, so per-ring caches stay hot; nearly "
        "all time is in kclasses, cohomology.cup, abelian.canonical and dsl, with no SNF."
    )
    RINGS = (RP4, CP2, S4, FIVE)
    BATCH = 1000
    DEPTH = 3

    def bind(self, kfour) -> None:
        super().bind(kfour)
        self.parsed = [kfour.parse_ring(spec.text()) for spec in self.RINGS]

    def load(self, k: int) -> None:
        rng = self.rng(k)
        self.ops = []
        for _ in range(self.BATCH):
            r = rng.randrange(len(self.RINGS))
            node = rings.random_expr(rng, self.RINGS[r], self.DEPTH)
            self.ops.append((r, rings.render(node), node))

    def execute(self, i: int):
        r, text, _ = self.ops[i]
        return self.kfour.eval_expr(self.parsed[r], text)

    def check(self, i: int, result) -> int:
        r, _, node = self.ops[i]
        spec = self.RINGS[r]
        got = (result.rank, result.c1, result.c2)
        if got != rings.evaluate(spec, node):
            return 1
        if spec.torsion_free and spec.ch(*got) != rings.chern_character(spec, node):
            return 1
        return 0


class VerifyBattery(Workload):
    """Distinct rings, each taken from ring-file text to a verdict once."""

    name = "verify-battery"
    why = (
        "Every ring is used once, so per-ring set-up and caches are pure cost; the "
        "oracle's 1278x51 Smith normal form dominates the slow rings. The engine of "
        "eval-stream, used the opposite way."
    )
    # The golden rings, then up to FORMS distinct cup forms per shape of the
    # test-suite battery and of EXTRA_SHAPES (84 light rings in all), then the
    # HEAVY (H2 torsion, H4 torsion, count) rings whose time is mostly the
    # oracle's SNF.  A batch of 100 puts 10 samples beyond its 90th latency
    # percentile, and the 16 heavy rings keep that percentile well among them.
    FORMS = 3
    EXTRA_SHAPES = (
        ((2,), (2, 2, 2)), ((2, 2, 2), (2,)), ((3,), (3, 3)), ((3, 3), (3,)),
        ((4,), (8,)), ((8,), (4,)), ((6,), (6,)), ((2, 4), (2,)), ((2,), (2, 4)),
        ((6,), (3,)), ((3,), (6,)), ((5,), (5,)),
    )
    HEAVY = (((4, 4), (4, 4), 15), ((5, 5), (5, 5), 1))
    BOUND = 2

    def load(self, k: int) -> None:
        rng = self.rng(k)
        specs = list(GOLDEN)
        for t2, t4 in rings.BATTERY_SHAPES + list(self.EXTRA_SHAPES):
            fresh = [spec for spec in rings.valid_forms(t2, t4) if spec not in specs]
            specs += rng.sample(fresh, min(self.FORMS, len(fresh)))
        for t2, t4, count in self.HEAVY:
            specs += [rings.random_ring(rng, t2, t4) for _ in range(count)]
        # spread light and heavy rings over the batch, so that host drift
        # during the batch reaches both alike
        rng.shuffle(specs)
        self.ops = [(spec, spec.text()) for spec in specs]

    def execute(self, i: int):
        k = self.kfour
        ring = k.parse_ring(self.ops[i][1])
        full = k.full_k_structure(ring)
        reduced = k.reduced_k_structure(ring)
        relations = k.verify_relations(ring, bound=self.BOUND)
        compare = k.oracle_compare(ring) if ring.is_finite else None
        return full, reduced, relations, compare

    def check(self, i: int, result) -> int:
        spec = self.ops[i][0]
        full, reduced, relations, compare = result
        ok = relations.ok and _counts_match(relations, rings.relation_counts(spec, self.BOUND))
        if spec in GOLDEN:
            ok = ok and (full.describe(), reduced.describe()) == GOLDEN[spec]
        if spec.is_finite:
            expected = rings.relation_counts(spec)
            ok = (
                ok
                and reduced.free_rank == 0
                and reduced.order == spec.order2 * spec.order4
                and full.free_rank == 1
                and compare is not None
                and compare.ok
                and compare.oracle_structure == reduced
                and _counts_match(compare.additive, expected)
                and _counts_match(compare.multiplicative, expected)
            )
        else:
            ok = ok and reduced.free_rank == spec.f2 + spec.f4 and compare is None
        return 0 if ok else 1


def _counts_match(report, expected: dict[str, int]) -> bool:
    return all(check.instances == expected[check.name] for check in report.checks)


class AxiomGrind(Workload):
    """Exhaustive and sampled ring-axiom checks; one op is one law instance."""

    name = "axiom-grind"
    why = (
        "The n^3 loop over memoised _ClassTable lookups behind verify --axioms; "
        "engine calls are a small share and there is no SNF."
    )
    # a ring of 135 classes (|H2||H4| = 27) and one of 80 (|H2||H4| = 16),
    # every class of rank -2..2.  Their cup forms are fixed because the grind
    # time depends on the form (up to 40% between the forms on Z/4, Z/4); the
    # seed draws the sampled triples.
    EXHAUSTIVE = (
        rings.make_ring(0, (3,), 0, (9,), {(0, 0): (3,)}),
        rings.make_ring(0, (4,), 0, (4,), {(0, 0): (1,)}),
    )
    # 1000 random triples on each infinite-cohomology ring, drawn by CHUNKS
    # seeded calls, so that the median call of a batch is a sampled one; the
    # chunks are spread between the exhaustive grinds, so that host drift
    # during the batch reaches them alike
    SAMPLED = (CP2, FIVE)
    SAMPLES = 1000
    CHUNKS = 10
    SAMPLE_BOUND = 3

    def load(self, k: int) -> None:
        rng = self.rng(k)
        chunks = [
            (spec, self.SAMPLES // self.CHUNKS, rng.randrange(2**31))
            for _ in range(self.CHUNKS)
            for spec in self.SAMPLED
        ]
        step = -(-len(chunks) // (len(self.EXHAUSTIVE) + 1))
        self.ops = []
        for j, spec in enumerate(self.EXHAUSTIVE):
            self.ops += chunks[j * step:(j + 1) * step] + [(spec, None, 0)]
        self.ops += chunks[len(self.EXHAUSTIVE) * step:]
        self.parsed = [self.kfour.parse_ring(spec.text()) for spec, _, _ in self.ops]

    def _expected(self, i: int) -> dict[str, int]:
        spec, samples, _ = self.ops[i]
        return rings.axiom_counts(5 * spec.order2 * spec.order4, samples)

    def execute(self, i: int):
        _, samples, seed = self.ops[i]
        if samples is None:
            return self.kfour.verify_ring_axioms(self.parsed[i])
        return self.kfour.verify_ring_axioms(
            self.parsed[i], samples=samples, bound=self.SAMPLE_BOUND, seed=seed
        )

    def units(self, i: int) -> int:
        return sum(self._expected(i).values())

    def check(self, i: int, result) -> int:
        expected = self._expected(i)
        failed = result.total_failures
        got = {check.name: check.instances for check in result.checks}
        for law, count in expected.items():
            if got.get(law) != count:
                failed += count
        return min(failed, self.units(i))


class CliCold(Workload):
    """Fresh `python -m kfour.cli` processes, one at a time."""

    name = "cli-cold"
    why = (
        "The only workload where interpreter start, imports, argparse and output "
        "formatting dominate (the cli layer); caches are always cold."
    )
    in_process = False
    ROUNDS = 17  # of the six commands, so a batch has over 100 processes
    MARK = "kfour-bench-child "
    TABLE_SHAPES = (((2,), (2,)), ((2, 2), ()), ((), (2, 2)), ((4,), ()), ((), (4,)))
    EVAL_RINGS = (RP4, CP2, S4, FIVE)
    tracer = None  # set by the harness for the traced batch
    # -E: children ignore PYTHON* variables, so every host runs the same
    # interpreter set-up; they run in src/, where `-m kfour.cli` finds the package
    PYTHON = (sys.executable, "-E")

    @property
    def dir(self) -> Path:
        return OUT / f"cli-{os.getpid()}"

    def bind(self, kfour) -> None:
        # compile and cache the package's bytecode, as an installed copy has it
        subprocess.run([*self.PYTHON, "-c", "import kfour.cli"], cwd=SRC, check=True)

    def load(self, k: int) -> None:
        rng = self.rng(k)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        files: dict = {}

        def ring_file(spec) -> str:
            if spec not in files:
                path = self.dir / f"ring{len(files)}.ring"
                path.write_text(spec.text(), encoding="utf-8")
                files[spec] = str(path)
            return files[spec]

        self.ops = []
        golden = list(GOLDEN)
        for _ in range(self.ROUNDS):
            structure, verify = rng.choice(golden), rng.choice(golden)
            eval_ring = rng.choice(self.EVAL_RINGS)
            node = rings.random_expr(rng, eval_ring, 2)
            table = rings.random_ring(rng, *rng.choice(self.TABLE_SHAPES))
            fmt = rings.random_ring(rng, *rng.choice(rings.BATTERY_SHAPES))
            # (argv, stdin, what the expected stdout is computed from)
            self.ops += [
                (["structure", ring_file(structure)], None, ("structure", structure)),
                # parenthesised so that a leading '-' is not read as an option
                (["eval", ring_file(eval_ring), f"({rings.render(node)})"], None,
                 ("eval", eval_ring, node)),
                (["verify", ring_file(verify)], None, ("verify", verify, False)),
                (["verify", "--axioms", ring_file(RP4)], None, ("verify", RP4, True)),
                (["table", ring_file(table)], None, ("table", table)),
                (["fmt", "-"], fmt.messy_text(rng).encode(), ("fmt", fmt)),
            ]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def execute(self, i: int):
        argv, stdin, _ = self.ops[i]
        program = [str(CHILD)] if self.tracer else ["-m", "kfour.cli"]
        before = children_cpu_ns()
        proc = subprocess.run([*self.PYTHON, *program, *argv], input=stdin,
                              capture_output=True, cwd=SRC, timeout=120)
        child = children_cpu_ns() - before
        lines = proc.stderr.decode().splitlines()
        if self.tracer and lines and lines[-1].startswith(self.MARK):
            # the child's CPU clock starts at 0 with the process
            began, imported, done = json.loads(lines[-1][len(self.MARK):])
            span = self.tracer.add_span("cli.process", 0, child)
            self.tracer.add_span("cli.import", began, imported, span)
            self.tracer.add_span("cli.main", imported, done, span)
            proc.stderr = "\n".join(lines[:-1]).encode()
        return proc

    def check(self, i: int, result) -> int:
        expected = expected_stdout(*self.ops[i][2]).encode()
        ok = result.returncode == 0 and result.stdout == expected and not result.stderr
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (EvalStream, VerifyBattery, AxiomGrind, CliCold)}


# ---------------------------------------------------------------------------
# expected CLI output, from the reference arithmetic and combinatorics


def _class_str(value) -> str:
    rank, c1, c2 = value
    return f"({rank}, {list(c1)}, {list(c2)})"


def _element_str(coords) -> str:
    return str(coords[0]) if len(coords) == 1 else "(" + ",".join(map(str, coords)) + ")"


def _report(title: str, counts: dict[str, int]) -> list[str]:
    width = max(len(name) for name in counts)
    lines = [title, f"  {'name'.ljust(width)}  {'checked':>8}  {'failures':>8}"]
    lines += [f"  {name.ljust(width)}  {n:>8}  {0:>8}" for name, n in counts.items()]
    return lines


def _grid(title: str, rows: list[list[str]], n: int) -> list[str]:
    width = max(max(len(x) for row in rows for x in row), len(f"#{n - 1}"))
    header = " ".join(f"#{i}".rjust(width) for i in range(n))
    lines = [title, f"  {'':>{width}} {header}"]
    for i, row in enumerate(rows):
        lines.append(f"  {f'#{i}':>{width}} {' '.join(x.rjust(width) for x in row)}")
    return lines


def expected_stdout(kind: str, spec, *rest) -> str:
    if kind == "structure":
        full, reduced = GOLDEN[spec]
        lines = [f"K0 = {full}; reduced = {reduced}"]
    elif kind == "eval":
        rank, c1, c2 = rings.evaluate(spec, rest[0])
        lines = [
            f"{_class_str((rank, c1, c2))} = {rank - 3}·1 + [L_{_element_str(c1)}] "
            f"+ [V_{_element_str(c2)}]"
        ]
    elif kind == "verify":
        lines = _report("defining relations:", rings.relation_counts(spec))
        if rest[0]:
            lines += _report("ring axioms:", rings.axiom_counts(5 * spec.order2 * spec.order4))
        if spec.is_finite:
            reduced = GOLDEN[spec][1]
            lines += [
                "formal-generator oracle:",
                f"  engine structure: {reduced}",
                f"  oracle structure: {reduced}",
                "  structures: match",
            ]
        lines.append("result: OK")
    elif kind == "table":
        classes = [
            (rank, x, y) for rank in (0, 1) for x in spec.elements2() for y in spec.elements4()
        ]
        index = {c: i for i, c in enumerate(classes)}

        def cell(raw) -> str:
            value = spec.canonical(raw)
            return f"#{index[value]}" if value in index else _class_str(value)

        raws = [(r, list(x), list(y)) for r, x, y in classes]
        lines = ["classes (rank 0 and rank 1):"]
        lines += [f"  #{i} = {_class_str(c)}" for i, c in enumerate(classes)]
        lines += _grid("addition:", [[cell(spec.add(a, b)) for b in raws] for a in raws], len(raws))
        lines += _grid(
            "multiplication:", [[cell(spec.mul(a, b)) for b in raws] for a in raws], len(raws)
        )
    else:  # fmt
        return spec.text()
    return "\n".join(lines) + "\n"
