#!/usr/bin/env python3
"""Benchmark of the kfour package and its command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from BENCHMARK.json (eval-stream, verify-battery,
axiom-grind or cli-cold) against the package in ../src: a closed loop, one
client in one process, one op at a time (cli-cold runs one child process at
a time).  Inputs come from the seed; every result is checked against the
independent reference in rings.py, outside the timed region.

Every time is CPU time of the benchmark process and its child processes.
On a shared host, other tenants steal wall time that no change to the
program can move: a fixed loop's wall time has been seen to double while
its CPU time stayed within a quarter.  Wall time still bounds how long a
run measures, and is reported beside.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones:
setup_s (median of several imports plus constructions of the first batch),
batch_cpu_s (median of one batch, the workload's fixed input size),
ops_per_s, latency_p50_ms, latency_tail_ms and peak_rss_mb.  Latency is
per call into the program (for axiom-grind, one call checks many of the law
instances that ops_per_s counts).  The tail is the highest of
p99.9/p99/p95/p90/p75 that leaves at least ten calls of one batch beyond it,
or the maximum when there is none.

With --trace 1 half the time runs untraced, then batch 0 runs again with
the wrappers of tracing.py installed; the metrics are the per-layer ones
plus the tracing overhead (traced minus untraced batch time), and the spans
go to .bench_out/.  The line before the result carries the run's metadata:
seed, commit, Python, CPU count, the tail percentile and the sample count,
failures over attempts, the loop's CPU and wall seconds, and a fixed
pure-Python calibration loop timed (CPU, wall) at the start and the end as
a host-drift marker (reported, never divided by).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from tracing import UNITS, Tracer, cpu_ns
from workloads import OUT, ROOT, SRC, WORKLOADS, Workload

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def import_fresh():
    """Import the package from ../src as a new process would."""
    for name in [n for n in sys.modules if n.split(".")[0] == "kfour"]:
        del sys.modules[name]
    kfour = importlib.import_module("kfour")
    if not Path(kfour.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: kfour imported from {kfour.__file__}, not {SRC}")
    return kfour


def calibrate() -> tuple[float, float]:
    """(CPU, wall) seconds of a fixed pure-Python loop."""
    cpu, wall = cpu_ns(), time.perf_counter()
    x = 0
    for i in range(400_000):
        x = (x * 31 + i) % 1_000_003
    return (cpu_ns() - cpu) / 1e9, time.perf_counter() - wall


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples (exact for 0.1 steps)."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_percentile(batch: int) -> float:
    """The highest percentile that one batch has at least 10 samples beyond.

    It depends on the batch size only, so every run of a workload reports
    the same percentile; with no such percentile the tail is the maximum.
    """
    for p in TAIL_PERCENTILES:
        if batch - rank(batch, p) >= TAIL_MIN_BEYOND:
            return p
    return 100.0


class Loop:
    """Batches run back to back while the next one still fits in the time."""

    def __init__(self) -> None:
        self.cpu: list[float] = []  # seconds per batch
        self.wall = 0.0
        self.latency_ns = array("q")  # compact, so memory stays flat over batches
        self.attempted = 0
        self.failed = 0

    def batch(self, workload: Workload, tracer: Tracer | None = None) -> float:
        """Run and check the loaded batch; return its wall seconds."""
        latencies, results = [], []
        wall = time.perf_counter()
        begin = cpu_ns()
        for i in range(len(workload.ops)):
            if tracer is not None:
                tracer.op = i
            start = cpu_ns()
            try:
                result = workload.execute(i)
            except Exception as err:  # a raised op is a failed op
                result = err
            latencies.append(cpu_ns() - start)
            results.append(result)
        self.cpu.append((cpu_ns() - begin) / 1e9)
        self.latency_ns.extend(latencies)
        wall = time.perf_counter() - wall
        self.wall += wall
        for i, result in enumerate(results):
            units = workload.units(i)
            self.attempted += units
            if isinstance(result, Exception):
                self.failed += units
                continue
            try:
                self.failed += workload.check(i, result)
            except Exception:
                self.failed += units
        return wall

    def run(self, workload: Workload, seconds: float) -> Loop:
        """Batch 0 must be loaded; later batches are loaded outside the timing."""
        deadline = time.perf_counter() + seconds
        while True:
            wall = self.batch(workload)
            if time.perf_counter() + wall > deadline:
                return self
            workload.load(len(self.cpu))


def end_to_end(workload: Workload, setups: list[float], loop: Loop) -> tuple[dict, dict]:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss = resource.getrusage(who).ru_maxrss / 1024  # before sorting adds its own
    ordered = sorted(loop.latency_ns)
    p_tail = tail_percentile(len(workload.ops))
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "batch_cpu_s": (statistics.median(loop.cpu), "s"),
        "ops_per_s": (loop.attempted / sum(loop.cpu), "1/s"),
        "latency_p50_ms": (ordered[rank(len(ordered), 50) - 1] / 1e6, "ms"),
        "latency_tail_ms": (ordered[rank(len(ordered), p_tail) - 1] / 1e6, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    meta = {
        "batches": len(loop.cpu),
        "loop_cpu_s": sum(loop.cpu),
        "loop_wall_s": loop.wall,
        "latency_samples": len(ordered),
        "tail_percentile": p_tail,
        "setup_s_all": setups,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, meta


def traced(workload: Workload, seconds: float, loop: Loop) -> tuple[dict, dict]:
    loop.run(workload, seconds / 2)
    untraced = statistics.median(loop.cpu)
    workload.load(0)  # the traced batch is the same in every run of a seed
    tracer = Tracer()
    if workload.in_process:
        tracer.install()
    else:
        workload.tracer = tracer
    loop.batch(workload, tracer)
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = loop.cpu[-1] - untraced
    spans = OUT / f"spans-{workload.name}-{workload.seed}.tsv"
    tracer.write(spans)
    meta = {
        "untraced_batch_cpu_s": untraced,
        "traced_batch_cpu_s": loop.cpu[-1],
        "self_s_by_layer": tracer.self_time_by_layer(),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}, meta


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kfour").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kfour" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'kfour'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False  # imports read cached bytecode, as installed ones do

    workload = WORKLOADS[args.workload](args.seed)
    calibration_start = calibrate()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = cpu_ns()
            workload.bind(import_fresh() if workload.in_process else None)
            workload.load(0)
            setups.append((cpu_ns() - start) / 1e9)
        loop = Loop()
        if args.trace:
            metrics, extra = traced(workload, args.seconds, loop)
        else:
            metrics, extra = end_to_end(workload, setups, loop.run(workload, args.seconds))
    finally:
        workload.close()
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_batch": len(workload.ops),
        "fail_ratio": loop.failed / loop.attempted,
        "calibration_start_cpu_wall_s": calibration_start,
        "calibration_end_cpu_wall_s": calibrate(),
        **extra,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
