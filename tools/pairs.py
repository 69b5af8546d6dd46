#!/usr/bin/env python3
"""Run bench/run.py in alternating parent/change pairs and summarise them.

    python3 tools/pairs.py --parent REV --change REV --workload NAME
        [--workload NAME ...] [--pairs 10] [--seconds 20] [--first-seed 501]
        [--claim WORKLOAD:METRIC] [--note TEXT ...] --trajectory N [--out PATH]

Each side runs from its own copy of the committed files of its revision,
unpacked from ``git archive`` into a temporary directory and byte-compiled
before the first run, and uses that copy's own bench/ and src/.  Pair i runs
seed first_seed + i on both sides; the parent runs first in even pairs and
the change in odd ones.  The copies are removed at the end.

The output, BENCH_<N>.json at the repository root unless --out names
another path, is in the shape of BENCH_13.json: per workload the seeds, which
side ran first, the largest fail_ratio per side, whether every run was
correct, and per end-to-end metric of BENCHMARK.json each side's median and
quartiles (statistics.quantiles, n=4, method='inclusive'), the change/parent
ratio of the medians, the pairs the change won (ties count for neither), the
parent's quartile spread and every run's value; setup_s also keeps every
run's start calibration CPU time, per side.  A claim holds when the
change wins at least nine tenths of the pairs and the medians differ, the
change's way, by more than the parent's quartile spread.  A table of every
ratio against its bound goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = "python3 bench/run.py --workload WORKLOAD --seed SEED --seconds {seconds}"
METHOD = (
    "Alternating pairs of the parent and the change, each run in its own copy "
    "of its commit's files (git archive); first_side says which side ran first "
    "in each pair. Each metric "
    "is the value the run printed; median and quartiles are over runs "
    "(statistics.quantiles, n=4, method='inclusive'). change_wins counts pairs "
    "in which the change is better."
)


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(meta, result) from the last two lines a bench/run.py run printed."""
    meta, result = (json.loads(line) for line in stdout.strip().splitlines()[-2:])
    return meta["meta"], result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def is_better(better: str, a: float, b: float) -> bool:
    """Whether value a beats value b for a metric where ``better`` is lower/higher."""
    return a < b if better == "lower" else a > b


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's entry from its pairs.

    ``runs`` holds one dict per pair: ``seed``, ``first`` (the side that ran
    first) and, per side, the ``(meta, result)`` that :func:`parse_run` read.
    ``end_to_end`` is BENCHMARK.json's list of end-to-end metrics.
    """
    entry = {
        "seeds": [r["seed"] for r in runs],
        "pairs": len(runs),
        "first_side": [r["first"] for r in runs],
        "fail_ratio": {s: max(r[s][0]["fail_ratio"] for r in runs) for s in SIDES},
        "correct": all(r[s][1]["correct"] for r in runs for s in SIDES),
        "metrics": {},
    }
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        values = {s: [r[s][1]["metrics"][name]["value"] for r in runs] for s in SIDES}
        parent, change = spread(values["parent"]), spread(values["change"])
        entry["metrics"][name] = {
            "unit": spec["unit"],
            "better": better,
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "change_wins": sum(
                is_better(better, c, p) for p, c in zip(values["parent"], values["change"])
            ),
            "parent_iqr": parent["q3"] - parent["q1"],
            "parent_runs": values["parent"],
            "change_runs": values["change"],
        }
    if "setup_s" in entry["metrics"]:
        # a setup that reads high may be a slow host: each run's start calibration tells
        entry["metrics"]["setup_s"]["calibration_start_cpu_s"] = {
            s: [r[s][0]["calibration_start_cpu_wall_s"][0] for r in runs] for s in SIDES
        }
    return entry


def claim_met(metric: dict, pairs: int) -> bool:
    """Wins in nine tenths of the pairs, and a median gap past the parent's spread."""
    gap = metric["parent"]["median"] - metric["change"]["median"]
    if metric["better"] == "higher":
        gap = -gap
    return 10 * metric["change_wins"] >= 9 * pairs and gap > metric["parent_iqr"]


def verdicts(workloads: dict) -> list[str]:
    """One line per workload and metric: medians, ratio, wins and the bound.

    The setup_s line also gives each side's median start calibration.
    """
    lines = []
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            ratio = m["change_over_parent"]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            line = (
                f"{workload:15s} {name:16s} {m['parent']['median']:12.6g} -> "
                f"{m['change']['median']:12.6g}  x{ratio:.3f}  wins "
                f"{m['change_wins']}/{entry['pairs']}  "
                f"{'PAST BOUND' if worse > m['bound'] else 'within'} {m['bound']:.0%}"
            )
            if "calibration_start_cpu_s" in m:
                medians = (statistics.median(m["calibration_start_cpu_s"][s]) for s in SIDES)
                line += "  calibration {:.4g} -> {:.4g} s".format(*medians)
            lines.append(line)
    return lines


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"pairs: {' '.join(argv[1:])} in {checkout} failed:\n{done.stderr}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=501)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--trajectory", type=int, required=True, help="number N of BENCH_N.json")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.claim and args.claim.split(":")[0] not in args.workload:
        parser.error(f"--claim {args.claim} names a workload that is not run")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commits = {s: git("rev-parse", getattr(args, s)) for s in SIDES}
    with tempfile.TemporaryDirectory(prefix="kfour-pairs-") as tmp:
        checkouts = {s: Path(tmp) / s for s in SIDES}
        for side, path in checkouts.items():
            path.mkdir()
            archive = subprocess.run(["git", "archive", commits[side]], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(path)], input=archive, check=True)
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                           cwd=path, check=True, capture_output=True)
        results = {}
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench(checkouts[side], workload, seed, args.seconds)
                    print(f"pairs: {workload} seed {seed} {side} done", file=sys.stderr)
                runs.append(run)
            results[workload] = summarize(runs, spec["end_to_end"])
        digests = {s: run[s][0]["source_digest"] for s in SIDES}  # as run.py printed
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {
            "workload": workload,
            "metric": metric,
            "rule": "change wins >= 9/10 pairs and the median gap exceeds the "
                    "parent's quartile spread",
            "met": claim_met(results[workload]["metrics"][metric], args.pairs),
        }
    summary = {
        "trajectory": args.trajectory,
        "change": {"commit": commits["change"], "source_digest": digests["change"]},
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "method": METHOD,
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "times": "process CPU time"},
        "parent": {"commit": commits["parent"], "source_digest": digests["parent"]},
        "claim": claim,
        "notes": args.note,
        "workloads": results,
    }
    out = args.out or ROOT / f"BENCH_{args.trajectory}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print("\n".join(verdicts(results)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
