"""Tests of the benchmark itself: metric names, the checker, determinism.

    python -m pytest bench/test_bench.py

Workloads are shrunk through their class constants so that every test runs
in seconds; the harness, the checks and the tracing are the real ones.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rings
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "cells", "rows", "instances/call"}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads.EvalStream, "BATCH", 30)
    monkeypatch.setattr(rings, "BATTERY_SHAPES", [((), ()), ((2,), (2,)), ((2, 2), (2,))])
    monkeypatch.setattr(workloads.VerifyBattery, "FORMS", 1)
    monkeypatch.setattr(workloads.VerifyBattery, "EXTRA_SHAPES", ())
    monkeypatch.setattr(workloads.VerifyBattery, "HEAVY", (((3,), (3,), 1),))
    monkeypatch.setattr(workloads.AxiomGrind, "EXHAUSTIVE", (rings.RP4,))
    monkeypatch.setattr(workloads.AxiomGrind, "SAMPLES", 5)
    monkeypatch.setattr(workloads.AxiomGrind, "CHUNKS", 1)
    monkeypatch.setattr(workloads.CliCold, "ROUNDS", 1)


def bench(capsys, workload, trace=0, seed=7):
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_harness():
    assert NAMES == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_emitted(small, capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_planted_wrong_answer_is_counted(small, capsys, monkeypatch, workload):
    cls = workloads.WORKLOADS[workload]
    execute = cls.execute
    # op 0 answers with the result of op 1, which differs for every workload
    monkeypatch.setattr(cls, "execute", lambda self, i: execute(self, 1 if i == 0 else i))
    result = bench(capsys, workload)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def _broken_import(original):
    """Import the package with k_mul adding c1(a)^2 to c2: wrong and not commutative."""

    def import_fresh():
        kfour = original()
        k_mul = kfour.kclasses.k_mul

        def broken(ring, a, b):
            c = k_mul(ring, a, b)
            c2 = ring.h4.add(c.c2, ring.cup_square(a.c1))
            return kfour.KClass(ring, c.rank, c.c1, c2)

        tracing.rebind(k_mul, broken)
        return kfour

    return import_fresh


@pytest.mark.parametrize("workload", ["eval-stream", "verify-battery", "axiom-grind"])
def test_planted_engine_defect_is_counted(small, capsys, monkeypatch, workload):
    monkeypatch.setattr(run, "import_fresh", _broken_import(run.import_fresh))
    result = bench(capsys, workload)
    assert not result["correct"] and result["failed"] > 0


def test_same_seed_same_counts(small, capsys):
    first = bench(capsys, "eval-stream", trace=1)["metrics"]
    second = bench(capsys, "eval-stream", trace=1)["metrics"]
    counts = {k for k, v in first.items() if v["unit"] in COUNT_UNITS}
    assert counts and all(first[k] == second[k] for k in counts)
    assert first["kclasses.mul_calls"]["value"] > 0


def test_traced_emphasis(small, capsys):
    axioms = bench(capsys, "axiom-grind", trace=1)["metrics"]
    assert axioms["abelian.snf_calls"]["value"] == 0
    assert axioms["oracle.axiom_instances"]["value"] > 0
    cli = bench(capsys, "cli-cold", trace=1)["metrics"]
    assert cli["cli.import_s"]["value"] > 0 and cli["cli.main_s"]["value"] > 0


def test_reference_known_values():
    u = ("sub", ("L", (1,)), ("int", 1))
    rp4 = ("add", ("pow", u, 2), ("mul", ("int", 2), u))
    assert rings.evaluate(rings.RP4, rp4) == (0, (0,), (0,))
    assert rings.render(rp4) == "(((L([1]) - 1))^2 + (2 * (L([1]) - 1)))"
    # on CP2, u = L(x) - 1 has u^2 != 0 and u^3 = 0
    assert rings.evaluate(rings.CP2, ("pow", u, 2)) != (0, (0,), (0,))
    assert rings.evaluate(rings.CP2, ("pow", u, 3)) == (0, (0,), (0,))
    cube = ("pow", u, 3)
    assert rings.CP2.ch(*rings.evaluate(rings.CP2, cube)) == rings.chern_character(rings.CP2, cube)
    assert rings.relation_counts(rings.CP2) == {
        "1": 1, "2": 25, "3": 5, "4": 25, "5": 25, "6": 25, "7": 25
    }
    assert rings.axiom_counts(20)["add_associative"] == 8000


def test_tail_percentile_keeps_ten_samples_of_a_batch_beyond():
    assert [run.tail_percentile(n) for n in (10**4, 1000, 100, 102, 22)] == [
        99.9, 99, 90, 90, 100
    ]
    assert [run.rank(100, p) for p in (50, 90, 99.9, 100)] == [50, 90, 100, 100]


def test_full_batches_have_the_documented_shape():
    sizes = {}
    for name in ("eval-stream", "verify-battery", "cli-cold"):  # axiom-grind parses as it loads
        workload = workloads.WORKLOADS[name](1)
        workload.load(0)
        workload.close()
        sizes[name] = len(workload.ops)
    assert sizes == {"eval-stream": 1000, "verify-battery": 100, "cli-cold": 102}
    battery = workloads.VerifyBattery(1)
    battery.load(0)
    assert len({spec for spec, _ in battery.ops}) == 100
    heavy = sum(1 for spec, _ in battery.ops if spec.order2 >= 16)
    assert heavy > 100 - 90  # the 90th percentile falls among the SNF-bound rings


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
