"""The summary of tools/pairs.py, fed canned bench/run.py output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def canned(latency, ops, fail_ratio=0.0, correct=True, calibration=0.027):
    """The last two stdout lines of a bench/run.py run, after some log lines."""
    meta = {"meta": {"workload": "cli-cold", "fail_ratio": fail_ratio,
                     "calibration_start_cpu_wall_s": [calibration, calibration + 0.002]}}
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "latency_p50_ms": {"value": latency, "unit": "ms"},
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "setup_s": {"value": 0.1, "unit": "s"},
        },
    }
    return "bench: warming up\n" + json.dumps(meta) + "\n" + json.dumps(result) + "\n"


def pair(seed, first, parent, change):
    return {
        "seed": seed,
        "first": first,
        "parent": pairs.parse_run(canned(*parent)),
        "change": pairs.parse_run(canned(*change)),
    }


PARENT_P50 = [76.0, 78.0, 77.0, 80.0, 79.0]
CHANGE_P50 = [56.0, 57.0, 78.0, 55.0, 58.0]  # the change loses pair 3
PARENT_OPS = [13.0, 12.5, 13.0, 12.0, 12.8]
CHANGE_OPS = [17.0, 17.5, 13.0, 16.0, 17.2]  # pair 3 is a tie


def runs():
    return [
        pair(501 + i, "parent" if i % 2 == 0 else "change", (p, po), (c, co))
        for i, (p, c, po, co) in enumerate(zip(PARENT_P50, CHANGE_P50, PARENT_OPS, CHANGE_OPS))
    ]


def test_parse_run_reads_the_last_two_lines():
    meta, result = pairs.parse_run(canned(70.0, 14.0, fail_ratio=0.25))
    assert meta["fail_ratio"] == 0.25
    assert result["metrics"]["latency_p50_ms"]["value"] == 70.0


def test_summary_matches_bench_13_shape():
    entry = pairs.summarize(runs(), END_TO_END)
    bench_13 = json.loads((ROOT / "BENCH_13.json").read_text(encoding="utf-8"))
    reference = bench_13["workloads"]["cli-cold"]
    assert entry.keys() == reference.keys()
    assert entry["metrics"].keys() == {"latency_p50_ms", "ops_per_s"}
    for metric in entry["metrics"].values():
        assert metric.keys() == reference["metrics"]["latency_p50_ms"].keys()
    assert entry["seeds"] == [501, 502, 503, 504, 505]
    assert entry["first_side"] == ["parent", "change", "parent", "change", "parent"]
    assert entry["fail_ratio"] == {"parent": 0.0, "change": 0.0}
    assert entry["correct"] is True


def test_summary_statistics():
    latency = pairs.summarize(runs(), END_TO_END)["metrics"]["latency_p50_ms"]
    # inclusive quartiles of 76, 77, 78, 79, 80 and of 55, 56, 57, 58, 78
    assert latency["parent"] == {"median": 78.0, "q1": 77.0, "q3": 79.0}
    assert latency["change"] == {"median": 57.0, "q1": 56.0, "q3": 58.0}
    assert latency["parent_iqr"] == 2.0
    assert latency["change_over_parent"] == 57.0 / 78.0
    assert latency["change_wins"] == 4
    assert latency["parent_runs"] == PARENT_P50 and latency["change_runs"] == CHANGE_P50
    assert (latency["unit"], latency["better"], latency["bound"]) == ("ms", "lower", 0.25)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    ops = pairs.summarize(runs(), END_TO_END)["metrics"]["ops_per_s"]
    assert ops["change_wins"] == 4
    assert ops["change"]["median"] > ops["parent"]["median"]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    latency = pairs.summarize(runs(), END_TO_END)["metrics"]["latency_p50_ms"]
    assert not pairs.claim_met(latency, 5)  # 4 of 5 wins is short of 9/10
    ten = runs() + [pair(506 + i, "change", (78.0, 13.0), (57.0, 17.0)) for i in range(5)]
    latency = pairs.summarize(ten, END_TO_END)["metrics"]["latency_p50_ms"]
    assert latency["change_wins"] == 9 and pairs.claim_met(latency, 10)
    ops = pairs.summarize(ten, END_TO_END)["metrics"]["ops_per_s"]
    assert ops["change_wins"] == 9 and pairs.claim_met(ops, 10)
    # the same wins, but a median gap inside the parent's spread
    close = [pair(501 + i, "parent", (78.0 + i, 13.0), (77.5 + i, 13.0)) for i in range(10)]
    latency = pairs.summarize(close, END_TO_END)["metrics"]["latency_p50_ms"]
    assert latency["change_wins"] == 10 and not pairs.claim_met(latency, 10)


def test_failures_and_incorrect_runs_are_reported():
    bad = runs()
    bad[2]["change"] = pairs.parse_run(canned(57.0, 17.0, fail_ratio=0.5, correct=False))
    entry = pairs.summarize(bad, END_TO_END)
    assert entry["fail_ratio"] == {"parent": 0.0, "change": 0.5}
    assert entry["correct"] is False


def test_verdicts_flag_a_metric_past_its_bound():
    worse = [pair(501 + i, "parent", (50.0, 20.0), (70.0, 19.0)) for i in range(4)]
    lines = pairs.verdicts({"cli-cold": pairs.summarize(worse, END_TO_END)})
    assert len(lines) == 2
    assert "latency_p50_ms" in lines[0] and "PAST BOUND" in lines[0]  # 1.4x
    assert "ops_per_s" in lines[1] and "within" in lines[1]  # 0.95x


def test_setup_line_gives_each_side_median_start_calibration():
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    calibrations = {"parent": [0.026, 0.035, 0.027], "change": [0.028, 0.040, 0.038]}
    runs = [
        {"seed": 501 + i, "first": "parent",
         **{s: pairs.parse_run(canned(70.0, 14.0, calibration=calibrations[s][i]))
            for s in pairs.SIDES}}
        for i in range(3)
    ]
    entry = pairs.summarize(runs, END_TO_END + [setup])
    assert entry["metrics"]["setup_s"]["calibration_start_cpu_s"] == calibrations
    assert "calibration_start_cpu_s" not in entry["metrics"]["latency_p50_ms"]
    lines = pairs.verdicts({"axiom-grind": entry})
    assert [line.split()[1] for line in lines] == ["latency_p50_ms", "ops_per_s", "setup_s"]
    assert lines[2].endswith("calibration 0.027 -> 0.038 s")
    assert all("calibration" not in line for line in lines[:2])
