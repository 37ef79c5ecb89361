"""Schema-only checks of the benchmark: what it declares and what it prints.

No timing is checked. One short real run per mode of the cheapest workload
confirms the printed result has every declared metric with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ["recall-batch", "decode-long", "prefill-long", "suite-analysis"]

# per workload: the figures it prints by name, with their units
REPORTED = {
    "recall-batch": {"recall_trials_per_s": "trials/s", "recall_accuracy": "fraction"},
    "decode-long": {
        "decode_tokens_per_s": "tokens/s",
        "decode_token_p50_us": "us",
        "decode_token_p99_us": "us",
        "decode_token_samples": "count",
    },
    "prefill-long": {"prefill_tokens_per_s": "tokens/s", "recall_accuracy": "fraction"},
    "suite-analysis": {"suite_wall_s": "s"},
}
EVERY_WORKLOAD = {"setup_s": "s", "setup_wall_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction"}

PER_LAYER = [
    "numerics.validate_calls", "numerics.validate_self_s",
    "attention.feature_map_calls", "attention.feature_map_rows", "attention.feature_map_self_s",
    "attention.absorb_rows", "attention.absorb_self_s", "attention.distill_s",
    "cache.update_calls", "cache.update_self_s",
    "cache.score_calls", "cache.score_rows", "cache.score_self_s",
    "cache.attend_calls", "cache.attend_self_s", "cache.accumulate_self_s",
    "cache.evictions", "cache.admit_ratio", "cache.max_full_rank_pairs",
    "chunkwise.prefill_calls", "chunkwise.prefill_self_s",
    "chunkwise.score_rows", "chunkwise.score_self_s",
    "chunkwise.attend_after_prefill_s", "chunkwise.peak_full_rank",
    "analysis.collision_replays", "analysis.collision_self_s", "analysis.rank_study_s",
    "harness.gen_niah_calls", "harness.gen_niah_s", "harness.decode_answer_s",
    "harness.io_write_s", "harness.io_bytes",
    "trace.overhead_s", "trace.overhead_pct",
]


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == WORKLOADS
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


def test_declared_metrics_match_the_benchmark():
    assert _units(DECLARED["end_to_end"]) == dict(run.E2E_METRICS)
    assert _units(DECLARED["per_layer"]) == {n: u for n, u, _ in tracer.PER_LAYER_METRICS}
    setup = next(e for e in DECLARED["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in DECLARED["end_to_end"])


def test_every_named_per_layer_metric_is_reported():
    assert set(PER_LAYER) <= {n for n, _, _ in tracer.PER_LAYER_METRICS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_reports_its_figures(name):
    reported = workloads.WORKLOADS[name].REPORTED
    for metric, unit in REPORTED[name].items():
        assert reported.get(metric) == unit


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_schema(trace):
    proc = _run(ROOT, "recall-batch", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units(DECLARED["per_layer"] if trace else DECLARED["end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) or entry.get("absent") is True
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert any(line.startswith("machine ") for line in lines)
    if not trace:
        for metric, unit in {**REPORTED["recall-batch"], **EVERY_WORKLOAD}.items():
            assert printed[metric] == unit


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "recall-batch", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
