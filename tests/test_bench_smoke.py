"""One short benchmark run of each workload the schema test does not run.

``perfbench/test_bench_schema.py`` runs only ``recall-batch``. These runs
make a change to what the other workloads read (the prefill hand-off's
``PrefillState``, the engine's counters) fail here too, not only in a
benchmark run. Each takes about two seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [("prefill-long", 0), ("prefill-long", 1), ("decode-long", 0), ("suite-analysis", 0)],
)
def test_a_short_benchmark_run_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
