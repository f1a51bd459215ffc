"""Smoke test of the benchmark command at its smallest sizes.

    python3 -m pytest -q bench/test_smoke.py

It lives outside `tests/`, so the tier-1 suite neither runs it nor slows
down.  Each case starts `run.py --tiny` in a subprocess for one second of
rounds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, seed=0, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_run(workload):
    result = result_of(run_bench(workload, 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # only the fixed EC3 instance fails: one gap-scan in each round of six
    if workload == "ec3-projector":
        assert 6 * result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 0


def test_traced_counts_repeat():
    first = result_of(run_bench("ec3-projector", 1))
    second = result_of(run_bench("ec3-projector", 1))
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["spectra.lanczos.matvecs"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("scan-sparse", 0, cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
