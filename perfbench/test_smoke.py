"""Checks of the benchmark itself: python3 -m pytest perfbench/test_smoke.py

The smoke pass runs each workload's warm-up cases once, so a broken case,
check or metric shows up in seconds rather than in a full run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(argv, cwd=ROOT):
    proc = subprocess.run(RUN + argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest_matches_definitions():
    assert MANIFEST == run.manifest(run._import_program())


def test_smoke_every_workload_reports_end_to_end_metrics():
    results = _last_json(["--workload", "all", "--smoke", "--seed", "3"])["workloads"]
    assert list(results) == [w["name"] for w in MANIFEST["workloads"]]
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    for name, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, name
        assert res["correct"] is True, name
        assert res["attempted"] >= 1
        assert {m: v["unit"] for m, v in res["metrics"].items()} == units
        assert all(v["value"] > 0 for v in res["metrics"].values()), name


def test_smoke_admission_defects_are_counted():
    # plan --hnorm nan and simulate-fourier --size 0 must exit 2; until the
    # CLI admits them they raise, and count as failures.
    res = _last_json(["--workload", "fourier-lcu", "--smoke", "--seed", "3"])
    assert res["failed"] <= 2
    assert res["metrics"]["ok_frac"]["value"] == pytest.approx(
        1.0 - res["failed"] / res["attempted"])


def test_smoke_trace_reports_per_layer_metrics():
    res = _last_json(["--workload", "contour-lattice", "--smoke", "--trace", "1"])
    metrics = res["metrics"]
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(metrics)
    assert metrics["kernels.kernel_values.calls"]["value"] == 0
    assert metrics["linalg.resolvent_apply.calls"]["value"] > 0
    assert metrics["contour.shifts"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-apps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
