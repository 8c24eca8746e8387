"""Tests of the end-to-end benchmark itself, in its ``--smoke`` mode.

Run from the repository root::

    python3 -m pytest -q e2ebench/test_e2ebench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from measure import latency_tail  # noqa: E402
from workloads import WORKLOADS, campaign_seed, time_to_fraction  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--smoke",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    detail = json.loads(lines[-2])
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert [row["model"] for row in detail["models"]] == [
        "CPUTask", "AFC", "RAC", "SolarPV",
    ]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "kernel_campaign", "--seed", "1", "--smoke",
               cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_campaign_seeds_are_a_function_of_the_seed():
    assert campaign_seed(7, "AFC", 0) == campaign_seed(7, "AFC", 0)
    assert len({campaign_seed(7, m, k) for m in ("AFC", "RAC") for k in range(3)}) == 6


def test_time_to_fraction_takes_the_first_crossing():
    assert time_to_fraction([(0.1, 5), (0.4, 9), (0.9, 10)]) == 0.4
    assert time_to_fraction([]) == 0.0


def test_latency_tail_keeps_ten_samples_beyond():
    assert latency_tail([1.0] * 10)["percentile"] is None
    tail = latency_tail([float(i) for i in range(1, 101)])
    assert tail == {"percentile": 90, "samples": 100, "value_s": 90.0}
