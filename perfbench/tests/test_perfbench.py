"""The benchmark's own tests: smoke runs, pass-through, unusable checkouts.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
Each smoke run boots real service processes on tiny inputs, so the
file takes about a minute.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import launcher  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int) -> tuple[dict, dict]:
    done = _run(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    *_, stamp_line, result_line = done.stdout.splitlines()
    return json.loads(stamp_line)["stamp"], json.loads(result_line)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_and_no_errors(workload):
    stamp, result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], stamp["failures"] + stamp["problems"]
    assert result["failed"] == 0 and stamp["error_rate"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_matches_untraced_responses(workload):
    stamp, result = _smoke(workload, 1)
    assert result["correct"], stamp["failures"] + stamp["problems"]
    # Every traced response equals the untraced first response to the
    # same request after strip_volatile: the wrappers change nothing.
    assert stamp["passthrough"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert abs(metrics["trace.unaccounted_ms"]) < 1e-6 * max(1.0, metrics["trace.client_latency_ms"])
    assert metrics["coalesce.follower_share"] == 0


def test_wrappers_pass_results_and_exceptions_through():
    marker = object()

    def ok(*args, **kwargs):
        return marker, args, kwargs

    def boom():
        raise KeyError("boom")

    async def later(value):
        await asyncio.sleep(0)
        return value

    wrapped = launcher._sync(ok, "probe")
    assert wrapped(1, k=2) == (marker, (1,), {"k": 2})
    with pytest.raises(KeyError, match="boom"):
        launcher._sync(boom, "probe")()
    assert asyncio.run(launcher._async(later, "probe")(marker)) is marker
    labels = [row[2] for row in launcher.SPANS[-3:]]
    assert labels == ["probe"] * 3
    assert launcher.SPANS[-2][5] == {"error": True}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
