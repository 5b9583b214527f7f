"""Tiny configurations of every workload through the real command.

Each test shrinks a workload's frozen configuration (fewer, smaller
requests; a second-long run) but runs the same code paths as the full
benchmark: the real serve child or in-process server, reference solving,
answer checking, the ladder and, with ``--trace 1``, the span wrappers.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import cold, config, run
from perfbench.analysis import PER_LAYER
from perfbench.common import END_TO_END


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(config, "SETUP_REPEATS_CHILD", 1)
    monkeypatch.setattr(config, "SETUP_REPEATS_INPROC", 2)
    for key, value in {"apps": ("lcs", "edit-distance"), "dims": (16, 24), "signatures": 8,
                       "nominal_rps": 20.0, "ladder_rps": (20.0, 40.0),
                       "nominal_share": 0.5}.items():
        monkeypatch.setitem(config.SERVE_HOT, key, value)
    for key, value in {"apps": ("lcs", "knapsack"), "dims": (16, 32), "nominal_rps": 20.0,
                       "ladder_rps": (20.0, 40.0), "nominal_share": 0.5}.items():
        monkeypatch.setitem(config.SERVE_COLD, key, value)
    monkeypatch.setitem(config.SOLVE_GIANT, "apps", ("lcs", "edit-distance"))
    monkeypatch.setitem(config.SOLVE_GIANT, "dim", 64)


def _run(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1.5",
                     "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_reports_every_metric(tiny, capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, _ in wanted]
    for name, unit in wanted:
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["runtime.execute_ms_p50"] > 0 or workload == "serve-hot"
        assert values["session.plan_ms_p50"] > 0
        assert 0 < values["trace.path_share_p50"] <= 1.5
    else:
        assert values["latency_p50_ms"] > 0 and values["setup_s"] > 0


def test_corrupted_reference_digest_is_a_mismatch_and_fails(tiny, capsys, monkeypatch):
    real = cold.reference_digests

    def corrupted(requests, solve):
        digests = real(requests, solve)
        first = next(iter(digests))
        digests[first] = ("0" * 64, digests[first][1])
        return digests

    monkeypatch.setattr(cold, "reference_digests", corrupted)
    code, result = _run(capsys, "serve-cold", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
