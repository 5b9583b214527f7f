"""Seeded load generation, open-loop bookkeeping and the rate ladder."""

from __future__ import annotations

import math

import numpy as np
import pytest

from perfbench import loadgen
from perfbench.loadgen import Outcome


def test_zipf_picks_are_stratified_and_seeded():
    first = loadgen.zipf_picks(np.random.default_rng(5), 32, 1.1, 500)
    again = loadgen.zipf_picks(np.random.default_rng(5), 32, 1.1, 500)
    other = loadgen.zipf_picks(np.random.default_rng(6), 32, 1.1, 500)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    # Every seed offers the same mix; only the order differs.
    assert np.array_equal(np.bincount(first, minlength=32), np.bincount(other, minlength=32))
    expected = loadgen.zipf_weights(32, 1.1) * 500
    assert np.all(np.abs(np.bincount(first, minlength=32) - expected) < 1.0)


def test_arrival_offsets_fill_the_phase_at_the_rate():
    offsets = loadgen.arrival_offsets(np.random.default_rng(1), 40.0, 2.5)
    assert len(offsets) == 100
    assert np.all(np.diff(offsets) >= 0)
    assert offsets[0] >= 0.0 and offsets[-1] < 2.5


def test_percentile_counts_misses_as_slowest():
    assert loadgen.percentile([3, 1, 2, 4], 50) == 2
    assert loadgen.percentile([1.0] * 99 + [math.inf], 99) == 1.0
    assert loadgen.percentile([1.0] * 98 + [math.inf] * 2, 99) == math.inf


def _outcomes(dues, latency):
    return [Outcome(i, d, d, d + latency(i, d)) for i, d in enumerate(dues)]


def test_backlog_growth_is_detected_only_when_it_keeps_growing():
    dues = list(np.linspace(0.0, 4.0, 200, endpoint=False))
    steady = _outcomes(dues, lambda i, d: 0.01)
    assert loadgen.backlog_profile(steady, 0.0, 4.0)[1] == 0.0
    # Served at half the arrival rate: the backlog grows linearly.
    overloaded = [Outcome(i, d, d, 2 * d + 0.01) for i, d in enumerate(dues)]
    samples, growth = loadgen.backlog_profile(overloaded, 0.0, 4.0)
    assert growth > 1.0 and samples[-1] > samples[len(samples) // 2]


def test_summary_counts_every_outcome_and_judges_the_slo():
    outcomes = _outcomes([0.0, 0.1, 0.2, 0.3], lambda i, d: 0.005)
    outcomes[3].status = loadgen.REJECTED
    summary = loadgen.summarize(outcomes, 0.0, 0.4, 10.0, 50, 10.0, [4, 9, 16, 25])
    assert (summary["attempted"], summary["succeeded"], summary["failed"]) == (4, 3, 1)
    assert summary["outcomes"][loadgen.REJECTED] == 1
    assert summary["cells_per_s"] == pytest.approx((4 + 9 + 16) / 0.205)
    assert summary["passed"]
    assert not loadgen.summarize(outcomes, 0.0, 0.4, 10.0, 99, 10.0, [1] * 4)["passed"]


def test_ladder_stops_at_first_failure_and_interpolates():
    def step(rate, index):
        return {"rate": rate, "passed": index <= 1.0, "load_index": index,
                "attempted": 10, "succeeded": 10}

    values = {100.0: 0.2, 200.0: 0.6, 300.0: 1.4, 400.0: 0.1}
    steps = loadgen.run_ladder(values, lambda rate: step(rate, values[rate]))
    assert [s["rate"] for s in steps] == [100.0, 200.0, 300.0]
    assert loadgen.max_ok_rate(steps) == pytest.approx(250.0)
    assert loadgen.max_ok_rate(steps[:2]) == pytest.approx(200.0)
    assert loadgen.max_ok_rate([step(100.0, 1.8)]) == 0.0
