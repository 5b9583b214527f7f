"""Frozen workload definitions.

Every number here is part of the benchmark contract: a program change that
claims a gain is measured against the same offered load, the same ladder
and the same latency limits as its parent.  The nominal rates and ladders
were set from the capacity the unmodified program reached on a 2-vCPU
x86-64 host (105 MB L3, Python 3.11, NumPy 2.4): the ladders' ``max_ok_rps``
was 230-390 req/s for serve-hot and 26-50 req/s for serve-cold.  Nominal
sits at about a quarter of that rather than half: that host's CPU speed
alone varies by about 15% between runs, and at half of capacity the
open-loop tail latencies swung by more than 30% between seeds.  Each ladder
starts above nominal and brackets capacity.
"""

from __future__ import annotations

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS_CHILD = 3
SETUP_REPEATS_INPROC = 9
#: Bound on every wait for the serve child (start-up, shutdown).
CHILD_TIMEOUT_S = 60.0

#: Apps whose tiles are fine-grained (small per-cell work).
FINE_APPS = (
    "lcs",
    "edit-distance",
    "sequence-comparison",
    "knapsack",
    "viterbi",
    "stochastic-path",
    "knapsack-ev",
)

# ``nominal_share`` of a serving workload is the fraction of ``--seconds``
# spent at its nominal rate; the rest is split evenly over its ladder.  The
# ladder judges each step on p95, not p99: a step of a few seconds holds too
# few samples for a steady p99.  serve-cold's limit (250 ms, about 3x the
# nominal p95) is tight enough that latency, not backlog growth, usually
# ends its ladder, which keeps the interpolated ``max_ok_rps`` continuous.
SERVE_HOT = {
    "apps": FINE_APPS,
    "dims": (32, 40, 48, 56, 64, 72, 80, 88, 96),
    "signatures": 200,
    "zipf_s": 1.1,
    "connections": 2,
    "nominal_rps": 70.0,
    "ladder_rps": (105.0, 160.0, 240.0, 360.0, 540.0),
    "slo_percentile": 95,
    "slo_ms": 30.0,
    "nominal_share": 0.6,
}

SERVE_COLD = {
    "apps": FINE_APPS + ("matrix-chain",),
    "dims": (64, 80, 96, 128, 160, 192, 256, 320, 384, 512),
    "zipf_s": 1.1,
    "nominal_rps": 10.0,
    "ladder_rps": (15.0, 22.0, 33.0, 50.0, 75.0),
    "slo_percentile": 95,
    "slo_ms": 250.0,
    "nominal_share": 0.65,
}

SOLVE_GIANT = {
    "apps": ("lcs", "edit-distance", "sequence-comparison"),
    "dim": 8192,
}
