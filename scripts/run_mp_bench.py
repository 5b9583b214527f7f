#!/usr/bin/env python
"""Measure the multicore backend against the vectorized single-core engine.

Runs the synthetic kernel at one grid size on both the ``vectorized`` and
the ``mp-parallel`` executors, verifies the grids are identical, and writes
the measurements (plus the host's core count) to
``benchmarks/results/mp_bench.json`` — the committed artifact backing the
backend's speedup claim.

Target (ISSUE 2): >= 2x wall-clock over ``vectorized`` on a 1024x1024
synthetic kernel with >= 4 workers.  On hosts with fewer than two cores the
backend falls back to the in-process single-core sweep and the recorded
speedup is ~1x; the artifact stores ``cpu_count`` so readers can tell which
regime was measured.

    PYTHONPATH=src python scripts/run_mp_bench.py --dim 1024 --repeats 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.synthetic import SyntheticApp  # noqa: E402
from repro.core.params import TunableParams  # noqa: E402
from repro.hardware import platforms  # noqa: E402
from repro.runtime import MPParallelExecutor, VectorizedSerialExecutor  # noqa: E402
from repro.runtime.mp_parallel import resolve_worker_count  # noqa: E402
from repro.version import __version__  # noqa: E402


def time_executor(executor, problem, tunables, repeats: int):
    """Best wall time over ``repeats`` runs; returns (best_s, all_s, result)."""
    walls = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = executor.execute(problem, tunables, mode="functional")
        walls.append(time.perf_counter() - t0)
    return min(walls), walls, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=1024, help="grid side length")
    parser.add_argument("--repeats", type=int, default=3, help="runs per executor (best kept)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: auto-detect; the 2x target assumes >= 4)",
    )
    parser.add_argument("--tile", type=int, default=None, help="cpu tile (default: dim // 8)")
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "mp_bench.json",
        help="output JSON path",
    )
    args = parser.parse_args()

    system = platforms.I7_2600K
    workers = resolve_worker_count(args.workers, system)
    tile = args.tile if args.tile is not None else max(32, args.dim // 8)
    problem = SyntheticApp(dim=args.dim).problem(args.dim)

    print(
        f"mp bench: dim={args.dim}, workers={workers} "
        f"(host cpu_count={os.cpu_count()}), tile={tile}, repeats={args.repeats}"
    )

    vec_best, vec_all, vec_result = time_executor(
        VectorizedSerialExecutor(system), problem, TunableParams(), args.repeats
    )
    print(f"  vectorized : best {vec_best:.4f}s  {['%.4f' % w for w in vec_all]}")

    mp_exec = MPParallelExecutor(system, workers=args.workers)
    mp_best, mp_all, mp_result = time_executor(
        mp_exec, problem, TunableParams(cpu_tile=tile), args.repeats
    )
    mode = mp_result.stats["mode"]
    print(f"  mp-parallel: best {mp_best:.4f}s  {['%.4f' % w for w in mp_all]}  [{mode}]")

    identical = bool(np.array_equal(vec_result.grid.values, mp_result.grid.values))
    speedup = vec_best / mp_best
    print(f"  grids identical: {identical}; speedup vs vectorized: {speedup:.2f}x")

    # Cost-model expectation at multicore worker counts: what the same
    # instance predicts on hosts this benchmark machine may not be (the
    # dependency-chain-bounded rtime of docs/tuning.md), plus the
    # larger/coarser instances the backend is actually tuned towards.
    from repro.core.params import InputParams

    params = problem.input_params()
    model = mp_exec.cost_model
    vec_rtime = model.vectorized_time(params)
    predicted = {
        f"workers_{w}": {
            "mp_rtime_s": model.mp_parallel_time(params, tile, w),
            "speedup_vs_vectorized": vec_rtime / model.mp_parallel_time(params, tile, w),
        }
        for w in (2, 4, 8)
    }
    for name, entry in predicted.items():
        print(
            f"  cost model {name}: {entry['mp_rtime_s']:.4f}s rtime, "
            f"{entry['speedup_vs_vectorized']:.2f}x vs vectorized"
        )
    scaling = {}
    for big_dim, big_tsize in ((1900, 750), (2700, 100)):
        big = InputParams(dim=big_dim, tsize=big_tsize, dsize=1)
        big_vec = model.vectorized_time(big)
        best = min(
            (model.mp_parallel_time(big, t, w), t, w)
            for t in (32, 64, 128)
            for w in (4, 8)
        )
        scaling[f"dim{big_dim}_tsize{big_tsize:g}"] = {
            "vectorized_rtime_s": big_vec,
            "mp_rtime_s": best[0],
            "cpu_tile": best[1],
            "workers": best[2],
            "speedup_vs_vectorized": big_vec / best[0],
        }
        print(
            f"  cost model dim={big_dim} tsize={big_tsize:g}: "
            f"{big_vec / best[0]:.2f}x vs vectorized "
            f"(tile={best[1]}, workers={best[2]})"
        )

    payload = {
        "meta": {
            "benchmark": "mp-parallel vs vectorized, synthetic kernel",
            "dim": args.dim,
            "repeats": args.repeats,
            "cpu_count": os.cpu_count(),
            "workers": mp_result.stats["workers"],
            "mode": mode,
            "cpu_tile": tile,
            "python": sys.version.split()[0],
            "version": __version__,
            "target": "speedup_vs_vectorized >= 2.0 at dim 1024 with >= 4 workers; "
            "hosts with cpu_count < 2 fall back to the in-process single-core "
            "sweep and measure ~1x",
        },
        "results": {
            "vectorized_wall_s_best": vec_best,
            "vectorized_wall_s_all": vec_all,
            "mp_parallel_wall_s_best": mp_best,
            "mp_parallel_wall_s_all": mp_all,
            "speedup_vs_vectorized": speedup,
            "grids_identical": identical,
            "tiles_executed": mp_result.stats["tiles_executed"],
            "tile_waves": mp_result.stats["tile_waves"],
        },
        "predicted": {
            "note": "analytic cost-model rtime (vectorized_time vs "
            "mp_parallel_time, bounded by the tile-diagonal dependency "
            "chain) for multicore worker counts, independent of this "
            "host's cores",
            "vectorized_rtime_s": vec_rtime,
            **predicted,
            "larger_instances": scaling,
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
