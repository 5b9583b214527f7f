"""Tests of the dependency-driven tile dispatch of the multicore backend.

Two layers are covered:

* :class:`~repro.runtime.scheduler.DependencyGraph` /
  :func:`~repro.runtime.scheduler.run_pipelined` — the readiness protocol
  itself: every tile retired exactly once, no successor released before its
  last predecessor retires, strict errors on protocol misuse, and no
  starvation on any decomposition or clipped range;
* the executor surface — :meth:`MPWavefrontPool.run_range` and
  :class:`~repro.runtime.mp_parallel.MPParallelExecutor` on real worker
  processes — whose acceptance property is **bit-identical grids and
  witnesses** to the serial reference for every registered application,
  worker count and band shape.
"""

from collections import Counter

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import available_applications, get_application
from repro.core.exceptions import ExecutionError
from repro.core.params import TunableParams
from repro.core.tiling import TileDecomposition
from repro.hardware import platforms
from repro.runtime import (
    DependencyGraph,
    MPParallelExecutor,
    MPWavefrontPool,
    SerialExecutor,
)
from repro.runtime.compute import reference_grid
from repro.runtime.scheduler import run_pipelined, tile_intersects_range

grid_sides = st.integers(min_value=1, max_value=40)
tiles = st.integers(min_value=1, max_value=12)


def _key(tile):
    return (tile.tile_row, tile.tile_col)


def _witness_equal(a, b):
    """Bit-exact witness comparison (witnesses are arrays or None)."""
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


def _drain(graph):
    """Sequential drain; returns the keys in retirement order."""
    order = []
    while not graph.done:
        tile = graph.acquire()
        assert tile is not None, "graph starved with tiles outstanding"
        graph.retire(tile)
        order.append(_key(tile))
    return order


class TestDependencyGraph:
    """The readiness protocol on the full (unclipped) decomposition."""

    @given(rows=grid_sides, cols=grid_sides, tile=tiles)
    @settings(max_examples=80, deadline=None)
    def test_every_tile_retired_exactly_once(self, rows, cols, tile):
        decomp = TileDecomposition(rows, cols, tile)
        graph = DependencyGraph(decomp)
        seen = Counter(_drain(graph))
        assert len(seen) == decomp.n_tiles == graph.n_tiles
        assert all(count == 1 for count in seen.values())

    @given(rows=grid_sides, cols=grid_sides, tile=tiles)
    @settings(max_examples=80, deadline=None)
    def test_no_successor_released_before_its_predecessors(self, rows, cols, tile):
        decomp = TileDecomposition(rows, cols, tile)
        graph = DependencyGraph(decomp)
        retired = set()
        while not graph.done:
            t = graph.acquire()
            assert t is not None
            key = _key(t)
            for pred in ((key[0] - 1, key[1]), (key[0], key[1] - 1),
                         (key[0] - 1, key[1] - 1)):
                if pred[0] >= 0 and pred[1] >= 0:
                    assert pred in retired, (
                        f"tile {key} acquired before predecessor {pred} retired"
                    )
            graph.retire(t)
            retired.add(key)

    def test_sequential_drain_matches_wave_order(self):
        decomp = TileDecomposition(20, 20, 5)
        order = _drain(DependencyGraph(decomp))
        waves = [k[0] + k[1] for k in order]
        assert waves == sorted(waves)

    def test_retire_without_acquire_raises(self):
        decomp = TileDecomposition(10, 10, 5)
        graph = DependencyGraph(decomp)
        tile = next(iter(decomp.all_tiles()))
        with pytest.raises(ExecutionError, match="without being acquired"):
            graph.retire(tile)

    def test_double_retire_raises(self):
        graph = DependencyGraph(TileDecomposition(10, 10, 5))
        tile = graph.acquire()
        graph.retire(tile)
        with pytest.raises(ExecutionError, match="retired twice"):
            graph.retire(tile)

    def test_release_happens_only_at_last_predecessor(self):
        # 2x2 tile grid: the corner (1,1) must be released exactly when the
        # second of its two wave-1 predecessors retires, not at the first.
        graph = DependencyGraph(TileDecomposition(10, 10, 5))
        origin = graph.acquire()
        assert _key(origin) == (0, 0)
        released = {_key(t) for t in graph.retire(origin)}
        assert released == {(0, 1), (1, 0)}
        first = graph.acquire()
        assert graph.retire(first) == []  # (1,1) still waits on the other
        second = graph.acquire()
        assert {_key(t) for t in graph.retire(second)} == {(1, 1)}


class TestClippedGraph:
    """Range-clipped graphs cover exactly the intersecting tiles."""

    @given(
        rows=grid_sides,
        cols=grid_sides,
        tile=tiles,
        lo=st.integers(min_value=0, max_value=80),
        span=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_clipped_drain_covers_intersecting_tiles_once(
        self, rows, cols, tile, lo, span
    ):
        decomp = TileDecomposition(rows, cols, tile)
        hi = lo + span
        expected = {
            _key(t) for t in decomp.all_tiles() if tile_intersects_range(t, lo, hi)
        }
        graph = DependencyGraph(decomp, lo, hi)
        seen = Counter(_drain(graph))
        assert set(seen) == expected
        assert all(count == 1 for count in seen.values())

    def test_empty_range_graph_is_immediately_done(self):
        graph = DependencyGraph(TileDecomposition(10, 10, 4), 50, 40)
        assert graph.n_tiles == 0
        assert graph.done
        assert graph.acquire() is None

    def test_critical_path_is_the_tile_diagonal_count(self):
        # Draining in rounds (everything ready runs, then retires) takes as
        # many rounds as the longest dependency chain: the tile-diagonal
        # count the cost model's chain bound charges.
        decomp = TileDecomposition(20, 12, 4)
        graph = DependencyGraph(decomp)
        rounds = 0
        while not graph.done:
            ready = [graph.acquire() for _ in range(graph.ready_count())]
            for tile in ready:
                graph.retire(tile)
            rounds += 1
        assert rounds == decomp.n_tile_diagonals


class TestRunPipelined:
    """The drain driver, sequential and pooled."""

    def test_sequential_drain_executes_every_tile(self):
        decomp = TileDecomposition(24, 24, 6)
        graph = DependencyGraph(decomp)
        seen = []
        count = run_pipelined(graph, lambda t: seen.append(_key(t)))
        assert count == decomp.n_tiles
        assert len(seen) == decomp.n_tiles
        assert graph.done

    def test_collect_receives_one_result_per_tile(self):
        decomp = TileDecomposition(15, 15, 4)
        results = []
        run_pipelined(
            DependencyGraph(decomp), lambda t: _key(t), collect=results.append
        )
        assert sorted(results) == sorted(_key(t) for t in decomp.all_tiles())


class TestPoolDispatch:
    """``MPWavefrontPool.run_range`` drains the dependency graph bit-exactly."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pipelined_full_sweep_matches_reference(self, small_synthetic, workers):
        reference = reference_grid(small_synthetic)
        grid = small_synthetic.make_grid()
        dim = small_synthetic.dim
        with MPWavefrontPool(small_synthetic, grid, tile=5, workers=workers) as pool:
            tiles, cells = pool.run_range(0, 2 * dim - 2)
            # The in-process fallback sweeps whole diagonals (0 tiles).
            expected_tiles = pool.decomposition.n_tiles if pool.is_multiprocess else 0
        assert cells == dim * dim
        assert tiles == expected_tiles
        assert np.array_equal(reference.values, grid.values)

    def test_pipelined_subrange_matches_serial(self, small_synthetic):
        dim = small_synthetic.dim
        split = dim - 2
        grid = small_synthetic.make_grid()
        with MPWavefrontPool(small_synthetic, grid, tile=5, workers=2) as pool:
            assert pool.is_multiprocess
            pool.run_range(0, split)
            pool.run_range(split + 1, 2 * dim - 2)
        assert np.array_equal(reference_grid(small_synthetic).values, grid.values)


class TestPipelinedExecutor:
    """The acceptance property: grids AND witnesses identical to serial."""

    @pytest.mark.parametrize("app_name", available_applications())
    @pytest.mark.parametrize("workers", (1, 2))
    def test_matches_serial_cell_for_cell(self, app_name, workers, i7_2600k):
        dim = 21
        problem = get_application(app_name, dim=dim).problem(dim)
        serial = SerialExecutor(i7_2600k).execute(problem)
        result = MPParallelExecutor(i7_2600k, workers=workers).execute(
            problem, TunableParams(cpu_tile=6)
        )
        assert np.array_equal(serial.grid.values, result.grid.values)
        assert _witness_equal(serial.witness, result.witness)
        assert result.stats["cells_computed"] == dim * dim

    @pytest.mark.parametrize("tile", [1, 3, 7, 64])
    def test_tile_size_does_not_change_the_grid(self, tile, small_synthetic, i7_2600k):
        serial = SerialExecutor(i7_2600k).execute(small_synthetic)
        result = MPParallelExecutor(i7_2600k, workers=2).execute(
            small_synthetic, TunableParams(cpu_tile=tile)
        )
        assert np.array_equal(serial.grid.values, result.grid.values)

    def test_matches_serial_executor_exactly(self, small_synthetic, i7_2600k):
        serial = SerialExecutor(i7_2600k).execute(small_synthetic)
        pooled = MPParallelExecutor(i7_2600k, workers=2).execute(
            small_synthetic, TunableParams(cpu_tile=4)
        )
        assert pooled.stats["mode"] == "process-pool"
        assert np.array_equal(serial.grid.values, pooled.grid.values)
        assert _witness_equal(serial.witness, pooled.witness)

    def test_expected_time_beats_serial_on_coarse_instances(self, i7_2600k):
        # Large, compute-heavy grids are where the multicore backend pays:
        # its simulated runtime must undercut the serial reference there.
        problem = get_application("synthetic", dim=1900, tsize=750).problem(1900)
        tunables = TunableParams(cpu_tile=64)
        serial = SerialExecutor(i7_2600k).execute(problem, mode="simulate")
        pooled = MPParallelExecutor(i7_2600k, workers=4).execute(
            problem, tunables, mode="simulate"
        )
        assert pooled.rtime < serial.rtime


def _segment_exists(name):
    """Whether a POSIX shared-memory segment is still linked."""
    return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))


@pytest.mark.parametrize("app_name", ("lcs", "viterbi", "edit-distance"))
@given(
    dim=st.integers(min_value=2, max_value=24),
    tile=st.integers(min_value=1, max_value=9),
    split=st.integers(min_value=0, max_value=46),
)
@settings(max_examples=12, deadline=None)
def test_schedule_equivalence_battery(app_name, dim, tile, split):
    """Hypothesis battery: 2-worker mp-parallel ≡ serial, full and split ranges.

    Both sweeps run on one real worker-process pool: the full sweep through
    the executor (the session's borrowed-pool path), the split sweep as two
    ``run_range`` calls clipped at a drawn diagonal, the way the hybrid
    executor's CPU phases call it.  Grids and witnesses must match the
    serial reference bit for bit, and the pool's segment must be unlinked
    once it closes.
    """
    problem = get_application(app_name, dim=dim).problem(dim)
    system = platforms.I7_2600K
    tunables = TunableParams(cpu_tile=tile).clipped(dim)
    last = 2 * dim - 2
    split = min(split, last)
    serial = SerialExecutor(system).execute(problem)
    with MPWavefrontPool(problem, tile=tunables.cpu_tile, workers=2) as pool:
        assert pool.is_multiprocess
        segment = pool._buffer.name
        executor = MPParallelExecutor(system, workers=2, pool_source=lambda *_: pool)
        full = executor.execute(problem, tunables)
        assert full.stats["mode"] == "process-pool"
        assert full.stats["tiles_executed"] == pool.decomposition.n_tiles

        grid = problem.make_grid()
        pool.bind(grid)
        try:
            _, head = pool.run_range(0, split)
            _, tail = pool.run_range(split + 1, last)
        finally:
            pool.release()
    assert not _segment_exists(segment)
    assert head + tail == dim * dim
    for values in (full.grid.values, grid.values):
        assert np.array_equal(serial.grid.values, values)
    assert _witness_equal(serial.witness, full.witness)
    assert _witness_equal(
        serial.witness, problem.kernel.reconstruct_witness(grid.values)
    )
