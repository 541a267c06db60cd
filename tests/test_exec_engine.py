"""Sharded execution engine: bit-identity, shard plans, pool, fan-out."""

import contextlib
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import get_plan_cache, set_plan_cache_enabled
from repro.errors import ConfigError
from repro.exec import (
    DEFAULT_MIN_PARALLEL_NNZ,
    NUMBA_AVAILABLE,
    BufferPool,
    ExecutionEngine,
    available_backends,
    backend_names,
    build_row_shard_plan,
    edge_range_bounds,
    exec_workers,
    get_engine,
    resolve_backend_name,
    resolve_workers,
    row_shard_plan,
    set_exec_workers,
)
from repro.exec import numerics
from repro.exec.numerics import (
    SDDMM_CHUNK,
    csr_spmm_serial,
    gat_edge_softmax_serial,
    sddmm_block,
    sddmm_serial,
)
from repro.kernels.gnnone import GnnOneSDDMM, GnnOneSpMM, GnnOneSpMV, segment_sum_spmm
from repro.nn import GCN, GraphData, Trainer, synthesize
from repro.resilience import fault_profile, no_faults
from repro.sparse import COOMatrix
from repro.sparse.datasets import load_dataset
from repro.sparse.partition import nnz_balanced_row_blocks

BACKENDS = ["thread", "process", "compiled"]


def _gathered_dot(Xg: np.ndarray, Yg: np.ndarray) -> np.ndarray:
    """Row-wise dot of two gathered (n, F) operands, feature-ascending.

    The order oracle: every edge starts at 0.0 and adds its products in
    ascending ``k`` over the full gather — the sequence every backend
    (and a scalar ``for k`` loop) must reproduce bit-for-bit.
    """
    out = np.zeros(Xg.shape[0], dtype=np.result_type(Xg.dtype, Yg.dtype, np.float64))
    for k in range(Xg.shape[1]):
        out += Xg[:, k] * Yg[:, k]
    return out


def oracle_sddmm(coo: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return _gathered_dot(np.asarray(X)[coo.rows], np.asarray(Y)[coo.cols])


def random_coo(n_rows: int, n_cols: int, nnz: int, rng, *, csr: bool = True) -> COOMatrix:
    """Exactly ``nnz`` random edges (duplicates kept), optionally shuffled."""
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    if csr:
        return COOMatrix.from_edges(n_rows, n_cols, rows, cols, deduplicate=False)
    return COOMatrix(n_rows, n_cols, rows, cols)


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    """Exact launch-counter and shard-plan assertions need a fault-free engine."""
    with no_faults():
        yield


@st.composite
def graph_workers_dim(draw):
    n = draw(st.integers(2, 40))
    nnz = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coo = COOMatrix.from_edges(
        n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    )
    workers = draw(st.integers(2, 5))
    F = draw(st.sampled_from([1, 3, 8, 16]))
    return coo, workers, F, rng


class TestBitIdentity:
    """Sharded outputs must equal the serial path bit-for-bit."""

    @given(data=graph_workers_dim())
    @settings(max_examples=40, deadline=None)
    def test_spmm_sharded_equals_serial(self, data):
        coo, workers, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        serial = csr_spmm_serial(coo, vals, X)
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().spmm(coo, vals, X)
        np.testing.assert_array_equal(sharded, serial)

    @given(data=graph_workers_dim())
    @settings(max_examples=40, deadline=None)
    def test_sddmm_sharded_equals_serial(self, data):
        coo, workers, F, rng = data
        X = rng.standard_normal((coo.num_rows, F))
        Y = rng.standard_normal((coo.num_cols, F))
        serial = sddmm_serial(coo, X, Y)
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().sddmm(coo, X, Y)
        np.testing.assert_array_equal(sharded, serial)

    @given(data=graph_workers_dim())
    @settings(max_examples=40, deadline=None)
    def test_spmv_sharded_equals_serial(self, data):
        coo, workers, _, rng = data
        vals = rng.standard_normal(coo.nnz)
        x = rng.standard_normal(coo.num_cols)
        serial = csr_spmm_serial(coo, vals, x)
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().spmv(coo, vals, x)
        np.testing.assert_array_equal(sharded, serial)

    @given(data=graph_workers_dim())
    @settings(max_examples=25, deadline=None)
    def test_sharded_spmm_matches_segment_sum(self, data):
        """Against the validation-grade mirror of the kernel arithmetic."""
        coo, workers, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().spmm(coo, vals, X)
        np.testing.assert_allclose(
            sharded, segment_sum_spmm(coo, vals, X), rtol=1e-12, atol=1e-12
        )

    def test_sddmm_unsorted_edge_order(self, rng):
        """Non-CSR-ordered COO takes the plain NZE-range split."""
        coo = COOMatrix(6, 6, np.array([4, 0, 2, 0, 3]), np.array([1, 3, 2, 0, 5]))
        assert not coo.is_csr_ordered()
        X = rng.standard_normal((6, 8))
        Y = rng.standard_normal((6, 8))
        serial = sddmm_serial(coo, X, Y)
        with exec_workers(3, min_parallel_nnz=0):
            sharded = get_engine().sddmm(coo, X, Y)
        np.testing.assert_array_equal(sharded, serial)

    def test_empty_graph_all_paths(self):
        empty = COOMatrix.from_edges(5, 5, np.zeros(0, int), np.zeros(0, int))
        with exec_workers(4, min_parallel_nnz=0):
            eng = get_engine()
            np.testing.assert_array_equal(
                eng.spmm(empty, np.zeros(0), np.ones((5, 3))), np.zeros((5, 3))
            )
            np.testing.assert_array_equal(
                eng.spmv(empty, np.zeros(0), np.ones(5)), np.zeros(5)
            )
            assert eng.sddmm(empty, np.ones((5, 3)), np.ones((5, 3))).shape == (0,)

    def test_single_hub_row(self):
        """All NZEs in one row: one block gets everything, rest are empty."""
        nnz = 64
        coo = COOMatrix.from_edges(
            8, 8, np.zeros(nnz, int), np.arange(nnz, dtype=int) % 8
        )
        vals = np.linspace(0.5, 2.0, coo.nnz)
        X = np.arange(8.0 * 4).reshape(8, 4)
        serial = csr_spmm_serial(coo, vals, X)
        with exec_workers(4, min_parallel_nnz=0):
            np.testing.assert_array_equal(get_engine().spmm(coo, vals, X), serial)


BAD_EDGE_CASES = ["negative-col", "negative-row", "col-equals-n"]


def bad_edge_operands(case: str):
    """A non-CSR-ordered COO with one edge outside the operand rows.

    The index is planted after construction (``COOMatrix`` rejects it
    up front); descending rows keep every engine on the plain NZE-range
    split, which never reads the indices before the kernel does.
    """
    n, F = 12, 5
    rows = np.repeat(np.arange(n - 1, -1, -1), 3)
    cols = np.tile(np.arange(3), n) * 4 % n
    coo = COOMatrix(n, n, rows, cols)
    if case == "negative-col":
        coo.cols[7] = -1
    elif case == "negative-row":
        coo.rows[-1] = -1
    else:
        coo.cols[20] = n
    rng = np.random.default_rng(11)
    return coo, rng.standard_normal((n, F)), rng.standard_normal((n, F))


class TestSddmmOrder:
    """The blocked SDDMM kernel equals the full-gather oracle bit-for-bit."""

    def test_fma_canary(self):
        """Separately rounded product and add give exactly 0.0; a fused
        multiply-add keeps the low bits of (1+2⁻²⁷)(1−2⁻²⁷) = 1−2⁻⁵⁴
        and gives −2⁻⁵⁴, so an FMA-contracting scipy build fails here."""
        coo = COOMatrix(1, 1, np.array([0]), np.array([0]))
        X = np.array([[-1.0, 1.0 + 2.0**-27]])
        Y = np.array([[1.0, 1.0 - 2.0**-27]])
        out = sddmm_serial(coo, X, Y)
        assert out[0] == 0.0 and not np.signbit(out[0])

    @pytest.mark.parametrize("F", [0, 1, 6, 16, 32, 41, 64])
    def test_g3_bytes_equal_oracle(self, F):
        coo = load_dataset("G3").coo
        rng = np.random.default_rng(F)
        X = rng.standard_normal((coo.num_rows, F))
        Y = rng.standard_normal((coo.num_cols, F))
        out = sddmm_serial(coo, X, Y)
        assert out.tobytes() == oracle_sddmm(coo, X, Y).tobytes()

    @pytest.mark.parametrize("F", [1, 3, 16, 41])
    @pytest.mark.parametrize("nnz", [0, 16383, 16384, 16385, 49157])
    def test_serial_across_chunk_boundaries(self, nnz, F):
        """Fixed sizes around 2¹⁴ edges: one partial chunk at F=1, exact
        boundaries at F=16 (2048-edge chunks), ragged ones at F=3/41."""
        self._check_against_oracle(nnz, F)

    @pytest.mark.parametrize("F", [1, 3, 16, 41])
    @pytest.mark.parametrize("chunks,extra", [(1, -1), (1, 0), (1, 1), (3, 5)])
    def test_serial_at_each_f_chunk_boundary(self, chunks, extra, F):
        """``nnz`` on and around F's own chunk length ``SDDMM_CHUNK // F``."""
        self._check_against_oracle(chunks * (SDDMM_CHUNK // F) + extra, F)

    @staticmethod
    def _check_against_oracle(nnz: int, F: int) -> None:
        rng = np.random.default_rng(nnz * 64 + F)
        coo = random_coo(300, 200, nnz, rng)
        X = rng.standard_normal((300, F))
        Y = rng.standard_normal((200, F))
        out = sddmm_serial(coo, X, Y)
        assert out.shape == (nnz,) and out.dtype == np.float64
        np.testing.assert_array_equal(out, oracle_sddmm(coo, X, Y))

    @pytest.mark.parametrize("chunk", [1, 4, 7, 64])
    @pytest.mark.parametrize("csr", [True, False])
    def test_small_chunks(self, monkeypatch, chunk, csr):
        """Shrunken chunks put many boundaries inside a small graph."""
        monkeypatch.setattr(numerics, "SDDMM_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        coo = random_coo(13, 29, 157, rng, csr=csr)
        assert coo.is_csr_ordered() == csr
        X = rng.standard_normal((13, 5))
        Y = rng.standard_normal((29, 5))
        np.testing.assert_array_equal(sddmm_serial(coo, X, Y), oracle_sddmm(coo, X, Y))

    def test_non_contiguous_operands(self, monkeypatch):
        monkeypatch.setattr(numerics, "SDDMM_CHUNK", 16)
        rng = np.random.default_rng(3)
        coo = random_coo(40, 25, 300, rng, csr=False)
        X = np.asfortranarray(rng.standard_normal((40, 6)))
        Y = rng.standard_normal((50, 12))[::2, ::2]  # sliced: both strides off
        assert not X.flags.c_contiguous and not Y.flags.c_contiguous
        np.testing.assert_array_equal(sddmm_serial(coo, X, Y), oracle_sddmm(coo, X, Y))

    def test_mixed_dtypes_match_oracle(self):
        """Products are formed in float64: float32 operands are cast first."""
        rng = np.random.default_rng(4)
        coo = random_coo(20, 20, 200, rng)
        X = rng.standard_normal((20, 7)).astype(np.float32)
        Y = rng.standard_normal((20, 7))
        for a, b in ((X, X), (X, Y), (Y, X)):
            out = sddmm_serial(coo, a, b)
            assert out.dtype == np.float64
            expect = oracle_sddmm(coo, *(np.asarray(v, np.float64) for v in (a, b)))
            np.testing.assert_array_equal(out, expect)

    def test_out_of_range_operand_raises(self):
        coo = COOMatrix(4, 4, np.array([0, 3]), np.array([1, 2]))
        with pytest.raises(IndexError):
            sddmm_serial(coo, np.ones((3, 2)), np.ones((4, 2)))

    def test_feature_length_mismatch_raises(self):
        coo = COOMatrix(4, 4, np.array([0, 3]), np.array([1, 2]))
        with pytest.raises(ValueError):
            sddmm_serial(coo, np.ones((4, 2)), np.ones((4, 3)))

    @pytest.mark.parametrize("case", BAD_EDGE_CASES)
    def test_bad_index_raises_serial_and_block(self, case):
        coo, X, Y = bad_edge_operands(case)
        with pytest.raises(IndexError):
            sddmm_serial(coo, X, Y)
        out = np.empty(coo.nnz)
        with pytest.raises(IndexError):
            sddmm_block(coo.rows, coo.cols, X, Y, out, 0, coo.nnz)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bad_index_raises_through_engine(self, backend):
        """Sharded launches fail the bad shard, degrade, and still raise."""
        with exec_workers(3, min_parallel_nnz=0, backend=backend):
            for case in BAD_EDGE_CASES:
                coo, X, Y = bad_edge_operands(case)
                with pytest.raises(IndexError):
                    get_engine().sddmm(coo, X, Y)

    @pytest.mark.parametrize(
        "start,end", [(0, 157), (3, 20), (6, 8), (7, 7), (13, 150), (140, 157)]
    )
    def test_block_ranges_straddle_chunks(self, monkeypatch, start, end):
        monkeypatch.setattr(numerics, "SDDMM_CHUNK", 7)
        rng = np.random.default_rng(end)
        coo = random_coo(30, 30, 157, rng, csr=False)
        X = rng.standard_normal((30, 4))
        Y = np.asfortranarray(rng.standard_normal((30, 4)))
        out = np.full(coo.nnz, np.nan)
        sddmm_block(coo.rows, coo.cols, X, Y, out, start, end)
        np.testing.assert_array_equal(
            out[start:end], oracle_sddmm(coo, X, Y)[start:end]
        )
        assert np.isnan(out[:start]).all() and np.isnan(out[end:]).all()

    def test_peak_memory_is_not_a_full_gather(self):
        """Peak allocation stays O(nnz + chunk*F), far below 2*nnz*F*8."""
        F, nnz = 32, 40 * SDDMM_CHUNK
        rng = np.random.default_rng(5)
        coo = random_coo(2000, 2000, nnz, rng)
        X = rng.standard_normal((2000, F))
        Y = rng.standard_normal((2000, F))
        tracemalloc.start()
        try:
            sddmm_serial(coo, X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * nnz * 8, f"peak {peak} B for nnz={nnz}"


class TestShardPlans:
    def test_blocks_cover_rows_disjointly(self, medium_graph):
        plan = build_row_shard_plan(medium_graph, 4)
        starts = plan.row_starts
        assert starts[0] == 0 and starts[-1] == medium_graph.num_rows
        assert (np.diff(starts) >= 0).all()
        assert plan.total_nnz == medium_graph.nnz

    def test_nnz_starts_follow_indptr(self, medium_graph):
        plan = build_row_shard_plan(medium_graph, 4)
        indptr, _, _ = medium_graph.csr_arrays()
        np.testing.assert_array_equal(
            plan.nnz_starts, np.asarray(indptr, dtype=np.int64)[plan.row_starts]
        )

    def test_imbalance_at_least_one(self, medium_graph, uniform_graph):
        for g in (medium_graph, uniform_graph):
            assert build_row_shard_plan(g, 4).imbalance >= 1.0
        # near-uniform degrees split near-perfectly
        assert build_row_shard_plan(uniform_graph, 4).imbalance < 1.2

    def test_plan_memoized_in_plancache(self, medium_graph):
        cache = get_plan_cache()
        p1 = row_shard_plan(medium_graph, 4)
        assert row_shard_plan(medium_graph, 4) is p1
        assert row_shard_plan(medium_graph, 2) is not p1
        shard_keys = [k for k in (
            ("", medium_graph.structure_token, "exec.row-shard", "shard", w, None)
            for w in (2, 4)
        ) if cache.lookup(k) is not None]
        assert len(shard_keys) == 2

    def test_plan_rebuilt_when_cache_disabled(self, medium_graph):
        set_plan_cache_enabled(False)
        try:
            p1 = row_shard_plan(medium_graph, 4)
            p2 = row_shard_plan(medium_graph, 4)
        finally:
            set_plan_cache_enabled(None)
        assert p1 is not p2
        np.testing.assert_array_equal(p1.row_starts, p2.row_starts)

    def test_nnz_balanced_row_blocks_basics(self):
        indptr = np.array([0, 10, 10, 11, 20])
        bounds = nnz_balanced_row_blocks(indptr, 2)
        assert bounds[0] == 0 and bounds[-1] == 4
        assert (np.diff(bounds) >= 0).all()
        with pytest.raises(ConfigError):
            nnz_balanced_row_blocks(indptr, 0)

    def test_more_workers_than_rows(self):
        coo = COOMatrix.from_edges(2, 2, [0, 1], [1, 0])
        plan = build_row_shard_plan(coo, 8)
        assert plan.row_starts[-1] == 2
        assert sum(b.nnz for b in plan.nonempty_blocks()) == coo.nnz

    def test_edge_range_bounds(self):
        bounds = edge_range_bounds(10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert (np.diff(bounds) > 0).all()
        np.testing.assert_array_equal(edge_range_bounds(0, 4), np.zeros(5))


class TestBufferPool:
    def test_acquire_release_roundtrip(self):
        pool = BufferPool()
        a = pool.acquire((4, 3))
        a[:] = 7.0
        assert pool.release(a)
        b = pool.acquire((4, 3))
        assert b is a                      # reused...
        np.testing.assert_array_equal(b, np.zeros((4, 3)))  # ...and re-zeroed

    def test_refuses_foreign_and_view_arrays(self):
        pool = BufferPool()
        assert not pool.release(np.zeros((2, 2)))      # never issued
        buf = pool.acquire((4, 4))
        assert not pool.release(buf[:2])               # view, not the base
        assert pool.release(buf)
        assert not pool.release(buf)                   # double release

    def test_free_list_bounded(self):
        pool = BufferPool(max_free_per_shape=1)
        a, b = pool.acquire((3,)), pool.acquire((3,))
        assert pool.release(a)
        assert not pool.release(b)         # free list full for this shape

    def test_engine_release_of_parallel_output(self, medium_graph, rng):
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        with exec_workers(4, min_parallel_nnz=0) as eng:
            out = eng.spmm(medium_graph, vals, X)
            assert eng.release(out)
            out2 = eng.spmm(medium_graph, vals, X)
            assert out2 is out             # pooled buffer reused


class TestEngineConfig:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert ExecutionEngine().workers == 1

    def test_env_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "4")
        assert resolve_workers() == 4
        assert ExecutionEngine().workers == 4

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "many")
        with pytest.raises(ConfigError):
            resolve_workers()
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "-2")
        with pytest.raises(ConfigError):
            resolve_workers()

    def test_zero_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "0")
        assert resolve_workers() == 1

    def test_min_nnz_keeps_small_launches_serial(self, rng):
        coo = COOMatrix.from_edges(10, 10, rng.integers(0, 10, 20),
                                   rng.integers(0, 10, 20))
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((10, 4))
        obs.reset_metrics()
        with exec_workers(4):              # default threshold: 4096 NZEs
            get_engine().spmm(coo, vals, X)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters.get("exec.launch.serial", 0) == 1
        assert counters.get("exec.launch.parallel", 0) == 0
        assert ExecutionEngine(4).min_parallel_nnz == DEFAULT_MIN_PARALLEL_NNZ

    def test_set_exec_workers_replaces_global(self):
        base = get_engine()
        try:
            set_exec_workers(3)
            assert get_engine().workers == 3
        finally:
            set_exec_workers(base.workers)

    def test_exec_workers_restores_previous_engine(self):
        before = get_engine()
        with exec_workers(4):
            assert get_engine().workers == 4
        assert get_engine() is before


class TestFanout:
    def test_parallel_launch_metrics_and_spans(self, medium_graph, rng):
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        obs.reset_metrics()
        with exec_workers(4, min_parallel_nnz=0):
            with obs.capture() as records:
                get_engine().spmm(medium_graph, vals, X)
        (par,) = [r for r in records if r["name"] == "exec.parallel"]
        shards = [r for r in records if r["name"] == "exec.shard"]
        assert par["attrs"]["workers"] == 4
        assert par["attrs"]["shards"] == len(shards)
        assert par["attrs"]["shard_imbalance"] >= 1.0
        assert {s["attrs"]["shard"] for s in shards} == set(range(len(shards)))
        # thread pool names its workers repro-exec-N; the process backend
        # labels shards with the pool pid; compiled runs label the JIT state
        assert all(
            s["attrs"]["worker"].startswith(("repro-exec", "pid:", "numba", "eager"))
            for s in shards
        )
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["exec.launch.parallel"] == 1

    def test_workers_gauge_tracks_engine(self):
        with exec_workers(3):
            gauges = obs.get_metrics().snapshot()["gauges"]
            assert gauges["exec.workers"] == 3

    def test_map_preserves_order(self):
        with exec_workers(4):
            out = get_engine().map(lambda i: i * i, range(20))
        assert out == [i * i for i in range(20)]

    def test_map_serial_fallbacks(self):
        with exec_workers(1):
            assert get_engine().map(lambda i: -i, [3, 1]) == [-3, -1]
        with exec_workers(4):
            assert get_engine().map(lambda i: -i, [5]) == [-5]

    def test_nested_parallelism_degrades_not_deadlocks(self, medium_graph, rng):
        """map() points that launch sharded kernels must not deadlock."""
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)

        def point(_):
            return get_engine().spmm(medium_graph, vals, X)

        with exec_workers(2, min_parallel_nnz=0):
            outs = get_engine().map(point, range(4))
        for out in outs:
            np.testing.assert_array_equal(out, serial)

    def test_map_propagates_exceptions(self):
        def boom(i):
            if i == 3:
                raise ValueError("bad point")
            return i

        with exec_workers(4):
            with pytest.raises(ValueError, match="bad point"):
                get_engine().map(boom, range(6))


class TestKernelAndTrainerIntegration:
    def test_kernel_outputs_and_times_identical(self, medium_graph, rng):
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 16))
        x = rng.standard_normal(medium_graph.num_cols)
        Xr = rng.standard_normal((medium_graph.num_rows, 16))
        serial = {
            "spmm": GnnOneSpMM()(medium_graph, vals, X),
            "sddmm": GnnOneSDDMM()(medium_graph, Xr, X),
            "spmv": GnnOneSpMV()(medium_graph, vals, x),
        }
        with exec_workers(4, min_parallel_nnz=0):
            parallel = {
                "spmm": GnnOneSpMM()(medium_graph, vals, X),
                "sddmm": GnnOneSDDMM()(medium_graph, Xr, X),
                "spmv": GnnOneSpMV()(medium_graph, vals, x),
            }
        for kind in serial:
            np.testing.assert_array_equal(
                parallel[kind].output, serial[kind].output
            )
            # simulated device time never depends on host-side sharding
            assert parallel[kind].time_us == serial[kind].time_us

    def test_training_identical_serial_vs_parallel(self):
        dataset = load_dataset("G0")
        data = synthesize(dataset, feature_length=16, seed=2)

        def fit():
            model = GCN(data.feature_length, 16, data.num_classes,
                        backend="gnnone", seed=1)
            return Trainer(model, GraphData(dataset.coo), data, lr=0.02).fit(3)

        serial = fit()
        with exec_workers(4, min_parallel_nnz=0):
            parallel = fit()
        assert [r.loss for r in parallel.history] == [r.loss for r in serial.history]
        assert [r.sim_us for r in parallel.history] == [r.sim_us for r in serial.history]
        assert parallel.test_acc == serial.test_acc

    def test_graph_warm_is_idempotent_and_covers_structures(self, medium_graph):
        g = GraphData(medium_graph)
        assert g.warm() is g
        assert "coo_t" in g.__dict__ and "transpose_perm" in g.__dict__
        assert g.coo._csr_arrays is not None
        assert g.coo_t._csr_arrays is not None
        g.warm()                            # second call is a no-op

    def test_trainer_fit_emits_warm_span(self):
        dataset = load_dataset("G0")
        data = synthesize(dataset, feature_length=8, seed=3)
        model = GCN(data.feature_length, 8, data.num_classes, seed=1)
        with obs.capture() as records:
            Trainer(model, GraphData(dataset.coo), data).fit(1)
        assert any(r["name"] == "train.warm" for r in records)


class TestConcurrentPlanCache:
    def test_concurrent_lookup_store_stress(self):
        """Hammer one small cache from many threads; LRU stays coherent."""
        from repro.core.plancache import CachedLaunch, PlanCache, plan_key
        from repro.gpusim import A100

        cache = PlanCache(capacity=8)
        entry = CachedLaunch(cost=None, trace=None)
        keys = [plan_key(f"t{i}", "k", "spmm", 8, A100) for i in range(32)]
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(300):
                    k = keys[rng.integers(len(keys))]
                    if rng.random() < 0.5:
                        cache.store(k, entry)
                    else:
                        found = cache.lookup(k)
                        assert found is None or found is entry
            except Exception as e:          # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8
        assert cache.hits + cache.misses > 0

    def test_concurrent_kernel_launches_share_cache(self, medium_graph, rng):
        """Real kernels fired from engine.map: one miss, rest hits."""
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        kernel = GnnOneSpMM()
        expected = csr_spmm_serial(medium_graph, vals, X)
        with exec_workers(4):
            outs = get_engine().map(
                lambda _: kernel(medium_graph, vals, X).output, range(8)
            )
        for out in outs:
            np.testing.assert_array_equal(out, expected)
        cache = get_plan_cache()
        assert cache.hits + cache.misses >= 8


# ------------------------------------------------------------- backends
@pytest.fixture(scope="module", params=BACKENDS)
def backend_engine(request):
    """One engine per backend, shared across the parity tests.

    Module scope keeps the process backend's spawn pool (and its
    resident shared-memory graph segments) alive across tests — the
    steady-state the backend is designed for.
    """
    eng = ExecutionEngine(3, min_parallel_nnz=0, backend=request.param)
    yield eng
    eng.shutdown()


@st.composite
def graph_and_dim(draw):
    n = draw(st.integers(2, 40))
    nnz = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coo = COOMatrix.from_edges(
        n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    )
    F = draw(st.sampled_from([1, 3, 8, 16]))
    return coo, F, rng


class TestBackendParity:
    """Every backend must match the serial numerics bit-for-bit."""

    @given(data=graph_and_dim())
    @settings(max_examples=15, deadline=None)
    def test_spmm_parity(self, backend_engine, data):
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        np.testing.assert_array_equal(
            backend_engine.spmm(coo, vals, X), csr_spmm_serial(coo, vals, X)
        )

    @given(data=graph_and_dim())
    @settings(max_examples=15, deadline=None)
    def test_sddmm_parity(self, backend_engine, data):
        coo, F, rng = data
        X = rng.standard_normal((coo.num_rows, F))
        Y = rng.standard_normal((coo.num_cols, F))
        out = backend_engine.sddmm(coo, X, Y)
        np.testing.assert_array_equal(out, sddmm_serial(coo, X, Y))
        np.testing.assert_array_equal(out, oracle_sddmm(coo, X, Y))

    @given(data=graph_and_dim())
    @settings(max_examples=15, deadline=None)
    def test_spmv_parity(self, backend_engine, data):
        coo, _, rng = data
        vals = rng.standard_normal(coo.nnz)
        x = rng.standard_normal(coo.num_cols)
        np.testing.assert_array_equal(
            backend_engine.spmv(coo, vals, x), csr_spmm_serial(coo, vals, x)
        )

    def test_empty_graph(self, backend_engine):
        empty = COOMatrix.from_edges(5, 5, np.zeros(0, int), np.zeros(0, int))
        np.testing.assert_array_equal(
            backend_engine.spmm(empty, np.zeros(0), np.ones((5, 3))),
            np.zeros((5, 3)),
        )
        assert backend_engine.sddmm(empty, np.ones((5, 3)), np.ones((5, 3))).shape == (0,)

    def test_single_hub_row(self, backend_engine):
        nnz = 64
        coo = COOMatrix.from_edges(
            8, 8, np.zeros(nnz, int), np.arange(nnz, dtype=int) % 8
        )
        vals = np.linspace(0.5, 2.0, coo.nnz)
        X = np.arange(8.0 * 4).reshape(8, 4)
        np.testing.assert_array_equal(
            backend_engine.spmm(coo, vals, X), csr_spmm_serial(coo, vals, X)
        )

    def test_unsorted_sddmm(self, backend_engine):
        coo = COOMatrix(6, 6, np.array([4, 0, 2, 0, 3]), np.array([1, 3, 2, 0, 5]))
        assert not coo.is_csr_ordered()
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 8))
        Y = rng.standard_normal((6, 8))
        out = backend_engine.sddmm(coo, X, Y)
        np.testing.assert_array_equal(out, sddmm_serial(coo, X, Y))
        np.testing.assert_array_equal(out, oracle_sddmm(coo, X, Y))

    @pytest.mark.parametrize("csr", [True, False])
    def test_multi_chunk_sddmm_matches_oracle(self, backend_engine, csr):
        """Every shard spans several chunks (process workers run the real
        chunk size, so the graph is sized for it, not monkeypatched)."""
        rng = np.random.default_rng(31)
        nnz = backend_engine.workers * (2 * (SDDMM_CHUNK // 5) + 123)
        coo = random_coo(700, 500, nnz, rng, csr=csr)
        X = rng.standard_normal((700, 5))
        Y = np.asfortranarray(rng.standard_normal((500, 5)))
        np.testing.assert_array_equal(
            backend_engine.sddmm(coo, X, Y), oracle_sddmm(coo, X, Y)
        )

    def test_gat_alpha_parity(self, backend_engine, medium_graph):
        rng = np.random.default_rng(5)
        coo = (
            medium_graph
            if medium_graph.is_csr_ordered()
            else medium_graph.sort_csr_order()
        )
        el = rng.standard_normal(coo.num_rows)
        er = rng.standard_normal(coo.num_cols)
        np.testing.assert_array_equal(
            backend_engine.gat_alpha(coo, el, er),
            gat_edge_softmax_serial(coo, el, er),
        )

    def test_repeated_launches_stay_identical(self, backend_engine, medium_graph):
        """Second launch hits the resident-graph path on the process backend."""
        rng = np.random.default_rng(17)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        serial = csr_spmm_serial(medium_graph, vals, X)
        for _ in range(3):
            np.testing.assert_array_equal(
                backend_engine.spmm(medium_graph, vals, X), serial
            )

    def test_training_parity(self, backend_engine):
        """A short GCN fit produces identical losses on every backend."""
        dataset = load_dataset("G0")
        data = synthesize(dataset, feature_length=16, seed=2)

        def fit():
            model = GCN(data.feature_length, 16, data.num_classes,
                        backend="gnnone", seed=1)
            return Trainer(model, GraphData(dataset.coo), data, lr=0.02).fit(2)

        serial = fit()
        with exec_workers(
            3, min_parallel_nnz=0, backend=backend_engine.backend.name
        ):
            parallel = fit()
        assert [r.loss for r in parallel.history] == [r.loss for r in serial.history]
        assert parallel.test_acc == serial.test_acc


class TestProcessBackend:
    """Process-specific behavior: residency, recovery, chaos, map pin."""

    def test_worker_sweep_bit_identical(self, medium_graph):
        rng = np.random.default_rng(23)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        Xr = rng.standard_normal((medium_graph.num_rows, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)
        serial_sd = sddmm_serial(medium_graph, Xr, X)
        for workers in range(1, 6):
            eng = ExecutionEngine(workers, min_parallel_nnz=0, backend="process")
            try:
                np.testing.assert_array_equal(
                    eng.spmm(medium_graph, vals, X), serial
                )
                np.testing.assert_array_equal(
                    eng.sddmm(medium_graph, Xr, X), serial_sd
                )
            finally:
                eng.shutdown()

    def test_graph_resident_across_launches(self, medium_graph):
        rng = np.random.default_rng(29)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        eng = ExecutionEngine(2, min_parallel_nnz=0, backend="process")
        obs.reset_metrics()
        try:
            for _ in range(3):
                eng.spmm(medium_graph, vals, X)
        finally:
            eng.shutdown()
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters.get("exec.shm.graph_upload", 0) == 1
        assert counters.get("exec.shm.graph_hit", 0) == 2

    def test_shard_spans_carry_worker_pid(self, medium_graph):
        rng = np.random.default_rng(31)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        eng = ExecutionEngine(2, min_parallel_nnz=0, backend="process")
        try:
            with obs.capture() as records:
                eng.spmm(medium_graph, vals, X)
        finally:
            eng.shutdown()
        (par,) = [r for r in records if r["name"] == "exec.parallel"]
        assert par["attrs"]["backend"] == "process"
        shards = [r for r in records if r["name"] == "exec.shard"]
        assert shards
        assert all(s["attrs"]["worker"].startswith("pid:") for s in shards)

    def test_worker_death_recovers(self, medium_graph):
        """Kill a live worker; the next launch rebuilds the pool."""
        rng = np.random.default_rng(37)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)
        eng = ExecutionEngine(2, min_parallel_nnz=0, backend="process")
        try:
            np.testing.assert_array_equal(eng.spmm(medium_graph, vals, X), serial)
            executor = eng.backend._ensure_executor()
            with contextlib.suppress(Exception):
                executor.submit(os._exit, 1).result(timeout=30)
            np.testing.assert_array_equal(eng.spmm(medium_graph, vals, X), serial)
            assert eng.healthy
        finally:
            eng.shutdown()

    def test_storm_profile_bit_identical(self, medium_graph):
        """Parent-side fault injection retries without corrupting output."""
        rng = np.random.default_rng(41)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)
        metrics = obs.get_metrics()
        before = metrics.counter("resilience.retry").value
        with fault_profile("storm", seed=1234):
            eng = ExecutionEngine(3, min_parallel_nnz=0, backend="process")
            try:
                for _ in range(4):
                    np.testing.assert_array_equal(
                        eng.spmm(medium_graph, vals, X), serial
                    )
            finally:
                eng.shutdown()
        assert metrics.counter("resilience.retry").value > before

    def test_map_pinned_to_threads(self, medium_graph):
        """map() stays on the thread pool; nested launches go serial."""
        rng = np.random.default_rng(43)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)

        def point(_):
            return get_engine().spmm(medium_graph, vals, X)

        with exec_workers(2, min_parallel_nnz=0, backend="process"):
            with obs.capture() as records:
                outs = get_engine().map(point, range(4))
        for out in outs:
            np.testing.assert_array_equal(out, serial)
        points = [r for r in records if r["name"] == "exec.point"]
        assert all(p["attrs"]["worker"].startswith("repro-exec") for p in points)


class TestForkSafety:
    def test_forked_child_gets_fresh_engine(self, medium_graph):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        rng = np.random.default_rng(47)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)
        with exec_workers(3, min_parallel_nnz=0):
            eng = get_engine()
            np.testing.assert_array_equal(eng.spmm(medium_graph, vals, X), serial)
            pid = os.fork()
            if pid == 0:
                # Child: the at-fork hook must have dropped the inherited
                # engine; a fresh (env-resolved, serial) one must produce
                # the same bits without deadlocking on stale locks.
                try:
                    child_eng = get_engine()
                    ok = child_eng is not eng and np.array_equal(
                        child_eng.spmm(medium_graph, vals, X), serial
                    )
                    os._exit(0 if ok else 1)
                except BaseException:
                    os._exit(2)
            _, status = os.waitpid(pid, 0)
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
            # Parent state survives the fork untouched.
            np.testing.assert_array_equal(eng.spmm(medium_graph, vals, X), serial)


class TestBackendConfig:
    def test_default_backend_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        assert resolve_backend_name() == "thread"
        eng = ExecutionEngine()
        assert eng.backend.name == "thread"
        eng.shutdown()

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        assert resolve_backend_name() == "process"
        eng = ExecutionEngine(2)
        assert eng.backend.name == "process"
        eng.shutdown()

    def test_invalid_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "gpu")
        with pytest.raises(ConfigError):
            resolve_backend_name()
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        with pytest.raises(ConfigError):
            ExecutionEngine(backend="gpu")

    def test_available_backends(self):
        avail = available_backends()
        assert avail["thread"] and avail["process"]
        assert avail["compiled"] == NUMBA_AVAILABLE
        assert set(avail) == set(backend_names())

    def test_compiled_without_workers_still_parallelizes(self, medium_graph):
        """The compiled backend ignores the worker gate (needs_workers=False)."""
        rng = np.random.default_rng(53)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        eng = ExecutionEngine(1, min_parallel_nnz=0, backend="compiled")
        try:
            with obs.capture() as records:
                out = eng.spmm(medium_graph, vals, X)
        finally:
            eng.shutdown()
        np.testing.assert_array_equal(out, csr_spmm_serial(medium_graph, vals, X))
        assert any(r["name"] == "exec.parallel" for r in records)
