"""Shared-memory, atomics, and dense-op cost models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpusim.atomics import atomics_per_warp, conflict_degree
from repro.gpusim.dense import elementwise_cost, gemm_cost, reduction_cost, softmax_cost
from repro.gpusim.device import A100
from repro.gpusim.sharedmem import (
    bank_conflict_factor,
    stage1_cache_bytes,
    strided_conflict_factor,
)


class TestStage1CacheBytes:
    def test_sddmm_cache(self):
        assert stage1_cache_bytes(128, with_edge_feature=False) == 128 * 8

    def test_spmm_cache_includes_edge_feature(self):
        assert stage1_cache_bytes(128, with_edge_feature=True) == 128 * 12

    @pytest.mark.parametrize("bad", [0, -32, 33, 100])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ConfigError):
            stage1_cache_bytes(bad, with_edge_feature=False)


class TestBankConflicts:
    def test_conflict_free(self):
        assert bank_conflict_factor(np.arange(32)) == 1.0

    def test_stride_16_is_16_way(self):
        # stride 16: lanes collapse onto 2 banks, 16 distinct words each.
        assert bank_conflict_factor(np.arange(32) * 16 % 512) == 16.0

    def test_stride_2_is_2_way(self):
        assert bank_conflict_factor(np.arange(32) * 2) == 2.0

    def test_broadcast_free(self):
        assert bank_conflict_factor(np.zeros(32, dtype=int)) == 1.0

    def test_strided_closed_form(self):
        assert strided_conflict_factor(1) == 1.0
        assert strided_conflict_factor(2) == 2.0
        assert strided_conflict_factor(32) == 32.0
        assert strided_conflict_factor(17) == 1.0  # odd stride: conflict-free

    def test_strided_matches_general(self):
        for stride in (1, 2, 4, 8, 16, 32, 3, 5):
            general = bank_conflict_factor(np.arange(32) * stride)
            assert general == strided_conflict_factor(stride)

    def test_rejects_bad_stride(self):
        with pytest.raises(ConfigError):
            strided_conflict_factor(0)


def conflict_degree_oracle(target_rows, window=256):
    """The per-window ``np.unique`` loop the vectorised model replaced."""
    rows = np.asarray(target_rows)
    if rows.size == 0:
        return 1.0
    degrees = []
    for start in range(0, rows.size, window):
        _, counts = np.unique(rows[start : start + window], return_counts=True)
        degrees.append(float((counts * counts).sum() / counts.sum()))
    return float(np.asarray(degrees).mean())


class TestAtomics:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 100_000])
    @pytest.mark.parametrize("hi", [1, 7, 300, 2**31 - 1])
    def test_exactly_equals_window_loop(self, n, hi):
        rng = np.random.default_rng(n + hi)
        rows = rng.integers(0, hi, n).astype(np.int32)
        for stream in (rows, np.sort(rows)):
            assert conflict_degree(stream) == conflict_degree_oracle(stream)

    @pytest.mark.parametrize("window", [1, 32, 1000])
    def test_exact_at_other_windows(self, window):
        rows = np.random.default_rng(window).integers(0, 50, 4321)
        assert conflict_degree(rows, window) == conflict_degree_oracle(rows, window)

    def test_no_conflicts(self):
        assert conflict_degree(np.arange(1000)) == 1.0

    def test_hot_row(self):
        assert conflict_degree(np.zeros(1000, dtype=int)) > 100

    def test_empty(self):
        assert conflict_degree(np.array([], dtype=int)) == 1.0

    def test_monotone_in_duplication(self):
        rng = np.random.default_rng(0)
        spread = conflict_degree(rng.integers(0, 10_000, 5000))
        packed = conflict_degree(rng.integers(0, 10, 5000))
        assert packed > spread

    def test_atomics_per_warp(self):
        out = atomics_per_warp(np.array([1, 2, 3]), np.array([0, 0, 2]), 3)
        assert list(out) == [2.0, 0.0, 1.0]


class TestDenseCosts:
    def test_gemm_scales_with_flops(self):
        small = gemm_cost(A100, 1000, 64, 64)
        big = gemm_cost(A100, 100_000, 64, 64)
        assert big.time_us > small.time_us

    def test_gemm_memory_bound_when_thin(self):
        thin = gemm_cost(A100, 10_000_000, 1, 1)
        assert thin.time_us * 1e-6 >= thin.bytes / (A100.dram_bandwidth_gbps * 1e9)

    def test_elementwise_scales(self):
        assert (
            elementwise_cost(A100, 10_000_000).time_us
            > elementwise_cost(A100, 1000).time_us
        )

    def test_softmax_more_than_one_pass(self):
        assert softmax_cost(A100, 1000, 64).time_us > elementwise_cost(A100, 64_000).time_us

    def test_reduction(self):
        assert reduction_cost(A100, 1_000_000).time_us > 0

    def test_launch_floor(self):
        assert elementwise_cost(A100, 1).time_us >= A100.launch_overhead_us
