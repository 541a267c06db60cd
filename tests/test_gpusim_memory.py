"""Coalescing/sector math: closed forms vs the exact address-based path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import A100
from repro.gpusim.memory import (
    feature_row_sectors,
    gather_feature_sectors,
    per_warp_counts,
    scatter_write_sectors,
    segment_sectors_from_addresses,
    sorted_distinct,
    streaming_sectors,
    unique_per_warp,
)

INT32_MAX = np.iinfo(np.int32).max
#: small key ranges force duplicates; the top of the int32 range checks
#: the combined (warp, key) encoding cannot wrap
_keys = st.one_of(
    st.lists(st.integers(0, 5), max_size=200),
    st.lists(st.integers(0, 10_000), max_size=200),
    st.lists(st.integers(INT32_MAX - 8, INT32_MAX), max_size=200),
)


def unique_per_warp_oracle(warp_ids, keys, n_warps):
    """Distinct (warp, key) pairs, counted with a Python set."""
    out = np.zeros(n_warps, dtype=np.float64)
    for w, _ in set(zip(np.asarray(warp_ids).tolist(), np.asarray(keys).tolist())):
        out[w] += 1
    return out


class TestStreamingSectors:
    def test_exact_multiple(self):
        assert streaming_sectors(8, 4) == 1  # 32 bytes = 1 sector

    def test_rounds_up(self):
        assert streaming_sectors(9, 4) == 2

    def test_vectorized(self):
        out = streaming_sectors(np.array([8, 16, 1]), 4)
        assert list(out) == [1, 2, 1]

    def test_matches_exact_address_model(self):
        """Contiguous 4B loads: closed form == per-address unique sectors."""
        n = 1000
        addrs = np.arange(n) * 4
        warp_ids = np.zeros(n, dtype=np.int64)
        exact = segment_sectors_from_addresses(addrs, warp_ids, 1)[0]
        assert streaming_sectors(n, 4) == exact


class TestFeatureRowSectors:
    @pytest.mark.parametrize("F,expected", [(8, 1), (16, 2), (32, 4), (6, 1), (64, 8)])
    def test_values(self, F, expected):
        assert feature_row_sectors(F * 4) == expected


class TestGatherFeatureSectors:
    def test_no_dedupe_counts_occurrences(self):
        idx = np.array([0, 0, 1])
        warps = np.array([0, 0, 0])
        out = gather_feature_sectors(idx, warps, 1, 128)
        assert out[0] == 3 * 4  # 3 gathers x 4 sectors

    def test_dedupe_counts_distinct(self):
        idx = np.array([0, 0, 1])
        warps = np.array([0, 0, 0])
        out = gather_feature_sectors(idx, warps, 1, 128, dedupe=True)
        assert out[0] == 2 * 4

    def test_scattered_costs_sector_per_element(self):
        idx = np.array([5])
        warps = np.array([0])
        out = gather_feature_sectors(idx, warps, 1, 128, scattered=True)
        assert out[0] == 32  # 32 elements x 1 sector each

    def test_per_warp_split(self):
        idx = np.array([0, 1, 2, 3])
        warps = np.array([0, 0, 1, 1])
        out = gather_feature_sectors(idx, warps, 2, 32)
        assert list(out) == [2.0, 2.0]


class TestUniquePerWarp:
    def test_basic(self):
        warps = np.array([0, 0, 1, 1, 1])
        keys = np.array([7, 7, 7, 8, 8])
        assert list(unique_per_warp(warps, keys, 2)) == [1.0, 2.0]

    def test_empty(self):
        assert list(unique_per_warp(np.array([], dtype=int), np.array([], dtype=int), 3)) == [0, 0, 0]


class TestSortedDistinct:
    @settings(max_examples=60, deadline=None)
    @given(_keys)
    def test_equals_np_unique(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = sorted_distinct(keys)
        np.testing.assert_array_equal(got, np.unique(keys))
        assert got.dtype == keys.dtype

    @pytest.mark.parametrize(
        "keys",
        [[], [7], [3] * 50, [INT32_MAX] * 4 + [INT32_MAX - 1, 0]],
        ids=["empty", "single", "all-equal", "int32-max"],
    )
    def test_edge_cases(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        np.testing.assert_array_equal(sorted_distinct(keys), np.unique(keys))

    def test_leaves_input_unsorted(self):
        keys = np.array([5, 1, 5, 3])
        sorted_distinct(keys)
        assert list(keys) == [5, 1, 5, 3]


class TestUniquePerWarpExact:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_oracle(self, data):
        keys = data.draw(_keys)
        n_warps = data.draw(st.integers(1, 40))
        warps = data.draw(
            st.lists(st.integers(0, n_warps - 1), min_size=len(keys), max_size=len(keys))
        )
        got = unique_per_warp(np.asarray(warps, dtype=np.int64), np.asarray(keys), n_warps)
        np.testing.assert_array_equal(got, unique_per_warp_oracle(warps, keys, n_warps))

    @pytest.mark.parametrize(
        "keys",
        [[], [INT32_MAX], [9] * 64, [INT32_MAX] * 32 + [INT32_MAX - 3] * 32],
        ids=["empty", "single", "all-equal", "int32-max"],
    )
    def test_edge_cases(self, keys):
        warps = np.arange(len(keys)) % 3
        np.testing.assert_array_equal(
            unique_per_warp(warps, np.asarray(keys, dtype=np.int64), 3),
            unique_per_warp_oracle(warps, keys, 3),
        )


class TestStage2DistinctColumns:
    """Stage-2 SpMM dedupe credit equals the np.unique count it replaced."""

    @pytest.mark.parametrize("key", ["G3", "G14"])
    def test_matches_unique_formulation(self, key):
        from repro.kernels.gnnone import GnnOneSpMM
        from repro.kernels.gnnone.config import DEFAULT_CONFIG as cfg
        from repro.kernels.gnnone.scheduler import plan_schedule
        from repro.kernels.gnnone.stage1 import plan_stage1
        from repro.sparse.datasets import load_dataset

        F = 32
        coo = load_dataset(key).coo.sort_csr_order()
        s1 = plan_stage1(
            coo.nnz, cfg.cache_size, with_edge_values=True, enable_cache=cfg.enable_nze_cache
        )
        sched = plan_schedule(coo.rows, s1.chunks.chunk_of_nze, s1.chunks.n_chunks, cfg, F)
        # the dedupe path: Consecutive schedule, NZE cache on (no re-reads)
        assert sched.consecutive and s1.smem_bytes_per_warp
        stride = int(coo.cols.max()) + 1
        combined = sched.slice_of_nze * stride + coo.cols.astype(np.int64)
        uniq_slices = np.unique(combined) // stride
        distinct = np.bincount(
            (uniq_slices // sched.shape.groups_per_warp).astype(np.int64),
            minlength=sched.n_warps,
        ).astype(np.float64)
        expected = distinct * feature_row_sectors(4 * F)

        trace = GnnOneSpMM(cfg).simulate(coo, F, A100)
        (phase,) = [p for p in trace.phases if p.name == "stage2_feature_load"]
        got = phase.sectors[: len(expected)]
        np.testing.assert_array_equal(got, expected)
        assert not phase.sectors[len(expected):].any()


class TestScatterWrite:
    def test_dedupes_rows_by_default(self):
        idx = np.array([4, 4, 9])
        warps = np.array([0, 0, 0])
        out = scatter_write_sectors(idx, warps, 1, 4)
        assert out[0] == 2.0

    def test_no_dedupe(self):
        idx = np.array([4, 4])
        warps = np.array([0, 0])
        out = scatter_write_sectors(idx, warps, 1, 4, dedupe=False)
        assert out[0] == 2.0


class TestPerWarpCounts:
    def test_weighted(self):
        out = per_warp_counts(np.array([0, 0, 2]), 3, weights=np.array([1.0, 2.0, 5.0]))
        assert list(out) == [3.0, 0.0, 5.0]


class TestSegmentSectorsExact:
    def test_fully_scattered_warp(self):
        # 32 accesses, each in its own sector.
        addrs = np.arange(32) * 128
        out = segment_sectors_from_addresses(addrs, np.zeros(32, dtype=int), 1)
        assert out[0] == 32

    def test_fully_coalesced_warp(self):
        addrs = np.arange(32) * 4
        out = segment_sectors_from_addresses(addrs, np.zeros(32, dtype=int), 1)
        assert out[0] == 4
