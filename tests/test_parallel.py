"""Tests for slice scheduling and the worker pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParallelError
from repro.parallel.pool import default_worker_count, run_partitioned
from repro.parallel.scheduler import block_partition


class TestScheduler:
    def test_block_covers_all_slices_once(self):
        parts = block_partition(10, 3)
        owned = [z for p in parts for z in p.owned]
        assert sorted(owned) == list(range(10))

    def test_block_sizes_balanced(self):
        parts = block_partition(10, 3)
        sizes = [len(p.owned) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_slices(self):
        parts = block_partition(2, 8)
        assert len(parts) == 2

    def test_invalid_args(self):
        with pytest.raises(ParallelError):
            block_partition(0, 2)
        with pytest.raises(ParallelError):
            block_partition(5, 0)


class TestPartitionEdgeCases:
    """Degenerate partition geometries: worker surplus, empty input."""

    @pytest.mark.parametrize("partitioner", [block_partition])
    def test_worker_surplus_clamps_without_empty_partitions(self, partitioner):
        parts = partitioner(3, 100)
        assert len(parts) == 3
        assert all(p.owned for p in parts)  # never an idle worker
        assert sorted(z for p in parts for z in p.owned) == [0, 1, 2]
        assert [p.worker for p in parts] == [0, 1, 2]  # workers renumbered densely

    @pytest.mark.parametrize("partitioner", [block_partition])
    def test_zero_slices_rejected(self, partitioner):
        with pytest.raises(ParallelError, match="n_slices"):
            partitioner(0, 4)
        with pytest.raises(ParallelError, match="n_slices"):
            partitioner(-3, 4)

    def test_single_slice_single_owner(self):
        parts = block_partition(1, 8)
        assert len(parts) == 1 and parts[0].owned == (0,)


class TestPartitionProperties:
    """Hypothesis invariants: every slice owned exactly once, in balanced blocks."""

    @given(
        n_slices=st.integers(min_value=1, max_value=200),
        n_workers=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=120, deadline=None)
    def test_block_partition_exact_cover(self, n_slices, n_workers):
        parts = block_partition(n_slices, n_workers)
        owned = [z for p in parts for z in p.owned]
        assert sorted(owned) == list(range(n_slices))  # exact cover, no dupes
        sizes = [len(p.owned) for p in parts]
        assert max(sizes) - min(sizes) <= 1  # balanced
        for p in parts:
            assert list(p.owned) == list(range(p.owned[0], p.owned[-1] + 1))  # contiguous

    @given(
        n_slices=st.integers(min_value=1, max_value=120),
        n_workers=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_round_trip_matches_job_round_geometry(self, n_slices, n_workers):
        """Indices used as positions (the driver's decode rounds) stay in range."""
        z_list = tuple(range(1000, 1000 + n_slices))
        parts = block_partition(n_slices, n_workers)
        seen = [z_list[i] for p in parts for i in p.owned]
        assert sorted(seen) == list(z_list)


def _square_worker(partition, values):
    """Module-level worker: square the owned entries of an inherited vector."""
    return {"worker": partition.worker, "squares": [values[z] ** 2 for z in partition.owned]}


def _squares(results):
    return np.concatenate([r["squares"] for r in results])


def _failing_worker(partition, values):
    raise RuntimeError(f"worker {partition.worker} exploded")


class TestPool:
    def test_default_worker_count(self):
        assert 1 <= default_worker_count() <= 4

    def test_single_partition_runs_inline(self):
        data = np.arange(4, dtype=np.float64)
        results = run_partitioned(_square_worker, block_partition(4, 1), data)
        assert len(results) == 1
        assert np.array_equal(_squares(results), data**2)

    def test_multiprocess_partitions(self):
        data = np.arange(8, dtype=np.float64)
        results = run_partitioned(_square_worker, block_partition(8, 2), data)
        assert len(results) == 2
        assert np.array_equal(_squares(results), data**2)

    def test_results_ordered_by_worker(self):
        data = np.arange(6, dtype=np.float64)
        results = run_partitioned(_square_worker, block_partition(6, 3), data)
        assert [r["worker"] for r in results] == [0, 1, 2]

    def test_worker_error_propagates(self):
        with pytest.raises(ParallelError, match="exploded"):
            run_partitioned(_failing_worker, block_partition(4, 2), np.zeros(4))

    def test_empty_partitions_rejected(self):
        with pytest.raises(ParallelError):
            run_partitioned(_square_worker, [])
