"""Tests for the shared kernel machinery (the slot-major layout, segment
sums through it, chunking, partitioning)."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.formats.csr import CSR
from repro.kernels.common import (
    THIN_ELEMENTS,
    balanced_partitions,
    expand,
    iter_row_chunks,
    slot_layout,
)
from repro.kernels.planner import _layout, _units, plan_spmm


def segment_sum(flat, indptr, out=None):
    """Sum the rows of ``flat`` over the segments under ``indptr`` with the
    slot loop: a stream plan whose entry ``e`` names row ``e`` of ``flat``."""
    nseg, n = indptr.size - 1, flat.shape[0]
    A = CSR(nseg, max(n, 1), indptr, np.arange(n), np.ones(n))
    if out is None:
        out = np.zeros((nseg, flat.shape[1]))
    for unit in plan_spmm(A, flat.shape[1]).units:
        unit(flat, out)
    return out


def left_to_right(flat, indptr):
    out = np.zeros((indptr.size - 1, flat.shape[1]))
    for i in range(indptr.size - 1):
        for e in range(indptr[i], indptr[i + 1]):
            out[i] = out[i] + 1.0 * flat[e]
    return out


class TestSegmentSum:
    def test_basic(self):
        flat = np.arange(12, dtype=float).reshape(6, 2)
        indptr = np.array([0, 2, 5, 6])
        out = segment_sum(flat, indptr)
        expected = np.array([flat[0:2].sum(0), flat[2:5].sum(0), flat[5:6].sum(0)])
        assert np.allclose(out, expected)

    def test_empty_segments_zero(self):
        flat = np.ones((3, 2))
        indptr = np.array([0, 0, 3, 3, 3])
        out = segment_sum(flat, indptr)
        assert np.allclose(out[0], 0)
        assert np.allclose(out[1], 3)
        assert np.allclose(out[2], 0)
        assert np.allclose(out[3], 0)

    def test_leading_and_trailing_empty(self):
        flat = np.full((2, 1), 5.0)
        indptr = np.array([0, 0, 2, 2])
        out = segment_sum(flat, indptr)
        assert out.ravel().tolist() == [0.0, 10.0, 0.0]

    def test_all_empty(self):
        out = segment_sum(np.zeros((0, 3)), np.zeros(5, dtype=int))
        assert out.shape == (4, 3)
        assert np.all(out == 0)

    def test_out_parameter_reused(self):
        flat = np.ones((4, 2))
        indptr = np.array([0, 2, 4])
        out = np.full((2, 2), 99.0)
        result = segment_sum(flat, indptr, out=out)
        assert result is out
        assert np.allclose(out, 2.0)

    def test_matches_python_loop(self, rng):
        flat = rng.standard_normal((50, 3))
        cuts = np.sort(rng.integers(0, 51, size=9))
        indptr = np.concatenate([[0], cuts, [50]])
        out = segment_sum(flat, indptr)
        assert out.tobytes() == left_to_right(flat, indptr).tobytes()


def tuple_(*fragment):
    return fragment


class TestSlotLayout:
    def test_rows_longest_first_and_slot_major(self):
        indptr = np.array([0, 1, 4, 4, 6])  # lengths 1, 3, 0, 2
        order, ptr, offsets, perm = slot_layout(indptr)
        assert order.tolist() == [1, 3, 0] and ptr.tolist() == [0, 3, 5, 6]
        assert offsets.tolist() == [0, 3, 5, 6]
        # slot 0 of rows 1, 3, 0; slot 1 of rows 1, 3; slot 2 of row 1
        assert perm.tolist() == [1, 4, 0, 2, 5, 3]

    def test_offset_pointer_and_empty(self):
        order, ptr, offsets, perm = slot_layout(np.array([7, 7, 7]))
        assert order.size == 0 and ptr.tolist() == offsets.tolist() == [0] and perm.size == 0
        assert slot_layout(np.array([5, 7]))[3].tolist() == [5, 6]  # entry numbers as given

    def test_expand(self):
        assert expand(np.array([5, 0, 9]), np.array([2, 0, 3])).tolist() == [5, 6, 9, 10, 11]
        assert expand(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).size == 0

    def test_fragments_split_where_slots_turn_thin(self):
        indptr = np.array([10, 12, 20, 22, 24, 26])  # lengths 2, 8, 2, 2, 2
        layout = _layout(indptr, np.arange(26), np.arange(26.0))
        assert layout[3].tolist() == [12, 10, 20, 22, 24, 13, 11, 21, 23, 25, *range(14, 20)]
        for row_elements, cut in [(1, 0), (THIN_ELEMENTS // 5 + 1, 2), (THIN_ELEMENTS + 1, 8)]:
            [[(rows, starts, counts, got)]] = _units(layout, 1, 1, 10**9, row_elements, tuple_)
            assert rows.tolist() == [1, 0, 2, 3, 4] and got == cut
            assert counts.tolist() == [5, 5, 1, 1, 1, 1, 1, 1]
        # Two parts of near-equal work: the long row alone, then the rest.
        (first,), (second,) = _units(layout, 2, 1, 10**9, 1, tuple_)
        assert first[0].tolist() == [1] and first[2].tolist() == [1] * 8
        assert second[0].tolist() == [0, 2, 3, 4] and second[2].tolist() == [4, 4]
        assert second[1].tolist() == [1, 6]  # slot-major starts of its part of each slot
        # Empty rows are not planned.
        empty = _layout(np.array([4, 4, 4]), np.arange(4), np.ones(4))
        assert _units(empty, 2, 1, 99, 1, tuple_) == []


class TestRowChunks:
    def test_covers_all_rows(self):
        indptr = np.array([0, 3, 3, 10, 11, 20])
        chunks = list(iter_row_chunks(indptr, k=4, max_elements=100))
        covered = []
        for r0, r1 in chunks:
            assert r0 < r1
            covered.extend(range(r0, r1))
        assert covered == list(range(5))

    def test_respects_budget(self):
        indptr = np.arange(0, 101, 10)  # 10 rows x 10 entries
        chunks = list(iter_row_chunks(indptr, k=2, max_elements=60))
        for r0, r1 in chunks:
            entries = indptr[r1] - indptr[r0]
            # Budget 60/2 = 30 entries, unless a single row exceeds it.
            assert entries <= 30 or (r1 - r0) == 1

    def test_huge_single_row_progresses(self):
        indptr = np.array([0, 1000, 1001])
        chunks = list(iter_row_chunks(indptr, k=8, max_elements=16))
        assert chunks[0] == (0, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(KernelError):
            list(iter_row_chunks(np.array([0, 1]), k=0))

    def test_single_chunk_when_budget_large(self):
        indptr = np.array([0, 2, 4, 6])
        assert list(iter_row_chunks(indptr, k=1, max_elements=10**9)) == [(0, 3)]


class TestBalancedPartitions:
    def test_partition_count(self):
        indptr = np.arange(0, 33, 4)
        parts = balanced_partitions(indptr, 4)
        assert len(parts) == 4
        assert parts[0][0] == 0
        assert parts[-1][1] == 8

    def test_contiguous_and_complete(self):
        indptr = np.array([0, 1, 100, 101, 102, 200])
        parts = balanced_partitions(indptr, 3)
        assert parts[0][0] == 0
        assert parts[-1][1] == 5
        for (a0, a1), (b0, b1) in zip(parts, parts[1:]):
            assert a1 == b0

    def test_balances_by_work_not_rows(self):
        # One heavy row at the start: the first partition should be small.
        indptr = np.array([0, 90, 92, 94, 96, 98, 100])
        parts = balanced_partitions(indptr, 2)
        work = [int(indptr[r1] - indptr[r0]) for r0, r1 in parts]
        assert max(work) <= 90  # the heavy row alone, not heavy + the rest

    def test_more_parts_than_rows(self):
        indptr = np.array([0, 1, 2])
        parts = balanced_partitions(indptr, 8)
        covered = [r for r0, r1 in parts for r in range(r0, r1)]
        assert covered == [0, 1]

    def test_rejects_zero_parts(self):
        with pytest.raises(KernelError):
            balanced_partitions(np.array([0, 1]), 0)

    def test_single_part_is_everything(self):
        indptr = np.array([0, 5, 9])
        assert balanced_partitions(indptr, 1) == [(0, 2)]
