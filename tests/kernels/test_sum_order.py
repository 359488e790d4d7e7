"""The order contract of the summing kernels.

Every SpMM plan adds each row of C left to right over the row's stored
entries, into a zeroed C — the paper's ``C[i] += A[i, j] * B[j]`` loop — so
each plan must equal a pure-Python left-to-right float64 loop bit for bit,
signed zeros included — CSR5's tile-parallel plans too, whose merge
continues each row that crosses a tile boundary in order.  SpGEMM must
equal Gustavson's row loop with one dense accumulator per row, kept here
as the reference.
"""

import numpy as np
import pytest

from repro.formats.registry import get_format
from repro.kernels.dispatch import run_spmm
from repro.kernels.spgemm import spgemm
from repro.matrices import suite
from repro.matrices.coo_builder import CooBuilder, Triplets
from repro.verify.adversarial import degenerate_zoo
from repro.verify.reference import exact_reference
from tests.conftest import ALL_FORMATS, build_format


def _long_row_matrix() -> Triplets:
    """Empty rows, -0.0 values and two rows far longer than the rest; enough
    rows that the first slots at k=16 are wide, the later ones thin."""
    rng = np.random.default_rng(5)
    builder = CooBuilder(600, 300)
    for r in range(600):
        width = 290 if r in (3, 30) else (0 if r % 5 == 1 else int(rng.integers(1, 6)))
        cols = rng.choice(300, size=width, replace=False)
        vals = rng.standard_normal(width) * 10.0 ** rng.integers(-6, 6, width)
        vals[rng.random(width) < 0.1] = -0.0
        builder.add_batch(np.full(width, r), cols, vals)
    return builder.finish()


MATRICES = {**degenerate_zoo(0), "long_rows": _long_row_matrix()}
WIDTHS = (1, 2, 16)


def _operand(T: Triplets, k: int) -> np.ndarray:
    rng = np.random.default_rng(k)
    B = rng.standard_normal((T.ncols, k))
    B[rng.random(B.shape) < 0.1] = -0.0
    return B


def left_to_right(T: Triplets, B: np.ndarray) -> np.ndarray:
    """``C[i] = 0.0 + A[i, j0] * B[j0] + A[i, j1] * B[j1] + ...`` in Python floats."""
    C = [[0.0] * B.shape[1] for _ in range(T.nrows)]
    Bl = B.tolist()
    for i, j, v in zip(T.rows.tolist(), T.cols.tolist(), T.values.tolist()):
        row, b = C[i], Bl[j]
        for c in range(len(row)):
            row[c] += v * b[c]
    return np.array(C, dtype=np.float64).reshape(T.nrows, B.shape[1])


REFERENCES = {
    (name, k): left_to_right(T, _operand(T, k)) for name, T in MATRICES.items() for k in WIDTHS
}

PLANS = [
    pytest.param("serial", {}, id="serial"),
    pytest.param("serial", {"chunk_elements": 48}, id="serial-chunked"),
    *[
        pytest.param("parallel", {"threads": t, "schedule": s}, id=f"parallel-{s}-t{t}")
        for t in (1, 2, 3, 4)
        for s in ("static", "dynamic")
    ],
    pytest.param("parallel", {"threads": 3, "chunk_elements": 48}, id="parallel-chunked"),
    pytest.param("serial_transpose", {}, id="serial_transpose"),
    pytest.param("parallel_transpose", {"threads": 3}, id="parallel_transpose"),
]


@pytest.mark.parametrize("variant,opts", PLANS)
@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_plan_sums_left_to_right(fmt, variant, opts):
    for name, T in MATRICES.items():
        A = build_format(fmt, T)
        for k in WIDTHS:
            got = run_spmm(A, _operand(T, k), variant, **opts)
            assert got.tobytes() == REFERENCES[name, k].tobytes(), (name, k)


def test_exact_reference_sums_left_to_right():
    """The verifier's reference is this loop, so the oracle can demand bytes."""
    for name, T in MATRICES.items():
        for k in WIDTHS:
            B = _operand(T, k)
            want = REFERENCES[name, k].tobytes()
            assert exact_reference(T, B).tobytes() == want, (name, k)
            assert exact_reference(T, np.hstack([B, B]), k).tobytes() == want, (name, k)


def gustavson(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gustavson's row merge, one entry of A at a time: the reference order."""
    a, b = A.to_triplets(), B.to_triplets()
    a_ptr = np.searchsorted(a.rows, np.arange(a.nrows + 1))
    b_ptr = np.searchsorted(b.rows, np.arange(b.nrows + 1))
    accumulator = np.zeros(b.ncols)
    touched = np.zeros(b.ncols, dtype=bool)
    rows, cols, vals = [], [], []
    for i in range(a.nrows):
        for e in range(a_ptr[i], a_ptr[i + 1]):
            j = a.cols[e]
            f0, f1 = b_ptr[j], b_ptr[j + 1]
            accumulator[b.cols[f0:f1]] += a.values[e] * b.values[f0:f1]
            touched[b.cols[f0:f1]] = True
        hit = np.flatnonzero(touched)
        keep = hit[accumulator[hit] != 0.0]
        rows.append(np.full(keep.size, i))
        cols.append(keep)
        vals.append(accumulator[keep])
        accumulator[hit] = 0.0
        touched[hit] = False
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _cancelling() -> Triplets:
    """``A @ A.T`` cancels exactly off the diagonal: 1*2 + 2*(-1) + (-1)*0."""
    builder = CooBuilder(2, 3)
    builder.add_batch([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [1.0, 2.0, -1.0, 2.0, -1.0, 0.0])
    return builder.finish()


SPGEMM_CASES = {
    **MATRICES,
    "cancelling": _cancelling(),
    **{
        name: suite.load_matrix(name)
        for name in ("dlmc_mag_90", "dlmc_block_85", "dlmc_mag_98", "dlmc_batch_heavy")
    },
}


@pytest.mark.parametrize("name", sorted(SPGEMM_CASES))
def test_spgemm_is_gustavson_bit_for_bit(name):
    T = SPGEMM_CASES[name]
    csr = get_format("csr")
    A = csr.from_triplets(T)
    B = A if T.nrows == T.ncols else csr.from_triplets(T.transposed())
    C = spgemm(A, B)
    rows, cols, vals = gustavson(A, B)
    assert np.array_equal(C.rows, rows) and np.array_equal(C.cols, cols)
    assert C.values.tobytes() == vals.tobytes()
    if name == "cancelling":
        assert (C.rows.tolist(), C.cols.tolist()) == ([0, 1], [0, 1])
