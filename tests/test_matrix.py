import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.code import code_from_rows
from ghwkit.errors import BadArgs, DimensionMismatch
from ghwkit.gf import AXPY_MAX_Q, PACKED_MAX_Q, build_field
from ghwkit.matrix import MatrixGF, pack_rows, rank_array, rref_array, unpack_rows

from support import span_fingerprint, tiny_rref

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F5 = build_field(5)


def test_rref_examples():
    R, rank, piv = MatrixGF.identity(F2, 3).rref()
    assert R == MatrixGF.identity(F2, 3) and rank == 3 and piv == (1, 2, 3)

    R, rank, piv = MatrixGF(F2, [[1, 1], [1, 1]]).rref()
    assert R.array.tolist() == [[1, 1], [0, 0]] and rank == 1 and piv == (1,)

    # hand row-reduction: row2 = 2*row1, pivot in column 2
    R, rank, piv = MatrixGF(F5, [[0, 1, 2], [0, 2, 4]]).rref()
    assert R.array.tolist() == [[0, 1, 2], [0, 0, 0]] and rank == 1 and piv == (2,)


def test_rref_idempotent_and_preserves_row_space():
    rng = np.random.default_rng(11)
    for F in (F2, F3, F4, F5):
        for _ in range(20):
            M = MatrixGF(F, rng.integers(0, F.q, (3, 5)))
            R, rank, piv = M.rref()
            R2, rank2, piv2 = R.rref()
            assert R2 == R and rank2 == rank and piv2 == piv
            assert span_fingerprint(F, R.array[:rank]) == span_fingerprint(F, M.array) or rank == 0


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(13)
    for F in (F2, F3, F4, F5):
        for _ in range(25):
            M = MatrixGF(F, rng.integers(0, F.q, (rng.integers(1, 5), rng.integers(1, 5))))
            assert M.rank() == M.transpose().rank()


def test_kernel_examples():
    K = MatrixGF.identity(F5, 4).right_kernel_basis()
    assert K.rows == 0 and K.cols == 4

    K = MatrixGF(F2, [[1, 1]]).right_kernel_basis()
    assert K.array.tolist() == [[1, 1]]

    # exhaustive oracle over all 27 vectors of GF(3)^3
    M = MatrixGF(F3, [[1, 0, 1], [0, 1, 1]])
    kernel_vectors = [
        v
        for v in np.array(np.meshgrid(range(3), range(3), range(3))).T.reshape(-1, 3)
        if not F3.matmul(M.array, np.array(v).reshape(3, 1)).any()
    ]
    K = M.right_kernel_basis()
    assert K.rows == 1
    spanned = {tuple(F3.mul_arrays(np.int64(c), K.array[0]).tolist()) for c in range(3)}
    assert spanned == {tuple(map(int, v)) for v in kernel_vectors}
    assert K.array.tolist() == [[2, 2, 1]]


def test_kernel_identities_random():
    rng = np.random.default_rng(17)
    for F in (F2, F3, F4, F5):
        for _ in range(20):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            M = MatrixGF(F, rng.integers(0, F.q, (rows, cols)))
            K = M.right_kernel_basis()
            assert K.rows == cols - M.rank()
            if K.rows:
                assert not (M @ K.transpose()).array.any()
                assert K.rank() == K.rows


def test_matmul_examples():
    A = MatrixGF(F3, [[1, 2], [0, 1]])
    assert A @ MatrixGF.identity(F3, 2) == A
    assert (MatrixGF(F2, [[1, 1]]) @ MatrixGF(F2, [[1], [1]])).array.tolist() == [[0]]
    assert (MatrixGF(F5, [[2]]) @ MatrixGF(F5, [[3]])).array.tolist() == [[1]]
    with pytest.raises(DimensionMismatch):
        MatrixGF(F2, [[1, 1]]) @ MatrixGF(F2, [[1, 1]])
    with pytest.raises(DimensionMismatch):
        MatrixGF(F2, [[1]]) @ MatrixGF(F3, [[1]])


def test_support():
    assert MatrixGF.zeros(F2, 2, 4).support() == ()
    assert MatrixGF(F2, [[1, 0, 1], [0, 0, 1]]).support() == (1, 3)
    assert MatrixGF.identity(F5, 4).support() == (1, 2, 3, 4)
    assert MatrixGF(F3, [[0, 2, 0]]).support_size() == 1


def test_rank_examples():
    assert MatrixGF.identity(F2, 4).rank() == 4
    assert MatrixGF.zeros(F3, 3, 3).rank() == 0
    assert MatrixGF(F5, [[1, 2], [2, 4]]).rank() == 1


def test_rank_unpacks_no_rows(monkeypatch):
    # a rank is the number of pivots of one elimination on packed rows, and
    # over GF(25) on an array: the reduced rows are never unpacked
    def unpack(*args):
        raise AssertionError("a rank unpacked the reduced rows")

    monkeypatch.setattr(sys.modules["ghwkit.matrix"], "unpack_rows", unpack)
    F25 = build_field(5, 2)
    for F, rows, rank in ((F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2), (F5, [[1, 2], [2, 4]], 1),
                          (F25, [[1, 7, 0], [0, 24, 3]], 2)):
        assert MatrixGF(F, rows).rank() == rank_array(F, np.array(rows)) == rank


@pytest.mark.parametrize("F", [F2, F5, build_field(2, 4)], ids=["GF2", "GF5", "GF16"])
def test_packed_rows_hold_one_byte_per_entry(F):
    # row i packs entry j into byte j, on both sides of the 8-entry word
    rng = np.random.default_rng(F.q)
    for m, n in [(0, 3), (3, 0), (4, 1), (5, 7), (5, 8), (5, 9), (3, 17)]:
        A = rng.integers(0, F.q, (m, n))
        rows = pack_rows(F, A)
        assert all(type(x) is int for x in rows)
        assert rows == [sum(int(v) << 8 * j for j, v in enumerate(row)) for row in A]
        assert np.array_equal(unpack_rows(F, rows, n), A)


def test_entry_validation():
    with pytest.raises(BadArgs):
        MatrixGF(F2, [[0, 2]])
    with pytest.raises(BadArgs):
        MatrixGF(F2, [1, 0])  # not 2-dimensional


def test_entries_must_be_whole_numbers():
    with pytest.raises(BadArgs):
        MatrixGF(F2, [[1.7, 0.2]])
    with pytest.raises(BadArgs):
        code_from_rows(F2, np.array([[1.0, 0.5, 1.0]]))
    M = MatrixGF(F3, np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert M.array.dtype == np.int64 and M.array.tolist() == [[1, 2], [0, 1]]
    ints = np.array([[1, 0], [2, 1]], dtype=np.int64)
    assert MatrixGF(F3, ints).array is ints


def _all_matrices(q, r, c):
    n = q ** (r * c)
    idx = np.arange(n, dtype=np.int64)
    digits = np.empty((n, r * c), dtype=np.int64)
    for t in range(r * c):
        digits[:, t] = idx % q
        idx //= q
    return digits.reshape(n, r, c)


@pytest.mark.parametrize("q", [2, 3])
def test_equal_row_space_iff_equal_rref_exhaustive(q):
    """rref is a complete invariant of the row space: exhaustive over all
    matrices with <= 3 rows and <= 4 columns."""
    F = build_field(q)
    for r in range(1, 4):
        coeffs = np.array(_all_matrices(q, 1, r).reshape(-1, r), dtype=np.int64)
        for c in range(1, 5):
            mats = _all_matrices(q, r, c)
            span_to_rref: dict[bytes, tuple] = {}
            rref_to_span: dict[tuple, bytes] = {}
            enc = np.array([q**i for i in range(c)][::-1], dtype=np.int64)
            for lo in range(0, mats.shape[0], 1 << 14):
                chunk = mats[lo : lo + (1 << 14)]
                # span fingerprint: all q^r codewords, encoded and sorted
                words = np.einsum("ur,nrc->nuc", coeffs, chunk) % q
                codes = np.sort(words @ enc, axis=1)
                for i in range(chunk.shape[0]):
                    fp = codes[i].tobytes()
                    R = tiny_rref(chunk[i].tolist(), q)
                    if fp in span_to_rref:
                        assert span_to_rref[fp] == R
                    else:
                        span_to_rref[fp] = R
                    if R in rref_to_span:
                        assert rref_to_span[R] == fp
                    else:
                        rref_to_span[R] = fp
            # and the package rref agrees with the reference on a sample
            rng = np.random.default_rng(q * 100 + r * 10 + c)
            for i in rng.integers(0, mats.shape[0], 25):
                M = MatrixGF(F, mats[i])
                assert tuple(map(tuple, M.rref()[0].array.tolist())) == tiny_rref(
                    mats[i].tolist(), q
                )


def scalar_rref(F, rows, order):
    """RREF by scalar field arithmetic only (``F.add``, ``F.mul``,
    ``F.inv``), pivoting on the columns of ``order`` in that order; returns
    (rows, pivots).  Independent of the package's array arithmetic."""
    A = [list(r) for r in rows]
    minus_one = next(a for a in range(F.q) if F.add(1, a) == 0)
    pivots, row = [], 0
    for col in order:
        if row == len(A):
            break
        piv = next((i for i in range(row, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = F.inv(A[row][col])
        A[row] = [F.mul(inv, x) for x in A[row]]
        for i in range(len(A)):
            if i != row and A[i][col]:
                f = F.mul(minus_one, A[i][col])
                A[i] = [F.add(x, F.mul(f, y)) for x, y in zip(A[i], A[row])]
        pivots.append(col)
        row += 1
    return A, pivots


# packed rows (q <= 16), the row-operation table's gather (q = 32), then
# log/exp arithmetic past its cap
RREF_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (2, 5), (2, 6), (2, 8), (3, 5)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(RREF_FIELDS), st.data())
def test_rref_matches_scalar_elimination(ps, data):
    F = build_field(*ps)
    m = data.draw(st.integers(0, 5), label="rows")
    # up to 20 columns: a packed row of 20 bytes spans several int digits
    n = data.draw(st.integers(0, 20), label="cols")
    rows = [data.draw(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)) for _ in range(m)]
    # rank-deficient: some rows become combinations of the ones above
    for i in range(1, m):
        if data.draw(st.booleans(), label=f"row {i} dependent"):
            coef = data.draw(st.lists(st.integers(0, F.q - 1), min_size=i, max_size=i))
            rows[i] = [0] * n
            for c, above in zip(coef, rows[:i]):
                rows[i] = [F.add(x, F.mul(c, y)) for x, y in zip(rows[i], above)]
    perms = st.permutations(range(n))
    order = data.draw(st.none() | perms | perms.map(lambda o: np.array(o, dtype=np.int64)), label="column order")
    arr = np.array(rows, dtype=np.int64).reshape(m, n)
    R, piv = rref_array(F, arr, order)
    want, want_piv = scalar_rref(F, rows, range(n) if order is None else order)
    assert R.dtype == np.int64 and R.shape == (m, n)
    assert R.tolist() == want and piv == want_piv
    assert all(type(c) is int for c in piv)
    assert (F.axpy_table is None) == (F.q > AXPY_MAX_Q)
    assert (F.axpy_bytes is None) == (F.q > PACKED_MAX_Q)


@pytest.mark.parametrize("ps", [(3, 1), (2, 5), (2, 8)], ids=["packed", "gather", "log-exp"])
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
def test_rref_of_empty_matrices(ps, shape):
    F = build_field(*ps)
    for order in (None, list(range(shape[1]))[::-1]):
        R, piv = rref_array(F, np.zeros(shape, dtype=np.int64), order)
        assert R.shape == shape and R.dtype == np.int64 and piv == []


def test_kernel_basis_rows_are_identity_on_free_columns():
    rng = np.random.default_rng(23)
    for F in (F2, F3, F4, F5, build_field(2, 8)):
        for _ in range(20):
            M = MatrixGF(F, rng.integers(0, F.q, (int(rng.integers(1, 5)), 7)))
            R, rank, piv = M.rref()
            free = [c for c in range(7) if c + 1 not in piv]
            K = M.right_kernel_basis().array
            assert K.dtype == np.int64 and K.shape == (len(free), 7)
            assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))
            pcols = [c - 1 for c in piv]
            assert K[:, pcols].tolist() == [[F.neg(int(R.array[t, fc])) for t in range(rank)] for fc in free]


def test_unchecked_wraps_the_array_as_is():
    arr = np.array([[1, 2], [0, 1]], dtype=np.int64)
    M = MatrixGF.unchecked(F3, arr)
    assert M.array is arr and M.field is F3 and M == MatrixGF(F3, arr)
