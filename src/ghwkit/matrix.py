"""Dense linear algebra over GF(q): RREF, rank, kernels, products, supports.

Matrices are immutable values wrapping an index-encoded numpy array.  Column
indices in all public interfaces are 1-based, matching the usual {1,...,n}
coordinate convention for codes.

Elimination works on rows in a format this module alone chooses
(:func:`pack_rows`, :func:`eliminate_rows`, :func:`unpack_rows`):

- For q <= 16 (``gf.PACKED_MAX_Q``) each row is one Python int with one byte
  per entry, entry j in byte j.  A pivot test is one AND with the column's
  byte mask, and a row operation X − f·Y is one ``bytes.translate`` of the
  bytes of X<<4 | Y through the field's 256-byte table ``axpy_bytes[f]``;
  over GF(2) it is X ^ Y, and scaling the pivot row is one translate too.
- Above that each row is a row of an int64 array, and a pivot step is one
  ``argmax`` down the column and one row operation on the whole matrix
  (``FiniteField.axpy_arrays``): a single gather from the field's q³
  ``axpy_table`` for q <= 32, log/exp arithmetic above that cap.

:func:`rref_array` packs, eliminates and unpacks; the information-set
decomposition packs a generator matrix once and eliminates it per set.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArgs, DimensionMismatch
from .gf import FiniteField


class MatrixGF:
    """A rows x cols matrix over a finite field.

    Entries are element indices.  Instances are treated as immutable: the
    wrapped array is never modified after construction.
    """

    __slots__ = ("field", "array")

    def __init__(self, field: FiniteField, entries):
        given = np.asarray(entries)
        arr = given.astype(np.int64, copy=False)
        if given.dtype.kind not in "biu" and not np.array_equal(arr, given):
            raise BadArgs("matrix entries must be whole numbers")
        if arr.ndim != 2:
            raise BadArgs(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise BadArgs(f"entries out of range for GF({field.q})")
        self.field = field
        self.array = arr

    @classmethod
    def unchecked(cls, field: FiniteField, array: np.ndarray) -> "MatrixGF":
        """Wrap a 2-D int64 array of valid entries as is, without checks:
        for arrays made by field arithmetic on already validated ones."""
        M = cls.__new__(cls)
        M.field, M.array = field, array
        return M

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @classmethod
    def zeros(cls, field: FiniteField, rows: int, cols: int) -> "MatrixGF":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "MatrixGF":
        return cls(field, np.eye(n, dtype=np.int64))

    def rref(self) -> tuple["MatrixGF", int, tuple[int, ...]]:
        """Reduced row echelon form.

        Returns ``(R, rank, pivots)`` where pivots are the 1-based pivot
        column indices in ascending order.
        """
        R, pivots = rref_array(self.field, self.array)
        return MatrixGF(self.field, R), len(pivots), tuple(c + 1 for c in pivots)

    def rank(self) -> int:
        return rank_array(self.field, self.array)

    def right_kernel_basis(self) -> "MatrixGF":
        """Basis of {v : M v^T = 0} as a (cols - rank) x cols matrix.

        One basis row per free column of the RREF, in ascending free-column
        order: the identity on the free columns and minus that column of the
        RREF on the pivot columns.
        """
        f = self.field
        R, pivots = rref_array(f, self.array)
        free = np.ones(self.cols, dtype=bool)
        free[pivots] = False
        free = np.flatnonzero(free)
        B = np.zeros((len(free), self.cols), dtype=np.int64)
        B[np.arange(len(free)), free] = 1
        B[:, pivots] = f.neg_arrays(R[: len(pivots), free]).T
        return MatrixGF.unchecked(f, B)

    def matmul(self, other: "MatrixGF") -> "MatrixGF":
        if self.field != other.field:
            raise DimensionMismatch("matrices are over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return MatrixGF(self.field, self.field.matmul(self.array, other.array))

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        return self.matmul(other)

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.field, self.array.T.copy())

    def support(self) -> tuple[int, ...]:
        """1-based indices of columns containing at least one nonzero entry."""
        if self.rows == 0:
            return ()
        nz = np.flatnonzero((self.array != 0).any(axis=0))
        return tuple(int(c) + 1 for c in nz)

    def support_size(self) -> int:
        if self.rows == 0:
            return 0
        return int((self.array != 0).any(axis=0).sum())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self) -> int:
        return hash((self.field, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixGF({self.field!r}, {self.array.tolist()!r})"


def pack_rows(field: FiniteField, arr: np.ndarray):
    """The rows of a 2-D index array in the elimination's row format: a
    list of ints, one byte per entry, for q <= 16; else the int64 array.
    Rows of at most 8 entries are read as one little-endian uint64 each."""
    if field.axpy_bytes is None:
        return np.asarray(arr, dtype=np.int64)
    m, n = np.shape(arr)
    if n <= 8:
        words = np.zeros((m, 8), dtype=np.uint8)
        words[:, :n] = arr
        return words.view("<u8").ravel().tolist()
    data = np.asarray(arr).astype(np.uint8).tobytes()
    return [int.from_bytes(data[i * n : (i + 1) * n], "little") for i in range(m)]


def unpack_rows(field: FiniteField, rows, n: int) -> np.ndarray:
    """A sequence of packed rows of n entries as a (len(rows), n) int64
    array."""
    if field.axpy_bytes is None:
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), n)
    data = b"".join(row.to_bytes(n, "little") for row in rows)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(rows), n).astype(np.int64)


def eliminate_rows(field: FiniteField, rows, n: int, order=None):
    """RREF of packed rows of n entries, visiting the columns in ``order``,
    a permutation of them (default ascending); returns (the reduced rows,
    0-based pivot columns in visit order) and leaves ``rows`` as it was.
    The columns stay in place: the result is the RREF of the matrix's
    columns taken in ``order``, with the columns put back, and its rows are
    the pivot rows in visit order, then zero rows.

    A step takes the first row at or below the next pivot position with a
    nonzero in the column (the RREF is unique, so any nonzero pivot row gives
    the same result), scales it to a leading 1, puts it in the pivot
    position and clears the column in every other row."""
    if field.axpy_bytes is None:
        return _eliminate_array(field, rows, order)
    rows = list(rows)
    m = len(rows)
    table = field.axpy_bytes
    binary = field.q == 2
    from_bytes = int.from_bytes
    pivots: list[int] = []
    row = 0
    for col in range(n) if order is None else order:
        if row == m:
            break
        col = int(col)
        shift = col << 3
        mask = 15 << shift
        for piv in range(row, m):
            if rows[piv] & mask:
                break
        else:
            continue
        Y = rows[piv]
        pv = Y >> shift & 15
        if pv != 1:
            Y = from_bytes(Y.to_bytes(n, "little").translate(table[field.neg_table[field.inv_table[pv]]]), "little")
        # the pivot row is set aside as 0, so the row operations pass it by
        rows[piv] = rows[row]
        rows[row] = 0
        if binary:
            rows = [X ^ Y if X & mask else X for X in rows]
        else:
            rows = [
                from_bytes((X << 4 | Y).to_bytes(n, "little").translate(table[X >> shift & 15]), "little")
                if X & mask
                else X
                for X in rows
            ]
        rows[row] = Y
        pivots.append(col)
        row += 1
    return rows, pivots


def _eliminate_array(field: FiniteField, arr: np.ndarray, order) -> tuple[np.ndarray, list[int]]:
    """:func:`eliminate_rows` on an int64 array.  Each pivot step is one
    ``argmax`` down the column, the pivot row scaled to a leading 1, and one
    row operation A − A[:, col]·Y on the whole matrix, which clears the
    column everywhere, the pivot's own row included; Y is then written to
    the pivot position and the row it displaces to the pivot's old row."""
    A = np.array(arr, dtype=np.int64, copy=True)
    m, n = A.shape
    pivots: list[int] = []
    row = 0
    for col in range(n) if order is None else order:
        if row == m:
            break
        col = int(col)
        piv = row + int(A[row:, col].argmax())
        pv = int(A[piv, col])
        if pv == 0:
            continue
        Y = A[piv] if pv == 1 else field.scale_arrays(field.inv(pv), A[piv])
        A = field.axpy_arrays(A[:, col, None], A, Y)
        if piv != row:
            A[piv] = A[row]
        A[row] = Y
        pivots.append(col)
        row += 1
    return A, pivots


def rref_array(field: FiniteField, arr: np.ndarray, order=None) -> tuple[np.ndarray, list[int]]:
    """RREF of an index-encoded array, visiting its columns in ``order``, a
    permutation of them (default ascending); returns (R, 0-based pivot
    columns in visit order).  R keeps the columns in place: it is the RREF
    of ``arr[:, order]`` with its columns put back, with no gather or
    scatter.  One :func:`eliminate_rows` on the packed rows."""
    n = np.shape(arr)[1]
    R, pivots = eliminate_rows(field, pack_rows(field, arr), n, order)
    return unpack_rows(field, R, n), pivots


def rank_array(field: FiniteField, arr: np.ndarray) -> int:
    """The pivots of one :func:`eliminate_rows`, counted with no unpacking."""
    return len(eliminate_rows(field, pack_rows(field, arr), np.shape(arr)[1])[1])
