"""Dense linear algebra over GF(q): RREF, rank, kernels, products, supports.

Matrices are immutable values wrapping an index-encoded numpy array.  Column
indices in all public interfaces are 1-based, matching the usual {1,...,n}
coordinate convention for codes.
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
        return len(rref_array(self.field, self.array)[1])

    def right_kernel_basis(self) -> "MatrixGF":
        """Basis of {v : M v^T = 0} as a (cols - rank) x cols matrix.

        One basis row per free column of the RREF, in ascending free-column
        order.
        """
        f = self.field
        R, pivots = rref_array(f, self.array)
        rank = len(pivots)
        n = self.cols
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        B = np.zeros((len(free), n), dtype=np.int64)
        for i, fc in enumerate(free):
            B[i, fc] = 1
            if rank:
                B[i, pivots] = f.neg_arrays(R[:rank, fc])
        return MatrixGF(f, B)

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


def rref_array(field: FiniteField, arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """RREF of an index-encoded array; returns (R, 0-based pivot columns)."""
    A = np.array(arr, dtype=np.int64, copy=True)
    m, n = A.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.flatnonzero(A[row:, col])
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            A[[row, piv]] = A[[piv, row]]
        pv = int(A[row, col])
        if pv != 1:
            A[row] = field.mul_arrays(np.int64(field.inv(pv)), A[row])
        factors = field.neg_arrays(A[:, col])
        factors[row] = 0
        upd = field.mul_arrays(factors[:, None], A[row][None, :])
        A = field.add_arrays(A, upd)
        pivots.append(col)
        row += 1
    return A, pivots


def rank_array(field: FiniteField, arr: np.ndarray) -> int:
    return len(rref_array(field, arr)[1])
