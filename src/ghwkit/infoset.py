"""Information sets, systematic generator matrices and redundancies.

The decomposition drives the lower bound of the search for d_r: each G_j
with R_j <= r, where R_j is the overlap of its information set with all
earlier ones, counts r - R_j, and w + 1 - R_j once rounds r..w have run on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadArgs
from .matrix import MatrixGF, eliminate_rows, pack_rows, unpack_rows


@dataclass(frozen=True)
class InfoSetDecomposition:
    """Information sets I_j (1-based, ascending), systematic generator
    matrices G_j (identity on the columns of I_j) and redundancies R_j."""

    sets: tuple[tuple[int, ...], ...]
    mats: tuple[MatrixGF, ...]
    reds: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.sets)


def information(code) -> InfoSetDecomposition:
    """Greedy information-set decomposition of a linear code: the sets,
    matrices and redundancies of :func:`_decompose`, each matrix a view of
    its one (m, k, n) array."""
    sets, mats, reds = _decompose(code)
    return InfoSetDecomposition(sets, tuple([MatrixGF.unchecked(code.field, M) for M in mats]), reds)


def _decompose(code) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, tuple[int, ...]]:
    """The greedy information-set decomposition of a linear code as the
    search reads it: (the sets I_j, 1-based, the systematic matrices as one
    (m, k, n) int64 array, the redundancies R_j).

    Each set takes the lowest-index columns not used by earlier sets that
    extend the rank and, when those reach only rank rho < k, the
    lowest-index previously used columns that extend it further.  One
    elimination per set finds both: visiting the columns in the order
    fresh, then used (ascending), then the rest, RREF pivots on exactly the
    columns that extend the rank of those before them, so its pivots are
    the greedy fresh columns followed by the greedy reused ones.  Its rows,
    sorted by set order, form the unique generator matrix that is the
    identity on the set, with the columns in place.

    The generator matrix is packed once into the elimination's row format
    (``matrix.pack_rows``: one int per row, a byte per entry, for q <= 16),
    each set is eliminated on those rows (``matrix.eliminate_rows``), and
    the rows of all sets are unpacked at the end as one (m, k, n) int64
    array.  They come from eliminating the code's validated generator
    matrix, so :func:`information` wraps them unchecked.  Stops once every
    nonzero column of the generator matrix is covered.

    The redundancies never decrease: R_j = k - rank of set j's fresh
    columns, a subset of set j - 1's, so their rank cannot grow.
    """
    field = code.field
    G = code.G.array
    k, n = G.shape
    nonzero = G.any(axis=0).tolist()
    nonzero_cols = [c for c in range(n) if nonzero[c]]
    zero_cols = [c for c in range(n) if not nonzero[c]]
    packed = pack_rows(field, G)
    used: set[int] = set()
    sets: list[tuple[int, ...]] = []
    reds: list[int] = []
    rows: list = []

    while True:
        fresh = [c for c in nonzero_cols if c not in used]
        if not fresh:
            break
        R, piv = eliminate_rows(field, packed, n, fresh + sorted(used) + zero_cols)
        if len(piv) < k:
            raise BadArgs("generator matrix rows are linearly dependent")
        by_col = sorted(range(k), key=piv.__getitem__)
        sets.append(tuple([piv[i] + 1 for i in by_col]))
        rows += [R[i] for i in by_col]
        # fresh columns are disjoint from every earlier set, so the overlap
        # with their union is exactly the pivots among the used columns
        reds.append(len(used.intersection(piv)))
        used.update(piv)

    return tuple(sets), unpack_rows(field, rows, n).reshape(len(sets), k, n), tuple(reds)
