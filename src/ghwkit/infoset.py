"""Information sets, systematic generator matrices and redundancies.

The decomposition drives the lower bound of the search for d_r: each G_j
with R_j <= r, where R_j is the overlap of its information set with all
earlier ones, counts r - R_j, and w + 1 - R_j once rounds r..w have run on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadArgs
from .matrix import MatrixGF, rref_array


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
    """Greedy information-set decomposition of a linear code.

    Each set takes the lowest-index columns not used by earlier sets that
    extend the rank and, when those reach only rank rho < k, the
    lowest-index previously used columns that extend it further.  One RREF
    per set finds both: visiting the columns in the order fresh, then used
    (ascending), then the rest, RREF pivots on exactly the columns that
    extend the rank of those before them, so its pivots are the greedy
    fresh columns followed by the greedy reused ones.  Its rows, sorted by
    set order, form the unique generator matrix that is the identity on the
    set; ``rref_array`` keeps the columns in place, so nothing is gathered
    or scattered.  Each of its row operations is one
    ``FiniteField.axpy_arrays`` call, a single gather from the field's q³
    table when q <= 32 (``AXPY_MAX_Q``) and log/exp arithmetic above.  The
    matrices come from eliminating the code's validated generator matrix,
    so they are wrapped unchecked.  Stops once every nonzero column of the
    generator matrix is covered.
    """
    field = code.field
    G = code.G.array
    k = G.shape[0]
    nonzero = G.any(axis=0)
    nonzero_cols = np.flatnonzero(nonzero).tolist()
    zero_cols = np.flatnonzero(~nonzero).tolist()
    used: set[int] = set()
    sets: list[tuple[int, ...]] = []
    mats: list[MatrixGF] = []
    reds: list[int] = []

    while True:
        fresh = [c for c in nonzero_cols if c not in used]
        if not fresh:
            break
        R, piv = rref_array(field, G, fresh + sorted(used) + zero_cols)
        if len(piv) < k:
            raise BadArgs("generator matrix rows are linearly dependent")
        iset = sorted(piv)
        sets.append(tuple(c + 1 for c in iset))
        mats.append(MatrixGF.unchecked(field, R[np.argsort(piv)]))
        # fresh columns are disjoint from every earlier set, so the overlap
        # with their union is exactly the pivots among the used columns
        reds.append(len(used.intersection(piv)))
        used.update(iset)

    return InfoSetDecomposition(tuple(sets), tuple(mats), tuple(reds))
