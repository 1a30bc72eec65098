"""Information sets, systematic generator matrices and redundancies.

The decomposition drives the lower bound of the search: after processing all
subspaces of support size w, every generator matrix G_j contributes
max(0, w + 1 - R_j) to the bound, where R_j is the overlap of its information
set with all earlier ones.
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
    per set finds both: over the columns in the order fresh, then used
    (ascending), then the rest, RREF pivots on exactly the columns that
    extend the rank of those before them, so its pivots are the greedy
    fresh columns followed by the greedy reused ones.  Its rows, sorted by
    set order and with the columns put back in place, form the unique
    generator matrix that is the identity on the set.  Stops once every
    nonzero column of the generator matrix is covered.
    """
    field = code.field
    G = code.G.array
    k, n = G.shape
    nonzero_cols = [c for c in range(n) if G[:, c].any()]
    zero_cols = [c for c in range(n) if not G[:, c].any()]
    used: set[int] = set()
    sets: list[tuple[int, ...]] = []
    mats: list[MatrixGF] = []
    reds: list[int] = []

    while True:
        fresh = [c for c in nonzero_cols if c not in used]
        if not fresh:
            break
        order = np.array(fresh + sorted(used) + zero_cols)
        R, piv = rref_array(field, G[:, order])
        if len(piv) < k:
            raise BadArgs("generator matrix rows are linearly dependent")
        chosen = order[piv]
        out = np.empty_like(G)
        out[:, order] = R
        iset = sorted(chosen.tolist())
        sets.append(tuple(c + 1 for c in iset))
        mats.append(MatrixGF(field, out[np.argsort(chosen)]))
        # fresh columns are disjoint from every earlier set, so the overlap
        # with their union is exactly the pivots past the fresh block
        reds.append(sum(p >= len(fresh) for p in piv))
        used.update(iset)

    return InfoSetDecomposition(tuple(sets), tuple(mats), tuple(reds))
