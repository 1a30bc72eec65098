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
from .matrix import MatrixGF, rank_array, rref_array


@dataclass(frozen=True)
class InfoSetDecomposition:
    """Information sets I_j (1-based, ascending), systematic generator
    matrices G_j (identity on the columns of I_j) and redundancies R_j."""

    sets: tuple[tuple[int, ...], ...]
    mats: tuple[MatrixGF, ...]
    reds: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.sets) == len(self.mats) == len(self.reds)) or not self.sets:
            raise BadArgs("sets, mats and reds must be nonempty and equally long")

    @property
    def m(self) -> int:
        return len(self.sets)


def information(code) -> InfoSetDecomposition:
    """Greedy information-set decomposition of a linear code.

    Repeatedly Gauss-eliminates on columns not used by earlier information
    sets, always picking the lowest-index eligible column; when the fresh
    columns only reach rank rho < k, the set is completed with the
    lowest-index previously used columns that extend the rank.  Stops once
    every nonzero column of the generator matrix is covered.
    """
    field = code.field
    G = code.G.array
    k, n = G.shape
    nonzero_cols = [c for c in range(n) if G[:, c].any()]
    used: set[int] = set()
    sets: list[tuple[int, ...]] = []
    mats: list[MatrixGF] = []
    reds: list[int] = []

    while True:
        fresh = [c for c in nonzero_cols if c not in used]
        if not fresh:
            break
        _, piv_local = rref_array(field, G[:, fresh])
        chosen = [fresh[i] for i in piv_local]
        reused: list[int] = []
        if len(chosen) < k:
            rank = len(chosen)
            for c in sorted(used):
                if rank_array(field, G[:, chosen + reused + [c]]) > rank:
                    reused.append(c)
                    rank += 1
                    if rank == k:
                        break
        iset = sorted(chosen + reused)
        sets.append(tuple(c + 1 for c in iset))
        mats.append(_systematic_on(field, G, iset))
        # fresh columns are disjoint from every earlier set, so the overlap
        # with their union is exactly the reused columns
        reds.append(len(reused))
        used.update(iset)

    return InfoSetDecomposition(tuple(sets), tuple(mats), tuple(reds))


def check_decomposition(code, dec: InfoSetDecomposition) -> None:
    """Raise BadArgs unless ``dec`` is a decomposition of ``code`` that the
    search's lower bound can rest on: every G_j generates the code and is
    the identity on I_j, and every R_j is the number of columns I_j shares
    with the earlier sets."""
    field, G = code.field, code.G.array
    k, n = G.shape
    used: set[int] = set()
    for j, (iset, M, red) in enumerate(zip(dec.sets, dec.mats, dec.reds)):
        cols = [c - 1 for c in iset]
        if M.field != field or M.array.shape != (k, n) or not all(0 <= c < n for c in cols):
            raise BadArgs(f"matrix {j} or information set {j} does not fit a [{n},{k}] code")
        if len(cols) != k or not np.array_equal(M.array[:, cols], np.eye(k)):
            raise BadArgs(f"matrix {j} is not the identity on information set {j}")
        if rank_array(field, np.vstack([G, M.array])) != k:
            raise BadArgs(f"matrix {j} does not generate the code")
        shared = len(used.intersection(cols))
        if red != shared:
            raise BadArgs(f"redundancy {j} is {red}, but set {j} shares {shared} columns with the earlier sets")
        used.update(cols)


def _systematic_on(field, G: np.ndarray, iset: list[int]) -> MatrixGF:
    """Row-reduce G so the columns in ``iset`` (0-based) carry the identity."""
    k, n = G.shape
    rest = [c for c in range(n) if c not in set(iset)]
    perm = list(iset) + rest
    R, piv = rref_array(field, G[:, perm])
    if piv != list(range(k)):
        raise BadArgs("columns do not form an information set")
    out = np.empty_like(G)
    out[:, perm] = R
    return MatrixGF(field, out)
