"""Counting and streaming of r-dimensional subspaces of GF(q)^k by support.

Every subspace is represented by its unique reduced-row-echelon-form basis
matrix.  Subspaces with support exactly {1..w} are generated shape by shape:
a pivot shape is the ascending tuple of pivot columns (i_1=1 < ... < i_r <= w),
and each free column between pivots i_z and i_{z+1} ranges over the nonzero
vectors of F^r supported on the first z coordinates.  Emission order is
deterministic: pivot shapes in lexicographic order, free-column choices in
odometer order with the rightmost free column varying fastest.

The stream yields each matrix as its r row codes: row x of length w has code
sum_t x_t q^t (x_t at 0-based column t), exact for every q^w.  Per pivot
shape, the codes of the longest suffix of free columns that fits in a block
are tabulated once; a block decodes only its rows' prefix columns and adds
them to that table by broadcasting.  Tables, prefixes and blocks are built
row-major, (r, count), so those adds run along the long axis; each block is
yielded as its read-only (count, r) transpose, whose columns are contiguous.  This module is
the only one that encodes or decodes that format; ``row_digits`` turns codes
back into rows, and ``subspace_blocks`` is the decoded stream.

All counting functions use exact arbitrary-precision integers.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, prod
from typing import Iterator

import numpy as np

from .errors import BadArgs, WorkLimitExceeded
from .gf import FiniteField
from .matrix import MatrixGF

DEFAULT_BLOCK = 1 << 14


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^k."""
    if not (0 <= r <= k) or q < 2:
        raise BadArgs(f"need 0 <= r <= k and q >= 2, got k={k}, r={r}, q={q}")
    num = den = 1
    for i in range(r):
        num *= q**k - q**i
        den *= q**r - q**i
    return num // den


def count_full_support(w: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^w with support exactly
    {1..w}, by inclusion-exclusion over coordinate hyperplanes."""
    if not (0 <= r <= w) or q < 2:
        raise BadArgs(f"need 0 <= r <= w and q >= 2, got w={w}, r={r}, q={q}")
    total = 0
    for i in range(w - r + 1):
        term = comb(w, i) * gaussian_binomial(w - i, r, q)
        total += term if i % 2 == 0 else -term
    return total


def count_e(k: int, w: int, r: int, q: int) -> int:
    """Size of E_w^r: r-dimensional subspaces of GF(q)^k with support size w."""
    if not (0 <= r <= w <= k):
        raise BadArgs(f"need 0 <= r <= w <= k, got k={k}, w={w}, r={r}")
    return comb(k, w) * count_full_support(w, r, q)


def expected_enumeration(m: int, d: int, r: int, k: int, q: int) -> int:
    """Approximate number of subspaces a run with m information sets would
    enumerate before the lower bound m(w+1) reaches d: the sum of m * e_w^r
    for w from r up to ceil(d/m) - 1 (empty when that limit is below r)."""
    if m < 1 or d < 1:
        raise BadArgs(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    upper = -(-d // m) - 1
    total = 0
    for w in range(r, min(upper, k) + 1):
        total += count_e(k, w, r, q)
    return m * total


def pivot_shapes(r: int, w: int) -> Iterator[tuple[int, ...]]:
    """All pivot tuples (1 = i_1 < i_2 < ... < i_r <= w), lexicographically."""
    if not 1 <= r <= w:
        raise BadArgs(f"need 1 <= r <= w, got r={r}, w={w}")
    for rest in combinations(range(2, w + 1), r - 1):
        yield (1,) + rest


def columns_up_to_weight(r: int, z: int, field: FiniteField) -> np.ndarray:
    """All vectors of F^r with weight between 1 and z, as a (count, r) array.

    Order: weight y ascending; support positions in lexicographic order; the
    nonzero values in odometer order (last position fastest).
    """
    if not 1 <= z <= r:
        raise BadArgs(f"need 1 <= z <= r, got z={z}, r={r}")
    q = field.q
    chunks = []
    for y in range(1, z + 1):
        nvals = (q - 1) ** y
        vals = np.empty((nvals, y), dtype=np.int64)
        idx = np.arange(nvals)
        for t in range(y):
            stride = (q - 1) ** (y - 1 - t)
            vals[:, t] = idx // stride % (q - 1) + 1
        for pos in combinations(range(r), y):
            block = np.zeros((nvals, r), dtype=np.int64)
            block[:, pos] = vals
            chunks.append(block)
    return np.concatenate(chunks, axis=0)


_nonzero = cache(lambda z, field, dtype: columns_up_to_weight(z, z, field).astype(dtype))  # F^z - 0


def subspace_codes(
    r: int, w: int, field: FiniteField, block_size: int = DEFAULT_BLOCK
) -> Iterator[np.ndarray]:
    """Stream all full-support r x w RREF matrices as read-only (count, r)
    arrays of row codes, in the documented deterministic order, at most
    ``block_size`` matrices a block and never spanning two pivot shapes.  Row
    z's code is q^(i_z - 1) plus, for each free column, its entry in row z
    times q^(column - 1); codes are int64 when q^w <= 2^63, else exact Python
    ints in object arrays.  A shape's longest suffix of free columns with at
    most ``block_size`` choices is tabulated once, pivots included (P codes);
    a block decodes its rows' prefixes by ``np.unravel_index`` and adds each to
    the table.  All three are (r, count) arrays, and a block is the transpose
    of a slice of one, so each column ``codes[:, t]`` is contiguous.  A shape
    whose prefix choices overflow intp raises WorkLimitExceeded; the first
    shape has the most choices in every free column, so that happens before
    any block is built."""
    if not 1 <= r <= w:
        raise BadArgs(f"need 1 <= r <= w, got r={r}, w={w}")
    if block_size < 1:
        raise BadArgs(f"block_size must be >= 1, got {block_size}")
    dtype = np.int64 if field.q**w <= 2**63 else object
    qpow = np.array([field.q**t for t in range(w)], dtype=dtype)
    for shape in pivot_shapes(r, w):
        adds = []
        for z, (pivot, nxt) in enumerate(zip(shape, shape[1:] + (w + 1,)), 1):
            # A free column between pivots i_z and i_{z+1} may be nonzero only
            # in its first z coordinates (rows below still await their pivot),
            # and must be nonzero somewhere: q^z - 1 choices.
            for col in range(pivot, nxt - 1):
                vals = _nonzero(z, field, dtype)
                add = np.zeros((r, vals.shape[0]), dtype=dtype)
                add[:z] = vals.T * qpow[col]
                adds.append(add)
        sizes = [a.shape[1] for a in adds]
        total = prod(sizes)
        suffix, cut = qpow[[i - 1 for i in shape]][:, None], len(adds)
        while cut and suffix.shape[1] * sizes[cut - 1] <= block_size:
            cut -= 1
            suffix = (adds[cut][:, :, None] + suffix[:, None]).reshape(r, -1)
        P = suffix.shape[1]
        choices = prod(sizes[:cut])
        if choices > np.iinfo(np.intp).max:
            raise WorkLimitExceeded(f"{choices} prefix choices of pivot shape {shape} overflow intp")
        for lo in range(0, total, block_size):
            hi = min(lo + block_size, total)
            idx = np.arange(lo // P, -(-hi // P))
            prefix = np.zeros((r, idx.size), dtype=dtype)
            for add, sel in zip(adds[:cut], np.unravel_index(idx, sizes[:cut] or [1])):
                prefix += add[:, sel]
            codes = (prefix[:, :, None] + suffix[:, None]).reshape(r, -1)[:, lo - idx[0] * P : hi - idx[0] * P].T
            codes.flags.writeable = False
            yield codes


def row_digits(codes: np.ndarray, q: int, w: int) -> np.ndarray:
    """The rows x of the row ``codes`` sum_t x_t q^t, an int64 array with a
    last axis of length w."""
    qpow = np.array([q**t for t in range(w)], dtype=codes.dtype)
    return (codes[..., None] // qpow % q).astype(np.int64)


def subspace_blocks(
    r: int, w: int, field: FiniteField, block_size: int = DEFAULT_BLOCK
) -> Iterator[np.ndarray]:
    """Stream all full-support r x w RREF matrices as stacked (count, r, w)
    arrays, in the documented deterministic order: the blocks of
    subspace_codes, decoded."""
    for codes in subspace_codes(r, w, field, block_size):
        yield row_digits(codes, field.q, w)


def subspaces(r: int, w: int, field: FiniteField) -> Iterator[MatrixGF]:
    """Stream every r x w RREF matrix of rank r with support exactly {1..w},
    each exactly once."""
    for block in subspace_blocks(r, w, field):
        for i in range(block.shape[0]):
            yield MatrixGF(field, block[i])


def support_choices(k: int, w: int) -> Iterator[tuple[int, ...]]:
    """All w-subsets of {1..k} in lexicographic order (1-based)."""
    if not 0 <= w <= k:
        raise BadArgs(f"need 0 <= w <= k, got k={k}, w={w}")
    return combinations(range(1, k + 1), w)


def expand_to_support(RE: MatrixGF, support_set, k: int) -> MatrixGF:
    """Place the columns of RE at the (1-based) positions in ``support_set``
    inside an r x k matrix that is zero elsewhere."""
    cols = [int(c) for c in support_set]
    if len(cols) != RE.cols:
        raise BadArgs(f"support size {len(cols)} != matrix columns {RE.cols}")
    if any(a >= b for a, b in zip(cols, cols[1:])):
        raise BadArgs("support positions must be strictly ascending")
    if cols and (cols[0] < 1 or cols[-1] > k):
        raise BadArgs(f"support positions must lie in [1, {k}]")
    out = np.zeros((RE.rows, k), dtype=np.int64)
    out[:, [c - 1 for c in cols]] = RE.array
    return MatrixGF(RE.field, out)
