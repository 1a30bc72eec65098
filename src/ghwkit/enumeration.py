"""Counting and streaming of r-dimensional subspaces of GF(q)^k by support.

Every subspace is represented by its unique reduced-row-echelon-form basis
matrix.  Subspaces with support exactly {1..w} are generated shape by shape:
a pivot shape is the ascending tuple of pivot columns (i_1=1 < ... < i_r <= w),
and each free column between pivots i_z and i_{z+1} ranges over the nonzero
vectors v of F^r supported on the first z coordinates, by ascending code
sum_t v_t q^t, so that its choice d is the vector with code d + 1.
Emission order is deterministic: pivot shapes in lexicographic order,
free-column choices in odometer order with the rightmost free column
varying fastest.

The stream yields each matrix as its r row codes: row x of length w has code
sum_t x_t q^t (x_t at 0-based column t), exact for every q^w.  The stream
and the row tree, which fixes a matrix's rows one at a time, share one
layout, ``shape_rows``: per pivot shape, the longest suffix of free columns
with at most a block's choices and the prefix before it.  The stream
tabulates a shape's suffix codes once and builds each block as its
prefixes' codes plus that table (``ShapeRows.codes``, the one decoder of
stream positions), row-major, (r, count), yielded as its read-only (count,
r) transpose, whose columns are contiguous.  The tree ranges over each
row's candidate codes (``ShapeRows.tree``, built only for the rounds a tree
walks) and maps any choice of them back to its position, or to none if a
free column is left zero.  This module is the only one that
encodes or decodes that format; ``row_digits`` turns codes back into rows,
and ``subspace_blocks`` is the decoded stream.

All counting functions use exact arbitrary-precision integers.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations
from math import comb, prod
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BadArgs, WorkLimitExceeded
from .gf import FiniteField, as_int
from .matrix import MatrixGF

DEFAULT_BLOCK = 1 << 14


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^k."""
    given = k, r, q
    k, r, q = map(as_int, given)
    if None in (k, r, q) or not (0 <= r <= k) or q < 2:
        raise BadArgs("need integers 0 <= r <= k and q >= 2, got k={!r}, r={!r}, q={!r}".format(*given))
    num = den = 1
    for i in range(r):
        num *= q**k - q**i
        den *= q**r - q**i
    return num // den


def count_full_support(w: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^w with support exactly
    {1..w}, by inclusion-exclusion over coordinate hyperplanes."""
    given = w, r, q
    w, r, q = map(as_int, given)
    if None in (w, r, q) or not (0 <= r <= w) or q < 2:
        raise BadArgs("need integers 0 <= r <= w and q >= 2, got w={!r}, r={!r}, q={!r}".format(*given))
    total = 0
    for i in range(w - r + 1):
        term = comb(w, i) * gaussian_binomial(w - i, r, q)
        total += term if i % 2 == 0 else -term
    return total


def count_e(k: int, w: int, r: int, q: int) -> int:
    """Size of E_w^r: r-dimensional subspaces of GF(q)^k with support size w."""
    given = k, w, r
    k, w, r = map(as_int, given)
    if None in (k, w, r) or not (0 <= r <= w <= k):
        raise BadArgs("need integers 0 <= r <= w <= k, got k={!r}, w={!r}, r={!r}".format(*given))
    return comb(k, w) * count_full_support(w, r, q)


def expected_enumeration(m: int, d: int, r: int, k: int, q: int) -> int:
    """Approximate number of subspaces a run with m information sets would
    enumerate before the lower bound m(w+1) reaches d: the sum of m * e_w^r
    for w from r up to ceil(d/m) - 1 (empty when that limit is below r)."""
    given = m, d, r, k, q
    m, d, r, k, q = map(as_int, given)
    if None in (m, d, r, k, q) or m < 1 or d < 1:
        raise BadArgs("need integers m >= 1, d >= 1, r, k and q, got m={!r}, d={!r}, r={!r}, k={!r}, q={!r}"
                      .format(*given))
    upper = -(-d // m) - 1
    total = 0
    for w in range(r, min(upper, k) + 1):
        total += count_e(k, w, r, q)
    return m * total


def pivot_shapes(r: int, w: int) -> Iterator[tuple[int, ...]]:
    """All pivot tuples (1 = i_1 < i_2 < ... < i_r <= w), lexicographically."""
    given = r, w
    r, w = map(as_int, given)
    if None in (r, w) or not 1 <= r <= w:
        raise BadArgs("need integers 1 <= r <= w, got r={!r}, w={!r}".format(*given))
    for rest in combinations(range(2, w + 1), r - 1):
        yield (1,) + rest


# a suffix column's q^z - 1 choices, F^z - 0 by code; at most a block's
_nonzero = cache(lambda z, field, dtype: row_digits(np.arange(1, field.q**z), field.q, z).astype(dtype))


def code_dtype(q: int, w: int):
    """The dtype of row codes of length w over GF(q): int64 while q^w <=
    2^63, else object, holding exact Python ints."""
    return np.int64 if q**w <= 2**63 else object


def subspace_codes(
    r: int, w: int, field: FiniteField, block_size: int = DEFAULT_BLOCK
) -> Iterator[np.ndarray]:
    """Stream all full-support r x w RREF matrices as read-only (count, r)
    arrays of row codes, in the documented deterministic order, at most
    ``block_size`` matrices a block and never spanning two pivot shapes.  Row
    z's code is q^(i_z - 1) plus, for each free column, its entry in row z
    times q^(column - 1), each free column running over its vectors by
    ascending code; codes are int64 when q^w <= 2^63, else exact Python ints
    in object arrays.  The shapes are those of shape_rows at
    ``block_size``: each one's suffix table is built once, and each block is
    ShapeRows.codes over it, yielded as the transpose of that (r, count)
    array, so each column ``codes[:, t]`` is contiguous.  A round whose
    prefix choices overflow intp is refused before any block is built."""
    for sh in shape_rows(r, w, field, block_size):
        suffix = sh.suffix(field)
        for lo in range(0, sh.total, block_size):
            codes = sh.codes(field, lo, min(lo + block_size, sh.total), suffix).T
            codes.flags.writeable = False
            yield codes


class ShapeRows(NamedTuple):
    """One pivot shape of the stream of round (r, w), its layout.  Its
    full-support matrices are numbered in stream order, their position being
    the mixed-radix index of their free columns' choices, the last column
    fastest, a column's choice being its vector's code sum_t v_t q^t less
    one.  The free columns before ``cut`` form the prefix; the rest, the
    suffix, have ``P`` choices in all, at most the block size, so prefix i
    holds positions i·P .. i·P + P - 1.  ``tree`` gives the rows that a row
    tree ranges over."""

    pivots: tuple[int, ...]  # 0-based
    free: tuple[int, ...]  # the free columns, ascending
    z: tuple[int, ...]  # per free column, the pivots left of it
    sizes: tuple[int, ...]  # per free column, q^z - 1 choices
    cut: int
    P: int

    @property
    def total(self) -> int:
        return prod(self.sizes)

    def prefix_codes(self, field: FiniteField, a: int, b: int) -> np.ndarray:
        """Each row's code on the prefix columns of prefixes a..b-1, an (r,
        b - a) array of the rows' dtype."""
        dtype = code_dtype(field.q, len(self.pivots) + len(self.free))
        pre = np.zeros((len(self.pivots), b - a), dtype=dtype)
        if self.cut:
            digits = np.unravel_index(np.arange(a, b), self.sizes[: self.cut])
            for col, x, d in zip(self.free, self.z, digits):
                pre[:x] += row_digits(d + 1, field.q, x).T.astype(dtype) * field.q**col
        return pre

    def suffix(self, field: FiniteField) -> np.ndarray:
        """Each row's code on its pivot and the suffix columns, for the P
        suffix choices in stream order, an (r, P) array."""
        r, q = len(self.pivots), field.q
        dtype = code_dtype(q, r + len(self.free))
        out = np.array([q**p for p in self.pivots], dtype=dtype)[:, None]
        for col, x in zip(self.free[self.cut :], self.z[self.cut :]):
            add = np.zeros((r, q**x - 1), dtype=dtype)
            add[:x] = _nonzero(x, field, dtype).T * q**col
            out = (out[:, :, None] + add[:, None]).reshape(r, -1)
        return out

    def codes(self, field: FiniteField, lo: int, hi: int, suffix=None) -> np.ndarray:
        """The row codes of the matrices at positions lo..hi-1, an (r, hi -
        lo) array: their prefixes' codes plus the ``suffix`` table, which is
        built here when not given."""
        if suffix is None:
            suffix = self.suffix(field)
        a = lo // self.P
        pre = self.prefix_codes(field, a, -(-hi // self.P))
        return (pre[:, :, None] + suffix[:, None]).reshape(len(pre), -1)[:, lo - a * self.P : hi - a * self.P]

    def tree(self, field: FiniteField) -> RowTree:
        """The rows of this shape's row tree on the suffix columns (see
        RowTree)."""
        r, q = len(self.pivots), field.q
        dtype = code_dtype(q, r + len(self.free))
        suf, zs = self.free[self.cut :], self.z[self.cut :]
        rows, cont = [], []
        for t in range(r):
            own = [i for i, x in enumerate(zs) if x > t]
            low = [int(t == 0 and zs[i] == 1) for i in own]
            digits = np.zeros((0, 1), dtype=np.int64)
            if own:
                digits = np.indices([q - x for x in low]).reshape(len(own), -1) + np.array(low)[:, None]
            codes = np.full(digits.shape[1], q ** self.pivots[t], dtype=dtype)
            for i, d in zip(own, digits):
                codes = codes + d.astype(dtype) * q ** suf[i]
            rows.append(codes)
            cont.append(np.zeros((digits.shape[1], len(suf)), dtype=np.int64))
            if own:  # q^t < q^z <= block_size + 1, where q^t alone may pass int64
                cont[t][:, own] = digits.T * q**t
        strides = np.array([prod(self.sizes[self.cut + i + 1 :]) for i in range(len(suf))], dtype=np.int64)
        return RowTree(tuple(rows), tuple(cont), strides)


class RowTree(NamedTuple):
    """The rows that a row tree of one pivot shape ranges over, built only
    for the rounds a search walks as trees.  Row t ranges over ``rows[t]``:
    the codes of a 1 at its pivot and every value at the suffix columns
    right of it, nonzero at those that only row 0 reaches;
    ShapeRows.prefix_codes adds a prefix's entries.  ``cont[t]`` holds each
    such code's entries on the suffix times q^t, so the rows' sum gives each
    suffix column's vector as its code sum_t v_t q^t: its choice plus one,
    0 for a zero column."""

    rows: tuple[np.ndarray, ...]
    cont: tuple[np.ndarray, ...]
    strides: np.ndarray  # of the suffix positions

    def place(self, path):
        """For matrices given by each row t's index ``path[t]`` into
        ``rows[t]``, which have every suffix column nonzero, and the suffix
        positions of those."""
        code = sum(c[i] for c, i in zip(self.cont, path))
        ok = (code > 0).all(axis=1)
        return ok, (code[ok] - 1) @ self.strides


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True get no entry of 2 or 1
def shape_rows(
    r: int, w: int, field: FiniteField, block_size: int = DEFAULT_BLOCK
) -> tuple[ShapeRows, ...]:
    """The pivot shapes of the full-support r x w RREF matrices in stream
    order, each as its ShapeRows, its suffix the longest run of last free
    columns with at most ``block_size`` choices; built once per process and
    block size.  A shape whose prefix choices overflow intp raises
    WorkLimitExceeded."""
    given = r, w, block_size
    r, w, block_size = map(as_int, given)
    if None in (r, w, block_size) or block_size < 1:
        raise BadArgs("need integers r, w and block_size >= 1, got r={!r}, w={!r}, block_size={!r}".format(*given))
    q, out = field.q, []
    for shape in pivot_shapes(r, w):
        piv = tuple(i - 1 for i in shape)
        free = tuple(c for c in range(w) if c not in piv)
        # a free column right of z pivots may be nonzero only in its first z
        # rows (rows below still await their pivot), and must be nonzero
        z = tuple(sum(p < c for p in piv) for c in free)
        sizes = tuple(q**x - 1 for x in z)
        cut, P = len(free), 1
        while cut and P * sizes[cut - 1] <= block_size:
            cut -= 1
            P *= sizes[cut]
        if prod(sizes[:cut]) > np.iinfo(np.intp).max:
            raise WorkLimitExceeded(f"{prod(sizes[:cut])} prefix choices of pivot shape {shape} overflow intp")
        out.append(ShapeRows(piv, free, z, sizes, cut, P))
    return tuple(out)


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
