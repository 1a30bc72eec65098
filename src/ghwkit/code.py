"""The linear-code model: validation, duals, cyclicity, the BCH bound, and
evaluation-code constructors used as known-answer inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

import numpy as np

from .errors import (
    BadArgs,
    BadDimension,
    CharacteristicDividesLength,
    DegreeOutOfRange,
    DimensionMismatch,
    NotCyclic,
    RankDeficient,
    ZeroDual,
)
from .gf import FiniteField, as_int, build_field
from .matrix import MatrixGF, rank_array, rref_array


@dataclass(frozen=True)
class LinearCode:
    """A k-dimensional subspace of GF(q)^n given by a full-rank generator
    matrix.  Construct through :func:`new_code`."""

    field: FiniteField
    G: MatrixGF
    n: int
    k: int

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over {self.field!r})"


def new_code(field: FiniteField, G: MatrixGF) -> LinearCode:
    """Validate a generator matrix and wrap it as a code."""
    if G.field != field:
        raise DimensionMismatch("generator matrix is over a different field")
    if G.rows == 0 or G.cols == 0:
        raise RankDeficient("generator matrix must be nonempty")
    if G.rank() != G.rows:
        raise RankDeficient("generator matrix rows are linearly dependent")
    return LinearCode(field=field, G=G, n=G.cols, k=G.rows)


def code_from_rows(field: FiniteField, rows) -> LinearCode:
    return new_code(field, MatrixGF(field, rows))


def dual(code: LinearCode) -> LinearCode:
    """The orthogonal code, generated by a right-kernel basis of G.  The
    basis is the identity on the free columns of G's RREF, so it has full
    rank and needs no second elimination."""
    if code.k == code.n:
        raise ZeroDual("the full space has a zero dual with no generator matrix")
    H = code.G.right_kernel_basis()
    return LinearCode(field=code.field, G=H, n=code.n, k=H.rows)


def is_cyclic(code: LinearCode) -> bool:
    """True iff the right cyclic shift of every generator row stays in the
    code (rank test against G)."""
    shifted = np.roll(code.G.array, 1, axis=1)
    stacked = np.vstack([code.G.array, shifted])
    return rank_array(code.field, stacked) == code.k


# -- polynomials over GF(q), coefficient lists ascending, for the BCH bound --


def _poly_eval(field, c, x) -> np.ndarray:
    """The polynomial with ascending coefficients c at x, by Horner's rule on
    arrays: x and each coefficient may be arrays, taken elementwise."""
    acc = 0
    for ci in reversed(c):
        acc = field.add_arrays(field.mul_arrays(acc, x), ci)
    return acc


def _cyclic_generator(field: FiniteField, M: np.ndarray) -> np.ndarray | None:
    """The monic generator polynomial g(x) (ascending coefficients) of the
    code that M generates, M the identity on columns 1..k, if that code is
    cyclic, else None.  The code is cyclic iff the right shift S of each row
    stays in it, that is, S[:, :k]·M = S: one product.  It then holds
    x^(k-1)·g(x)/g_0, which is zero on columns 1..k-1 and 1 on column k, so
    it is M's last row, the unique such word: g is that row's columns k..n,
    scaled monic."""
    k = M.shape[0]
    S = np.concatenate((M[:, -1:], M[:, :-1]), axis=1)
    if not np.array_equal(field.matmul(S[:, :k], M), S):
        return None
    g = M[k - 1, k - 1 :]
    return field.scale_arrays(field.inv(int(g[-1])), g)


def generator_polynomial(code: LinearCode) -> list[int]:
    """Monic generator polynomial of a cyclic code (column i holds the
    coefficient of x^(i-1)), read off the RREF of G.  A cyclic code is
    spanned by x^i·g(x), i < k, whose first k columns are triangular with
    g_0 ≠ 0 on the diagonal, so the RREF's pivots are the first k columns,
    and :func:`_cyclic_generator` applies."""
    R, piv = rref_array(code.field, code.G.array)
    g = _cyclic_generator(code.field, R) if piv == list(range(code.k)) else None
    if g is None:
        raise NotCyclic("code is not cyclic")
    return g.tolist()


def _embedding(small: FiniteField, big: FiniteField):
    """Map arrays of indices of GF(p^s) into GF(p^(s*t)) via the least root
    of the small modulus; the identity for prime subfields."""
    if small.s == 1:
        return np.asarray
    roots = np.flatnonzero(_poly_eval(big, [int(c) for c in small.modulus], np.arange(big.q)) == 0)
    assert roots.size, "modulus must split in the extension"
    return lambda a: _poly_eval(big, small.digits[np.asarray(a)].T, int(roots[0]))


def bch_bound(code: LinearCode) -> int:
    """BCH lower bound for the minimum distance of a cyclic code.

    Finds the defining set {i : g(alpha^i) = 0} for alpha a fixed primitive
    n-th root of unity in the smallest extension GF(q^t) with n | q^t - 1,
    and returns one plus the longest run of consecutive exponents mod n.
    """
    field, n = code.field, code.n
    if gcd(n, field.p) != 1:
        raise CharacteristicDividesLength(f"gcd({n}, {field.p}) != 1")
    return _bch_from_generator(field, n, generator_polynomial(code))


def _bch_from_generator(field: FiniteField, n: int, g) -> int:
    """bch_bound of the cyclic code of length n, prime to the
    characteristic, with generator polynomial g (ascending coefficients),
    evaluated at all n powers of alpha at once."""
    t = 1
    while (field.q**t - 1) % n != 0:
        t += 1
    big = build_field(field.p, field.s * t) if t > 1 or field.s > 1 else field
    powers = big.exp_table[np.arange(n) * ((big.q - 1) // n) % (big.q - 1)]
    # the exponents that are not roots, at least one since deg g < n, split
    # the circle of exponents into runs of roots
    off = np.flatnonzero(_poly_eval(big, _embedding(field, big)(g), powers))
    return int(np.diff(off, append=off[0] + n).max())


def make_rs(field: FiniteField, k: int) -> LinearCode:
    """[q, k] Reed-Solomon code: row j evaluates x^j at all q field elements
    in ascending index order.  MDS with minimum distance q - k + 1."""
    q = field.q
    if as_int(k) is None or not 1 <= k <= q:
        raise BadDimension(f"need an integer 1 <= k <= q = {q}, got k={k!r}")
    G = np.empty((k, q), dtype=np.int64)
    for j in range(k):
        G[j] = [field.pow(x, j) for x in range(q)]
    return new_code(field, MatrixGF(field, G))


def _monomials(nu: int, m: int):
    """Exponent tuples with total degree <= nu, graded lexicographic order:
    degree ascending, then 1, x1, x2, ..., x1^2, x1*x2, ..."""
    for d in range(nu + 1):
        for e in sorted(
            (t for t in product(range(d + 1), repeat=m) if sum(t) == d), reverse=True
        ):
            yield e


def make_rm(field: FiniteField, nu: int, m: int) -> LinearCode:
    """[q^m, binom(nu+m, m)] Reed-Muller-style evaluation code: all monomials
    of total degree <= nu evaluated on the full grid F^m.

    Points are enumerated in lexicographic order of their coordinate tuples,
    monomials in graded lexicographic order.  Requires nu < q.
    """
    q = field.q
    if as_int(m) is None or m < 1:
        raise BadArgs(f"need an integer m >= 1, got m={m!r}")
    if as_int(nu) is None or not 0 <= nu < q:
        raise DegreeOutOfRange(f"need an integer 0 <= nu < q = {q}, got nu={nu!r}")
    points = list(product(range(q), repeat=m))
    rows = []
    for e in _monomials(nu, m):
        row = []
        for pt in points:
            val = 1
            for x, exp in zip(pt, e):
                if exp:
                    val = field.mul(val, field.pow(x, exp))
            row.append(val)
        rows.append(row)
    return new_code(field, MatrixGF(field, np.array(rows, dtype=np.int64)))
