"""The linear-code model: validation, duals, subspace encoding, cyclicity,
the BCH bound, and evaluation-code constructors used as known-answer inputs.
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
from .gf import FiniteField, build_field
from .matrix import MatrixGF, rank_array


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
    """The orthogonal code, generated by a right-kernel basis of G."""
    if code.k == code.n:
        raise ZeroDual("the full space has a zero dual with no generator matrix")
    H = code.G.right_kernel_basis()
    return new_code(code.field, H)


def encode_subspace(Gj: MatrixGF, RE: MatrixGF) -> MatrixGF:
    """Generator matrix RE * Gj of the image of the subspace spanned by RE."""
    if RE.field != Gj.field:
        raise DimensionMismatch("matrices are over different fields")
    if RE.cols != Gj.rows:
        raise DimensionMismatch(
            f"subspace matrix has {RE.cols} columns but the generator has {Gj.rows} rows"
        )
    return RE.matmul(Gj)


def support_weight(Gj: MatrixGF, RE: MatrixGF) -> int:
    """Support size of the encoded subspace RE * Gj."""
    return encode_subspace(Gj, RE).support_size()


def is_cyclic(code: LinearCode) -> bool:
    """True iff the right cyclic shift of every generator row stays in the
    code (rank test against G)."""
    shifted = np.roll(code.G.array, 1, axis=1)
    stacked = np.vstack([code.G.array, shifted])
    return rank_array(code.field, stacked) == code.k


# -- polynomials over GF(q), coefficient lists ascending, for the BCH bound --


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(field, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    a = list(a)
    db = len(b) - 1
    inv_lead = field.inv(b[db])
    quot = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        f = field.mul(a[-1], inv_lead)
        shift = len(a) - 1 - db
        quot[shift] = f
        for i, bi in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(f, bi))
        _poly_trim(a)
    return quot, a


def _poly_gcd(field, a: list[int], b: list[int]) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(field, a, b)[1]
    if a:
        inv = field.inv(a[-1])
        a = [field.mul(c, inv) for c in a]
    return a


def _poly_eval(field, c: list[int], x: int) -> int:
    acc = 0
    for ci in reversed(c):
        acc = field.add(field.mul(acc, x), ci)
    return acc


def generator_polynomial(code: LinearCode) -> list[int]:
    """Monic generator polynomial of a cyclic code: the gcd of the row
    polynomials and x^n - 1 (column i holds the coefficient of x^(i-1)),
    which generates the least cyclic code containing this one: of dimension
    n - deg gcd, so the code is cyclic iff deg gcd = n - k."""
    field, n = code.field, code.n
    xn1 = [field.neg(1)] + [0] * (n - 1) + [1]
    g = xn1
    for row in code.G.array:
        g = _poly_gcd(field, g, _poly_trim([int(c) for c in row]))
        if g == [1]:
            break
    if len(g) - 1 != n - code.k:
        raise NotCyclic("code is not cyclic")
    return g


def _embedding(small: FiniteField, big: FiniteField):
    """Map indices of GF(p^s) into GF(p^(s*t)) via a root of the small
    modulus; the identity map for prime subfields."""
    if small.s == 1:
        return lambda a: a
    root = None
    mod = [int(c) for c in small.modulus]
    for cand in range(big.q):
        if _poly_eval(big, mod, cand) == 0:
            root = cand
            break
    assert root is not None, "modulus must split in the extension"

    def embed(a: int) -> int:
        acc = 0
        for d in reversed(small.digits[a]):
            acc = big.add(big.mul(acc, root), int(d))
        return acc

    return embed


def bch_bound(code: LinearCode) -> int:
    """BCH lower bound for the minimum distance of a cyclic code.

    Finds the defining set {i : g(alpha^i) = 0} for alpha a fixed primitive
    n-th root of unity in the smallest extension GF(q^t) with n | q^t - 1,
    and returns one plus the longest run of consecutive exponents mod n.
    """
    field, n = code.field, code.n
    if gcd(n, field.p) != 1:
        raise CharacteristicDividesLength(f"gcd({n}, {field.p}) != 1")
    g = generator_polynomial(code)
    if len(g) <= 1:
        return 1
    t = 1
    while (field.q**t - 1) % n != 0:
        t += 1
    big = build_field(field.p, field.s * t) if t > 1 or field.s > 1 else field
    embed = _embedding(field, big)
    g_big = [embed(c) for c in g]
    alpha = big.pow(big.generator, (big.q - 1) // n)
    defining = [i for i in range(n) if _poly_eval(big, g_big, big.pow(alpha, i)) == 0]
    if not defining:
        return 1
    present = [False] * n
    for i in defining:
        present[i] = True
    best = run = 0
    for i in range(2 * n):
        if present[i % n]:
            run += 1
            best = max(best, min(run, n))
        else:
            run = 0
    return best + 1


def make_rs(field: FiniteField, k: int) -> LinearCode:
    """[q, k] Reed-Solomon code: row j evaluates x^j at all q field elements
    in ascending index order.  MDS with minimum distance q - k + 1."""
    q = field.q
    if not 1 <= k <= q:
        raise BadDimension(f"need 1 <= k <= q = {q}, got k={k}")
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
    if m < 1:
        raise BadArgs(f"need m >= 1, got {m}")
    if not 0 <= nu < q:
        raise DegreeOutOfRange(f"need 0 <= nu < q = {q}, got nu={nu}")
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
