"""Small finite-field arithmetic for the benchmark's answer checks.

Written apart from ghwkit so that the checks cross-validate it.  Elements use
ghwkit's documented index encoding: the base-p digits of an index are the
coefficients, in ascending degree, of the polynomial that represents the
element modulo a monic irreducible ``modulus``.  Every field here is small
(q <= 5 in the benchmark), so addition and multiplication are q x q tables
and matrices are numpy int64 arrays of indices.
"""

from __future__ import annotations

from itertools import product

import numpy as np


class Field:
    """GF(p^s) as lookup tables; ``modulus`` is required when s > 1."""

    def __init__(self, p: int, s: int = 1, modulus: tuple[int, ...] | None = None):
        self.p, self.s, self.q = p, s, p**s
        self.modulus = tuple(modulus) if s > 1 else None
        digits = [self._digits(a) for a in range(self.q)]
        add = np.zeros((self.q, self.q), dtype=np.int64)
        mul = np.zeros((self.q, self.q), dtype=np.int64)
        for a, b in product(range(self.q), repeat=2):
            add[a, b] = self._index([(x + y) % p for x, y in zip(digits[a], digits[b])])
            mul[a, b] = self._index(self._polymulmod(digits[a], digits[b]))
        self.add, self.mul = add, mul
        self.neg = np.array([int(np.flatnonzero(add[a] == 0)[0]) for a in range(self.q)])
        self.inv = np.zeros(self.q, dtype=np.int64)
        for a in range(1, self.q):
            self.inv[a] = int(np.flatnonzero(mul[a] == 1)[0])

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**t) % self.p for t in range(self.s)]

    def _index(self, digits) -> int:
        return sum(int(d) * self.p**t for t, d in enumerate(digits))

    def _polymulmod(self, a, b) -> list[int]:
        p, s = self.p, self.s
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * s - 2, s - 1, -1):
            c = prod[top]
            if c:
                # subtract c * x^(top - s) * modulus, which clears degree top
                for i, m in enumerate(self.modulus):
                    prod[top - s + i] = (prod[top - s + i] - c * m) % p
        return prod[:s]

    def header(self) -> str:
        """The ``field:`` line of a ghwkit code file for this field."""
        head = f"field: p={self.p} s={self.s}"
        if self.s > 1:
            head += " modulus=" + ",".join(str(c) for c in self.modulus)
        return head

    # -- matrices of element indices -------------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for t in range(A.shape[1]):
            out = self.add[out, self.mul[A[:, t][:, None], B[t][None, :]]]
        return out

    def rref(self, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and its 0-based pivot columns."""
        A = np.array(M, dtype=np.int64, copy=True)
        rows, cols = A.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.flatnonzero(A[r:, c])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            A[[r, i]] = A[[i, r]]
            A[r] = self.mul[self.inv[A[r, c]], A[r]]
            for i in range(rows):
                if i != r and A[i, c]:
                    A[i] = self.add[A[i], self.mul[self.neg[A[i, c]], A[r]]]
            pivots.append(c)
            r += 1
        return A, pivots

    def rank(self, M: np.ndarray) -> int:
        M = np.asarray(M)
        if M.size == 0:
            return 0
        return len(self.rref(M)[1])

    def systematic(self, G: np.ndarray, info_set) -> np.ndarray:
        """The generator matrix of G's row space that is the identity on the
        0-based columns ``info_set``; raises ValueError if they are not an
        information set."""
        k, n = G.shape
        cols = list(info_set)
        rest = [c for c in range(n) if c not in set(cols)]
        R, piv = self.rref(G[:, cols + rest])
        if len(cols) != k or piv != list(range(k)):
            raise ValueError("columns do not form an information set")
        out = np.empty_like(R)
        out[:, cols + rest] = R
        return out

    def codewords(self, G: np.ndarray) -> np.ndarray:
        """All q^k codewords of the row space of G, as a (q^k, n) array
        whose row 0 is the zero word."""
        G = np.asarray(G, dtype=np.int64)
        words = np.zeros((1, G.shape[1]), dtype=np.int64)
        scalars = np.arange(self.q)
        for g in G:
            multiples = self.mul[scalars[:, None], g[None, :]]  # (q, n)
            words = self.add[words[None, :, :], multiples[:, None, :]].reshape(-1, G.shape[1])
        return words

    def random_full_rank(self, rng: np.random.Generator, k: int, n: int) -> np.ndarray:
        """Draw k x n matrices from ``rng`` until one has rank k."""
        while True:
            G = rng.integers(0, self.q, (k, n))
            if self.rank(G) == k:
                return G


F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2, (1, 1, 1))
F5 = Field(5)
FIELDS = {2: F2, 3: F3, 4: F4, 5: F5}


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^k (0 outside 0 <= r <= k)."""
    if not 0 <= r <= k:
        return 0
    num = den = 1
    for i in range(r):
        num *= q**k - q**i
        den *= q**r - q**i
    return num // den


def weights(words: np.ndarray) -> np.ndarray:
    return (np.asarray(words) != 0).sum(axis=1)


def support_masks(words: np.ndarray) -> np.ndarray:
    """Supports of words of length <= 64 as uint64 bit masks."""
    words = np.asarray(words)
    bits = np.uint64(1) << np.arange(words.shape[1], dtype=np.uint64)
    return ((words != 0).astype(np.uint64) * bits).sum(axis=1, dtype=np.uint64)
