"""Arithmetic for finite fields GF(p^s) with an integer element encoding.

Elements are plain Python ints in ``[0, q)``.  The base-p digits of an index
are the coefficients (ascending degree) of the polynomial representing the
element, so index 0 is the additive identity and index 1 the multiplicative
identity.  For prime fields (s = 1) the encoding coincides with integers
mod p.

The row operation X − f·Y of an elimination comes from a per-field table
``axpy_table[f, x, y] = x − f·y`` of q³ entries, built with the field when
q <= AXPY_MAX_Q = 32 (256 KiB).  For q <= PACKED_MAX_Q = 16 its entries
also fit a nibble, and ``axpy_bytes[f]`` is the same table as 256 bytes
indexed by x<<4 | y: the one ``bytes.translate`` that runs X − f·Y on a
row packed one byte per entry (``ghwkit.matrix``).  On index arrays
(:meth:`FiniteField.axpy_arrays`, :meth:`FiniteField.scale_arrays`) the
operation is one gather from ``axpy_table``, which serves the search's
batched independence test (``ghwkit.ghw._independent``) and the
eliminations over 16 < q <= 32; larger fields keep the log/exp
arithmetic.

A :class:`FiniteField` is immutable after construction; all operations are
pure and the object can be shared freely between threads.
"""

from __future__ import annotations

from functools import cache
from operator import index

import numpy as np

from .errors import BadArgs, DivisionByZero, FieldTooLarge, NonPrime, ReducibleModulus, WrongDegree

MAX_Q = 1 << 16
AXPY_MAX_Q = 32  # largest q with a row-operation table: q^3 int64 entries, 256 KiB
PACKED_MAX_Q = 16  # largest q whose entries fit a nibble: byte tables for packed rows


def is_prime(n: int) -> bool:
    return n >= 2 and _factorize(n) == [n]


def as_int(x) -> int | None:
    """``x`` as an int through operator.index, so that numpy integers pass,
    or None for a bool, a float or any other non-integer."""
    if isinstance(x, bool):
        return None
    try:
        return index(x)
    except TypeError:
        return None


# -- polynomial helpers over GF(p), coefficient tuples in ascending degree --
# Used to bootstrap extension fields before any lookup table exists.


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(_poly_trim(a))
    dm = len(m) - 1
    lead_inv = pow(m[dm], p - 2, p)
    while len(a) - 1 >= dm and a:
        factor = a[-1] * lead_inv % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            div = _decode_poly(enc, p, d) + (1,)
            if not _poly_mod(m, div, p):
                return False
    return True


def _decode_poly(enc: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(enc % p)
        enc //= p
    return tuple(out)


@cache
def default_modulus(p: int, s: int) -> tuple[int, ...]:
    """First irreducible monic polynomial of degree s over GF(p), scanning
    coefficient vectors in ascending base-p integer encoding; found once per
    process for each (p, s)."""
    for enc in range(p**s):
        cand = _decode_poly(enc, p, s) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FiniteField:
    """GF(p^s) with precomputed digit / discrete-log tables.

    Array products over extension fields are one table gather,
    ``_exp2[_zlog[X] + _zlog[Y]]``.  ``_zlog`` is ``log_table`` with zero's
    log set to the sentinel 2(q-1); ``_exp2`` is ``exp_table`` twice
    followed by 2(q-1)+1 zeros.  Two nonzero logs sum below 2(q-1), where
    ``_exp2`` repeats ``exp_table``; a zero factor lifts the sum to 2(q-1)
    or more, where it reads 0.  A matrix product is one integer matmul
    against blocks of multiplication matrices M_b (see :meth:`matmul`).

    Use :func:`build_field` rather than instantiating directly; it validates
    arguments and caches field objects.
    """

    def __init__(self, p: int, s: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = modulus  # None for s == 1

        q = self.q
        self.pow_p = np.array([p**t for t in range(s)], dtype=np.int64)
        idx = np.arange(q, dtype=np.int64)
        digits = np.empty((q, s), dtype=np.int64)
        for t in range(s):
            digits[:, t] = idx % p
            idx = idx // p
        self.digits = digits

        self._build_log_tables()

        neg_digits = (p - self.digits) % p
        self.neg_table = (neg_digits @ self.pow_p).astype(np.int64)

        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = self.exp_table[(q - 1 - self.log_table[1:]) % (q - 1)]
        self.inv_table = inv

        self.axpy_table = self._axpy_table() if q <= AXPY_MAX_Q else None
        self.axpy_bytes = self._axpy_bytes() if q <= PACKED_MAX_Q else None

    # -- construction helpers -------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """Polynomial-arithmetic product of two element indices; table-free."""
        p = self.p
        prod = _poly_mul(tuple(self.digits[a].tolist()), tuple(self.digits[b].tolist()), p)
        if self.modulus is not None:
            prod = _poly_mod(prod, self.modulus, p)
        return sum(c * p**t for t, c in enumerate(prod))

    def _pow_poly(self, a: int, e: int) -> int:
        res, base = 1, a
        while e:
            if e & 1:
                res = self._mul_poly(res, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return res

    def _build_log_tables(self) -> None:
        q = self.q
        order = q - 1
        gen = 1
        if order > 1:
            primes = _factorize(order)
            for cand in range(2, q):
                if all(self._pow_poly(cand, order // ell) != 1 for ell in primes):
                    gen = cand
                    break
        self.generator = gen
        # exp[2^t : 2^(t+1)] = exp[:2^t] * g^(2^t), doubling the filled prefix
        exp = np.empty(order, dtype=np.int64)
        exp[0] = 1
        size, power = 1, gen
        while size < order:
            hi = min(2 * size, order)
            exp[size:hi] = self._times_constant(exp[: hi - size], power)
            size, power = hi, self._mul_poly(power, power)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(order)
        self.exp_table = exp
        self.log_table = log
        self._zlog = log.copy()
        self._zlog[0] = 2 * order
        self._exp2 = np.concatenate([exp, exp, np.zeros(2 * order + 1, dtype=np.int64)])

    def _axpy_table(self) -> np.ndarray:
        """x − f·y for every (f, x, y), a (q, q, q) array indexed [f, x, y],
        from the log/exp arithmetic."""
        e = np.arange(self.q, dtype=np.int64)
        return self.add_arrays(e[None, :, None], self.mul_arrays(self.neg_table[:, None, None], e))

    def _axpy_bytes(self) -> tuple[bytes, ...]:
        """``axpy_table`` for nibbles: for each f, 256 bytes taking x<<4 | y
        to x − f·y (0 where x or y is not an element)."""
        T = np.zeros((self.q, 16, 16), dtype=np.uint8)
        T[:, : self.q, : self.q] = self.axpy_table
        return tuple(t.tobytes() for t in T)

    def _times_constant(self, X: np.ndarray, c: int) -> np.ndarray:
        """The elements X times the constant c, table-free: multiplying by c
        is the GF(p)-linear map of digit vectors whose matrix M_c has in row
        u the digits of x^u * c."""
        p = self.p
        if self.s == 1:
            return X * c % p
        M = self.digits[[self._mul_poly(p**u, c) for u in range(self.s)]]
        return (self.digits[X] @ M % p) @ self.pow_p

    # -- scalar operations ------------------------------------------------

    def validate(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise BadArgs(f"element index {a} out of range for GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        d = (self.digits[a] + self.digits[b]) % self.p
        return int(d @ self.pow_p)

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("zero has no multiplicative inverse")
            return 0
        return int(self.exp_table[(int(self.log_table[a]) * e) % (self.q - 1)])

    # -- vectorized operations on index arrays -----------------------------

    def add_arrays(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64)
        Y = np.asarray(Y, dtype=np.int64)
        if self.s == 1:
            return (X + Y) % self.p
        if self.p == 2:
            return X ^ Y
        d = (self.digits[X] + self.digits[Y]) % self.p
        return d @ self.pow_p

    def neg_arrays(self, X: np.ndarray) -> np.ndarray:
        return self.neg_table[np.asarray(X, dtype=np.int64)]

    def mul_arrays(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64)
        Y = np.asarray(Y, dtype=np.int64)
        if self.s == 1:
            return X * Y % self.p
        return self._exp2[self._zlog[X] + self._zlog[Y]]

    def axpy_arrays(self, F: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """X − F·Y, broadcast: the row operation of an elimination.  One
        gather from ``axpy_table`` when the field has one, else X plus the
        product of −F and Y."""
        if self.axpy_table is not None:
            return self.axpy_table[F, X, Y]
        return self.add_arrays(X, self.mul_arrays(self.neg_arrays(F), Y))

    def scale_arrays(self, f: int, Y: np.ndarray) -> np.ndarray:
        """f·Y for one element f: 0 − (−f)·Y, one gather from ``axpy_table``
        when the field has one."""
        if self.axpy_table is not None:
            return self.axpy_table[self.neg_table[f], 0, Y]
        return self.mul_arrays(np.int64(f), Y)

    @staticmethod
    def _int_matmul(A: np.ndarray, B: np.ndarray, bound: int) -> np.ndarray:
        # Exact float64 matmul rides BLAS (and releases the GIL) whenever the
        # largest possible accumulator stays below 2^53.
        if bound * bound * A.shape[-1] < (1 << 53):
            return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
        return A @ B

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product of two index-encoded arrays over this field.

        Multiplying by b is the GF(p)-linear map M_b of digit vectors, row u
        holding the digits of x^u * b.  So over an extension field the
        product is one integer matmul of A's digits, flattened to
        (..., k*s), against the (k*s, n*s) matrix whose block (i, j) is
        M_{B[i, j]}, reduced mod p.  Those blocks hold s^2 entries per
        element, so they are built from the smaller operand: a 2-D A with
        fewer entries than B is multiplied as (B^T A^T)^T."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.shape[-1] != B.shape[0]:
            raise BadArgs(f"inner dimensions differ: {A.shape} x {B.shape}")
        if self.s == 1:
            return self._int_matmul(A, B, self.p - 1) % self.p
        if A.ndim == 2 and A.size < B.size:
            return self._block_matmul(B.T, A.T).T
        return self._block_matmul(A, B)

    def _block_matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        s, p = self.s, self.p
        (k, n), lead = B.shape, A.shape[:-1]
        blocks = self.digits[self.mul_arrays(self.pow_p[:, None, None], B)]  # [u, i, j, t]
        blocks = blocks.transpose(1, 0, 2, 3).reshape(k * s, n * s)
        prod = self._int_matmul(self.digits[A].reshape(lead + (k * s,)), blocks, p - 1)
        return (prod.reshape(lead + (n, s)) % p) @ self.pow_p

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.s, self.modulus))

    def __repr__(self) -> str:
        if self.s == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.s}; modulus={list(self.modulus)})"


@cache
def _cached_field(p: int, s: int, modulus: tuple[int, ...] | None) -> FiniteField:
    return FiniteField(p, s, modulus)


def build_field(p: int, s: int = 1, modulus=None) -> FiniteField:
    """Construct GF(p^s).

    If ``modulus`` (length s+1, ascending coefficients, monic) is omitted for
    s > 1, the default irreducible polynomial is chosen deterministically by
    scanning coefficient encodings in ascending order.  ``p``, ``s`` and the
    coefficients go through :func:`as_int`, so the field holds plain ints.
    """
    given = p, s
    p, s = map(as_int, given)
    if None in (p, s):
        raise BadArgs("need integers p and s, got p={!r}, s={!r}".format(*given))
    if s < 1:
        raise BadArgs(f"extension degree must be >= 1, got {s}")
    # q > MAX_Q is refused before p is factored, and for s >= 17, where
    # q >= 2^17, before p**s is computed
    if p >= 2 and (s >= MAX_Q.bit_length() or p**s > MAX_Q):
        raise FieldTooLarge(f"fields with q > {MAX_Q} are not supported")
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if s == 1:
        if modulus is not None:
            raise WrongDegree("prime fields take no modulus")
        return _cached_field(p, 1, None)
    if modulus is None:
        modulus = default_modulus(p, s)
    else:
        given = list(modulus)
        modulus = tuple(map(as_int, given))
        if None in modulus:
            raise BadArgs(f"modulus coefficients must be integers, got {given!r}")
        if len(modulus) != s + 1:
            raise WrongDegree(f"modulus must have length {s + 1}, got {len(modulus)}")
        if any(not 0 <= c < p for c in modulus):
            raise WrongDegree("modulus coefficients must lie in [0, p)")
        if modulus[s] != 1:
            raise WrongDegree("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"{list(modulus)} is reducible over GF({p})")
    return _cached_field(p, s, modulus)
