import tracemalloc

import numpy as np
import pytest

from ghwkit.cli import parse_code_file
from ghwkit.errors import (
    BadArgs,
    CodeFileFieldError,
    DivisionByZero,
    FieldTooLarge,
    NonPrime,
    ReducibleModulus,
    WrongDegree,
)
from ghwkit.gf import AXPY_MAX_Q, MAX_Q, FiniteField, _factorize, build_field, default_modulus, is_prime
from ghwkit.matrix import rref_array

from support import poly_add, poly_mul_mod


def test_build_prime_fields():
    F2 = build_field(2, 1)
    assert (F2.p, F2.s, F2.q) == (2, 1, 2)
    assert F2.modulus is None
    F5 = build_field(5)
    assert F5.q == 5


def test_build_gf4_with_modulus():
    F4 = build_field(2, 2, [1, 1, 1])
    assert F4.q == 4
    assert F4.modulus == (1, 1, 1)
    # irreducibility cross-check: x^2+x+1 has no root in GF(2)
    for x in (0, 1):
        assert (1 + x + x * x) % 2 == 1


def test_build_rejects_composite_characteristic():
    with pytest.raises(NonPrime):
        build_field(4, 1)
    with pytest.raises(NonPrime):
        build_field(1, 1)


@pytest.mark.parametrize("args", [
    (2.0,), (True,), ("2",), (None,), (2, 2.0), (3, True), (2, "2"),
    (2, 2, [1, 1.7, 1]), (2, 2, ["1", "1", "1"]), (2, 2, [1, True, 1]), (2, 2, [1, 1, None]),
], ids=repr)
def test_build_field_takes_only_integers(args):
    # floats, bools and strings are refused, not truncated, read as 1 or left
    # to a TypeError; numpy integers pass and the field holds plain ints, so
    # q**w cannot wrap and the cached field is the one built from ints
    with pytest.raises(BadArgs):
        build_field(*args)
    F = build_field(np.int64(2), np.int8(4), np.array([1, 1, 0, 0, 1]))
    assert F is build_field(2, 4, [1, 1, 0, 0, 1])
    assert all(type(x) is int for x in (F.p, F.s, F.q, *F.modulus))
    assert build_field(np.int64(5)) is build_field(5) and type(build_field(np.int64(5)).q) is int


def test_an_oversize_field_is_refused_before_any_arithmetic(monkeypatch):
    # q > MAX_Q is refused before p is factored (trial division takes time
    # growing as sqrt(p)) and, for s >= 17, before p**s is computed
    def guarded(n):
        assert n <= MAX_Q, f"factored {n}"
        return _factorize(n)

    monkeypatch.setattr("ghwkit.gf._factorize", guarded)
    for p, s in ((2, 10**9), (2, 17), (3, 11), (4, 9), (MAX_Q + 1, 1), (100000000000031, 1), (2**89 - 1, 1)):
        with pytest.raises(FieldTooLarge):
            build_field(p, s)
    for header in ("p=2 s=1000000000", f"p={2**89 - 1} s=1"):
        with pytest.raises(CodeFileFieldError):
            parse_code_file(f"field: {header}\n1\n")
    for p in (1, 0, -3):
        with pytest.raises(NonPrime):
            build_field(p, 10**9)
    assert build_field(2, 16).q == MAX_Q


def test_build_rejects_bad_modulus():
    with pytest.raises(WrongDegree):
        build_field(2, 2, [1, 1])  # wrong length
    with pytest.raises(WrongDegree):
        build_field(2, 3, [1, 1, 0, 0])  # not monic
    with pytest.raises(ReducibleModulus):
        build_field(2, 2, [1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(WrongDegree):
        build_field(5, 1, [1, 1])  # prime field takes no modulus


def test_default_modulus_is_irreducible_and_deterministic():
    for p, s in ((2, 2), (2, 3), (3, 2), (2, 4)):
        m = default_modulus(p, s)
        assert len(m) == s + 1 and m[-1] == 1
        assert m == default_modulus(p, s)
        # exhaustive check: no monic divisor of degree 1..s//2
        for d in range(1, s // 2 + 1):
            for enc in range(p**d):
                coeffs = []
                e = enc
                for _ in range(d):
                    coeffs.append(e % p)
                    e //= p
                div = tuple(coeffs) + (1,)
                # trial division via the oracle: remainder of m mod div
                rem = list(m)
                while len(rem) - 1 >= d and any(rem):
                    lead = rem[-1]
                    if lead:
                        shift = len(rem) - 1 - d
                        for i, c in enumerate(div):
                            rem[shift + i] = (rem[shift + i] - lead * c) % p
                    while rem and rem[-1] == 0:
                        rem.pop()
                assert any(rem), (p, s, div)


def test_gf4_arithmetic_examples():
    # polynomial-arithmetic oracle: index 2 = x, index 3 = x+1, modulus x^2+x+1
    F4 = build_field(2, 2, [1, 1, 1])
    assert poly_add((0, 1), (1, 1), 2) == (1, 0)  # x + (x+1) = 1
    assert F4.add(2, 3) == 1
    assert poly_mul_mod((0, 1), (0, 1), (1, 1, 1), 2) == (1, 1)  # x*x = x+1
    assert F4.mul(2, 2) == 3
    # inverse by exhaustive search
    inv2 = next(b for b in range(1, 4) if F4.mul(2, b) == 1)
    assert inv2 == 3
    assert F4.inv(2) == 3


def test_prime_field_matches_integers_mod_p():
    for p in (2, 3, 5, 7, 13):
        F = build_field(p)
        for a in range(p):
            for b in range(p):
                assert F.add(a, b) == (a + b) % p
                assert F.mul(a, b) == (a * b) % p
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == 1
    assert build_field(5).add(3, 4) == 2
    assert build_field(5).mul(2, 4) == 3
    assert build_field(5).inv(2) == 3


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (13, 1), (11, 1)])
def test_field_axioms_exhaustive(p, s):
    F = build_field(p, s)
    q = F.q
    assert q <= 16 or s == 1
    if q > 16:
        return
    elems = range(q)
    for a in elems:
        assert F.add(a, 0) == a and F.mul(a, 1) == a and F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert 0 <= F.add(a, b) < q and 0 <= F.mul(a, b) < q
            for c in elems:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1


def test_extension_mul_matches_polynomial_oracle():
    for p, s in ((2, 2), (2, 3), (3, 2)):
        F = build_field(p, s)
        mod = F.modulus
        for a in range(F.q):
            for b in range(F.q):
                da = tuple(int(x) for x in F.digits[a])
                db = tuple(int(x) for x in F.digits[b])
                expect = poly_mul_mod(da, db, mod, p)
                got = tuple(int(x) for x in F.digits[F.mul(a, b)])
                assert got == expect, (p, s, a, b)
                assert F.add(a, b) == int(
                    np.dot(poly_add(da, db, p), F.pow_p)
                )


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        build_field(3).inv(0)
    with pytest.raises(DivisionByZero):
        build_field(2, 2).pow(0, -1)


def test_vector_ops_match_scalar_ops():
    rng = np.random.default_rng(3)
    for p, s in ((2, 1), (5, 1), (2, 2), (3, 2), (2, 3)):
        F = build_field(p, s)
        X = rng.integers(0, F.q, 40)
        Y = rng.integers(0, F.q, 40)
        add = F.add_arrays(X, Y)
        mul = F.mul_arrays(X, Y)
        neg = F.neg_arrays(X)
        for i in range(40):
            assert add[i] == F.add(int(X[i]), int(Y[i]))
            assert mul[i] == F.mul(int(X[i]), int(Y[i]))
            assert neg[i] == F.neg(int(X[i]))


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (2, 8)])
def test_mul_arrays_matches_scalar_mul_on_every_pair(p, s):
    F = build_field(p, s)
    X, Y = np.meshgrid(np.arange(F.q), np.arange(F.q), indexing="ij")
    got = F.mul_arrays(X, Y)
    assert got.dtype == np.int64 and got.shape == (F.q, F.q)
    assert got.tolist() == [[F.mul(a, b) for b in range(F.q)] for a in range(F.q)]


def test_mul_arrays_matches_scalar_mul_over_gf65536():
    F = build_field(2, 16)
    rng = np.random.default_rng(16)
    X = rng.integers(0, F.q, 3000)
    Y = rng.integers(0, F.q, 3000)
    X[:20], Y[20:40], X[40:50], Y[40:50] = 0, 0, 0, 0
    X[50:60], Y[60:70] = F.q - 1, F.q - 1
    got = F.mul_arrays(X, Y)
    assert got.dtype == np.int64 and got.shape == X.shape
    assert got.tolist() == [F.mul(a, b) for a, b in zip(X.tolist(), Y.tolist())]


def test_mul_arrays_broadcasts():
    rng = np.random.default_rng(8)
    for p, s in ((2, 1), (5, 1), (2, 2), (3, 2), (2, 3)):
        F = build_field(p, s)
        row = rng.integers(0, F.q, 7)
        cases = [
            (np.int64(F.q - 1), row),
            (np.array(0), row),
            (row, np.asarray(F.q - 1)),
            (rng.integers(0, F.q, (4, 1)), row),
            (rng.integers(0, F.q, (3, 4, 1)), rng.integers(0, F.q, (3, 1, 5))),
        ]
        for X, Y in cases:
            got = F.mul_arrays(X, Y)
            Xb, Yb = np.broadcast_arrays(X, Y)
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.shape == Xb.shape
            expect = [F.mul(a, b) for a, b in zip(Xb.ravel().tolist(), Yb.ravel().tolist())]
            assert got.ravel().tolist() == expect, (p, s, X.shape, Y.shape)


# (A's shape, B's shape): A larger than B, A smaller than B (multiplied as
# (B^T A^T)^T over extension fields), equal sizes, an empty inner dimension,
# 1 x 1, and operands of similar size with a long inner dimension
MATMUL_SHAPES = [
    ((9, 3), (3, 2)),
    ((3, 5), (5, 4)),
    ((2, 3), (3, 9)),
    ((3, 5), (5, 3)),
    ((3, 0), (0, 4)),
    ((1, 1), (1, 1)),
    ((64, 130), (130, 60)),
]


def test_matmul_matches_scalar_accumulation():
    rng = np.random.default_rng(5)
    fields = [(2, 1), (3, 1), (13, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 5), (2, 8), (2, 16)]
    for p, s in fields:
        F = build_field(p, s)
        for a_shape, b_shape in MATMUL_SHAPES:
            A = rng.integers(0, F.q, a_shape)
            B = rng.integers(0, F.q, b_shape)
            C = F.matmul(A, B)
            assert C.dtype == np.int64 and C.shape == (a_shape[0], b_shape[1])
            # every entry of the small products, 40 sampled of the large ones
            pairs = [(i, j) for i in range(C.shape[0]) for j in range(C.shape[1])]
            if len(pairs) > 40:
                pairs = [pairs[t] for t in rng.choice(len(pairs), 40, replace=False)]
            for i, j in pairs:
                acc = 0
                for l in range(a_shape[1]):
                    acc = F.add(acc, F.mul(int(A[i, l]), int(B[l, j])))
                assert C[i, j] == acc, (p, s, a_shape, b_shape, i, j)


def test_matmul_builds_its_blocks_from_the_smaller_operand():
    # blocks from B here would take s^2 * 8 = 2 KiB per entry of B, 134 MB
    F = build_field(2, 16)
    rng = np.random.default_rng(0)
    A, B = rng.integers(0, F.q, (2, 2)), rng.integers(0, F.q, (2, 32768))
    tracemalloc.start()
    try:
        F.matmul(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_pow_and_generator():
    for p, s in ((7, 1), (2, 3), (3, 2)):
        F = build_field(p, s)
        g = F.generator
        seen = {F.pow(g, e) for e in range(F.q - 1)}
        assert seen == set(range(1, F.q))
        assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0


@pytest.mark.parametrize("p, s", [(2, 8), (3, 5)])
def test_exp_table_steps_by_the_generator(p, s):
    # the table is filled by doubling; each entry must still be the previous
    # one times the generator, by polynomial arithmetic
    F = build_field(p, s)
    exp = F.exp_table.tolist()
    assert len(exp) == F.q - 1 and sorted(exp) == list(range(1, F.q))
    for i in range(F.q - 2):
        assert exp[i + 1] == F._mul_poly(exp[i], F.generator), i
    assert F._mul_poly(exp[-1], F.generator) == 1
    assert F.log_table[exp].tolist() == list(range(F.q - 1))


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (31, 1)])
def test_axpy_table_is_x_minus_f_times_y(p, s):
    F = build_field(p, s)
    q, T = F.q, F.axpy_table
    assert q <= AXPY_MAX_Q and T.dtype == np.int64 and T.shape == (q, q, q)
    want = [[[F.add(x, F.neg(F.mul(f, y))) for y in range(q)] for x in range(q)] for f in range(q)]
    assert T.tolist() == want


def test_row_operations_match_scalar_arithmetic():
    rng = np.random.default_rng(29)
    for p, s in ((3, 1), (2, 3), (3, 2), (2, 8), (3, 5), (37, 1)):
        F = build_field(p, s)
        f, X, Y = rng.integers(0, F.q, (4, 1)), rng.integers(0, F.q, (4, 9)), rng.integers(0, F.q, 9)
        got = F.axpy_arrays(f, X, Y)
        assert got.dtype == np.int64
        assert got.tolist() == [[F.sub(x, F.mul(int(f[i, 0]), y)) for x, y in zip(X[i].tolist(), Y.tolist())]
                                for i in range(4)]
        for c in range(F.q) if F.q < 50 else (0, 1, F.q - 1):
            assert F.scale_arrays(c, Y).tolist() == [F.mul(c, y) for y in Y.tolist()]


def test_axpy_table_is_built_once_per_field(monkeypatch):
    builds = []
    real = FiniteField._axpy_table

    def counted(self):
        builds.append(self.q)
        return real(self)

    monkeypatch.setattr(FiniteField, "_axpy_table", counted)
    rng = np.random.default_rng(30)
    # fresh objects, not build_field's cached ones; past the cap there is no
    # table, and row operations take the log/exp arithmetic
    fields = [FiniteField(3, 1, None), FiniteField(2, 8, build_field(2, 8).modulus),
              FiniteField(2, 16, build_field(2, 16).modulus)]
    assert builds == [3]
    for F in fields:
        for _ in range(3):
            rref_array(F, rng.integers(0, F.q, (4, 6)))
            F.axpy_arrays(np.int64(2), rng.integers(0, F.q, 5), rng.integers(0, F.q, 5))
            F.scale_arrays(2, rng.integers(0, F.q, 5))
    assert builds == [3]
    assert fields[1].axpy_table is None and fields[2].axpy_table is None


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_validate_range():
    F = build_field(3)
    with pytest.raises(BadArgs):
        F.validate(3)
    assert F.validate(2) == 2


def test_field_too_large_rejected():
    with pytest.raises(ValueError):
        build_field(2, 17)
