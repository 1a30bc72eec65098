import numpy as np
import pytest

from ghwkit.code import (
    bch_bound,
    code_from_rows,
    dual,
    encode_subspace,
    generator_polynomial,
    is_cyclic,
    make_rm,
    make_rs,
    new_code,
    support_weight,
)
from ghwkit.errors import (
    BadDimension,
    CharacteristicDividesLength,
    DegreeOutOfRange,
    DimensionMismatch,
    NotCyclic,
    RankDeficient,
    ZeroDual,
)
from ghwkit.gf import build_field
from ghwkit.infoset import information
from ghwkit.matrix import MatrixGF, rref_array
from ghwkit.ghw import naive_ghw

from support import (
    HAMMING_7_4,
    PAIR_A_G1,
    brute_min_weight,
    cyclic_code_from_cosets,
    random_code,
)

F2 = build_field(2)
F3 = build_field(3)
F5 = build_field(5)


def hamming():
    return code_from_rows(F2, HAMMING_7_4)


def test_new_code():
    C = new_code(F2, MatrixGF.identity(F2, 4))
    assert (C.n, C.k) == (4, 4)
    with pytest.raises(RankDeficient):
        code_from_rows(F2, [[1, 1], [1, 1]])
    C = code_from_rows(F2, PAIR_A_G1)
    assert (C.n, C.k) == (10, 5)
    with pytest.raises(DimensionMismatch):
        new_code(F3, MatrixGF.identity(F2, 2))


def test_new_code_accepts_zero_columns():
    C = code_from_rows(F2, [[1, 0, 0], [0, 0, 1]])
    assert (C.n, C.k) == (3, 2)


def test_dual_examples():
    rep = code_from_rows(F2, [[1, 1]])
    assert dual(rep).G.array.tolist() == [[1, 1]]  # self-dual

    H = dual(hamming())
    assert H.k == 3
    assert not (hamming().G @ H.G.transpose()).array.any()

    with pytest.raises(ZeroDual):
        dual(new_code(F2, MatrixGF.identity(F2, 4)))


def test_dual_is_involutive():
    rng = np.random.default_rng(23)
    for F in (F2, F3, F5):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            C = random_code(rng, F, n, k)
            DD = dual(dual(C))
            assert DD.G.rref()[0] == C.G.rref()[0]


def test_encode_subspace_and_support_weight():
    C = hamming()
    assert encode_subspace(C.G, MatrixGF.identity(F2, 4)) == C.G
    e1 = MatrixGF(F2, [[1, 0, 0, 0]])
    assert encode_subspace(C.G, e1).array.tolist() == [HAMMING_7_4[0]]
    assert support_weight(C.G, e1) == sum(HAMMING_7_4[0])
    # r = k on a code with no zero columns covers everything
    assert support_weight(C.G, MatrixGF.identity(F2, 4)) == 7
    padded = MatrixGF(F2, [[1, 0, 0], [0, 1, 0]])
    assert encode_subspace(MatrixGF.identity(F2, 3), padded).array.tolist() == [
        [1, 0, 0],
        [0, 1, 0],
    ]
    with pytest.raises(DimensionMismatch):
        encode_subspace(C.G, MatrixGF(F2, [[1, 0]]))


def test_systematic_support_weight_dominates_message_support():
    # Gj systematic on an information set: the encoded support contains the
    # image of the message support, for every message subspace.
    rng = np.random.default_rng(29)
    for F in (F2, F3):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(n, 5) + 1))
            C = random_code(rng, F, n, k)
            dec = information(C)
            for Gj in dec.mats:
                r = int(rng.integers(1, k + 1))
                RE = rng.integers(0, F.q, (r, k))
                support = int((RE != 0).any(axis=0).sum())
                assert support_weight(Gj, MatrixGF(F, RE)) >= support


def test_is_cyclic():
    assert is_cyclic(code_from_rows(F2, [[1, 1, 1]]))
    assert not is_cyclic(code_from_rows(F2, [[1, 0, 0], [0, 1, 0]]))
    assert is_cyclic(new_code(F2, MatrixGF.identity(F2, 5)))
    # cyclic form of the [7,4] Hamming code, generated by shifts of x^3+x+1
    cyc = code_from_rows(
        F2,
        [
            [1, 1, 0, 1, 0, 0, 0],
            [0, 1, 1, 0, 1, 0, 0],
            [0, 0, 1, 1, 0, 1, 0],
            [0, 0, 0, 1, 1, 0, 1],
        ],
    )
    assert is_cyclic(cyc)
    assert not is_cyclic(hamming())  # systematic form is not shift-invariant


def test_generator_polynomial():
    cyc = cyclic_code_from_cosets(F2, 7, [1])
    g = generator_polynomial(cyc)
    assert len(g) - 1 == 7 - cyc.k
    with pytest.raises(NotCyclic):
        generator_polynomial(code_from_rows(F2, [[1, 0, 0], [0, 1, 0]]))


def test_generator_polynomial_decides_cyclicity_as_is_cyclic_does():
    # random codes, and cyclic codes spanned by the shifts of a random word,
    # over GF(2..5); is_cyclic's rank test is the reference
    rng = np.random.default_rng(73)
    fields = (F2, F3, build_field(2, 2), F5)
    seen = set()
    for _ in range(400):
        F = fields[int(rng.integers(len(fields)))]
        n = int(rng.integers(2, 7))
        if rng.integers(2):
            word = rng.integers(0, F.q, n)
            R, piv = rref_array(F, np.stack([np.roll(word, t) for t in range(n)]))
            if not piv:
                continue
            C = new_code(F, MatrixGF(F, R[: len(piv)]))
        else:
            C = random_code(rng, F, n, int(rng.integers(1, n + 1)))
        cyclic = is_cyclic(C)
        seen.add(cyclic)
        if cyclic:
            assert len(generator_polynomial(C)) - 1 == n - C.k
        else:
            with pytest.raises(NotCyclic):
                generator_polynomial(C)
    assert seen == {False, True}


def test_bch_bound_examples():
    # [n, 1] repetition: defining set is everything but 0
    for F, n in ((F2, 7), (F3, 5), (F5, 4)):
        rep = code_from_rows(F, [[1] * n])
        assert bch_bound(rep) == n
    # full space: g = 1, empty defining set
    assert bch_bound(new_code(F2, MatrixGF.identity(F2, 7))) == 1
    with pytest.raises(CharacteristicDividesLength):
        bch_bound(code_from_rows(F2, [[1, 1]]))


def test_bch_bound_is_a_minimum_distance_lower_bound():
    cases = [
        (F2, 7, [1]),
        (F2, 7, [0, 1]),
        (F2, 15, [1]),
        (F2, 15, [1, 3]),
        (F2, 15, [1, 3, 5]),
        (F2, 9, [1]),
        (F3, 13, [1]),
        (F3, 8, [1, 2]),
        (F5, 8, [1]),
        (F5, 12, [1, 2]),
    ]
    for F, n, reps in cases:
        C = cyclic_code_from_cosets(F, n, reps)
        assert is_cyclic(C)
        b = bch_bound(C)
        d1 = naive_ghw(C, 1)
        assert b <= d1, (F.q, n, reps, b, d1)


def test_make_rs():
    rs1 = make_rs(F5, 1)
    assert rs1.G.array.tolist() == [[1, 1, 1, 1, 1]]
    rs = make_rs(build_field(13), 6)
    assert (rs.n, rs.k) == (13, 6)
    with pytest.raises(BadDimension):
        make_rs(build_field(2, 2), 5)
    with pytest.raises(BadDimension):
        make_rs(F5, 0)


def test_make_rs_is_mds():
    # minimum codeword weight q - k + 1, via exhaustive message enumeration
    for q, s in ((2, 1), (3, 1), (4, None), (5, 1), (7, 1), (8, None)):
        F = build_field(2, 2) if q == 4 else (build_field(2, 3) if q == 8 else build_field(q))
        for k in range(1, min(q, 4) + 1):
            C = make_rs(F, k)
            assert brute_min_weight(C) == q - k + 1, (q, k)


def test_make_rm():
    rm = make_rm(F2, 1, 2)
    assert (rm.n, rm.k) == (4, 3)
    # evaluations of {1, x1, x2} on the 4 points of GF(2)^2
    assert rm.G.array.tolist() == [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]]
    rm = make_rm(F5, 2, 2)
    assert (rm.n, rm.k) == (25, 6)
    from math import comb

    for q, nu, m in ((3, 2, 2), (5, 3, 1), (2, 1, 3)):
        F = build_field(q)
        rm = make_rm(F, nu, m)
        assert (rm.n, rm.k) == (q**m, comb(nu + m, m))
    with pytest.raises(DegreeOutOfRange):
        make_rm(F3, 3, 1)


def test_make_rm_known_minimum_distance():
    # [q^m, ...] evaluation code of degree nu has d = (q - nu) q^(m-1)
    for q, nu, m in ((2, 1, 2), (3, 1, 1), (3, 2, 1), (2, 1, 3)):
        F = build_field(q)
        C = make_rm(F, nu, m)
        assert brute_min_weight(C) == (q - nu) * q ** (m - 1), (q, nu, m)
