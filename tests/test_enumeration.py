import sys
import tracemalloc
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from ghwkit.enumeration import (
    DEFAULT_BLOCK,
    columns_up_to_weight,
    count_e,
    count_full_support,
    expand_to_support,
    expected_enumeration,
    gaussian_binomial,
    pivot_shapes,
    row_digits,
    subspace_blocks,
    subspace_codes,
    subspaces,
    support_choices,
)
from ghwkit.errors import BadArgs, WorkLimitExceeded
from ghwkit.gf import build_field
from ghwkit.ghw import higher_spectrum
from ghwkit.matrix import MatrixGF

from support import brute_subspaces, random_code

ENUM = sys.modules["ghwkit.enumeration"]

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F5 = build_field(5)
F8 = build_field(2, 3)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(5, 0, 3) == 1
    # 7 nonzero vectors of GF(2)^3 up to scalars
    nonzero = [v for v in range(1, 8)]
    assert gaussian_binomial(3, 1, 2) == len(nonzero) == 7
    # brute-force count of 2-dim subspaces of GF(2)^4
    assert gaussian_binomial(4, 2, 2) == len(brute_subspaces(F2, 4, 2)) == 35
    with pytest.raises(BadArgs):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(BadArgs):
        gaussian_binomial(3, 1, 1)


def test_gaussian_binomial_is_exact_bigint():
    v = gaussian_binomial(40, 20, 5)
    assert v > 2**64  # must not overflow
    assert gaussian_binomial(40, 20, 5) == gaussian_binomial(40, 40 - 20, 5)


def test_count_full_support_examples():
    for q in (2, 3, 4):
        for r in range(0, 4):
            assert count_full_support(r, r, q) == 1
    # enumerate all 7 lines of GF(2)^3, keep full support
    full = [fp for fp, M in brute_subspaces(F2, 3, 2).items()]
    full_support = [
        M for M in brute_subspaces(F2, 3, 2).values() if (np.array(M) != 0).any(axis=0).all()
    ]
    assert count_full_support(3, 2, 2) == len(full_support) == 4
    for q in (2, 3, 4, 5):
        for w in range(1, 6):
            assert count_full_support(w, 1, q) == (q - 1) ** (w - 1)


def test_count_e_examples():
    assert count_e(3, 3, 2, 2) == 4
    assert count_e(4, 3, 2, 2) == 16
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            for w in range(1, k + 1):
                assert count_e(k, w, 1, q) == comb(k, w) * (q - 1) ** (w - 1)


def test_count_e_sums_to_gaussian_binomial():
    for q in (2, 3, 4, 5):
        for k in range(0, 7):
            for r in range(0, k + 1):
                assert sum(count_e(k, w, r, q) for w in range(r, k + 1)) == gaussian_binomial(
                    k, r, q
                )


def test_expected_enumeration():
    # single term: with m=1 the bound reaches d = r+1 after the first round
    assert expected_enumeration(1, 3, 2, 4, 2) == count_e(4, 2, 2, 2)
    # upper bound of the sum is ceil(d/m) - 1
    assert expected_enumeration(2, 6, 2, 4, 2) == 2 * count_e(4, 2, 2, 2)
    assert expected_enumeration(2, 7, 2, 4, 2) == 2 * (count_e(4, 2, 2, 2) + count_e(4, 3, 2, 2))
    # empty sum when the bound is met before the first round
    assert expected_enumeration(2, 2, 2, 4, 2) == 0
    assert expected_enumeration(3, 3, 1, 5, 2) == 0
    # terms beyond w = k contribute nothing
    assert expected_enumeration(1, 10**6, 2, 4, 2) == sum(
        count_e(4, w, 2, 2) for w in range(2, 5)
    )


def test_pivot_shapes():
    assert list(pivot_shapes(1, 3)) == [(1,)]
    assert list(pivot_shapes(2, 3)) == [(1, 2), (1, 3)]
    assert list(pivot_shapes(3, 3)) == [(1, 2, 3)]
    assert len(list(pivot_shapes(3, 6))) == comb(5, 2)
    with pytest.raises(BadArgs):
        list(pivot_shapes(4, 3))


def test_columns_up_to_weight():
    assert columns_up_to_weight(2, 1, F2).tolist() == [[1, 0], [0, 1]]
    assert columns_up_to_weight(2, 2, F2).tolist() == [[1, 0], [0, 1], [1, 1]]
    v = columns_up_to_weight(2, 2, F3)
    assert v.shape == (8, 2)
    assert {tuple(row) for row in v.tolist()} == {
        (a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)
    }
    for r, z, F in ((3, 2, F3), (4, 3, F2), (3, 3, F4)):
        v = columns_up_to_weight(r, z, F)
        count = sum(comb(r, y) * (F.q - 1) ** y for y in range(1, z + 1))
        assert v.shape == (count, r)
        assert len({tuple(row) for row in v.tolist()}) == count
        assert all(1 <= (np.array(row) != 0).sum() <= z for row in v.tolist())
    with pytest.raises(BadArgs):
        columns_up_to_weight(2, 3, F2)


def test_subspaces_exact_sets():
    got = [m.array.tolist() for m in subspaces(2, 3, F2)]
    expected = [
        [[1, 0, 0], [0, 1, 1]],
        [[1, 0, 1], [0, 1, 0]],
        [[1, 0, 1], [0, 1, 1]],
        [[1, 1, 0], [0, 0, 1]],
    ]
    assert len(got) == 4
    assert {str(m) for m in got} == {str(m) for m in expected}
    # (r, r): only the identity
    for F in (F2, F3, F5):
        for r in (1, 2, 3):
            only = list(subspaces(r, r, F))
            assert len(only) == 1 and only[0] == MatrixGF.identity(F, r)
    # (1, w) over GF(2): only the all-ones row
    for w in (1, 2, 4):
        only = list(subspaces(1, w, F2))
        assert len(only) == 1 and only[0].array.tolist() == [[1] * w]


def test_subspaces_deterministic_order():
    first = [m.array.tolist() for m in subspaces(2, 4, F3)]
    second = [m.array.tolist() for m in subspaces(2, 4, F3)]
    assert first == second
    # pivot shapes appear in lexicographic order
    shapes = []
    for m in subspaces(2, 4, F2):
        _, _, piv = m.rref()
        if not shapes or shapes[-1] != piv:
            shapes.append(piv)
    assert shapes == sorted(set(shapes))


@pytest.mark.parametrize("q,F", [(2, F2), (3, F3), (4, F4)])
def test_subspaces_stream_is_complete_and_duplicate_free(q, F):
    for w in range(1, 6):
        for r in range(1, w + 1):
            seen = set()
            for m in subspaces(r, w, F):
                key = m.array.tobytes()
                assert key not in seen
                seen.add(key)
                R, rank, _ = m.rref()
                assert rank == r and R == m  # already in RREF
                assert m.support() == tuple(range(1, w + 1))
            assert len(seen) == count_full_support(w, r, q)


def test_subspace_blocks_agree_with_stream():
    total = sum(b.shape[0] for b in subspace_blocks(2, 5, F3, block_size=7))
    assert total == count_full_support(5, 2, 3)
    flat_stream = [m.array.tolist() for m in subspaces(2, 5, F3)]
    flat_blocks = [
        b[i].tolist() for b in subspace_blocks(2, 5, F3, block_size=7) for i in range(b.shape[0])
    ]
    assert flat_stream == flat_blocks


@pytest.mark.parametrize("block_size", [1, 7, DEFAULT_BLOCK])
@pytest.mark.parametrize("F", [F2, F3, F4, F5], ids=["GF2", "GF3", "GF4", "GF5"])
@pytest.mark.parametrize("r,w", [(1, 1), (3, 3), (1, 4), (2, 4), (3, 5)])
def test_subspace_codes_are_the_blocks_row_codes(block_size, F, r, w):
    # same block boundaries, each code the row's sum x_t q^t in exact ints
    blocks = list(subspace_blocks(r, w, F, block_size=block_size))
    streams = list(subspace_codes(r, w, F, block_size=block_size))
    assert len(blocks) == len(streams)
    for block, codes in zip(blocks, streams):
        assert codes.shape == block.shape[:2] and codes.dtype == np.int64
        assert np.array_equal(row_digits(codes, F.q, w), block)
        want = [[sum(int(x) * F.q**t for t, x in enumerate(row)) for row in rows] for rows in block]
        assert codes.tolist() == want
    assert sum(len(c) for c in streams) == count_full_support(w, r, F.q)


def test_row_codes_beyond_int64_are_exact():
    # 65536^5 = 2^80: the one r = w = 5 matrix is the identity
    F = build_field(2, 16)
    (codes,) = list(subspace_codes(5, 5, F))
    assert codes.tolist() == [[1, 2**16, 2**32, 2**48, 2**64]]
    assert np.array_equal(row_digits(codes, F.q, 5), np.eye(5, dtype=np.int64)[None])
    (block,) = list(subspace_blocks(5, 5, F))
    assert np.array_equal(block, np.eye(5, dtype=np.int64)[None])


def reference_code_blocks(r, w, F, block_size):
    """The stream's blocks built without subspace_codes: pivot shapes in
    lexicographic order, each shape's free-column choices by
    itertools.product (rightmost column fastest), cut into blocks of
    block_size that restart at every shape."""
    q, blocks = F.q, []
    for rest in combinations(range(2, w + 1), r - 1):
        shape = (1,) + rest
        free = [(c, sum(i < c for i in shape)) for c in range(1, w + 1) if c not in shape]
        choices = [columns_up_to_weight(z, z, F).tolist() for _, z in free]
        rows = []
        for pick in product(*choices):
            code = [q ** (i - 1) for i in shape]
            for (c, _), col in zip(free, pick):
                for t, x in enumerate(col):
                    code[t] += x * q ** (c - 1)
            rows.append(code)
        blocks += [rows[lo : lo + block_size] for lo in range(0, len(rows), block_size)]
    return blocks


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F8], ids=["GF2", "GF3", "GF4", "GF5", "GF8"])
def test_subspace_codes_match_an_independent_odometer(F):
    # every block but a shape's last holds block_size rows; the cap keeps
    # the pure-Python reference within a second per field
    for w in range(1, 6):
        for r in range(1, w + 1):
            if count_full_support(w, r, F.q) > 6000:
                continue
            for block_size in (1, 7, 64, DEFAULT_BLOCK):
                got = list(subspace_codes(r, w, F, block_size))
                assert all(c.dtype == np.int64 and c.shape[1:] == (r,) for c in got)
                assert [c.tolist() for c in got] == reference_code_blocks(r, w, F, block_size)


def test_large_q_stream_stays_blockwise():
    # GF(2^16), r = 1, w = 3: 65535^2 matrices in one shape; the first block
    # fixes column 2 at 1 and runs column 3 through 1..16384
    F = build_field(2, 16)
    tracemalloc.start()
    try:
        first = next(subspace_codes(1, 3, F))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    v = np.arange(1, DEFAULT_BLOCK + 1, dtype=np.int64)
    assert first.dtype == np.int64
    assert np.array_equal(first[:, 0], 1 + 65536 + v * 65536**2)
    assert peak < 16 * 2**20


def test_a_stream_whose_prefix_choices_overflow_intp_is_refused():
    # GF(2^16), r = 1, w = 5: four free columns of 65535 choices each, none
    # of which fits in a block, so the prefix odometer has 65535^4 > 2^63
    # states; the first next() refuses the stream before building a block
    stream = subspace_codes(1, 5, build_field(2, 16))
    with pytest.raises(WorkLimitExceeded, match="overflow intp"):
        next(stream)


def test_subspace_code_blocks_are_read_only():
    blocks = list(subspace_codes(2, 4, F3, block_size=7))
    assert len(blocks) > 1
    for codes in blocks:
        with pytest.raises(ValueError):
            codes[0, 0] = 0
    # every block, int64 or object, is read-only, and each column the kernel
    # gathers by is contiguous
    F16 = build_field(2, 16)
    streams = [(F, r, w, bs) for F in (F2, F3, F4) for r, w in ((1, 3), (2, 4), (3, 5)) for bs in (1, 7, DEFAULT_BLOCK)]
    streams += [(F16, 1, 3, 100), (F16, 4, 4, DEFAULT_BLOCK), (F16, 1, 4, 100)]
    for F, r, w, bs in streams:
        for i, codes in enumerate(subspace_codes(r, w, F, bs)):
            assert not codes.flags.writeable
            assert all(codes[:, t].flags.c_contiguous for t in range(r))
            if i == 3:
                break


def test_free_columns_are_built_once_per_process(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return columns_up_to_weight(*args)

    monkeypatch.setattr(ENUM, "columns_up_to_weight", counted)
    ENUM._nonzero.cache_clear()
    code = random_code(np.random.default_rng(5), F4, 8, 4)
    first = higher_spectrum(code)
    built = len(calls)
    assert built > 0
    assert higher_spectrum(code) == first
    assert len(calls) == built


@pytest.mark.parametrize("block_size", [0, -5])
def test_subspace_blocks_rejects_block_sizes_below_one(block_size):
    for stream in (subspace_blocks, subspace_codes):
        with pytest.raises(BadArgs):
            list(stream(2, 4, F2, block_size=block_size))


def test_support_choices():
    assert list(support_choices(3, 3)) == [(1, 2, 3)]
    assert list(support_choices(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert list(support_choices(4, 0)) == [()]


def test_expand_to_support():
    m = MatrixGF(F2, [[1, 0], [0, 1]])
    assert expand_to_support(m, [1, 2], 2) == m
    assert expand_to_support(MatrixGF(F2, [[1]]), [3], 4).array.tolist() == [[0, 0, 1, 0]]
    assert expand_to_support(MatrixGF.identity(F3, 2), [1, 3], 3).array.tolist() == [
        [1, 0, 0],
        [0, 0, 1],
    ]
    with pytest.raises(BadArgs):
        expand_to_support(m, [1], 3)
    with pytest.raises(BadArgs):
        expand_to_support(m, [2, 1], 3)
    with pytest.raises(BadArgs):
        expand_to_support(m, [1, 4], 3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_grassmannian_coverage_against_brute_force(k):
    for r in range(1, k + 1):
        mine = set()
        for w in range(r, k + 1):
            for S in support_choices(k, w):
                for m in subspaces(r, w, F2):
                    e = expand_to_support(m, S, k)
                    key = tuple(map(tuple, e.array.tolist()))
                    assert key not in mine
                    mine.add(key)
        # brute force canonicalizes every r-tuple of vectors to its RREF, so
        # the emitted representatives must be exactly those canonical forms
        brute = brute_subspaces(F2, k, r)
        assert len(mine) == len(brute) == gaussian_binomial(k, r, 2)
        assert mine == set(brute.keys())
