"""The support-mask kernel against the plain matmul path.

The kernel weighs subspaces by OR-ing packed row-support masks looked up in
per-support-set tables, of all q^w messages when they fit the table cap and
else of each block's distinct rows; the plain path, which only the naive
oracles take, encodes every (block, support set, matrix) triple with one
matmul.
Every round must agree exactly with the plain path in both table modes: the
bound, the witness and the subspace count.  Every spectrum must agree in
both modes.  Over GF(2^s) the tables of all messages are built by XOR
doubling, with no product, and must equal the product's byte for byte.
"""

import sys
from contextlib import contextmanager
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.code import code_from_rows
from ghwkit.enumeration import gaussian_binomial, row_digits, subspace_blocks, subspace_codes
from ghwkit.gf import FiniteField, build_field
from ghwkit.ghw import (
    ComputeOptions,
    ghw,
    higher_spectrum,
    hierarchy,
    naive_ghw,
    naive_rghw,
    rhierarchy,
    rhigher_spectrum,
)
from ghwkit.infoset import information
from ghwkit.matrix import rank_array

from support import brute_rspectrum, brute_spectrum, random_code, random_nested_pair

GHW = sys.modules["ghwkit.ghw"]
F2, F3, F4, F5 = build_field(2), build_field(3), build_field(2, 2), build_field(5)
F8, F9, F16 = build_field(2, 3), build_field(3, 2), build_field(2, 4)
F256, F65536 = build_field(2, 8), build_field(2, 16)


@contextmanager
def budgets(gather=None, table=None):
    """Override the kernel's gather chunk budget and table byte cap."""
    with mock.patch.object(GHW, "_GATHER_ELEMS", gather or GHW._GATHER_ELEMS), \
            mock.patch.object(GHW, "_TABLE_BYTES", GHW._TABLE_BYTES if table is None else table):
        yield


def _witness_key(wit):
    if wit is None:
        return None
    return wit.subspace.array.tolist(), wit.mat_index, wit.weight


def _check_round(c1, c2, r, w, sel, upper, stop):
    """One round through the plain path and through the kernel, at the
    default table cap and with a cap of 0, which tabulates every block's
    distinct rows; returns the plain path's (upper, witness, subspaces)."""
    field, k = c1.field, c1.k
    mats = [M.array for M in information(c1).mats]
    h2t, _ = GHW._nested_pair(c1, c2)
    ghs = None if h2t is None else [field.matmul(M, h2t) for M in mats]
    want = GHW._scan_round(field, mats, sel, r, w, k, upper, None, h2t, stop)
    for table in (None, 0):
        with budgets(table=table):
            got = GHW._scan_kernel(field, mats, ghs, sel, r, w, k, upper, None, stop)
        assert (got[0], _witness_key(got[1]), got[2]) == (want[0], _witness_key(want[1]), want[2])
    return want


def _check_spectrum(c1, c2):
    """The whole spectrum, and its round events, at the default table cap
    and per block."""
    spectra = []
    for table in (None, 0):
        events = []
        opts = ComputeOptions(progress=events.append)
        with budgets(table=table):
            sp = higher_spectrum(c1, opts) if c2 is None else rhigher_spectrum(c1, c2, opts)
        spectra.append((sp.counts, [(e.r, e.w, e.subspaces) for e in events]))
    assert spectra[0] == spectra[1]


@pytest.mark.parametrize("gather", [1, None], ids=["chunk1", "default"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4, F5, F8, F9, F16]), st.data())
def test_kernel_matches_plain_path(gather, F, data):
    k1 = data.draw(st.integers(2, 6 if F.q == 2 else 4 if F.q <= 5 else 3), label="k1")
    n = data.draw(st.integers(k1, 13), label="n")
    k2 = data.draw(st.integers(0, k1 - 1), label="k2")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if k2:
        c1, c2 = random_nested_pair(rng, F, n, k1, k2)
    else:
        c1, c2 = random_code(rng, F, n, k1), None
    r = data.draw(st.integers(1, k1 - k2), label="r")
    w = data.draw(st.integers(r, k1), label="w")
    nmats = len(information(c1).mats)
    sel = data.draw(st.lists(st.integers(0, nmats - 1), min_size=1, unique=True), label="sel")
    upper = data.draw(st.integers(1, n + 1), label="upper")
    stop = data.draw(st.none() | st.integers(0, n), label="stop")
    with budgets(gather=gather):
        _check_round(c1, c2, r, w, sorted(sel), upper, stop)
        _check_spectrum(c1, c2)


@pytest.mark.parametrize("gather", [1, None], ids=["chunk1", "default"])
def test_kernel_on_the_scan_mixed_pair_shape(gather):
    # GF(2) [12,5] > [12,1], the shape of the benchmark's binary rhierarchy
    # queries, through every matrix of its decomposition and every round
    for seed in range(3):
        c1, c2 = random_nested_pair(np.random.default_rng(seed), F2, 12, 5, 1)
        sel = list(range(len(information(c1).mats)))
        assert len(sel) > 1
        with budgets(gather=gather):
            for r in range(1, 5):
                for w in range(r, 6):
                    for upper, stop in ((13, None), (12 - r, r + 2), (7, None)):
                        _check_round(c1, c2, r, w, sel, upper, stop)
            _check_spectrum(c1, c2)


def _own_tables(field, codes, G, gh, n, w):
    """The masks and syndromes of the messages with row ``codes`` on the w
    rows G of a matrix (gh of its syndrome matrix, or None), from their
    definitions: the support of row_digits(x)·G packed little-endian into
    ceil(n/64) uint64 words, and row_digits(x)·gh."""
    X = row_digits(np.asarray(codes), field.q, w)
    packed = np.zeros((len(X), -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(field.matmul(X, G) != 0, axis=1, bitorder="little")
    return packed.view("<u8"), None if gh is None else field.matmul(X, gh)


@pytest.mark.parametrize(
    "F, n, k1, k2",
    [(F2, 12, 5, 0), (F2, 12, 5, 2), (F3, 9, 4, 0), (F3, 9, 4, 1), (F4, 8, 4, 0), (F4, 8, 4, 2),
     (F8, 7, 3, 0), (F8, 7, 3, 1), (F2, 70, 5, 2)],
    ids=["GF2", "GF2-C2", "GF3", "GF3-C2", "GF4", "GF4-C2", "GF8", "GF8-C2", "GF2-C2-n70"],
)
def test_tables_are_message_major(F, n, k1, k2):
    # a round's tables of all messages hold message x on support set s
    # through selected matrix j at masks[x, s, j] and syn[x, s, j]; per
    # block, chunk tables hold stream row codes[i, t] at rows[i, t]
    rng = np.random.default_rng(n + 10 * k1 + k2)
    c1, c2 = random_nested_pair(rng, F, n, k1, k2) if k2 else (random_code(rng, F, n, k1), None)
    mats = [M.array for M in information(c1).mats]
    h2t = None if c2 is None else GHW._nested_pair(c1, c2)[0]
    ghs = None if h2t is None else [F.matmul(M, h2t) for M in mats]
    sel, words = list(range(len(mats))), -(-n // 64)

    def own(codes, j, S, w):
        return _own_tables(F, codes, mats[j][S], None if ghs is None else ghs[j][S], n, w)

    for w in range(1, k1 + 1):
        supports, _, (masks, syn) = GHW._round_tables(F, mats, ghs, sel, k1, w)
        assert supports.tolist() == [list(S) for S in combinations(range(k1), w)]
        assert masks.shape == (F.q**w, comb(k1, w), len(sel), words)
        assert syn is None if c2 is None else syn.shape == masks.shape[:3] + (k1 - k2,)
        for s, S in enumerate(supports):
            for jj, j in enumerate(sel):
                want_masks, want_syn = own(np.arange(F.q**w), j, S, w)
                assert np.array_equal(masks[:, s, jj], want_masks)
                assert syn is None or np.array_equal(syn[:, s, jj], want_syn)
        for table in (None, 0):
            with budgets(table=table):
                tabs = GHW._round_tables(F, mats, ghs, sel, k1, w)
            assert (tabs[2] is None) == (table == 0)
            for r in range(1, w + 1):
                for codes in subspace_codes(r, w, F, block_size=500):
                    for cols, rows, bmasks, bsyn in GHW._block_tables(F, tabs, codes, n):
                        assert rows.shape == codes.shape
                        assert bmasks.shape[1:] == (len(cols), len(sel), words)
                        for s, S in enumerate(cols):
                            for jj, j in enumerate(sel):
                                want_masks, want_syn = own(codes.ravel(), j, S, w)
                                assert np.array_equal(bmasks[rows.ravel(), s, jj], want_masks)
                                assert bsyn is None or np.array_equal(bsyn[rows.ravel(), s, jj], want_syn)


def _spectrum_matches_brute(code, spectrum, ranks):
    for r in ranks:
        assert spectrum.counts[r] == brute_spectrum(code, r), r
    for r in spectrum.counts:
        assert spectrum.total(r) == gaussian_binomial(code.k, r, code.field.q), r


@pytest.mark.parametrize("field, n, k, ranks", [(F2, 130, 5, (1, 2)), (F2, 70, 6, (1, 2)), (F4, 80, 4, (1,))])
def test_masks_of_several_words(field, n, k, ranks):
    # n > 64: every mask spans ceil(n / 64) uint64 words
    code = random_code(np.random.default_rng(n), field, n, k)
    assert hierarchy(code).values == tuple(naive_ghw(code, r) for r in range(1, k + 1))
    spectrum = higher_spectrum(code)
    _spectrum_matches_brute(code, spectrum, ranks)
    with budgets(table=0):
        assert higher_spectrum(code).counts == spectrum.counts


def test_nested_pair_of_length_70():
    c1, c2 = random_nested_pair(np.random.default_rng(70), F2, 70, 5, 2)
    assert rhierarchy(c1, c2).values == tuple(naive_rghw(c1, c2, r) for r in range(1, 4))
    spectrum = rhigher_spectrum(c1, c2)
    for r in (1, 2):
        assert spectrum.counts[r] == brute_rspectrum(c1, c2, r), r


def test_rounds_above_the_table_cap_tabulate_per_block():
    # with a 2,500-byte cap some rounds fit and others tabulate per block, so
    # one run mixes both modes
    code = random_code(np.random.default_rng(3), F3, 10, 5)
    c1, c2 = random_nested_pair(np.random.default_rng(4), F3, 9, 4, 1)
    weights = tuple(naive_ghw(code, r) for r in range(1, 6))
    rweights = tuple(naive_rghw(c1, c2, r) for r in range(1, 4))
    ref = {r: brute_spectrum(code, r) for r in (1, 2)}
    rref = {r: brute_rspectrum(c1, c2, r) for r in (1, 2)}
    for table in (2500, 0):
        with budgets(table=table):
            assert hierarchy(code).values == weights
            assert rhierarchy(c1, c2).values == rweights
            spectrum, rspectrum = higher_spectrum(code), rhigher_spectrum(c1, c2)
        assert {r: spectrum.counts[r] for r in ref} == ref
        assert {r: rspectrum.counts[r] for r in rref} == rref
        assert min(rspectrum.counts[3]) == rweights[2]


def test_rounds_over_the_default_cap():
    # round w = 5 of a GF(16) [12,6] code would need about 100 MB of tables
    # for all 16^5 messages through its two matrices, so it runs per block
    # with no patching; round (4, 5) is stopped after its first block's first
    # support set
    code = random_code(np.random.default_rng(16), F16, 12, 6)
    sel = list(range(len(information(code).mats)))
    assert comb(6, 5) * F16.q**5 * 8 * len(sel) > GHW._TABLE_BYTES
    assert _check_round(code, None, 5, 5, sel, 13, None)[2] == comb(6, 5)
    assert _check_round(code, None, 4, 5, sel, 13, 12)[2] == len(next(subspace_blocks(4, 5, F16)))


def test_xor_entries_count_against_the_table_cap():
    # round w = 1 of d_1 of a GF(2^16) [8,4] code: its tables of all 2^16
    # messages fit the cap, but the XOR entries they would be built from,
    # 16 bit-planes for every multiple of every row, do not, so the round
    # tabulates per block and builds no entries
    code = random_code(np.random.default_rng(3), F65536, 8, 4)
    nj, words = len(information(code).mats), 1
    assert comb(4, 1) * F65536.q * words * 8 * nj <= GHW._TABLE_BYTES
    assert nj * 4 * F65536.q * F65536.s * words * 8 > GHW._TABLE_BYTES
    with mock.patch.object(GHW, "_xor_entries", wraps=GHW._xor_entries) as entries:
        assert ghw(code, 1) == 5
    assert not entries.called
    # every 4 columns are independent, so the code is MDS and d_1 = n - k + 1
    G = code.G.array
    assert all(rank_array(F65536, G[:, cols]) == 4 for cols in combinations(range(8), 4))


def test_search_and_spectra_never_take_the_plain_path():
    code = random_code(np.random.default_rng(11), F3, 8, 4)
    c1, c2 = random_nested_pair(np.random.default_rng(12), F3, 8, 4, 1)

    def compute():
        return (hierarchy(code).values, rhierarchy(c1, c2).values,
                higher_spectrum(code).counts, rhigher_spectrum(c1, c2).counts)

    want = compute()
    plain = mock.Mock(side_effect=AssertionError("the plain path was taken"))
    for table in (None, 0):
        with budgets(table=table), mock.patch.object(GHW, "_scan_round", plain), \
                mock.patch.object(GHW, "_meets_c2_in_zero", plain):
            assert compute() == want
    assert not plain.called


def test_gf5_round_of_15625_messages():
    # round w = 6 of a GF(5) [8,6] code has 5^6 message vectors in its one
    # table: the kernel must match the plain path on it.  A whole spectrum
    # is compared only for a pair with k1 - k2 = 1, whose spectrum is r = 1
    # alone; the [8,6] code's spectrum has 3.6M subspaces.
    code = random_code(np.random.default_rng(5), F5, 8, 6)
    c1, c2 = random_nested_pair(np.random.default_rng(6), F5, 8, 6, 2)
    nmats = len(information(code).mats)
    _check_spectrum(*random_nested_pair(np.random.default_rng(6), F5, 8, 6, 5))
    for r in (1, 2):
        _check_round(code, None, r, 6, list(range(nmats)), 9, None)
        _check_round(c1, c2, r, 6, [0], 9, r + 1)


def test_code_with_zero_columns():
    code = code_from_rows(F2, [[1, 0, 1, 1, 0, 0, 1], [0, 0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0, 1]])
    assert hierarchy(code).values == tuple(naive_ghw(code, r) for r in range(1, 4))
    _spectrum_matches_brute(code, higher_spectrum(code), (1, 2, 3))


@pytest.mark.parametrize("gather", [1, None], ids=["chunk1", "default"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F4, F8, F16, F256]), st.sampled_from([1, 63, 64, 65, 130]), st.data())
def test_char2_tables_match_the_product(gather, F, n, data):
    # a round's XOR-doubled tables of all q^w messages against one
    # field.matmul of those messages, with and without syndrome columns,
    # some columns zero
    k = data.draw(st.integers(1, 4), label="k")
    w = data.draw(st.integers(1, max(x for x in range(1, k + 1) if F.q**x <= 512)), label="w")
    nj = data.draw(st.integers(1, 3), label="nj")
    c = data.draw(st.sampled_from([0, 1, 4]), label="c2 columns")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    B = rng.integers(0, F.q, (nj, k, n + c))
    B[:, :, data.draw(st.lists(st.integers(0, n + c - 1), max_size=n + c), label="zero")] = 0
    cols = np.array(list(combinations(range(k), w)), dtype=np.intp)
    X = np.arange(F.q**w)[:, None] // F.q ** np.arange(w) % F.q
    want = GHW._tables(F, X, B, cols, n)
    mats, ghs = list(B[..., :n]), list(B[..., n:]) if c else None
    with budgets(gather=gather):
        supports, _, got = GHW._round_tables(F, mats, ghs, range(nj), k, w)
    assert supports.tolist() == cols.tolist()
    assert got[0].dtype == want[0].dtype == np.dtype("<u8")
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    if c:
        assert got[1].dtype == want[1].dtype == np.int64
        assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()
    else:
        assert got[1] is None and want[1] is None


def test_char2_round_tables_take_no_field_product():
    # under the table cap a characteristic-2 search builds its tables with
    # no _tables call and no field.matmul, while a GF(3) search takes both
    binary = random_code(np.random.default_rng(21), F2, 12, 5)
    c1, c2 = random_nested_pair(np.random.default_rng(22), F4, 8, 4, 1)
    octal = random_code(np.random.default_rng(23), F8, 8, 3)
    ternary = random_code(np.random.default_rng(24), F3, 8, 4)
    round_tables, matmul = GHW._round_tables, FiniteField.matmul
    inside, products = [False], []

    def in_round(*args):
        inside[0] = True
        try:
            return round_tables(*args)
        finally:
            inside[0] = False

    def product(self, A, B):
        if inside[0]:
            products.append(self.q)
        return matmul(self, A, B)

    def run(compute):
        products.clear()
        with mock.patch.object(GHW, "_round_tables", in_round), \
                mock.patch.object(GHW, "_tables", wraps=GHW._tables) as tabulated, \
                mock.patch.object(FiniteField, "matmul", product):
            value = compute()
        return value, tabulated.call_count, len(products)

    for code in (binary, octal):
        want = tuple(naive_ghw(code, r) for r in range(1, code.k + 1))
        assert run(lambda: hierarchy(code).values) == (want, 0, 0)
    want = tuple(naive_rghw(c1, c2, r) for r in range(1, 4))
    assert run(lambda: rhierarchy(c1, c2).values) == (want, 0, 0)
    value, tabulated, products = run(lambda: hierarchy(ternary).values)
    assert value == tuple(naive_ghw(ternary, r) for r in range(1, 5))
    assert tabulated > 0 and products == tabulated
