"""The support-mask kernel against the plain matmul path.

The kernel weighs subspaces by OR-ing packed row-support masks looked up in
per-support-set tables, of all q^w messages when they fit the table cap and
else of each block's distinct rows; the plain path, which only the naive
oracles take, encodes every (block, support set, matrix) triple with one
matmul.  Round w = r builds no tables of messages: it weighs each support
set's one subspace from the rows of the matrices.
Every round must agree exactly with the plain path in both table modes: the
bound, the position of its lightest subspace and the subspace count.  Every spectrum must agree in
both modes.  Over GF(2^s) the tables of all messages are built by one
binary XOR doubling from the s bit-planes of the multiples a^u·G_j[i],
u < s, with no product: they must equal the product's byte for byte, and
the build must peak within what the table cap counts, planes included, plus
one gather.
"""

import sys
import tracemalloc
from contextlib import contextmanager
from itertools import combinations, islice
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.code import code_from_rows, dual
from ghwkit.enumeration import (
    DEFAULT_BLOCK,
    RowTree,
    ShapeRows,
    count_full_support,
    gaussian_binomial,
    row_digits,
    shape_rows,
    subspace_blocks,
    subspace_codes,
)
from ghwkit.errors import WorkLimitExceeded
from ghwkit.gf import FiniteField, build_field
from ghwkit.ghw import (
    ComputeOptions,
    higher_spectrum,
    hierarchy,
    naive_ghw,
    naive_rghw,
    rhierarchy,
    rhigher_spectrum,
)
from ghwkit.infoset import information

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


def _outcome(field, k, out):
    """A round's (bound, position, subspaces) with the position as the key
    (subspace, matrix index, weight) of the Witness that a run builds from
    it over the k message coordinates, or None."""
    upper, pos, count = out
    if pos is None:
        return upper, None, count
    wit = GHW._witness(field, k, pos, upper)
    return upper, (wit.subspace.array.tolist(), wit.mat_index, wit.weight), count


def _round_inputs(c1, c2):
    """The systematic matrices of C1, the generator matrix of C2 that the
    plain path takes (None without C2) and the matrices' syndrome matrices
    on the checks of C2 that the kernel takes."""
    mats = [M.array for M in information(c1).mats]
    if c2 is None:
        return mats, None, None
    h2t, _ = GHW._nested_pair(c1, c2)
    return mats, c2.G.array, [c1.field.matmul(M, h2t) for M in mats]


def _generator(field, h2t):
    """The generator matrix of the code C2 whose checks are the columns of
    ``h2t``, as the plain path takes it."""
    return dual(code_from_rows(field, h2t.T)).G.array


def _store(field, mats, ghs=None):
    """The matrices and their syndrome matrices (None without C2) as a
    search stacks them."""
    return GHW._matrices(field, np.array(mats), None if ghs is None else np.array(ghs))


def _check_round(c1, c2, r, w, nsel, upper, stop):
    """One round through the plain path and through the kernel, at the
    default table cap and with a cap of 0, which tabulates every block's
    distinct rows; returns the plain path's _outcome."""
    field = c1.field
    mats, g2, ghs = _round_inputs(c1, c2)
    want = _outcome(field, c1.k, GHW._scan_round(field, mats, nsel, r, w, upper, g2, stop))
    for table in (None, 0):
        with budgets(table=table):
            got = GHW._scan_kernel(field, _store(field, mats, ghs), nsel, r, w, upper, stop)
        assert _outcome(field, c1.k, got) == want
    return want


def _check_spectrum(c1, c2):
    """The whole enumerated spectrum, and its round events, at the default
    table cap and per block."""
    spectra = []
    for table in (None, 0):
        events = []
        opts = ComputeOptions(progress=events.append)
        with budgets(table=table), mock.patch.object(GHW, "_by_subset_sums", return_value=False):
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
    nsel = data.draw(st.integers(1, len(information(c1).mats)), label="nsel")
    upper = data.draw(st.integers(1, n + 1), label="upper")
    stop = data.draw(st.integers(0, upper - 1), label="stop")
    with budgets(gather=gather):
        _check_round(c1, c2, r, w, nsel, upper, stop)
        _check_spectrum(c1, c2)


@pytest.mark.parametrize("gather", [1, None], ids=["chunk1", "default"])
def test_kernel_on_the_scan_mixed_pair_shape(gather):
    # GF(2) [12,5] > [12,1], the shape of the benchmark's binary rhierarchy
    # queries, through every matrix of its decomposition and every round
    for seed in range(3):
        c1, c2 = random_nested_pair(np.random.default_rng(seed), F2, 12, 5, 1)
        mats, _, ghs = _round_inputs(c1, c2)
        nsel = len(mats)
        assert nsel > 1
        with budgets(gather=gather):
            for r in range(1, 5):
                for w in range(r, 6):
                    for upper, stop in ((13, 0), (12 - r, r + 2), (7, 0)):
                        count = _check_round(c1, c2, r, w, nsel, upper, stop)[2]
                        if w == r:
                            with _c2_tests() as calls:
                                GHW._unit_round(F2, _store(F2, mats, ghs), nsel, r, upper, stop)
                            _tests_stay_in_round(calls, 5, r, count)
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


# codes and nested pairs of every table mode: GF(2) and GF(2^s) tables are
# XOR-doubled, GF(3) ones take a product, and n = 70 needs two mask words
small_pairs = pytest.mark.parametrize(
    "F, n, k1, k2",
    [(F2, 12, 5, 0), (F2, 12, 5, 2), (F3, 9, 4, 0), (F3, 9, 4, 1), (F4, 8, 4, 0), (F4, 8, 4, 2),
     (F8, 7, 3, 0), (F8, 7, 3, 1), (F2, 70, 5, 2)],
    ids=["GF2", "GF2-C2", "GF3", "GF3-C2", "GF4", "GF4-C2", "GF8", "GF8-C2", "GF2-C2-n70"],
)


def _small_pair(F, n, k1, k2):
    rng = np.random.default_rng(n + 10 * k1 + k2)
    return random_nested_pair(rng, F, n, k1, k2) if k2 else (random_code(rng, F, n, k1), None)


@small_pairs
def test_tables_are_message_major(F, n, k1, k2):
    # a round's tables of all messages hold message x on support set s
    # through matrix j at masks[x, s, j] and syn[x, s, j]; per
    # block, chunk tables hold stream row codes[i, t] at rows[i, t]
    c1, c2 = _small_pair(F, n, k1, k2)
    mats, _, ghs = _round_inputs(c1, c2)
    nsel, words = len(mats), -(-n // 64)

    def own(codes, j, S, w):
        return _own_tables(F, codes, mats[j][S], None if ghs is None else ghs[j][S], n, w)

    for w in range(1, k1 + 1):
        supports, _, (masks, syn) = GHW._round_tables(F, _store(F, mats, ghs), nsel, w)
        assert supports.tolist() == [list(S) for S in combinations(range(k1), w)]
        assert masks.shape == (F.q**w, comb(k1, w), nsel, words)
        assert syn is None if c2 is None else syn.shape == masks.shape[:3] + (k1 - k2,)
        for s, S in enumerate(supports):
            for j in range(nsel):
                want_masks, want_syn = own(np.arange(F.q**w), j, S, w)
                assert np.array_equal(masks[:, s, j], want_masks)
                assert syn is None or np.array_equal(syn[:, s, j], want_syn)
        for table in (None, 0):
            with budgets(table=table):
                tabs = GHW._round_tables(F, _store(F, mats, ghs), nsel, w)
            assert (tabs[2] is None) == (table == 0)
            for r in range(1, w + 1):
                for codes in subspace_codes(r, w, F, block_size=500):
                    (rows,), chunks = GHW._block_tables(F, tabs, [codes], n, 2)
                    assert rows.shape == codes.shape
                    seen = []
                    for lo, ns, off, bmasks, bsyn in chunks:
                        assert bmasks.shape[2:] == (nsel, words) and ns <= 2
                        seen += range(lo, lo + ns)
                        for s, S in enumerate(supports[lo : lo + ns], off):
                            for j in range(nsel):
                                want_masks, want_syn = own(codes.ravel(), j, S, w)
                                assert np.array_equal(bmasks[rows.ravel(), s, j], want_masks)
                                assert bsyn is None or np.array_equal(bsyn[rows.ravel(), s, j], want_syn)
                    assert seen == list(range(len(supports)))


@pytest.mark.parametrize("gather", [1, None], ids=["chunk1", "default"])
@small_pairs
def test_first_round_matches_plain_path(gather, F, n, k1, k2):
    # round w = r weighs each support set's one subspace, the span of e_S,
    # from the rows S of the first nsel matrices; with a gather budget of 1
    # every support set is a chunk of its own
    c1, c2 = _small_pair(F, n, k1, k2)
    nmats = len(information(c1).mats)
    with budgets(gather=gather):
        for r in range(1, k1 - k2 + 1):
            for nsel in (nmats, 1):
                for upper, stop in ((n + 1, 0), (n + 1, n - k1 + r), (n - r, 0), (1, 0)):
                    _check_round(c1, c2, r, r, nsel, upper, stop)


def test_first_round_past_int64_row_codes():
    # over GF(2^16), q^r >= 2^64 from r = 4, past the int64 range of row
    # codes: the w = r round forms none, and its witness is e_S
    code = random_code(np.random.default_rng(1), F65536, 7, 5)
    nsel = len(information(code).mats)
    for r in (4, 5):
        assert F65536.q**r >= 2**64
        for stop in (0, 7):
            assert _check_round(code, None, r, r, nsel, 8, stop)[1] is not None


def test_row_tree_past_int64_row_codes():
    # round (1, 4) over GF(2^16) has 65,535^3 matrices, with row codes past
    # int64: the tree builds its rows, prefixes and witness from exact
    # Python ints, and at stop = upper - 1, which every subspace of length
    # 7 reaches, leaves after the first block
    code = random_code(np.random.default_rng(1), F65536, 7, 5)
    nsel = len(information(code).mats)
    assert F65536.q**4 > 2**63
    assert _check_round(code, None, 1, 4, nsel, 8, 7)[2] == DEFAULT_BLOCK


def test_row_tree_over_a_prefix_column_of_f_squared():
    # round (2, 3) over GF(2^16): the free column of pivot shape (1, 2)
    # ranges over the 2^32 - 1 nonzero vectors of F^2, a prefix column whose
    # choices are decoded from their codes with no table of them (a table
    # would take 64 GiB); at stop = upper - 1 the round ends after visit
    # (block 0, S_0)
    code = random_code(np.random.default_rng(1), F65536, 7, 5)
    want = _check_round(code, None, 2, 3, 1, 8, 7)
    assert (want[0], want[2]) == (5, DEFAULT_BLOCK) and want[1] is not None


def test_a_stopped_row_tree_weighs_no_later_support_set():
    # round (1, 4) of the code above stops at its first visit, (block 0,
    # S_0); its first batch of prefixes is block 0 whole, so with one
    # support set a chunk the tree tabulates the batch's rows on S_0 alone,
    # one GF(2^16) product, and none on the other C(5, 4) - 1 support sets
    code = random_code(np.random.default_rng(1), F65536, 7, 5)
    mats, _, _ = _round_inputs(code, None)
    want = GHW._scan_round(F65536, mats, len(mats), 1, 4, 8, None, 7)
    with budgets(gather=1, table=0), mock.patch.object(GHW, "_tables", wraps=GHW._tables) as tables:
        got = GHW._scan_kernel(F65536, _store(F65536, mats), len(mats), 1, 4, 8, 7)
    assert _outcome(F65536, 5, got) == _outcome(F65536, 5, want) and got[2] == DEFAULT_BLOCK
    assert tables.call_count == 1


def test_row_tree_stops_inside_a_batch_across_blocks():
    # round (1, 5) over GF(16) has one pivot shape of 15^4 = 50,625
    # matrices in blocks of 16,384, weighed 5 prefixes of 15^3 at a time,
    # one batch per block: the batch that starts in block b ends part way
    # into block b + 1.  These stops land in blocks 0, 1 and 2, each in the
    # batch that starts in its block, part way through the support sets:
    # the round must end there, though the batch runs on into the next
    # block; with one support set a chunk and with several.  All run per
    # batch: the tables of all 16^5 messages exceed the cap
    blocks = set()
    cases = ((12, 0, 1, 6), (12, 1, 2, 6), (16, 1, 1, 9), (14, 2, 1, 9), (14, 4, 1, 8), (14, 5, 3, 8))
    for n, seed, nsel, stop in cases:
        code = random_code(np.random.default_rng(seed), F16, n, 6)
        mats, _, _ = _round_inputs(code, None)
        want = GHW._scan_round(F16, mats, nsel, 1, 5, n + 1, None, stop)
        for gather in (1, None):
            with budgets(gather=gather):
                got = GHW._scan_kernel(F16, _store(F16, mats), nsel, 1, 5, n + 1, stop)
            assert _outcome(F16, 6, got) == _outcome(F16, 6, want)
        blocks.add(want[2] // (DEFAULT_BLOCK * comb(6, 5)))
    assert blocks == {0, 1, 2}
    # at stop 0, two of these rounds are weighed whole: the [14,6] codes
    # of seeds 2 and 4 have 11 and 17 subspaces at the least weight, across
    # many visits and batches, and the first of each lies in visit (0, S_0)
    # at a position of the batch that straddles blocks 0 and 1
    for n, seed, nsel, _ in cases[3:5]:
        code = random_code(np.random.default_rng(seed), F16, n, 6)
        mats, _, _ = _round_inputs(code, None)
        want = GHW._scan_round(F16, mats, nsel, 1, 5, n + 1, None, 0)
        assert want[2] == 15**4 * comb(6, 5)
        for gather in (1, None):
            with budgets(gather=gather):
                got = GHW._scan_kernel(F16, _store(F16, mats), nsel, 1, 5, n + 1, 0)
            assert _outcome(F16, 6, got) == _outcome(F16, 6, want)


def test_row_tree_batches_are_one_per_stream_block():
    # round (1, 5) over GF(16) through one matrix, whose tables of all 16^5
    # messages exceed the cap: its one pivot shape has 15 prefixes of 15^3
    # positions, in stream blocks of 16,384.  A batch runs to the prefix
    # that holds the end of the block where it starts, so no two batches
    # start in the same block, and the round is still the plain path's
    code = random_code(np.random.default_rng(1), F16, 16, 6)
    mats = _round_inputs(code, None)[0][:1]
    sh = GHW._row_trees(1, 5, F16)[0][0]
    assert (sh.P, sh.total // sh.P) == (15**3, 15)
    assert comb(6, 5) * F16.q**5 * 8 > GHW._TABLE_BYTES
    batches, prefix_codes = [], ShapeRows.prefix_codes

    def counted(self, field, a, b):
        if sys._getframe(1).f_code is GHW._tree_weigh.__code__:
            batches.append((a, b))
        return prefix_codes(self, field, a, b)

    want = GHW._scan_round(F16, mats, 1, 1, 5, 17, None, 0)
    with mock.patch.object(ShapeRows, "prefix_codes", counted):
        got = GHW._scan_kernel(F16, _store(F16, mats), 1, 1, 5, 17, 0)
    assert _outcome(F16, 6, got) == _outcome(F16, 6, want)
    assert [a for a, _ in batches] == [0] + [b for _, b in batches[:-1]] and batches[-1][1] == 15
    starts = [a * sh.P // DEFAULT_BLOCK for a, _ in batches]
    assert len(set(starts)) == len(starts)


@pytest.mark.parametrize("q, n, k, seed, r, w, upper, stop", [
    (3, 9, 5, 0, 2, 3, 10, 8),
    (2, 12, 6, 3, 2, 4, 11, 8),
])
def test_row_tree_stops_at_the_first_visit_with_a_hit(q, n, k, seed, r, w, upper, stop):
    # the chunk that holds the stop also holds a lighter candidate at most
    # ``stop`` at a later visit: the round still ends after the stop, with
    # the bound it has there
    code = random_code(np.random.default_rng(seed), build_field(q), n, k)
    nsel = len(information(code).mats)
    _check_round(code, None, r, w, nsel, upper, stop)


def test_row_tree_past_int64_positions():
    # round (1, 9) over GF(256) has 255^8 > 2^63 matrices in one pivot
    # shape, but 255^7 prefix choices of 255 positions each, within intp:
    # the tree numbers its positions and visits with exact Python ints and
    # stops in the first block.  Round (1, 10), with 255^8 prefix choices,
    # is refused before any block, like the stream
    assert 255**8 > 2**63 > 255**7
    code = random_code(np.random.default_rng(2), F256, 12, 9)
    nsel = len(information(code).mats)
    assert _check_round(code, None, 1, 9, nsel, 13, 12)[2] == DEFAULT_BLOCK
    for stream in (lambda: shape_rows(1, 10, F256), lambda: next(subspace_codes(1, 10, F256))):
        with pytest.raises(WorkLimitExceeded):
            stream()


def test_first_round_builds_no_message_tables():
    # a w = r round reads the rows S of each G_j: it builds no tables of
    # messages, starts no subspace stream and takes no field product
    code = random_code(np.random.default_rng(31), F3, 9, 4)
    pair = random_nested_pair(np.random.default_rng(32), F3, 9, 4, 1)
    cases = []
    for c1, c2 in ((code, None), pair):
        mats, g2, ghs = _round_inputs(c1, c2)
        for r in range(1, c1.k - (0 if c2 is None else c2.k) + 1):
            want = _outcome(c1.field, c1.k, GHW._scan_round(c1.field, mats, len(mats), r, r, c1.n + 1, g2, 0))
            cases.append(((c1.field, _store(c1.field, mats, ghs), len(mats), r, r, c1.n + 1, 0), want))
    banned = mock.Mock(side_effect=AssertionError("a w = r round tabulated messages"))
    with mock.patch.object(GHW, "_round_tables", banned), mock.patch.object(GHW, "subspace_codes", banned), \
            mock.patch.object(GHW, "_tables", banned), mock.patch.object(FiniteField, "matmul", banned):
        for args, want in cases:
            assert _outcome(args[0], args[1].stack.shape[1], GHW._scan_kernel(*args)) == want
    assert not banned.called


def _check_unit_round(mats, nsel, r, upper, stop, h2t=None):
    """Round w = r of hand-made matrices through the plain path and through
    the kernel; returns the plain path's _outcome."""
    field, k = F2, mats[0].shape[0]
    ghs, g2 = (None, None) if h2t is None else ([field.matmul(M, h2t) for M in mats], _generator(field, h2t))
    want = _outcome(field, k, GHW._scan_round(field, mats, nsel, r, r, upper, g2, stop))
    assert _outcome(field, k, GHW._scan_kernel(field, _store(field, mats, ghs), nsel, r, r, upper, stop)) == want
    return want


@pytest.mark.parametrize("gather", [1, 3], ids=["chunk1", "chunk3"])
@pytest.mark.parametrize("hit", [1, 2, 3, 4])
def test_first_round_stops_in_a_later_chunk(gather, hit):
    # round (1, 1) through one [6,6] matrix whose row s weighs 5, but row
    # ``hit`` weighs 2 = stop and row 5 weighs 1: the round ends after set
    # ``hit``, in its own chunk of one or of three support sets (hits 2 and
    # 3 end and start a chunk of three), and never sees row 5.  Row 0 weighs
    # 4, so the first chunk lowers the bound without stopping
    G = np.zeros((6, 6), dtype=np.int64)
    for s, wt in enumerate([4, 5, 5, 5, 5, 1]):
        G[s, :wt] = 1
    G[hit] = 0
    G[hit, :2] = 1
    with budgets(gather=gather):
        got = _check_unit_round([G], 1, 1, 7, 2)
    e = [[int(c == hit) for c in range(6)]]
    assert got == (2, (e, 0, 2), hit + 1)


def test_first_round_keeps_a_heavier_subspace_that_passes_c2():
    # C2 = {0, 1100}; on S = {0}, e_S encodes through G_0 to 1100, of weight
    # 2 but inside C2, and through G_1 to 1110, of weight 3, which meets C2
    # in 0: the set's least candidate is dropped and the heavier one, not a
    # later set's, is the bound and the witness
    h2t = np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).T
    G0 = np.array([[1, 1, 0, 0], [0, 1, 1, 1]])
    G1 = np.array([[1, 1, 1, 0], [1, 0, 1, 1]])
    assert _check_unit_round([G0, G1], 2, 1, 5, 0, h2t) == (3, ([[1, 0]], 1, 3), 2)
    assert _check_unit_round([G0, G1], 2, 1, 5, 3, h2t) == (3, ([[1, 0]], 1, 3), 1)


@pytest.mark.parametrize("stop", [0, 1])
def test_first_round_with_nothing_below_the_bound_runs_no_elimination(stop):
    # the matrices above through C2, where every e_S weighs at least 2: at
    # upper = 2 no (support set, matrix) pair is a candidate, so the round
    # keeps the bound, has no position, visits both sets and never tests a
    # subspace against C2
    h2t = np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).T
    mats = [np.array([[1, 1, 0, 0], [0, 1, 1, 1]]), np.array([[1, 1, 1, 0], [1, 0, 1, 1]])]
    want = GHW._scan_round(F2, mats, 2, 1, 1, 2, _generator(F2, h2t), stop)
    assert want == (2, None, 2)
    store = _store(F2, mats, [F2.matmul(M, h2t) for M in mats])
    banned = mock.Mock(side_effect=AssertionError("a C2 test with no candidate"))
    with mock.patch.object(GHW, "_unit_free", banned):
        assert GHW._unit_round(F2, store, 2, 1, 2, stop) == want
    assert not banned.called


@pytest.mark.parametrize("r, rows", [
    (1, [[1, 0, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 1, 1, 1, 0], [0, 0, 1, 0, 1, 1, 1, 0, 1]]),
    (2, [[1, 0, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 1, 1, 1, 1, 1]]),
])
def test_first_round_rejects_its_only_light_subspace(r, rows):
    # C2 is spanned by the first row, and below upper = r + 2 the round has
    # one subspace, e_S for S = {0..r-1}, which contains it: C2 is tested
    # once, on that subspace's r syndromes, and its failure must reach the
    # replay, so the round finds nothing
    c1 = code_from_rows(F2, rows)
    c2 = code_from_rows(F2, rows[:1])
    mats, _, ghs = _round_inputs(c1, c2)
    assert np.array_equal(mats[0], c1.G.array)
    with _c2_tests() as calls:
        got = GHW._scan_kernel(F2, _store(F2, mats, ghs), 1, r, r, r + 2, 0)
    assert got == (r + 2, None, comb(3, r))
    assert calls == [(list(range(r)), 0, False)]
    assert _check_round(c1, c2, r, r, 1, r + 2, 0) == (r + 2, None, comb(3, r))
    assert rhierarchy(c1, c2).values == tuple(naive_rghw(c1, c2, t) for t in (1, 2))


@contextmanager
def _c2_tests():
    """Record each C2 test of a candidate of round w = r as (support set,
    matrix index, whether it meets C2 only in 0)."""
    calls, real = [], GHW._unit_free

    def spy(field, ms, cols, j):
        ok = real(field, ms, cols, j)
        calls.append((list(cols), j, ok))
        return ok

    with mock.patch.object(GHW, "_unit_free", spy):
        yield calls


def _tests_stay_in_round(calls, k, r, count):
    """No candidate of round w = r is tested twice, and none lies in a
    support set past the first ``count``, those the round visits."""
    assert len({(tuple(cols), j) for cols, j, _ in calls}) == len(calls)
    visited = [list(S) for S in islice(combinations(range(k), r), count)]
    assert all(cols in visited for cols, *_ in calls)


three_budgets = pytest.mark.parametrize("gather", [1, 3, None], ids=["chunk1", "chunk3", "default"])


@three_budgets
@pytest.mark.parametrize("k2, r, weight, witness, rejected", [
    (3, 1, 4, [[1, 0, 0, 0]], 3),
    (2, 1, 2, [[0, 0, 0, 1]], 2),
    (2, 2, 6, [[1, 0, 0, 0], [0, 0, 0, 1]], 5),
])
def test_first_round_passes_over_light_subspaces_in_c2(gather, k2, r, weight, witness, rejected):
    # C1 is a heavy row, then three rows of weight 2, C2 the first k2 of
    # those three: the lightest subspaces of round w = r meet C2, and each
    # is rejected before a heavier or later one that meets C2 only in 0
    # becomes the bound.  No candidate is tested twice, and in one chunk
    # (the default budget) they are tested lightest first
    rows = [[1, 0, 0, 0, 0, 0, 0, 1, 1, 1], [0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 1, 0, 0, 0]]
    c1, c2 = code_from_rows(F2, rows), code_from_rows(F2, rows[1 : 1 + k2])
    mats, g2, ghs = _round_inputs(c1, c2)
    assert np.array_equal(mats[0], c1.G.array)
    store = _store(F2, mats, ghs)
    with budgets(gather=gather):
        for nsel in (len(mats), 1):
            want = _outcome(F2, 4, GHW._scan_round(F2, mats, nsel, r, r, 11, g2, 0))
            with _c2_tests() as calls:
                assert _outcome(F2, 4, GHW._unit_round(F2, store, nsel, r, 11, 0)) == want
            assert len({(tuple(cols), j) for cols, j, _ in calls}) == len(calls)
    # through the first matrix alone
    assert want == (weight, (witness, 0, weight), comb(4, r))
    if gather is None:
        assert [ok for *_, ok in calls] == [False] * rejected + [True]


@three_budgets
@pytest.mark.parametrize("passes", [False, True], ids=["in-C2", "outside-C2"])
def test_first_round_stops_before_its_lightest_subspace(gather, passes):
    # C2 = <11000000, 00110000>, stop = 3.  Support set 0 holds e_S through
    # G_0 of weight 3 outside C2, which ends the round after set 0, and
    # through G_1 a subspace of weight 2, in C2 or outside it (then it is
    # the bound); set 2 holds the round's lightest subspace, weight 1
    # outside C2, which the round never reaches
    h2t = dual(code_from_rows(F2, [[1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 0, 0]])).G.array.T
    G0 = np.array([[1, 1, 1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1]])
    G1 = np.array([[0, 0, 0, 0, 1, 1, 0, 0] if passes else [0, 0, 1, 1, 0, 0, 0, 0],
                   [1, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0, 1, 1]])
    with budgets(gather=gather), _c2_tests() as calls:
        got = _check_unit_round([G0, G1], 2, 1, 9, 3, h2t)
    assert got == ((2, ([[1, 0, 0]], 1, 2), 1) if passes else (3, ([[1, 0, 0]], 0, 3), 1))
    # the round ends after set 0, so set 2's lightest is never tested
    _tests_stay_in_round(calls, 3, 1, 1)


@three_budgets
@pytest.mark.parametrize("F", [build_field(2, 5), F256], ids=["GF32", "GF256"])
def test_first_round_with_c2_past_packed_rows(gather, F):
    # above PACKED_MAX_Q the syndrome rows are rows of an int64 array; C2
    # is spanned by C1's two rows of weight 2, so candidates are rejected
    # as well as passed
    rng = np.random.default_rng(F.q)
    a, b = rng.integers(1, F.q, 2).tolist()
    rows = [[1, a, 0, 0, 0, 0, 0, 0], [0, 0, 1, b, 0, 0, 0, 0]] + rng.integers(0, F.q, (2, 8)).tolist()
    c1, c2 = code_from_rows(F, rows), code_from_rows(F, rows[:2])
    mats, _, ghs = _round_inputs(c1, c2)
    assert F.axpy_bytes is None and isinstance(_store(F, mats, ghs).syn, np.ndarray)
    with budgets(gather=gather), _c2_tests() as calls:
        for r in (1, 2):
            for nsel in (len(mats), 1):
                for upper, stop in ((9, 0), (9, 5), (6, 0), (5, 4)):
                    _check_round(c1, c2, r, r, nsel, upper, stop)
    assert {ok for *_, ok in calls} == {False, True}


@three_budgets
def test_first_round_tests_only_its_lightest_when_it_passes(gather):
    # every e_S is below the bound and outside C2 = <11110000>; the
    # lightest, on set 0 through G_1, is tested first, passes, and is a
    # bound no later subspace is below: one elimination in the round
    h2t = dual(code_from_rows(F2, [[1, 1, 1, 1, 0, 0, 0, 0]])).G.array.T
    mats = [np.array([[1, 1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 0, 0, 0],
                      [0, 0, 0, 0, 1, 1, 1, 1], [1, 0, 0, 0, 1, 1, 1, 0]]),
            np.array([[0, 0, 0, 0, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 0, 0],
                      [0, 1, 0, 1, 0, 1, 0, 0], [0, 0, 1, 1, 0, 0, 1, 0]])]
    want = _outcome(F2, 4, GHW._scan_round(F2, mats, 2, 1, 1, 9, _generator(F2, h2t), 0))
    assert want == (2, ([[1, 0, 0, 0]], 1, 2), 4)
    store = _store(F2, mats, [F2.matmul(M, h2t) for M in mats])
    with budgets(gather=gather), mock.patch.object(GHW, "eliminate_rows", wraps=GHW.eliminate_rows) as elim:
        assert _outcome(F2, 4, GHW._unit_round(F2, store, 2, 1, 9, 0)) == want
    assert elim.call_count == 1


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
    # support set, and its first pivot shape, of four blocks, is weighed one
    # batch of prefixes (one block) at a time, so the row tree weighs only the
    # first batch, once per table mode.  The plain path and the witness also
    # decode prefixes; only the batches that _tree_weigh weighs are recorded
    code = random_code(np.random.default_rng(16), F16, 12, 6)
    nsel = len(information(code).mats)
    assert comb(6, 5) * F16.q**5 * 8 * nsel > GHW._TABLE_BYTES
    assert _check_round(code, None, 5, 5, nsel, 13, 0)[2] == comb(6, 5)
    assert GHW._row_trees(4, 5, F16)[0][0].total > 3 * DEFAULT_BLOCK
    batches, prefix_codes = [], ShapeRows.prefix_codes

    def counted(self, field, a, b):
        if sys._getframe(1).f_code is GHW._tree_weigh.__code__:
            batches.append((a, b))
        return prefix_codes(self, field, a, b)

    with mock.patch.object(ShapeRows, "prefix_codes", counted):
        assert _check_round(code, None, 4, 5, nsel, 13, 12)[2] == len(next(subspace_blocks(4, 5, F16)))
    assert batches == [(0, DEFAULT_BLOCK)] * 2


def test_one_shape_walk_per_round(monkeypatch):
    # the stream, however often it is drained, and the row tree of round
    # (r, w) share one shape_rows entry: its pivot shapes are walked once
    ENUM, walks = sys.modules["ghwkit.enumeration"], []
    pivot_shapes = ENUM.pivot_shapes

    def counted(r, w):
        walks.append((r, w))
        return pivot_shapes(r, w)

    monkeypatch.setattr(ENUM, "pivot_shapes", counted)
    ENUM.shape_rows.cache_clear()
    GHW._row_trees.cache_clear()
    code = random_code(np.random.default_rng(41), F3, 8, 5)
    mats, _, _ = _round_inputs(code, None)
    for _ in range(2):
        assert sum(len(c) for c in subspace_codes(3, 5, F3)) == count_full_support(5, 3, 3)
    GHW._scan_kernel(F3, _store(F3, mats), 1, 3, 5, 9, 0)
    assert walks == [(3, 5)]


def test_spectra_build_no_row_trees():
    # a spectrum's streams read only the layout of shape_rows; the rows a
    # row tree ranges over are built for the rounds that a search walks as
    # trees, once per process and pivot shape
    built, tree = [], ShapeRows.tree

    def counted(self, field):
        built.append(self.pivots)
        return tree(self, field)

    sys.modules["ghwkit.enumeration"].shape_rows.cache_clear()
    GHW._row_trees.cache_clear()
    code = random_code(np.random.default_rng(42), F3, 7, 5)
    mats, _, _ = _round_inputs(code, None)
    with mock.patch.object(ShapeRows, "tree", counted):
        higher_spectrum(code)
        assert built == []
        for _ in range(2):
            GHW._scan_kernel(F3, _store(F3, mats), 1, 3, 5, 8, 0)
    assert built == [sh.pivots for sh in shape_rows(3, 5, F3)] and len(built) == comb(4, 2)


def test_bit_planes_count_against_the_table_cap():
    # round w = 2 of GF(2^8), k = 4, n = 48: the masks of all 2^16 messages
    # take 3 MiB a matrix and the 8 bit-planes they are OR-ed from 24 MiB
    # more, so the tables of one matrix fit the cap (27 MiB counted) and
    # equal the product's, and those of three (81 MiB) are not built
    B = np.random.default_rng(8).integers(0, F256.q, (3, 4, 48))
    assert _counted_bytes(F256, 4, 2, 48, 0, 1) == 27 << 20
    assert _counted_bytes(F256, 4, 2, 48, 0, 1) <= GHW._TABLE_BYTES < _counted_bytes(F256, 4, 2, 48, 0, 3)
    cols = np.array(list(combinations(range(4), 2)), dtype=np.intp)
    # the product a thousand messages at a time, so its temporaries stay small
    X = row_digits(np.arange(F256.q**2), F256.q, 2)
    want = np.concatenate([GHW._tables(F256, X[lo : lo + 1024], B[:1], cols, 48)[0] for lo in range(0, len(X), 1024)])
    supports, _, got = GHW._round_tables(F256, _store(F256, B[:1]), 1, 2)
    assert supports.tolist() == cols.tolist() and got[1] is None
    assert got[0].shape == want.shape and got[0].tobytes() == want.tobytes()
    assert GHW._round_tables(F256, _store(F256, B), 3, 2)[2] is None


def test_search_and_spectra_never_take_the_plain_path():
    code = random_code(np.random.default_rng(11), F3, 8, 4)
    c1, c2 = random_nested_pair(np.random.default_rng(12), F3, 8, 4, 1)

    def compute():
        return (hierarchy(code).values, rhierarchy(c1, c2).values,
                higher_spectrum(code).counts, rhigher_spectrum(c1, c2).counts)

    want = compute()
    plain = mock.Mock(side_effect=AssertionError("the plain path was taken"))
    for table in (None, 0):
        with budgets(table=table), mock.patch.object(GHW, "_scan_round", plain):
            assert compute() == want
    assert not plain.called


def test_the_oracle_never_takes_the_kernels_c2_tests():
    # the oracle tests V ∩ C2 = 0 by its definition, the rank of V's encoded
    # basis stacked on C2's generator matrix: neither naive_rghw nor a plain
    # round with C2 reaches the kernel's syndrome eliminations, so a fault
    # in those cannot pass unseen, and each oracle call computes C2's dual
    # once, in the nesting check.  The plain rounds still match the kernel
    c1, c2 = random_nested_pair(np.random.default_rng(12), F3, 8, 4, 1)
    mats, g2, ghs = _round_inputs(c1, c2)
    rounds = [(r, w) for r in (1, 2, 3) for w in range(r, 5)]
    banned = mock.Mock(side_effect=AssertionError("the plain path took a kernel C2 test"))
    with mock.patch.object(GHW, "_independent", banned), mock.patch.object(GHW, "_unit_free", banned), \
            mock.patch.object(GHW, "dual", wraps=GHW.dual) as duals:
        oracle = tuple(naive_rghw(c1, c2, r) for r in (1, 2, 3))
        assert duals.call_count == 3
        plain = [GHW._scan_round(F3, mats, len(mats), r, w, c1.n + 1, g2, 0) for r, w in rounds]
    assert not banned.called
    assert oracle == rhierarchy(c1, c2).values
    store = _store(F3, mats, ghs)
    for (r, w), want in zip(rounds, plain):
        got = GHW._scan_kernel(F3, store, len(mats), r, w, c1.n + 1, 0)
        assert _outcome(F3, c1.k, got) == _outcome(F3, c1.k, want)


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
        _check_round(code, None, r, 6, nmats, 9, 0)
        _check_round(c1, c2, r, 6, 1, 9, r + 1)


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
    with budgets(gather=gather):
        _check_char2_tables(F, B, k, w, n, c)


def test_char2_tables_match_the_product_over_gf65536():
    # k = w = 1 over GF(2^16), 16 doubling steps, past the q^w <= 512 that
    # the draw above keeps to; a small n keeps the product's temporaries
    # small
    B = np.random.default_rng(16).integers(0, F65536.q, (1, 1, 5))
    B[0, 0, 1] = 0
    _check_char2_tables(F65536, B, 1, 1, 4, 1)


def _check_char2_tables(F, B, k, w, n, c):
    """A round's XOR-doubled tables of all q^w messages through the stacked
    [G_j | G_j·H2ᵀ] of B, n codeword and c syndrome columns, against one
    field.matmul of those messages."""
    cols = np.array(list(combinations(range(k), w)), dtype=np.intp)
    X = np.arange(F.q**w)[:, None] // F.q ** np.arange(w) % F.q
    want = GHW._tables(F, X, B, cols, n)
    supports, _, got = GHW._round_tables(F, GHW._matrices(F, B[..., :n], B[..., n:] if c else None), len(B), w)
    assert supports.tolist() == cols.tolist()
    assert got[0].dtype == want[0].dtype == np.dtype("<u8")
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    if c:
        assert got[1].dtype == want[1].dtype == np.int64
        assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()
    else:
        assert got[1] is None and want[1] is None


@pytest.mark.parametrize("k, w, n, c", [(12, 6, 48, 0), (12, 6, 48, 3), (12, 4, 70, 0), (11, 8, 64, 2),
                                        (10, 3, 65, 1), (9, 4, 130, 4)])
def test_gf2_whole_round_tables_match_the_product(k, w, n, c):
    # GF(2) rounds of hundreds of support sets, each doubling step taken on
    # all of them at once, against one field.matmul, some columns zero
    rng = np.random.default_rng(k * 1000 + w * 100 + c)
    nj = 3
    B = rng.integers(0, 2, (nj, k, n + c))
    B[:, :, rng.integers(0, n + c, 5)] = 0
    cols = np.array(list(combinations(range(k), w)), dtype=np.intp)
    assert len(cols) >= 120
    want = GHW._tables(F2, row_digits(np.arange(2**w), 2, w), B, cols, n)
    supports, _, got = GHW._round_tables(F2, GHW._matrices(F2, B[..., :n], B[..., n:] if c else None), nj, w)
    assert supports.tolist() == cols.tolist()
    assert (got[1] is None) == (want[1] is None) == (c == 0)
    for g, x, dtype in [(got[0], want[0], np.dtype("<u8"))] + [(got[1], want[1], np.dtype(np.int64))] * (c > 0):
        assert g.dtype == x.dtype == dtype and g.shape == x.shape
        assert g.flags.c_contiguous and x.flags.c_contiguous and g.tobytes() == x.tobytes()


def _counted_bytes(F, k, w, n, c, nj):
    """The bytes of a round's tables of all messages, with, over GF(2^s),
    s > 1, the bit-planes their masks are OR-ed from, as _round_tables
    weighs them against the cap."""
    words = -(-n // 64)
    planes = F.s * words if F.p == 2 and F.s > 1 else 0
    return comb(k, w) * F.q**w * (words + planes + c) * 8 * nj


@pytest.mark.parametrize("F, k, w, nj", [(F2, 12, 6, 3), (F256, 4, 2, 1)], ids=["GF2", "GF256"])
def test_round_tables_stay_within_what_the_cap_counts(F, k, w, nj):
    # numpy reports its buffers to tracemalloc: a round peaks at what the
    # cap counts plus one gather
    rng = np.random.default_rng(7)
    mats, n = [rng.integers(0, F.q, (k, 48)) for _ in range(nj)], 48
    store = _store(F, mats)
    counted = _counted_bytes(F, k, w, n, 0, nj)
    assert counted <= GHW._TABLE_BYTES
    GHW._supports(k, w)
    tracemalloc.start()
    try:
        tabs = GHW._round_tables(F, store, nj, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tabs[2][0].nbytes == comb(k, w) * F.q**w * nj * 8
    assert peak <= counted + GHW._GATHER_ELEMS * 8


def test_char2_round_tables_take_no_field_product():
    # under the table cap a characteristic-2 search builds its tables with
    # no _tables call and no field.matmul, while a GF(3) search takes both
    binary = random_code(np.random.default_rng(21), F2, 12, 5)
    c1, c2 = random_nested_pair(np.random.default_rng(22), F4, 8, 4, 1)
    octal = random_code(np.random.default_rng(23), F8, 8, 3)
    # its d_1 run scans round w = 2, the one that builds tables
    ternary = random_code(np.random.default_rng(29), F3, 7, 4)
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


@pytest.mark.parametrize("gather", [1, None], ids=["chunk1", "default"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4, F8, F16]), st.data())
def test_row_tree_matches_plain_path(gather, F, data):
    # rounds w > r with r >= 3, which take the row tree's sparse levels past
    # its two dense ones, in both table modes, at every stop below the
    # bound, with and without C2
    k1 = data.draw(st.integers(4, {2: 7, 3: 5, 4: 5, 8: 4, 16: 4}[F.q]), label="k1")
    k2 = data.draw(st.integers(0, min(1, k1 - 3)), label="k2")
    n = data.draw(st.integers(k1, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if k2:
        c1, c2 = random_nested_pair(rng, F, n, k1, k2)
    else:
        c1, c2 = random_code(rng, F, n, k1), None
    r = data.draw(st.integers(3, min(k1 - k2, k1 - 1)), label="r")
    w = data.draw(st.integers(r + 1, k1), label="w")
    nsel = data.draw(st.integers(1, len(information(c1).mats)), label="nsel")
    upper = data.draw(st.integers(1, n + 1), label="upper")
    stop = data.draw(st.integers(0, upper - 1), label="stop")
    with budgets(gather=gather):
        _check_round(c1, c2, r, w, nsel, upper, stop)


def test_row_tree_prunes_every_two_row_prefix_at_d2():
    # two independent rows span a 2-dimensional subcode, of weight at least
    # d_2, so at upper = d_2 no node survives the dense levels: the sparse
    # levels weigh no third row, and the count is still every subspace's
    code = random_code(np.random.default_rng(41), F2, 12, 6)
    d2 = naive_ghw(code, 2)
    assert any(dense.shape[1] == 2 for _, dense, _ in GHW._row_trees(3, 6, F2))
    every = comb(6, 6) * count_full_support(6, 3, 2)
    for upper, weighed in ((d2, False), (13, True)):
        with mock.patch.object(GHW, "_descend", wraps=GHW._descend) as third:
            assert _check_round(code, None, 3, 6, 1, upper, 0)[2] == every
        assert third.called == weighed
    assert _check_round(code, None, 3, 6, 1, d2, 0) == (d2, None, every)


@pytest.mark.parametrize("F", [F2, F3], ids=["GF2", "GF3"])
def test_row_tree_rejects_a_light_leaf_without_full_support(F):
    # rows 0-2 of G are e_0, e_1, e_2: their span weighs 3, and every other
    # leaf of round (3, 5) reaches column 3 or 4, with 6 more coordinates
    # each.  That span is a leaf of the tree, below upper = 10, but has
    # columns 3 and 4 zero: it belongs to round (3, 3), so round (3, 5)
    # must neither pick it nor count it.  Over GF(2) each of columns 5-16 is
    # nonzero in row 3 or row 4 alone, a unit column; over GF(3) each is
    # nonzero in both rows, so columns 0-4 are G's only unit columns
    G = np.zeros((5, 17), dtype=np.int64)
    G[np.arange(5), np.arange(5)] = 1
    if F is F2:
        G[3, 5:11] = G[4, 11:17] = 1
    else:
        G[3, 5:], G[4, 5:11], G[4, 11:] = 1, 1, 2
    code = code_from_rows(F, G)
    mats, _, ghs = _round_inputs(code, None)
    assert np.array_equal(mats[0], G)
    assert GHW._row_trees(3, 5, F)[0][1].shape[1] == 2
    rejected = []
    place = RowTree.place

    def spy(self, path):
        ok, pos = place(self, path)
        rejected.extend(np.stack(path, axis=1)[~ok].tolist())
        return ok, pos

    with mock.patch.object(RowTree, "place", spy):
        got = GHW._scan_kernel(F, _store(F, mats, ghs), 1, 3, 5, 10, 0)
    assert got == (10, None, count_full_support(5, 3, F.q))
    assert [0, 0, 0] in rejected
    assert _check_round(code, None, 3, 5, 1, 10, 0) == got
    assert hierarchy(code).values[:3] == (1, 2, 3)
