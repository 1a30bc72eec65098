import sys
import tracemalloc
from math import comb, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.code import code_from_rows, dual, make_rs, new_code
from ghwkit.enumeration import gaussian_binomial
from ghwkit.errors import WorkLimitExceeded
from ghwkit.gf import build_field
from ghwkit.ghw import ComputeOptions, ghw, hierarchy, higher_spectrum, rhierarchy, rhigher_spectrum
from ghwkit.matrix import MatrixGF

from support import brute_rspectrum, brute_spectrum, example_pairs, random_code, random_nested_pair

GHW = sys.modules["ghwkit.ghw"]

F2 = build_field(2)
F3 = build_field(3)
F4, F5, F8, F16 = build_field(2, 2), build_field(5), build_field(2, 3), build_field(2, 4)


def test_spectrum_examples():
    rep = code_from_rows(F2, [[1, 1]])
    sp = higher_spectrum(rep)
    assert sp.counts[0] == {0: 1}
    assert sp.counts[1] == {2: 1}

    # r = k on a code with no zero columns: the single subcode is C itself
    C = code_from_rows(F3, [[1, 0, 2], [0, 1, 1]])
    sp = higher_spectrum(C)
    assert sp.counts[0] == {0: 1}
    assert sp.counts[2] == {3: 1}


def test_spectrum_against_brute_force():
    rng = np.random.default_rng(67)
    for F, kmax in ((F2, 4), (F3, 3)):
        for _ in range(4):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, min(kmax, n) + 1))
            C = random_code(rng, F, n, k)
            sp = higher_spectrum(C)
            for r in range(1, k + 1):
                assert sp.counts[r] == brute_spectrum(C, r), (F.q, n, k, r)


def test_spectrum_consistency():
    rng = np.random.default_rng(71)
    for F in (F2, F3, build_field(2, 2)):
        for _ in range(4):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(5, n) + 1))
            C = random_code(rng, F, n, k)
            sp = higher_spectrum(C)
            assert sp.counts[0] == {0: 1}
            for r in range(0, k + 1):
                assert sp.total(r) == gaussian_binomial(k, r, F.q)
                if r >= 1:
                    assert sp.min_support(r) == ghw(C, r)


def test_relative_spectrum_paper_pair():
    (c1, c2), _ = example_pairs()
    rsp = rhigher_spectrum(c1, c2)
    q, k1, k2 = 2, c1.k, c2.k
    assert rsp.counts[0] == {0: 1}
    assert rsp.total(1) == ((q**k1 - 1) - (q**k2 - 1)) // (q - 1)
    assert rsp.min_support(2) == 4  # = M_2(C1, C2)
    assert set(rsp.counts) == {0, 1, 2}  # r <= k1 - k2


@pytest.mark.parametrize("table", [None, 0], ids=["kernel", "per-block"])
def test_spectrum_rounds_and_table_builds(table):
    # rounds go by w, then r: each w's tables are built once and serve every
    # r <= w, and each r's rounds together enumerate its whole Grassmannian.
    # With a cap of 0 no table of all q^w messages, whose row 0 is the zero
    # message, is built: every table holds a block's own (nonzero) rows.
    # Subset sums are predicted faster on these codes, so the path is pinned.
    code = random_code(np.random.default_rng(79), F3, 8, 4)
    pair = random_nested_pair(np.random.default_rng(83), F3, 8, 5, 2)
    for c1, c2 in ((code, None), pair):
        events = []
        opts = ComputeOptions(progress=events.append)
        with mock.patch.object(GHW, "_by_subset_sums", return_value=False), \
                mock.patch.object(GHW, "_round_tables", wraps=GHW._round_tables) as built, \
                mock.patch.object(GHW, "_tables", wraps=GHW._tables) as tabulated, \
                mock.patch.object(GHW, "_TABLE_BYTES", GHW._TABLE_BYTES if table is None else table):
            sp = higher_spectrum(c1, opts) if c2 is None else rhigher_spectrum(c1, c2, opts)
        k, rmax = c1.k, max(sp.counts)
        assert built.call_count == k
        assert {not call.args[1][0].any() for call in tabulated.call_args_list} == {table is None}
        assert [(e.r, e.w) for e in events] == [
            (r, w) for w in range(1, k + 1) for r in range(1, min(w, rmax) + 1)
        ]
        for r in range(1, rmax + 1):
            assert sum(e.subspaces for e in events if e.r == r) == gaussian_binomial(k, r, F3.q)


def test_relative_spectrum_point_count_random():
    rng = np.random.default_rng(73)
    for F in (F2, F3):
        for _ in range(4):
            n = int(rng.integers(4, 9))
            k1 = int(rng.integers(2, min(4, n) + 1))
            k2 = int(rng.integers(1, k1))
            c1, c2 = random_nested_pair(rng, F, n, k1, k2)
            rsp = rhigher_spectrum(c1, c2)
            expect = ((F.q**k1 - 1) - (F.q**k2 - 1)) // (F.q - 1)
            assert rsp.total(1) == expect


def test_work_limit():
    C = make_rs(build_field(13), 6)
    with pytest.raises(WorkLimitExceeded):
        higher_spectrum(C, ComputeOptions(work_limit=1000))
    full = new_code(F2, MatrixGF.identity(F2, 3))
    sp = higher_spectrum(full, ComputeOptions(work_limit=10**6))
    assert sp.total(1) == 7


def _by_path(c1, c2=None):
    """The spectra of C1 (meeting C2 in 0) by subset sums and by
    enumeration, each forced."""
    spectra = []
    for subset in (True, False):
        with mock.patch.object(GHW, "_by_subset_sums", return_value=subset):
            spectra.append((higher_spectrum(c1) if c2 is None else rhigher_spectrum(c1, c2)).counts)
    return spectra


def _check_paths(c1, c2=None):
    """Both paths give one spectrum, which brute force confirms where it is
    small (at most 3,000 r-tuples of nonzero messages)."""
    by_sums, by_enumeration = _by_path(c1, c2)
    assert by_sums == by_enumeration
    q, k1 = c1.field.q, c1.k
    for r in range(1, k1 - (0 if c2 is None else c2.k) + 1):
        if comb(q**k1 - 1, r) <= 3000:
            assert by_sums[r] == (brute_spectrum(c1, r) if c2 is None else brute_rspectrum(c1, c2, r)), r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4, F5, F8, F16]), st.data())
def test_subset_sums_agree_with_enumeration(F, data):
    k1 = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3, 5: 3, 8: 2, 16: 2}[F.q]), label="k1")
    n = data.draw(st.integers(k1, 11), label="n")
    k2 = data.draw(st.integers(0, k1 - 1), label="k2")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if k2:
        _check_paths(*random_nested_pair(rng, F, n, k1, k2))
    else:
        _check_paths(random_code(rng, F, n, k1))


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F8, F16], ids=lambda F: f"GF{F.q}")
def test_subset_sums_on_edge_cases(F):
    rng = np.random.default_rng(F.q)
    base = random_code(rng, F, 5, 2).G.array
    zero_columns = code_from_rows(F, np.hstack([base[:, :2], np.zeros((2, 3), dtype=np.int64), base[:, 2:]]))
    repeated_columns = code_from_rows(F, np.hstack([base, base[:, :2], base[:, :1]]))
    whole_space = random_code(rng, F, 3, 3)
    single = code_from_rows(F, [[1 + int(rng.integers(F.q - 1))]])
    for code in (zero_columns, repeated_columns, whole_space, single):
        _check_paths(code)
    _check_paths(*random_nested_pair(rng, F, 6, 3, 2))
    _check_paths(*random_nested_pair(rng, F, 2, 2, 1))


def test_subset_sums_on_counts_of_four_bytes():
    # 5^5 | 5^4 << 12 needs a uint32 count, whose exponents are read from its
    # float32 binade
    c1, c2 = random_nested_pair(np.random.default_rng(5), F5, 7, 5, 4)
    assert GHW._count_layout(F5, 7, 5, 4)[1] == np.uint32
    _check_paths(c1, c2)


def test_subset_sums_refused_past_int64_counts():
    # GF(2^8) [20,8]: q^k1 = 2^64 does not fit an int64 count, so the work
    # limit refuses the spectrum by its Grassmannian alone
    F256 = build_field(2, 8)
    code = random_code(np.random.default_rng(3), F256, 20, 8)
    assert GHW._count_layout(F256, 20, 8, None) is None
    with pytest.raises(WorkLimitExceeded, match=r"its largest Grassmannian has \d+ subspaces$"):
        higher_spectrum(code)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_subset_sums_against_their_definition(dtype):
    # g[T] = Σ_{S ⊆ T} f[S] by its definition, for n = 0..12, odd and even,
    # on random counts whose full sum, the largest entry of g, fills the
    # dtype.  The counts keep their popcount classes in place, which the
    # histogram of (|T|, a, b) reads.
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    top = np.iinfo(dtype).max
    for n in range(13):
        weights = rng.integers(1, 1 << 16, 1 << n).astype(object) ** 4
        f = (weights * top // weights.sum()).astype(dtype)
        f[rng.integers(1 << n)] += top - f.sum(dtype=object)
        sets = np.arange(1 << n)
        expect = np.array([f[sets & T == sets].sum(dtype=dtype) for T in sets], dtype=dtype)
        counts = f.copy()
        g = GHW._subset_sums(counts, n)
        assert np.array_equal(g.ravel(), expect), n
        sizes = np.bitwise_count(sets)
        for u in range(n + 1):
            assert np.array_equal(np.sort(counts[sizes == u]), np.sort(expect[sizes == u])), (n, u)


def test_subset_sums_hold_only_the_counts():
    # GF(4) [20,6] goes by subset sums, and its only 2^n-sized array is its
    # 2 MiB of uint16 counts: the traced peak stays within them plus 1 MiB
    code = random_code(np.random.default_rng(3), F4, 20, 6)
    assert GHW._count_layout(F4, 20, 6, None)[1] == np.uint16
    events = []
    tracemalloc.start()
    try:
        sp = higher_spectrum(code, ComputeOptions(progress=events.append))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.subspaces for e in events] == [0] * 6
    assert peak <= (2 << 20) + (1 << 20), peak
    assert sp.counts == _by_path(code)[1]


def test_subset_sums_open_past_n_21():
    # GF(2) [22,11]: its largest Grassmannian, [11,5]_2, has 3,548,836,819
    # subspaces, over the default work limit, while its 2^22 two-byte counts
    # fit the budget
    code = random_code(np.random.default_rng(3), F2, 22, 11)
    assert GHW._count_layout(F2, 22, 11, None)[1] == np.uint16
    sp = higher_spectrum(code)
    d = hierarchy(code).values
    for r in range(1, 12):
        assert sp.total(r) == gaussian_binomial(11, r, 2), r
        assert sp.min_support(r) == d[r - 1], r


def _extension_weights(spectrum: dict, q: int, m: int) -> dict:
    """Kløve's identity: the weight distribution of C ⊗ GF(q^m) from C's
    spectra, W_m(w) = Σ_r A_w^(r)·Π_{i<r}(q^m − q^i)."""
    weights = {}
    for r, row in spectrum.items():
        scale = prod(q**m - q**i for i in range(r))
        for w, a in row.items():
            weights[w] = weights.get(w, 0) + a * scale
    return weights


def _krawtchouk(n: int, Q: int, w: int, j: int) -> int:
    return sum((-1) ** i * (Q - 1) ** (w - i) * comb(j, i) * comb(n - j, w - i) for i in range(w + 1))


@pytest.mark.parametrize("F", [F2, F3, F4], ids=["GF2", "GF3", "GF4"])
def test_spectra_satisfy_macwilliams_over_every_extension(F):
    # Kløve (1992): the spectra of C give the weight distribution of C over
    # GF(q^m), whose dual is dual(C) over GF(q^m); so the two sums of
    # spectra must satisfy the MacWilliams identity
    # |C ⊗ GF(Q)|·W⊥(w) = Σ_j W(j)·K_w(j), Q = q^m, for every m, on each path
    rng = np.random.default_rng(100 + F.q)
    for _ in range(3):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(n - 1, {2: 6, 3: 4, 4: 3}[F.q]) + 1))
        code = random_code(rng, F, n, k)
        for spectrum, dual_spectrum in zip(_by_path(code), _by_path(dual(code))):
            for m in range(1, k + 1):
                Q = F.q**m
                W, W_dual = _extension_weights(spectrum, F.q, m), _extension_weights(dual_spectrum, F.q, m)
                assert sum(W.values()) == Q**k and sum(W_dual.values()) == Q ** (n - k)
                for w in range(n + 1):
                    assert Q**k * W_dual.get(w, 0) == sum(W[j] * _krawtchouk(n, Q, w, j) for j in W), (n, k, m, w)


def test_hierarchies_are_the_least_supports_of_the_spectra():
    # d_r = min_support(r) for every r, through the search, where the naive
    # oracle cannot reach every r, against both spectrum paths
    cases = [(random_code(np.random.default_rng(3), F2, 16, 8), None),
             (random_code(np.random.default_rng(3), F3, 12, 6), None),
             random_nested_pair(np.random.default_rng(3), F3, 14, 6, 2)]
    for c1, c2 in cases:
        values = (hierarchy(c1) if c2 is None else rhierarchy(c1, c2)).values
        for counts in _by_path(c1, c2):
            assert tuple(min(counts[r]) for r in range(1, len(values) + 1)) == values


def test_gf16_spectrum_of_a_20_6_code():
    # 8.3·10^10 subspaces, above the default work limit; subset sums take
    # 16^6 codeword supports and 20·2^20 transform steps.  The dual's
    # weights over every GF(16^m), by MacWilliams from Kløve's identity,
    # are whole and nonnegative, with one word of weight 0
    code = random_code(np.random.default_rng(3), F16, 20, 6)
    sp = higher_spectrum(code)
    for r in range(7):
        assert sp.total(r) == gaussian_binomial(6, r, 16)
    assert tuple(sp.min_support(r) for r in range(1, 7)) == hierarchy(code).values
    for m in range(1, 7):
        Q, W = 16**m, _extension_weights(sp.counts, 16, m)
        dual_weights = [sum(W[j] * _krawtchouk(20, Q, w, j) for j in W) for w in range(21)]
        assert dual_weights[0] == Q**6
        assert all(x >= 0 and x % Q**6 == 0 for x in dual_weights)


def test_work_limit_takes_a_path_that_fits():
    # GF(2) [16,8]: subset sums take 2^8 + 16·2^16 = 1,048,832 elements,
    # enumeration's largest Grassmannian [8,4]_2 has 200,787 subspaces; a
    # limit of 10^6 leaves enumeration, one below 200,787 neither
    code = random_code(np.random.default_rng(3), F2, 16, 8)
    events = []
    sp = higher_spectrum(code, ComputeOptions(work_limit=10**6, progress=events.append))
    assert sp == higher_spectrum(code) and sum(e.subspaces for e in events) == 417_198
    with pytest.raises(WorkLimitExceeded, match="200787 subspaces and its subset sums 1048832"):
        higher_spectrum(code, ComputeOptions(work_limit=200_786))
    # GF(4) [10,6]: 4^6 + 10·2^10 = 14,336 elements against [6,3]_4 =
    # 376,805 subspaces; a limit of 20,000 leaves subset sums only, which
    # are taken even where enumeration is predicted faster
    code = random_code(np.random.default_rng(3), F4, 10, 6)
    events = []
    with mock.patch.object(GHW, "_by_subset_sums", return_value=False):
        sp = higher_spectrum(code, ComputeOptions(work_limit=20_000, progress=events.append))
        assert sp == higher_spectrum(code)
    assert [e.subspaces for e in events] == [0] * 6
