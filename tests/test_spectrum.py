import sys
from unittest import mock

import numpy as np
import pytest

from ghwkit.code import code_from_rows, make_rs, new_code
from ghwkit.enumeration import gaussian_binomial
from ghwkit.errors import WorkLimitExceeded
from ghwkit.gf import build_field
from ghwkit.ghw import ComputeOptions, ghw, higher_spectrum, rhigher_spectrum
from ghwkit.matrix import MatrixGF

from support import brute_spectrum, example_pairs, random_code, random_nested_pair

GHW = sys.modules["ghwkit.ghw"]

F2 = build_field(2)
F3 = build_field(3)


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
    code = random_code(np.random.default_rng(79), F3, 8, 4)
    pair = random_nested_pair(np.random.default_rng(83), F3, 8, 5, 2)
    for c1, c2 in ((code, None), pair):
        events = []
        opts = ComputeOptions(progress=events.append)
        with mock.patch.object(GHW, "_round_tables", wraps=GHW._round_tables) as built, \
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
