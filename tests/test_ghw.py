import sys
from contextlib import ExitStack
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.code import bch_bound, code_from_rows, dual, is_cyclic, make_rs, new_code, support_weight
from ghwkit.enumeration import gaussian_binomial
from ghwkit.errors import BadHierarchy, BadRank, NotNested
from ghwkit.gf import build_field
from ghwkit.ghw import (
    ComputeOptions,
    Hierarchy,
    Report,
    _meets_c2_in_zero,
    ghw,
    hierarchy,
    hierarchy_auto,
    naive_ghw,
    naive_rghw,
    rghw,
    rhierarchy,
    rhigher_spectrum,
    wei_duality,
)
from ghwkit.infoset import information
from ghwkit.matrix import MatrixGF, rank_array, rref_array

from support import (
    HAMMING_7_4,
    brute_ghw,
    brute_rspectrum,
    cyclic_code_from_cosets,
    example_pairs,
    random_code,
    random_nested_pair,
)

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F13 = build_field(13)


def hamming():
    return code_from_rows(F2, HAMMING_7_4)


def verify_run(code, dec, run, c2=None):
    """Soundness instrumentation: recorded lower bounds never exceed the
    value, and the witness attains it."""
    assert run.value is not None
    for ev in run.rounds:
        assert ev.lower <= run.value, (ev, run.value)
    wit = run.witness
    assert wit is not None
    assert wit.weight == run.value
    R, rank, _ = wit.subspace.rref()
    assert rank == run.r and R == wit.subspace
    Gj = dec.mats[wit.mat_index]
    assert support_weight(Gj, wit.subspace) == run.value
    if c2 is not None:
        h2 = dual(c2).G.array
        enc = code.field.matmul(wit.subspace.array, Gj.array)
        assert rank_array(code.field, code.field.matmul(h2, enc.T)) == run.r


def test_ghw_examples():
    assert ghw(make_rs(F13, 6), 2) == 9  # MDS: d_r = n - k + r
    full = new_code(F2, MatrixGF.identity(F2, 5))
    assert ghw(full, 3) == 3
    assert ghw(hamming(), 2) == brute_ghw(hamming(), 2) == 5


def test_ghw_bad_rank():
    with pytest.raises(BadRank):
        ghw(hamming(), 0)
    with pytest.raises(BadRank):
        ghw(hamming(), 5)
    with pytest.raises(BadRank):
        naive_ghw(hamming(), 5)


def test_hierarchy_examples():
    assert hierarchy(make_rs(F13, 4)).values == (10, 11, 12, 13)
    assert hierarchy(new_code(F2, MatrixGF.identity(F2, 4))).values == (1, 2, 3, 4)
    got = hierarchy(hamming())
    assert got.values == tuple(brute_ghw(hamming(), r) for r in (1, 2, 3, 4)) == (3, 5, 6, 7)


def test_hierarchy_type_validates():
    with pytest.raises(BadHierarchy):
        Hierarchy((3, 3))
    with pytest.raises(BadHierarchy):
        Hierarchy((0, 1))


def test_mds_chaining_enumerates_nothing_after_d1():
    report = Report()
    C = make_rs(F13, 5)
    dec = information(C)
    h = hierarchy(C, ComputeOptions(report=report))
    assert h.values == (9, 10, 11, 12, 13)
    assert len(report.runs) == 5
    assert report.runs[0].subspaces_enumerated > 0
    for run in report.runs[1:]:
        assert run.subspaces_enumerated == 0  # chained bound met the upper bound
        verify_run(C, dec, run)


def test_rghw_reference_pairs():
    (c1, c2), (c1p, c2p) = example_pairs()
    assert rghw(c1, c2, 1) == 2 and rghw(c1, c2, 2) == 4
    assert rghw(c1p, c2p, 1) == 2 and rghw(c1p, c2p, 2) == 4
    assert rhierarchy(c1, c2).values == (2, 4)
    assert rhierarchy(c1p, c2p).values == (2, 4)
    # duals disagree in the second relative weight
    assert rghw(dual(c2), dual(c1), 2) == 3
    assert rghw(dual(c2p), dual(c1p), 2) == 4
    assert rhierarchy(dual(c2), dual(c1)).values == (2, 3)


def test_rghw_validation():
    (c1, c2), _ = example_pairs()
    with pytest.raises(BadRank):
        rghw(c1, c2, 3)
    with pytest.raises(BadRank):
        rghw(c1, c2, 0)
    other = code_from_rows(F2, [[1] * 10, [1, 0] * 5])
    with pytest.raises(NotNested):
        rghw(c1, other, 1)
    with pytest.raises(NotNested):
        rghw(c1, code_from_rows(F3, [[1, 1, 1]]), 1)
    with pytest.raises(NotNested):
        rghw(c1, c1, 1)  # k2 == k1


def test_naive_examples():
    assert naive_ghw(make_rs(build_field(5), 2), 1) == 4
    assert naive_ghw(new_code(F3, MatrixGF.identity(F3, 3)), 2) == 2
    (c1, c2), _ = example_pairs()
    assert naive_rghw(c1, c2, 1) == 2 and naive_rghw(c1, c2, 2) == 4


def test_oracle_equivalence_random():
    rng = np.random.default_rng(41)
    fields = [F2, F3, build_field(2, 2), build_field(5)]
    for F in fields:
        for _ in range(6):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, min(5, n) + 1))
            C = random_code(rng, F, n, k)
            for r in range(1, min(k, 3) + 1):
                expect = naive_ghw(C, r)
                assert ghw(C, r) == expect


def test_relative_oracle_equivalence_random():
    rng = np.random.default_rng(43)
    for F in (F2, F3):
        for _ in range(6):
            n = int(rng.integers(4, 10))
            k1 = int(rng.integers(2, min(5, n) + 1))
            k2 = int(rng.integers(1, k1))
            c1, c2 = random_nested_pair(rng, F, n, k1, k2)
            for r in range(1, min(k1 - k2, 2) + 1):
                expect = naive_rghw(c1, c2, r)
                assert rghw(c1, c2, r) == expect
                assert expect >= ghw(c1, r)  # relative bound


def test_monotonicity_and_singleton_bounds():
    rng = np.random.default_rng(47)
    for F in (F2, F3):
        for _ in range(8):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, min(5, n) + 1))
            C = random_code(rng, F, n, k)
            h = list(hierarchy(C))
            assert all(a < b for a, b in zip(h, h[1:]))
            for r, d in enumerate(h, start=1):
                assert r <= d <= C.n - C.k + r


def test_wei_duality_function():
    assert wei_duality([3, 5, 6, 7], 7).values == (4, 6, 7)
    assert wei_duality(range(1, 8), 7).values == ()
    h = (2, 5, 6)
    assert wei_duality(wei_duality(h, 9), 9).values == h
    with pytest.raises(BadHierarchy):
        wei_duality([3, 3], 7)
    with pytest.raises(BadHierarchy):
        wei_duality([0, 2], 7)
    with pytest.raises(BadHierarchy):
        wei_duality([2, 8], 7)


def test_duality_identity_random():
    rng = np.random.default_rng(53)
    for F in (F2, F3):
        for _ in range(8):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, n))
            C = random_code(rng, F, n, k)
            h = hierarchy(C)
            assert wei_duality(hierarchy(dual(C)), n).values == h.values
            assert hierarchy_auto(C).values == h.values


@pytest.mark.parametrize(
    "s,n,k,ranks,want",
    [(16, 7, 6, (4, 5, 6), (5, 6, 7)), (8, 10, 9, (8, 9), (9, 10))],
    ids=["GF(2^16)[7,6]", "GF(2^8)[10,9]"],
)
def test_weights_of_rounds_whose_row_codes_pass_int64(s, n, k, ranks, want):
    # rounds with q^w > 2^63 (w >= 4 over GF(2^16), w = 8 and 9 over
    # GF(2^8)) have row codes that int64 cannot hold
    C = random_code(np.random.default_rng(3), build_field(2, s), n, k)
    dec = information(C)
    for r, value in zip(ranks, want):
        report = Report()
        assert ghw(C, r, ComputeOptions(report=report)) == value
        verify_run(C, dec, report.runs[0])
    assert wei_duality(hierarchy(dual(C)), n).values[ranks[0] - 1 :] == want


def test_hierarchy_auto_examples():
    assert hierarchy_auto(hamming()).values == (3, 5, 6, 7)  # k > n/2: via dual
    simplex = dual(hamming())
    assert hierarchy_auto(simplex).values == (4, 6, 7)  # k <= n/2: direct
    full = new_code(F2, MatrixGF.identity(F2, 6))
    assert hierarchy_auto(full).values == tuple(range(1, 7))


def test_hierarchy_auto_reports_the_runs_on_the_dual():
    # k > n/2: the caller's report and progress receive the dual's runs
    C = random_code(np.random.default_rng(5), F3, 10, 7)
    D = dual(C)
    events, report = [], Report()
    h = hierarchy_auto(C, ComputeOptions(progress=events.append, report=report))
    assert h.values == hierarchy(C).values
    assert [run.r for run in report.runs] == list(range(1, D.k + 1))
    dec = information(D)
    for run in report.runs:
        verify_run(D, dec, run)
    assert events and events == [ev for run in report.runs for ev in run.rounds]


def test_options_take_no_lower_bound_or_decomposition():
    # the search proves its bounds from its own decomposition only
    for name, value in (("initial_lower", 9), ("info_sets", information(hamming()))):
        with pytest.raises(TypeError):
            ComputeOptions(**{name: value})


CYCLIC_CASES = (
    (F2, 7, [1]),
    (F2, 15, [1, 3]),
    (F2, 15, [1, 3, 5]),
    (F3, 13, [1, 2]),
    (F2, 9, [1]),
)


def test_cyclic_bound_does_not_break_correctness():
    for F, n, reps in CYCLIC_CASES:
        C = cyclic_code_from_cosets(F, n, reps)
        for r in (1, 2):
            if r > C.k or gaussian_binomial(C.k, r, F.q) > 200_000:
                continue
            assert ghw(C, r) == naive_ghw(C, r), (F.q, n, reps, r)
        if C.k <= 5:
            assert hierarchy(C).values[0] == naive_ghw(C, 1)


def test_cyclicity_through_the_systematic_matrix():
    # a code generated by M, the identity on I, is cyclic iff the shifted
    # rows S satisfy S[:, I]·M = S; the cyclic codes are also tried through
    # matrices systematic on rotated sets, and random codes include ones
    # whose first information set is not the leading columns
    is_cyc = sys.modules["ghwkit.ghw"]._is_cyclic
    for F, n, reps in CYCLIC_CASES:
        C = cyclic_code_from_cosets(F, n, reps)
        dec = information(C)
        iset = np.array(dec.sets[0]) - 1
        for t in range(n):
            assert is_cyc(F, np.roll(dec.mats[0].array, t, axis=1), (iset + t) % n + 1)
    rng = np.random.default_rng(67)
    seen = set()
    for _ in range(300):
        F = (F2, F3)[int(rng.integers(2))]
        n = int(rng.integers(2, 7))
        C = random_code(rng, F, n, int(rng.integers(1, n + 1)))
        dec = information(C)
        assert is_cyc(F, dec.mats[0].array, dec.sets[0]) == is_cyclic(C), C.G.array.tolist()
        seen.add((is_cyclic(C), dec.sets[0] != tuple(range(1, C.k + 1))))
    assert seen == {(False, False), (False, True), (True, False)}


def _rref_calls(fn) -> int:
    """How many times fn() calls rref_array, from any ghwkit module."""
    counting = mock.Mock(wraps=rref_array)
    with ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("ghwkit") and getattr(module, "rref_array", None) is rref_array:
                stack.enter_context(mock.patch.object(module, "rref_array", counting))
        fn()
    return counting.call_count


def test_a_search_on_a_non_cyclic_code_runs_one_rref_per_information_set():
    C = random_code(np.random.default_rng(7), F2, 24, 6)
    assert not is_cyclic(C)
    assert _rref_calls(partial(ghw, C, 2)) == information(C).m


def test_a_search_on_a_cyclic_code_runs_one_rref_per_information_set():
    # the BCH floor applies, and bch_bound takes cyclicity from the degree of
    # the generator polynomial rather than from a second rank test
    cyclic_floor = sys.modules["ghwkit.ghw"]._cyclic_floor
    for F, n, reps in CYCLIC_CASES:
        C = cyclic_code_from_cosets(F, n, reps)
        dec = information(C)
        assert cyclic_floor(C, dec.mats[0].array, dec.sets[0]) == bch_bound(C)
        assert _rref_calls(partial(ghw, C, 1)) == dec.m, (F.q, n, reps)


def test_witnesses_say_whether_they_were_synthesized():
    # an MDS code's starting witnesses, r systematic rows of weight
    # n - k + r, are already minimal; d_1 of the [48,12] code is found by
    # the rounds
    report = Report()
    hierarchy(make_rs(F13, 6), ComputeOptions(report=report))
    assert [run.witness.synthesized for run in report.runs] == [True] * 6
    C = random_code(np.random.default_rng(7), F2, 48, 12)
    dec, report = information(C), Report()
    assert ghw(C, 1, ComputeOptions(report=report)) == 12
    assert not report.runs[0].witness.synthesized
    verify_run(C, dec, report.runs[0])


def test_soundness_and_witnesses_on_instrumented_runs():
    rng = np.random.default_rng(61)
    for F in (F2, F3):
        for _ in range(6):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(5, n) + 1))
            C = random_code(rng, F, n, k)
            dec = information(C)
            report = Report()
            hierarchy(C, ComputeOptions(report=report))
            for run in report.runs:
                verify_run(C, dec, run)
    # a greedy decomposition that reuses a column (R = (0, 1))
    C = random_code(np.random.default_rng(84), F3, 11, 6)
    dec, report = information(C), Report()
    assert dec.reds == (0, 1)
    assert hierarchy(C, ComputeOptions(report=report)).values == (3, 5, 7, 9, 10, 11)
    assert tuple(naive_ghw(C, r) for r in (1, 2, 3)) == (3, 5, 7)
    for run in report.runs:
        verify_run(C, dec, run)


def test_relative_witnesses():
    (c1, c2), (c1p, c2p) = example_pairs()
    for a, b in ((c1, c2), (c1p, c2p)):
        dec = information(a)
        report = Report()
        rhierarchy(a, b, ComputeOptions(report=report))
        for run in report.runs:
            verify_run(a, dec, run, c2=b)


def test_progress_events():
    events = []
    C = code_from_rows(F2, HAMMING_7_4)
    v = ghw(C, 1, ComputeOptions(progress=events.append))
    assert v == 3
    assert events, "expected at least one round event"
    for ev in events:
        assert ev.r == 1 and ev.w >= 1 and ev.subspaces >= 0 and ev.elapsed_s >= 0
    # rounds are consecutive and bounds are sane
    assert [ev.w for ev in events] == list(range(1, len(events) + 1))
    assert all(ev.lower <= ev.upper for ev in events)


def test_zero_columns():
    # zero columns never contribute: d_k = n minus the number of zero columns
    C = code_from_rows(F2, [[1, 0, 1, 0, 0], [0, 0, 1, 0, 1]])
    h = hierarchy(C)
    assert h.values[-1] == 5 - 2
    assert h.values == tuple(naive_ghw(C, r) for r in (1, 2))
    rng = np.random.default_rng(79)
    base = random_code(rng, F3, 5, 3).G.array
    padded = np.insert(base, [1, 4], 0, axis=1)  # two zero columns
    C = code_from_rows(F3, padded)
    assert hierarchy(C).values[-1] == C.n - 2
    for r in (1, 2, 3):
        assert ghw(C, r) == naive_ghw(C, r)


def test_matrix_skipping_and_final_round_dropping():
    # [13, 4] MDS code: four information sets with redundancies (0, 0, 0, 3).
    # While w + 1 - R_j <= 0 the last matrix is skipped; in the predicted
    # final round a single matrix already closes the bounds.
    C = make_rs(F13, 4)
    dec = information(C)
    assert dec.reds == (0, 0, 0, 3)
    report = Report()
    v = ghw(C, 1, ComputeOptions(report=report))
    assert v == 10 == naive_ghw(C, 1)
    rounds = report.runs[0].rounds
    assert [ev.w for ev in rounds] == [1, 2, 3]
    assert [ev.active_mats for ev in rounds] == [3, 3, 1]
    assert rounds[-1].lower == rounds[-1].upper == 10


def test_matrix_sitting_out_early_rounds_earns_no_credit():
    # [12, 7] binary code with redundancies (0, 3, 6): for r <= 2 the last two
    # matrices skip round r, so they must not lift the lower bound later on.
    C = code_from_rows(F2, [
        [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0],
        [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1],
        [0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1],
        [1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1],
        [1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1],
    ])
    dec = information(C)
    assert dec.reds == (0, 3, 6)
    report = Report()
    h = hierarchy(C, ComputeOptions(report=report))
    assert h.values == (2, 4, 6, 8, 9, 11, 12)
    assert h.values == tuple(naive_ghw(C, r) for r in range(1, 8))
    for run in report.runs:
        verify_run(C, dec, run)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4]), st.data())
def test_relative_weights_against_brute_force(F, data):
    k1 = data.draw(st.integers(2, 4 if F.q == 2 else 3), label="k1")
    k2 = data.draw(st.integers(1, k1 - 1), label="k2")
    n = data.draw(st.integers(k1, 7), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    c1, c2 = random_nested_pair(np.random.default_rng(seed), F, n, k1, k2)
    spectrum = rhigher_spectrum(c1, c2)
    for r in range(1, k1 - k2 + 1):
        ref = brute_rspectrum(c1, c2, r)
        assert spectrum.counts[r] == ref, r
        assert rghw(c1, c2, r) == naive_rghw(c1, c2, r) == min(ref), r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([F2, F3, F4, build_field(5), build_field(2, 3), build_field(3, 2)]),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_c2_mask_against_rank(F, r, c, seed):
    # blocks of r syndromes with planted zero, repeated and combined rows;
    # with H2^T = I the mask must equal a per-block rank test
    rng = np.random.default_rng(seed)
    S = rng.integers(0, F.q, (50, r, c)) * (rng.random((50, r, c)) < 0.7)
    for blk in S:
        i, j, l = rng.integers(r, size=3)
        kind = rng.integers(4)
        if kind == 0:
            blk[i] = 0
        elif kind == 1:
            blk[i] = blk[j]
        elif kind == 2:
            a, b = rng.integers(F.q, size=2)
            blk[i] = F.add_arrays(F.mul_arrays(blk[j], a), F.mul_arrays(blk[l], b))
    got = _meets_c2_in_zero(F, S, np.eye(c, dtype=np.int64), r)
    assert got.tolist() == [rank_array(F, blk) == r for blk in S]
