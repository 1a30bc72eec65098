import dataclasses
import json
import sys
from contextlib import ExitStack
from functools import partial
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ghwkit.code import (
    _bch_from_generator,
    _cyclic_generator,
    bch_bound,
    code_from_rows,
    dual,
    generator_polynomial,
    is_cyclic,
    make_rs,
    new_code,
)
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
from ghwkit.matrix import MatrixGF, eliminate_rows, rank_array

from support import (
    HAMMING_7_4,
    brute_ghw,
    brute_rspectrum,
    cyclic_code_from_cosets,
    example_pairs,
    random_code,
    random_nested_pair,
    verify_run,
)

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F5 = build_field(5)
F8 = build_field(2, 3)
F13 = build_field(13)
GHW = sys.modules["ghwkit.ghw"]


def hamming():
    return code_from_rows(F2, HAMMING_7_4)


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


@pytest.mark.parametrize("fn", [ghw, rghw, naive_ghw, naive_rghw])
def test_a_rank_must_be_an_integer(fn):
    # floats and bools are refused up front, not by a TypeError deep in the
    # search; numpy integers pass through operator.index
    (c1, c2), _ = example_pairs()
    codes = (c1,) if fn in (ghw, naive_ghw) else (c1, c2)
    for r in (2.0, 1.5, True, False, "1", None):
        with pytest.raises(BadRank):
            fn(*codes, r)
    assert fn(*codes, np.int64(2)) == fn(*codes, 2)


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


def test_wei_duality_takes_only_integer_weights():
    # a float is not truncated and a bool is not read as 1; numpy integers
    # pass through operator.index
    for h, n in (([2.7], 4), ([True, 2], 3), ([1, False], 3), (["2"], 3)):
        with pytest.raises(BadHierarchy):
            wei_duality(h, n)
    assert wei_duality(np.array([3, 5, 6, 7]), 7).values == (4, 6, 7)
    with pytest.raises(BadHierarchy):
        Hierarchy((True, 2))


@pytest.mark.parametrize("n", [7.0, 6.5, True, "7", None], ids=repr)
def test_wei_duality_takes_only_an_integer_length(n):
    # a float or string length is not left to a TypeError, and a bool is not
    # read as 1; numpy integers pass
    with pytest.raises(BadHierarchy):
        wei_duality([1], n)
    assert wei_duality([3, 5, 6, 7], np.int64(7)).values == (4, 6, 7)


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


def test_options_print_nothing_themselves():
    # round lines are the CLI's progress callback; the library only forwards
    with pytest.raises(TypeError):
        ComputeOptions(verbose=True)


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
    # a code generated by M, the identity on {1..k}, is cyclic iff its
    # shifted rows S satisfy S[:, :k]·M = S; random codes include ones whose
    # first information set is not the leading columns, and none of those
    # is cyclic
    rng = np.random.default_rng(67)
    seen = set()
    for _ in range(300):
        F = (F2, F3)[int(rng.integers(2))]
        n = int(rng.integers(2, 7))
        C = random_code(rng, F, n, int(rng.integers(1, n + 1)))
        dec = information(C)
        leading = dec.sets[0] == tuple(range(1, C.k + 1))
        cyclic = leading and _cyclic_generator(F, dec.mats[0].array) is not None
        assert cyclic == is_cyclic(C), C.G.array.tolist()
        seen.add((is_cyclic(C), not leading))
    assert seen == {(False, False), (False, True), (True, False)}


def test_generator_polynomial_from_the_systematic_matrix():
    # a cyclic code's first information set is {1..k}, and the last row of
    # its systematic matrix there is x^(k-1)·g(x)/g_0, so g is read off it:
    # it is the g that cyclic_code_from_cosets builds into row 0, and the
    # BCH floor taken from it is bch_bound's.  Over GF(3), x - 1 of length 4
    # and the code of length 8 have g_0 = 2, so that row is not monic
    for F, n, reps in CYCLIC_CASES + ((F3, 4, [0]), (F3, 8, [1])):
        C = cyclic_code_from_cosets(F, n, reps)
        dec = information(C)
        assert dec.sets[0] == tuple(range(1, C.k + 1))
        g = _cyclic_generator(F, dec.mats[0].array)
        assert g.tolist() == C.G.array[0, : n - C.k + 1].tolist() == generator_polynomial(C), (F.q, n, reps)
        assert _bch_from_generator(F, n, g) == bch_bound(C)


def test_only_a_leading_information_set_reaches_the_cyclicity_product():
    # _cyclic_floor rejects a code whose first information set is not
    # {1..k}, or whose length the characteristic divides, before the
    # product of _cyclic_generator; every other code reaches it, and the
    # floor is bch_bound exactly when the code is cyclic
    GHW = sys.modules["ghwkit.ghw"]
    rng = np.random.default_rng(71)
    seen = set()
    for _ in range(300):
        F = (F2, F3)[int(rng.integers(2))]
        n = int(rng.integers(2, 8))
        C = random_code(rng, F, n, int(rng.integers(1, n + 1)))
        dec = information(C)
        leading = dec.sets[0] == tuple(range(1, C.k + 1)) and n % F.p != 0
        with mock.patch.object(GHW, "_cyclic_generator", wraps=GHW._cyclic_generator) as product:
            floor = GHW._cyclic_floor(C, dec.mats[0].array, dec.sets[0])
        assert product.called == leading, C.G.array.tolist()
        assert floor == (bch_bound(C) if leading and is_cyclic(C) else None), C.G.array.tolist()
        seen.add((leading, is_cyclic(C)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_cyclic_floor_past_the_largest_field():
    # the binary all-ones [47,1] code is cyclic, but its BCH bound needs
    # GF(2^23), since ord_47(2) = 23: the floor is tried and is None, and
    # the search still finds the one weight
    C = code_from_rows(F2, [[1] * 47])
    dec = information(C)
    with mock.patch.object(GHW, "_bch_from_generator", wraps=GHW._bch_from_generator) as bch:
        assert GHW._cyclic_floor(C, dec.mats[0].array, dec.sets[0]) is None
    assert bch.called
    assert hierarchy(C).values == (47,)


def _eliminations(fn) -> int:
    """How many times fn() calls eliminate_rows, the elimination under
    rref_array, rank_array and information, from any ghwkit module."""
    counting = mock.Mock(wraps=eliminate_rows)
    with ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("ghwkit") and getattr(module, "eliminate_rows", None) is eliminate_rows:
                stack.enter_context(mock.patch.object(module, "eliminate_rows", counting))
        fn()
    return counting.call_count


def test_a_search_on_a_non_cyclic_code_runs_one_rref_per_information_set():
    C = random_code(np.random.default_rng(7), F2, 24, 6)
    assert not is_cyclic(C)
    assert _eliminations(partial(ghw, C, 2)) == information(C).m


def test_a_search_on_a_cyclic_code_runs_one_rref_per_information_set():
    # the BCH floor applies, and bch_bound takes cyclicity from the degree of
    # the generator polynomial rather than from a second rank test
    cyclic_floor = sys.modules["ghwkit.ghw"]._cyclic_floor
    for F, n, reps in CYCLIC_CASES:
        C = cyclic_code_from_cosets(F, n, reps)
        dec = information(C)
        assert cyclic_floor(C, dec.mats[0].array, dec.sets[0]) == bch_bound(C)
        assert _eliminations(partial(ghw, C, 1)) == dec.m, (F.q, n, reps)


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


def test_each_run_builds_one_witness():
    # rounds return positions and a run builds its one Witness at its end.
    # The [18,8] code's hierarchy has a run with no round (r = 8), starting
    # witnesses kept (r = 7, 8) and witnesses from rounds w = r and w > r;
    # the relative hierarchy's witnesses come from rounds w = r and w > r
    queries = (
        partial(hierarchy, random_code(np.random.default_rng(9), F2, 18, 8)),
        partial(rhierarchy, *random_nested_pair(np.random.default_rng(17), F2, 12, 5, 2)),
    )
    for query, synthesized in zip(queries, ({False, True}, {False})):
        report = Report()
        with mock.patch.object(GHW, "Witness", wraps=GHW.Witness) as built:
            query(ComputeOptions(report=report))
        assert built.call_count == len(report.runs) == len({id(run.witness) for run in report.runs})
        assert {run.witness.synthesized for run in report.runs} == synthesized
        late = [len(run.witness.subspace.support()) > run.r for run in report.runs]
        assert any(late) and not all(late)


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_report_fields_are_plain_ints(relative):
    # each hierarchy runs rounds w = r and row-tree rounds w > r, one of
    # which stops part way (at visit 10 of the binary [14,6] code's round
    # (3, 4), at visit 4 of the relative round (3, 4)): a numpy integer
    # leaking from either path into a report would not survive json.dumps
    rng = np.random.default_rng(17 if relative else 10)
    events, report, stops, tree = [], Report(), [], GHW._tree_weigh

    def spy(*args):
        out = tree(*args)
        stops.append(out[2])
        return out

    opts = ComputeOptions(progress=events.append, report=report)
    with mock.patch.object(GHW, "_tree_weigh", spy):
        if relative:
            rhierarchy(*random_nested_pair(rng, F2, 12, 5, 2), opts)
        else:
            hierarchy(random_code(rng, F2, 14, 6), opts)
    assert any(ev.w == ev.r for ev in events) and any(stops)
    for ev in events:
        assert all(type(x) is int for x in (ev.r, ev.w, ev.lower, ev.upper, ev.active_mats, ev.subspaces))
        json.dumps(dataclasses.asdict(ev))
    for run in report.runs:
        assert all(type(x) is int for x in (run.value, run.subspaces_enumerated))
        assert all(type(x) is int for x in (run.witness.mat_index, run.witness.weight))


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


# a [12, 7] binary code with redundancies (0, 3, 6)
REDS_0_3_6 = [
    [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1],
    [0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1],
    [1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1],
    [1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1],
]


def test_matrix_sitting_out_early_rounds_earns_no_credit():
    # [12, 7] binary code with redundancies (0, 3, 6): for r <= 2 the last two
    # matrices skip round r, so they must not lift the lower bound later on.
    C = code_from_rows(F2, REDS_0_3_6)
    dec = information(C)
    assert dec.reds == (0, 3, 6)
    report = Report()
    h = hierarchy(C, ComputeOptions(report=report))
    assert h.values == (2, 4, 6, 8, 9, 11, 12)
    assert h.values == tuple(naive_ghw(C, r) for r in range(1, 8))
    for run in report.runs:
        verify_run(C, dec, run)


def test_a_matrix_whose_redundancy_is_r_takes_part_in_run_r():
    # the code above: run r = 3 starts from the credit 3 - 0 of G_0, and
    # G_1, credited 3 - 3 = 0, still takes part, so round (3, 3) scans both
    # matrices and raises the lower bound from 3 to 5
    report = Report()
    assert ghw(code_from_rows(F2, REDS_0_3_6), 3, ComputeOptions(report=report)) == 6
    assert [(ev.w, ev.lower, ev.active_mats) for ev in report.runs[0].rounds] == [(3, 5, 2), (4, 6, 1)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4]), st.data())
def test_round_lower_bounds_follow_from_the_redundancies(F, data):
    # on a non-cyclic code a single run's lower bound is the start credit
    # sum_{R_j <= r} (r - R_j) plus one per matrix each round scanned, so
    # the decomposition's redundancies and the events certify it
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.integers(k, 9), label="n")
    r = data.draw(st.integers(1, k), label="r")
    C = random_code(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), F, n, k)
    assume(not is_cyclic(C))
    report = Report()
    assert ghw(C, r, ComputeOptions(report=report)) == naive_ghw(C, r)
    covered = sum(r - red for red in information(C).reds if red <= r)
    for ev in report.runs[0].rounds:
        covered += ev.active_mats
        assert ev.lower == min(ev.upper, covered), (ev, covered)


def test_start_credit_closes_a_run_before_any_round():
    # six disjoint information sets, all with R = 0: the start credit
    # 6 * (1 - 0) meets the starting witness's weight 6
    C = code_from_rows(F3, [[1, 1, 1, 1, 1, 2]])
    assert information(C).reds == (0,) * 6
    report = Report()
    assert ghw(C, 1, ComputeOptions(report=report)) == 6
    run = report.runs[0]
    assert run.rounds == [] and run.subspaces_enumerated == 0
    assert run.witness.synthesized


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
    got = _meets_c2_in_zero(F, S, np.eye(c, dtype=np.int64))
    assert got.tolist() == [rank_array(F, blk) == r for blk in S]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4, F5]), st.data())
def test_averaging_bound_against_the_oracles(F, data):
    # the oracles' hierarchies obey d_r >= ceil((q^r - 1) d_{r-1} / (q^r - q)),
    # absolute and relative, and the searches, each run r >= 2 seeded with
    # that bound of the run before, equal them
    k = data.draw(st.integers(2, 5 if F.q == 2 else 3), label="k")
    n = data.draw(st.integers(k, 8), label="n")
    k2 = data.draw(st.integers(0, k - 2), label="k2")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if k2:
        c1, c2 = random_nested_pair(rng, F, n, k, k2)
        run, oracle = partial(rhierarchy, c1, c2), partial(naive_rghw, c1, c2)
    else:
        c1, c2 = random_code(rng, F, n, k), None
        run, oracle = partial(hierarchy, c1), partial(naive_ghw, c1)
    report = Report()
    with mock.patch.object(GHW, "_run", wraps=GHW._run) as runs:
        got = run(ComputeOptions(report=report)).values
    assert got == tuple(oracle(r) for r in range(1, k - k2 + 1))
    dec = information(c1)
    for r, (prev, value) in enumerate(zip(got, got[1:]), start=2):
        seed = -(-(F.q**r - 1) * prev // (F.q**r - F.q))
        assert value >= seed > prev
        r_arg, lower = runs.call_args_list[r - 1].args[-3:-1]
        assert r_arg == r and lower >= seed
    for one in report.runs:
        verify_run(c1, dec, one, c2=c2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4, F8]), st.data())
def test_relative_weights_with_spare_checks(F, data):
    # n - k2 >= k1 - k2 + 2, so C2 has checks that C1 does not need; the
    # brute force enumerates C(q^k1 - 1, r) tuples, kept to a few thousand
    k1 = data.draw(st.integers(2, {2: 5, 3: 4, 4: 4, 8: 3}[F.q]), label="k1")
    lo = min(k2 for k2 in range(1, k1) if comb(F.q**k1 - 1, k1 - k2) <= 4000)
    k2 = data.draw(st.integers(lo, k1 - 1), label="k2")
    n = data.draw(st.integers(k1 + 2, 9), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    c1, c2 = random_nested_pair(np.random.default_rng(seed), F, n, k1, k2)
    report = Report()
    got = rhierarchy(c1, c2, ComputeOptions(report=report)).values
    spectrum = rhigher_spectrum(c1, c2)
    dec = information(c1)
    for r in range(1, k1 - k2 + 1):
        ref = brute_rspectrum(c1, c2, r)
        assert spectrum.counts[r] == ref, r
        assert got[r - 1] == naive_rghw(c1, c2, r) == min(ref), r
        verify_run(c1, dec, report.runs[r - 1], c2=c2)


def test_the_search_keeps_k1_minus_k2_checks_and_the_oracle_all():
    c1, c2 = random_nested_pair(np.random.default_rng(5), F3, 12, 4, 2)
    h2t, rmax = GHW._nested_pair(c1, c2)
    assert h2t.shape == (12, 2) and rmax == 2
    with mock.patch.object(GHW, "_scan_kernel", wraps=GHW._scan_kernel) as kernel, \
            mock.patch.object(GHW, "_scan_round", wraps=GHW._scan_round) as plain:
        assert rghw(c1, c2, 2) == naive_rghw(c1, c2, 2)
    assert {call.args[1].stack.shape[1:] for call in kernel.call_args_list} == {(4, 12 + 2)}
    assert {call.args[6].shape for call in plain.call_args_list} == {(12, 10)}


@pytest.mark.parametrize("F", [F2, F3, F4], ids=["GF2", "GF3", "GF4"])
def test_a_c2_partly_inside_or_outside_c1_is_not_nested(F):
    rng = np.random.default_rng(17)
    c1 = random_code(rng, F, 8, 4)
    while True:
        extra = random_code(rng, F, 8, 3).G.array
        if rank_array(F, np.vstack([c1.G.array, extra])) == 7:
            break
    partly = code_from_rows(F, np.vstack([c1.G.array[:1], extra[:1]]))
    outside = code_from_rows(F, extra[:2])
    for c2, meet in ((partly, 1), (outside, 0)):
        assert rank_array(F, np.vstack([c1.G.array, c2.G.array])) == 4 + 2 - meet
        for fn in (partial(rghw, c1, c2, 1), partial(naive_rghw, c1, c2, 1),
                   partial(rhierarchy, c1, c2), partial(rhigher_spectrum, c1, c2)):
            with pytest.raises(NotNested):
                fn()
