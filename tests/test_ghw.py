import numpy as np
import pytest

from ghwkit.code import code_from_rows, dual, make_rs, new_code, support_weight
from ghwkit.enumeration import gaussian_binomial
from ghwkit.errors import BadHierarchy, BadRank, NotNested
from ghwkit.gf import build_field
from ghwkit.ghw import (
    ComputeOptions,
    Hierarchy,
    Report,
    ghw,
    hierarchy,
    hierarchy_auto,
    naive_ghw,
    naive_rghw,
    rghw,
    rhierarchy,
    wei_duality,
)
from ghwkit.infoset import information
from ghwkit.matrix import MatrixGF, rank_array

from support import (
    HAMMING_7_4,
    brute_ghw,
    cyclic_code_from_cosets,
    example_pairs,
    random_code,
    random_nested_pair,
)

F2 = build_field(2)
F3 = build_field(3)
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
    h = hierarchy(C, ComputeOptions(info_sets=dec, report=report))
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
                assert ghw(C, r, ComputeOptions(low_mem=True)) == expect
                assert naive_ghw(C, r, low_mem=True) == expect


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
                assert rghw(c1, c2, r, ComputeOptions(low_mem=True)) == expect
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


def test_hierarchy_auto_examples():
    assert hierarchy_auto(hamming()).values == (3, 5, 6, 7)  # k > n/2: via dual
    simplex = dual(hamming())
    assert hierarchy_auto(simplex).values == (4, 6, 7)  # k <= n/2: direct
    full = new_code(F2, MatrixGF.identity(F2, 6))
    assert hierarchy_auto(full).values == tuple(range(1, 7))


def test_low_mem_and_threads_match_default():
    C = code_from_rows(F2, HAMMING_7_4)
    rng = np.random.default_rng(59)
    D = random_code(rng, F3, 9, 4)
    for code in (C, D):
        for r in range(1, 4):
            base = ghw(code, r)
            assert ghw(code, r, ComputeOptions(low_mem=True)) == base
            assert ghw(code, r, ComputeOptions(threads=4)) == base
            assert ghw(code, r, ComputeOptions(threads=4, low_mem=True)) == base


def test_initial_lower_bound_is_honored():
    C = make_rs(F13, 6)
    report = Report()
    # d_2 = 9; a valid external bound of 9 makes the run exit immediately
    v = ghw(C, 2, ComputeOptions(initial_lower=9, report=report))
    assert v == 9
    assert report.runs[0].subspaces_enumerated == 0
    assert report.runs[0].witness is not None


def test_cyclic_bound_does_not_break_correctness():
    cases = (
        (F2, 7, [1]),
        (F2, 15, [1, 3]),
        (F2, 15, [1, 3, 5]),
        (F3, 13, [1, 2]),
        (F2, 9, [1]),
    )
    for F, n, reps in cases:
        C = cyclic_code_from_cosets(F, n, reps)
        for r in (1, 2):
            if r > C.k or gaussian_binomial(C.k, r, F.q) > 200_000:
                continue
            assert ghw(C, r) == naive_ghw(C, r), (F.q, n, reps, r)
        if C.k <= 5:
            assert hierarchy(C).values[0] == naive_ghw(C, 1)


def test_soundness_and_witnesses_on_instrumented_runs():
    rng = np.random.default_rng(61)
    for F in (F2, F3):
        for _ in range(6):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(5, n) + 1))
            C = random_code(rng, F, n, k)
            dec = information(C)
            report = Report()
            hierarchy(C, ComputeOptions(info_sets=dec, report=report))
            for run in report.runs:
                verify_run(C, dec, run)


def test_relative_witnesses():
    (c1, c2), (c1p, c2p) = example_pairs()
    for a, b in ((c1, c2), (c1p, c2p)):
        dec = information(a)
        report = Report()
        rhierarchy(a, b, ComputeOptions(info_sets=dec, report=report))
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


def test_custom_info_sets_are_used():
    C = code_from_rows(F2, HAMMING_7_4)
    dec = information(C)
    assert ghw(C, 2, ComputeOptions(info_sets=dec)) == 5


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
    v = ghw(C, 1, ComputeOptions(info_sets=dec, report=report))
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
    h = hierarchy(C, ComputeOptions(info_sets=dec, report=report))
    assert h.values == (2, 4, 6, 8, 9, 11, 12)
    assert h.values == tuple(naive_ghw(C, r) for r in range(1, 8))
    for run in report.runs:
        verify_run(C, dec, run)
        assert not run.conditional


def test_run_stopped_by_a_hint_is_conditional():
    C = random_code(np.random.default_rng(7), F2, 48, 12)
    report = Report()
    assert ghw(C, 1, ComputeOptions(initial_lower=14, report=report)) == 14
    assert report.runs[0].conditional
    report = Report()
    assert ghw(C, 1, ComputeOptions(report=report)) == 12
    assert not report.runs[0].conditional
