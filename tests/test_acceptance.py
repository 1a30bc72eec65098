"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1-4 stash their instrumented runs so criterion 9 can audit
recorded bounds and witnesses.
"""

import time
from math import comb

import numpy as np

from ghwkit.code import bch_bound, dual, is_cyclic, make_rm, make_rs
from ghwkit.enumeration import (
    count_e,
    count_full_support,
    gaussian_binomial,
    subspaces,
)
from ghwkit.gf import build_field
from ghwkit.ghw import (
    ComputeOptions,
    Report,
    ghw,
    hierarchy,
    hierarchy_auto,
    higher_spectrum,
    naive_ghw,
    naive_rghw,
    rghw,
    wei_duality,
)
from ghwkit.infoset import information

from support import (
    bch_code,
    cyclic_code_from_cosets,
    example_pairs,
    random_code,
    random_nested_pair,
    verify_run,
)

F2 = build_field(2)

# (label, code, decomposition, run, c2-or-None) for criterion 9
_INSTRUMENTED: list[tuple] = []


class _criterion:
    """Prints the PASS/FAIL line and enforces the wall-clock budget."""

    def __init__(self, num, name, budget_s=None):
        self.num, self.name, self.budget_s = num, name, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num} {self.name}: {status} ({elapsed:.1f}s)", flush=True)
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, f"criterion {self.num} exceeded {self.budget_s}s"
        return False


def _instrumented_rghw(label, c1, c2, r):
    dec = information(c1)
    report = Report()
    value = rghw(c1, c2, r, ComputeOptions(report=report))
    _INSTRUMENTED.append((label, c1, dec, report.runs[-1], c2))
    return value


def test_criterion_1_reference_pair_regression():
    with _criterion(1, "reference-pair regression", 10):
        (c1, c2), (c1p, c2p) = example_pairs()
        assert _instrumented_rghw("M1(C1,C2)", c1, c2, 1) == 2
        assert _instrumented_rghw("M2(C1,C2)", c1, c2, 2) == 4
        assert _instrumented_rghw("M1(C1',C2')", c1p, c2p, 1) == 2
        assert _instrumented_rghw("M2(C1',C2')", c1p, c2p, 2) == 4
        d2, d1 = dual(c2), dual(c1)
        d2p, d1p = dual(c2p), dual(c1p)
        assert _instrumented_rghw("M1(C2+,C1+)", d2, d1, 1) == 2
        assert _instrumented_rghw("M2(C2+,C1+)", d2, d1, 2) == 3
        assert _instrumented_rghw("M2(C2'+,C1'+)", d2p, d1p, 2) == 4


def test_criterion_2_mds_hierarchy():
    with _criterion(2, "MDS hierarchy with chained bounds", 30):
        F13 = build_field(13)
        for k in range(1, 13):
            C = make_rs(F13, k)
            dec = information(C)
            report = Report()
            h = hierarchy(C, ComputeOptions(report=report))
            assert h.values == tuple(range(13 - k + 1, 14)), k
            assert len(report.runs) == k
            for run in report.runs:
                _INSTRUMENTED.append((f"RS13_{k} r={run.r}", C, dec, run, None))
                if run.r >= 2:
                    # chained lower bound meets the Singleton bound: nothing
                    # gets enumerated
                    assert run.subspaces_enumerated == 0, (k, run.r)


def test_criterion_3_oracle_equivalence():
    with _criterion(3, "oracle equivalence on random codes", 600):
        rng = np.random.default_rng(20250810)
        fields = {
            2: build_field(2),
            3: build_field(3),
            4: build_field(2, 2),
            5: build_field(5),
        }
        codes = 0
        for q, F in fields.items():
            done = 0
            while done < 50:
                n = int(rng.integers(3, 13))
                k = int(rng.integers(1, min(6, n) + 1))
                work = sum(gaussian_binomial(k, r, q) for r in range(1, min(k, 3) + 1))
                if work > 60_000:
                    continue
                C = random_code(rng, F, n, k)
                dec = information(C)
                for r in range(1, min(k, 3) + 1):
                    report = Report()
                    v = ghw(C, r, ComputeOptions(report=report))
                    _INSTRUMENTED.append((f"random q={q} n={n} k={k} r={r}", C, dec, report.runs[-1], None))
                    assert v == naive_ghw(C, r)
                done += 1
                codes += 1
        assert codes >= 200

        pairs = 0
        qs = [2, 3, 4, 5]
        while pairs < 50:
            q = qs[pairs % 4]
            F = fields[q]
            n = int(rng.integers(4, 11))
            k1 = int(rng.integers(2, min(5, n) + 1))
            k2 = int(rng.integers(1, k1))
            if gaussian_binomial(k1, min(k1 - k2, 2), q) > 30_000:
                continue
            c1, c2 = random_nested_pair(rng, F, n, k1, k2)
            for r in range(1, min(k1 - k2, 2) + 1):
                v = rghw(c1, c2, r)
                assert v == naive_rghw(c1, c2, r)
            pairs += 1


def test_criterion_4_wei_duality():
    with _criterion(4, "Wei duality on random codes", 120):
        rng = np.random.default_rng(4041)
        fields = [build_field(2), build_field(3), build_field(2, 2), build_field(5)]
        # both C and its dual get a full hierarchy run, so cap the larger
        # dimension per field size to keep the Grassmannians tractable
        max_side = {2: 12, 3: 8, 4: 6, 5: 5}
        done = 0
        while done < 100:
            F = fields[done % 4]
            n = int(rng.integers(2, 13))
            if n < 2:
                continue
            k = int(rng.integers(1, n))
            if max(k, n - k) > max_side[F.q]:
                continue
            C = random_code(rng, F, n, k)
            dec = information(C)
            report = Report()
            h = hierarchy(C, ComputeOptions(report=report))
            for run in report.runs:
                _INSTRUMENTED.append((f"dual q={F.q} n={n} k={k} r={run.r}", C, dec, run, None))
            hd = hierarchy(dual(C))
            assert wei_duality(hd, n).values == h.values, (F.q, n, k)
            assert hierarchy_auto(C).values == h.values
            done += 1
        assert done >= 100


def test_criterion_5_enumeration_counts():
    with _criterion(5, "enumeration counts", 120):
        for q, F in ((2, build_field(2)), (3, build_field(3)), (4, build_field(2, 2))):
            for w in range(1, 6):
                for r in range(1, w + 1):
                    seen = set()
                    for m in subspaces(r, w, F):
                        key = m.array.tobytes()
                        assert key not in seen, "duplicate emitted"
                        seen.add(key)
                    assert len(seen) == count_full_support(w, r, q)
        for q in (2, 3, 4, 5):
            for k in range(0, 7):
                for r in range(0, k + 1):
                    assert sum(count_e(k, w, r, q) for w in range(r, k + 1)) == gaussian_binomial(k, r, q)
                for w in range(1, k + 1):
                    assert count_e(k, w, 1, q) == comb(k, w) * (q - 1) ** (w - 1)


def test_criterion_6_spectrum_consistency():
    with _criterion(6, "spectrum consistency", 120):
        rng = np.random.default_rng(606)
        fields = [build_field(2), build_field(3), build_field(2, 2), build_field(5)]
        done = 0
        while done < 8:
            F = fields[done % 4]
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(5, n) + 1))
            if any(gaussian_binomial(k, r, F.q) > 10**6 for r in range(k + 1)):
                continue
            if sum(gaussian_binomial(k, r, F.q) for r in range(k + 1)) > 200_000:
                continue
            C = random_code(rng, F, n, k)
            sp = higher_spectrum(C)
            assert sp.counts[0] == {0: 1}
            for r in range(k + 1):
                assert sp.total(r) == gaussian_binomial(k, r, F.q)
                if r >= 1:
                    assert sp.min_support(r) == ghw(C, r)
            done += 1


def test_criterion_7_relative_performance():
    with _criterion(7, "bounded search outpaces the naive oracle", None):
        C = make_rm(build_field(5), 2, 2)
        assert (C.n, C.k) == (25, 6)
        t0 = time.perf_counter()
        v_search = ghw(C, 2)
        t_search = time.perf_counter() - t0
        t0 = time.perf_counter()
        v_naive = naive_ghw(C, 2)
        t_naive = time.perf_counter() - t0
        assert v_search == v_naive
        assert t_search < 120, f"search took {t_search:.1f}s"
        speedup = t_naive / t_search
        print(f"  [criterion 7] d_2 = {v_search}, search {t_search:.3f}s, "
              f"naive {t_naive:.3f}s, speedup {speedup:.1f}x", flush=True)
        assert speedup >= 5, f"speedup {speedup:.1f}x below 5x"


def test_criterion_8_cyclic_utilities():
    with _criterion(8, "cyclic utilities", 60):
        bch127 = bch_code(F2, 127, 27)
        assert is_cyclic(bch127)
        assert bch_bound(bch127) >= 27
        cases = [
            (F2, 7, [1]),
            (F2, 7, [0, 1]),
            (F2, 9, [1]),
            (F2, 15, [1]),
            (F2, 15, [1, 3]),
            (F2, 15, [1, 3, 5]),
            (F2, 15, [1, 3, 5, 7]),
            (F2, 5, [1]),
            (F2, 11, [1]),
            (F2, 13, [1]),
            (build_field(3), 13, [1, 2]),
            (build_field(3), 8, [1, 2]),
            (build_field(3), 4, [1]),
            (build_field(5), 8, [1, 2]),
            (build_field(5), 6, [1]),
            (build_field(7), 8, [1]),
        ]
        for F, n, reps in cases:
            C = cyclic_code_from_cosets(F, n, reps)
            assert is_cyclic(C)
            assert bch_bound(C) <= naive_ghw(C, 1), (F.q, n, reps)


def test_criterion_9_soundness_instrumentation():
    with _criterion(9, "bound soundness and witnesses", None):
        assert _INSTRUMENTED, "criteria 1-4 must run first"
        for label, code, dec, run, c2 in _INSTRUMENTED:
            verify_run(code, dec, run, c2, label)
