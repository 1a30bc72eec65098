"""Self-test of the answer checks: each accepts ghwkit's answer on a small
input and rejects a perturbed one (the value +- 1, or one count + 1).

    python3 perfbench/selftest.py

Prints one line per check and exits with 1 if any check accepts a wrong
answer or rejects a right one.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ghwkit  # noqa: E402
from ghwkit.cli import parse_code_file  # noqa: E402

import checks  # noqa: E402
from gfref import F2, F3, F4  # noqa: E402
from inputs import code_text  # noqa: E402

HAMMING = np.array(
    [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]
)


def code(field, G):
    return parse_code_file(code_text(field, G))


def bump(spectrum: dict, r: int) -> dict:
    """The spectrum with its first count for rank r raised by one."""
    out = copy.deepcopy(spectrum)
    w = min(out[r])
    out[r][w] += 1
    return out


def witness_run(c, r, G2=None):
    """(info set, witness subspace, value) from ghwkit for d_r or M_r."""
    report = ghwkit.Report()
    opts = ghwkit.ComputeOptions(report=report)
    value = ghwkit.ghw(c, r, opts) if G2 is None else ghwkit.rghw(c, G2, r, opts)
    run = report.runs[0]
    info_set = [col - 1 for col in ghwkit.information(c).sets[run.witness.mat_index]]
    return info_set, run.witness.subspace.array, value


def cases():
    """(name, check(answer) -> failures, right answer, wrong answers)."""
    rng = np.random.default_rng(11)
    G3 = F3.random_full_rank(rng, 4, 9)
    c3 = code(F3, G3)
    G24 = F2.random_full_rank(rng, 6, 14)
    c24 = code(F2, G24)
    G1 = F4.random_full_rank(rng, 4, 8)
    G2 = F4.matmul(F4.random_full_rank(rng, 1, 4), G1)
    c1, c2 = code(F4, G1), code(F4, G2)
    ham = code(F2, HAMMING)

    d1 = ghwkit.ghw(c3, 1)
    yield "d_1 exhaustive", lambda v: checks.check_equal("d_1", v, checks.min_weight(F3, G3)), d1, [d1 - 1, d1 + 1]
    m1 = ghwkit.rghw(c1, c2, 1)
    yield ("M_1 exhaustive", lambda v: checks.check_equal("M_1", v, checks.relative_min_weight(F4, G1, G2)),
           m1, [m1 - 1, m1 + 1])
    d2 = ghwkit.ghw(c24, 2)
    yield "d_2 pairwise ORs", lambda v: checks.check_equal("d_2", v, checks.d2_binary(G24)), d2, [d2 - 1, d2 + 1]
    d3 = ghwkit.ghw(c24, 3)
    yield "d_3 bitmask", lambda v: checks.check_equal("d_3", v, checks.d3_binary(G24)), d3, [d3 - 1, d3 + 1]

    spec = ghwkit.higher_spectrum(c3).counts
    yield ("A^(1) from weights", lambda s: checks.check_equal("A^(1)", s[1], checks.weight_counts(F3, G3)),
           spec, [bump(spec, 1)])
    yield "spectrum totals", lambda s: checks.check_spectrum_totals(s, 4, 3), spec, [bump(spec, 2)]
    yield ("spectrum by subset ranks", lambda s: checks.check_equal("spectrum", s, checks.spectrum_by_subset_ranks(F3, G3)),
           spec, [bump(spec, 3)])
    rspec = ghwkit.rhigher_spectrum(c1, c2).counts
    yield "relative spectrum totals", lambda s: checks.check_spectrum_totals(s, 4, 4, 1), rspec, [bump(rspec, 2)]
    yield ("relative spectrum by subset ranks",
           lambda s: checks.check_equal("spectrum", s, checks.spectrum_by_subset_ranks(F4, G1, G2)),
           rspec, [bump(rspec, 1)])

    h = list(ghwkit.hierarchy(c24))
    hd = list(ghwkit.hierarchy(ghwkit.dual(c24)))
    yield ("Wei duality", lambda v: checks.check_wei(v, hd, 14), h,
           [[h[0] - 1] + h[1:], h[:-1] + [h[-1] + 1]])
    H = ghwkit.dual(c24).G.array
    H_bad = H.copy()
    H_bad[0, 0] ^= 1
    H_low = H.copy()
    H_low[-1] = H_low[0]
    yield "dual G H^T = 0 and rank n - k", lambda m: checks.check_dual(F2, G24, m), H, [H_bad, H_low]

    hh = list(ghwkit.hierarchy(ham))  # [3, 5, 6, 7]
    props = lambda v: checks.check_hierarchy(v, 7, 4, 2)  # noqa: E731
    yield "strict monotonicity", props, hh, [[3, 5, 5, 7]]
    yield "generalized Singleton", props, hh, [[3, 5, 6, 8]]
    yield "averaging inequality", props, hh, [[3, 4, 6, 7]]

    info_set, sub, value = witness_run(c24, 3)
    yield ("witness re-encodes", lambda v: checks.check_witness(F2, G24, info_set, sub, 3, v), value,
           [value - 1, value + 1])
    rinfo, rsub, rvalue = witness_run(c1, 2, c2)
    yield ("relative witness re-encodes", lambda v: checks.check_witness(F4, G1, rinfo, rsub, 2, v, G2), rvalue,
           [rvalue - 1, rvalue + 1])


def main() -> None:
    bad = 0
    for name, check, right, wrongs in cases():
        accepts = not check(right)
        rejects = [bool(check(w)) for w in wrongs]
        ok = accepts and all(rejects)
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: accepts the answer {accepts}, "
              f"rejects {sum(rejects)} of {len(rejects)} perturbed answers")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
