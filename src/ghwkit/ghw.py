"""Generalized Hamming weights by bounded support-stratified search.

The search enumerates r-dimensional subspaces of the message space with
increasing support size w, encodes each through every systematic generator
matrix of an information-set decomposition, and keeps the smallest encoded
support as an upper bound.  After a round, any subspace not yet enumerated
through matrix G_j must meet at least w + 1 - R_j coordinates of its
information set, so the per-matrix contributions sum to a lower bound on
everything still unseen.  The search stops as soon as the bounds meet.

Relative weights M_r(C1, C2) run the same search on C1 and keep only the
subspaces that meet C2 in 0.  The naive oracles enumerate the full
Grassmannian through a single generator matrix with no bounds and serve as
an independent cross-check.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field as dc_field, replace
from itertools import combinations
from typing import Callable

import numpy as np

from .code import LinearCode, bch_bound, dual, is_cyclic
from .enumeration import gaussian_binomial, subspace_blocks
from .errors import BadHierarchy, BadRank, GHWError, NotNested, WorkLimitExceeded
from .infoset import InfoSetDecomposition, information
from .matrix import MatrixGF, rank_array


@dataclass(frozen=True)
class Hierarchy:
    """A strictly increasing sequence of weights d_1..d_k (or M_1..M_{k1-k2})."""

    values: tuple[int, ...]

    def __post_init__(self):
        v = self.values
        if any(not isinstance(x, int) or x < 1 for x in v):
            raise BadHierarchy(f"weights must be positive integers: {v}")
        if any(a >= b for a, b in zip(v, v[1:])):
            raise BadHierarchy(f"weights must be strictly increasing: {v}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class Spectrum:
    """Support-weight distributions: counts[r][w] = number of r-dimensional
    subcodes with support size exactly w."""

    counts: dict[int, dict[int, int]]

    def total(self, r: int) -> int:
        return sum(self.counts[r].values())

    def min_support(self, r: int) -> int:
        return min(self.counts[r])


@dataclass
class RoundEvent:
    """One search round, as handed to progress callbacks."""

    r: int
    w: int
    lower: int
    upper: int
    active_mats: int
    subspaces: int
    elapsed_s: float


@dataclass
class Witness:
    """A subspace representative attaining the returned weight."""

    subspace: MatrixGF  # r x k, in RREF
    mat_index: int  # index into the decomposition's matrices
    weight: int
    synthesized: bool  # produced after a bound-certified exit


@dataclass
class RunReport:
    """Instrumentation for a single weight computation.

    ``conditional`` is true when the run stopped because a caller's
    ``initial_lower``, or a conditional weight it was chained from, met the
    upper bound before the run's own evidence (round coverage, the BCH
    floor, r, or a proven earlier weight) did.  The value is then exact only
    if that hint was a valid lower bound.
    """

    r: int
    value: int | None = None
    rounds: list[RoundEvent] = dc_field(default_factory=list)
    witness: Witness | None = None
    subspaces_enumerated: int = 0
    conditional: bool = False


@dataclass
class Report:
    """Accumulates one RunReport per inner weight computation."""

    runs: list[RunReport] = dc_field(default_factory=list)


@dataclass
class ComputeOptions:
    """Knobs shared by all weight computations.

    ``initial_lower`` is a lower bound for the requested weight (for
    hierarchies, for d_1); a run that stops on it alone is reported as
    conditional.  ``info_sets`` supplies a precomputed decomposition.
    Progress events go to ``progress`` if set, else to stderr when
    ``verbose``.  ``low_mem`` and ``threads`` are accepted and ignored:
    every run streams one block at a time on the calling thread.
    """

    low_mem: bool = False
    verbose: bool = False
    info_sets: InfoSetDecomposition | None = None
    initial_lower: int | None = None
    work_limit: int = 10**9
    threads: int = 1
    progress: Callable[[RoundEvent], None] | None = None
    report: Report | None = None


def _emit(opts: ComputeOptions, ev: RoundEvent) -> None:
    if opts.progress is not None:
        opts.progress(ev)
    elif opts.verbose:
        print(
            f"w={ev.w} lower={ev.lower} upper={ev.upper} mats={ev.active_mats}"
            f" subspaces={ev.subspaces} t={ev.elapsed_s * 1000:.1f}ms",
            file=sys.stderr,
        )


def _make_witness(field, base: np.ndarray, s_cols: np.ndarray, j: int, weight: int, k: int):
    expanded = np.zeros((base.shape[0], k), dtype=np.int64)
    expanded[:, s_cols] = base
    return Witness(MatrixGF(field, expanded), j, weight, synthesized=False)


def _passes_intersection(field, enc: np.ndarray, h2t: np.ndarray, r: int) -> bool:
    return rank_array(field, field.matmul(enc, h2t)) == r


def _round_pairs(field, r: int, w: int, k: int):
    """Every (block, support set) pair of round (r, w).  Each block of the
    subspace stream is built once and paired with every w-subset of the k
    message coordinates before the next block is built, so a round holds one
    block in memory."""
    supports = [np.array(c, dtype=np.intp) for c in combinations(range(k), w)]
    for block in subspace_blocks(r, w, field):
        for s_cols in supports:
            yield block, s_cols


def _encode(field, block: np.ndarray, G: np.ndarray, s_cols: np.ndarray):
    """Encodings of a block of r x w bases placed on ``s_cols``, and the
    support size of each subspace."""
    nsub, r, w = block.shape
    prod = field.matmul(block.reshape(-1, w), G[s_cols, :])
    return prod, (prod != 0).reshape(nsub, r, -1).any(axis=1).sum(axis=1)


def _scan_round(field, mats, sel, r, w, k, upper, h2t, stop):
    """Scan round w through the selected matrices, ending early once
    upper <= stop; returns (upper, witness or None, subspaces)."""
    witness = None
    count = 0
    for block, s_cols in _round_pairs(field, r, w, k):
        count += block.shape[0]
        for j in sel:
            prod, weights = _encode(field, block, mats[j], s_cols)
            if h2t is None:
                i = int(weights.argmin())
                if weights[i] < upper:
                    upper = int(weights[i])
                    witness = _make_witness(field, block[i], s_cols, j, upper, k)
                continue
            cand = np.flatnonzero(weights < upper)
            for c in cand[np.argsort(weights[cand], kind="stable")]:
                if _passes_intersection(field, prod[c * r : (c + 1) * r], h2t, r):
                    upper = int(weights[c])
                    witness = _make_witness(field, block[c], s_cols, j, upper, k)
                    break
        if stop is not None and upper <= stop:
            break
    return upper, witness, count


def _select_final_matrices(reds, last, w, upper):
    """Minimal prefix (ascending redundancy) of the participating matrices
    (the keys of ``last``) to process in a predicted final round, counting
    the others at their stale bound."""
    contrib = {j: last[j] + 1 - reds[j] if last[j] is not None else 0 for j in last}
    total = sum(contrib.values())
    sel = []
    for j in sorted(last, key=lambda j: (reds[j], j)):
        total += w + 1 - reds[j] - contrib[j]
        sel.append(j)
        if total >= upper:
            break
    return sorted(sel)


def _synthesize_witness(field, mats, r, k, value, h2t):
    """Witness for a bound-certified exit (value = generalized Singleton
    bound): any r rows of a systematic matrix then attain it exactly."""
    limit = 5000
    tried = 0
    for j, mat in enumerate(mats):
        for rows in combinations(range(k), r):
            tried += 1
            if tried > limit:
                return None
            enc = mat[list(rows), :]
            weight = int((enc != 0).any(axis=0).sum())
            if weight != value:
                continue
            if h2t is not None and not _passes_intersection(field, enc, h2t, r):
                continue
            base = np.zeros((r, k), dtype=np.int64)
            for t, c in enumerate(rows):
                base[t, c] = 1
            return Witness(MatrixGF(field, base), j, weight, synthesized=True)
    return None


def _run(code, dec, r, h2t, lower, proven, opts) -> RunReport:
    """Bounded search for d_r (M_r when ``h2t`` is given), starting from the
    lower bound ``lower``, of which ``proven`` is backed by evidence."""
    field, k, n = code.field, code.k, code.n
    mats = [M.array for M in dec.mats]
    reds = dec.reds
    report = RunReport(r=r)
    # Matrix j is credited w + 1 - R_j only after covering every round r..w.
    # One with R_j > r would skip round r, so it takes no part in this run.
    last_round = {j: None for j in range(len(mats)) if reds[j] <= r}
    w, upper, witness = r, n - k + r, None

    while w <= k and lower < upper:
        t0 = time.perf_counter()
        sel = list(last_round)
        if sum(w + 1 - reds[j] for j in sel) >= upper:
            sel = _select_final_matrices(reds, last_round, w, upper)
        upper, found, nsub = _scan_round(field, mats, sel, r, w, k, upper, h2t, lower)
        if found is not None:
            witness = found
        report.subspaces_enumerated += nsub
        for j in sel:
            last_round[j] = w
        covered = sum(last + 1 - reds[j] for j, last in last_round.items() if last is not None)
        lower, proven = max(lower, covered), max(proven, covered)
        ev = RoundEvent(
            r=r,
            w=w,
            lower=min(upper, lower),
            upper=upper,
            active_mats=len(sel),
            subspaces=nsub,
            elapsed_s=time.perf_counter() - t0,
        )
        report.rounds.append(ev)
        _emit(opts, ev)
        w += 1

    if witness is None:
        witness = _synthesize_witness(field, mats, r, k, upper, h2t)
    report.value = upper
    report.witness = witness
    # past round k, matrix 0 (R_0 = 0) has enumerated every subspace
    report.conditional = w <= k and proven < upper
    if opts.report is not None:
        opts.report.runs.append(report)
    return report


def _cyclic_floor(code: LinearCode) -> int | None:
    """BCH bound of a cyclic code, or None when unavailable."""
    try:
        if is_cyclic(code):
            return bch_bound(code)
    except (GHWError, ValueError):
        return None
    return None


def _nested_pair(c1: LinearCode, c2: LinearCode | None):
    """C2's parity-check matrix transposed (None without C2) and the largest
    valid r, after checking that C2 is a proper subcode of C1."""
    if c2 is None:
        return None, c1.k
    if c1.field != c2.field or c1.n != c2.n:
        raise NotNested("codes must share the same field and length")
    if c2.k >= c1.k:
        raise NotNested(f"need dim C2 < dim C1, got {c2.k} >= {c1.k}")
    stacked = np.vstack([c1.G.array, c2.G.array])
    if rank_array(c1.field, stacked) != c1.k:
        raise NotNested("C2 is not a subcode of C1")
    return dual(c2).G.array.T.copy(), c1.k - c2.k


def _check_rank(r: int, rmax: int, c2) -> None:
    if not 1 <= r <= rmax:
        bound = "k" if c2 is None else "k1 - k2"
        raise BadRank(f"need 1 <= r <= {bound} = {rmax}, got r={r}")


def _search(c1, c2, ranks, opts: ComputeOptions) -> list[int]:
    """d_r of C1, or M_r(C1, C2) when ``c2`` is given, for each r of
    ``ranks`` (None: every valid r).  Each run after the first chains the
    previous value + 1 as its lower bound."""
    h2t, rmax = _nested_pair(c1, c2)
    ranks = range(1, rmax + 1) if ranks is None else ranks
    for r in ranks:
        _check_rank(r, rmax, c2)
    dec = opts.info_sets or information(c1)
    floor = _cyclic_floor(c1)
    values: list[int] = []
    chained = 0  # the previous value + 1, if that value is proven
    for r in ranks:
        floor_r = 0 if floor is None else floor + r - 1
        start = values[-1] + 1 if values else opts.initial_lower or 1
        run = _run(c1, dec, r, h2t, max(r, floor_r, start), max(r, floor_r, chained), opts)
        values.append(run.value)
        chained = 0 if run.conditional else run.value + 1
    return values


def ghw(code: LinearCode, r: int, opts: ComputeOptions | None = None) -> int:
    """The r-th generalized Hamming weight d_r of a linear code."""
    return _search(code, None, [r], opts or ComputeOptions())[0]


def hierarchy(code: LinearCode, opts: ComputeOptions | None = None) -> Hierarchy:
    """The full weight hierarchy [d_1..d_k], chaining d_{r-1}+1 as the lower
    bound of each inner run."""
    return Hierarchy(tuple(_search(code, None, None, opts or ComputeOptions())))


def rghw(c1: LinearCode, c2: LinearCode, r: int, opts: ComputeOptions | None = None) -> int:
    """The r-th relative generalized Hamming weight M_r(C1, C2): minimum
    support among r-dimensional subcodes of C1 meeting C2 only in 0."""
    return _search(c1, c2, [r], opts or ComputeOptions())[0]


def rhierarchy(c1: LinearCode, c2: LinearCode, opts: ComputeOptions | None = None) -> Hierarchy:
    """The relative weight hierarchy [M_1..M_{k1-k2}] with chained bounds."""
    return Hierarchy(tuple(_search(c1, c2, None, opts or ComputeOptions())))


def wei_duality(h, n: int) -> Hierarchy:
    """Hierarchy of the dual code: the complement of {n+1-d : d in h} in
    {1..n}, ascending."""
    values = tuple(int(x) for x in h)
    if any(not 1 <= d <= n for d in values):
        raise BadHierarchy(f"weights must lie in [1, {n}]: {values}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise BadHierarchy(f"weights must be strictly increasing: {values}")
    excluded = {n + 1 - d for d in values}
    return Hierarchy(tuple(w for w in range(1, n + 1) if w not in excluded))


def hierarchy_auto(code: LinearCode, opts: ComputeOptions | None = None) -> Hierarchy:
    """Weight hierarchy via whichever of the code and its dual has the
    smaller dimension, using duality to translate."""
    opts = opts or ComputeOptions()
    if code.k == code.n:
        return Hierarchy(tuple(range(1, code.n + 1)))
    if 2 * code.k <= code.n:
        return hierarchy(code, opts)
    dual_opts = replace(opts, info_sets=None, initial_lower=None)
    return wei_duality(hierarchy(dual(code), dual_opts), code.n)


def _naive(c1: LinearCode, c2: LinearCode | None, r: int) -> int:
    """Minimum encoded support over the whole Grassmannian through C1's
    generator matrix, keeping only subspaces that meet C2 in 0."""
    h2t, rmax = _nested_pair(c1, c2)
    _check_rank(r, rmax, c2)
    best = c1.n + 1
    for w in range(r, c1.k + 1):
        best, _, _ = _scan_round(c1.field, [c1.G.array], [0], r, w, c1.k, best, h2t, None)
    return best


def naive_ghw(code: LinearCode, r: int, low_mem: bool = False) -> int:
    """Oracle: minimum encoded support over the whole Grassmannian through a
    single generator matrix; no bounds, no early exit.  ``low_mem`` is
    accepted and ignored."""
    return _naive(code, None, r)


def naive_rghw(c1: LinearCode, c2: LinearCode, r: int, low_mem: bool = False) -> int:
    """Oracle for the relative weight: full enumeration with the trivial
    intersection test, no bounds.  ``low_mem`` is accepted and ignored."""
    return _naive(c1, c2, r)


def _spectrum(c1: LinearCode, c2: LinearCode | None, opts: ComputeOptions) -> Spectrum:
    """Support-weight histograms of all r-dimensional subspaces through C1's
    generator matrix, restricted to those meeting C2 in 0 when given."""
    h2t, rmax = _nested_pair(c1, c2)
    field, k, n, G = c1.field, c1.k, c1.n, c1.G.array
    for r in range(rmax + 1):
        if gaussian_binomial(k, r, field.q) > opts.work_limit:
            raise WorkLimitExceeded(
                f"Grassmannian of dimension {r} exceeds the work limit {opts.work_limit}"
            )
    counts: dict[int, dict[int, int]] = {0: {0: 1}}
    for r in range(1, rmax + 1):
        acc = np.zeros(n + 1, dtype=np.int64)
        for w in range(r, k + 1):
            t0 = time.perf_counter()
            nsub = 0
            for block, s_cols in _round_pairs(field, r, w, k):
                cnt = block.shape[0]
                nsub += cnt
                prod, weights = _encode(field, block, G, s_cols)
                if h2t is not None:
                    t = field.matmul(prod, h2t)
                    if r == 1:
                        ok = (t != 0).any(axis=1)
                    else:
                        ok = np.fromiter(
                            (rank_array(field, t[i * r : (i + 1) * r]) == r for i in range(cnt)),
                            dtype=bool,
                            count=cnt,
                        )
                    weights = weights[ok]
                acc += np.bincount(weights, minlength=n + 1)
            _emit(
                opts,
                RoundEvent(
                    r=r, w=w, lower=0, upper=0, active_mats=1, subspaces=nsub,
                    elapsed_s=time.perf_counter() - t0,
                ),
            )
        counts[r] = {int(w): int(c) for w, c in enumerate(acc) if c}
    return Spectrum(counts)


def higher_spectrum(code: LinearCode, opts: ComputeOptions | None = None) -> Spectrum:
    """Exact counts A_w^(r) for r = 0..k by full enumeration through one
    fixed generator matrix."""
    return _spectrum(code, None, opts or ComputeOptions())


def rhigher_spectrum(c1: LinearCode, c2: LinearCode, opts: ComputeOptions | None = None) -> Spectrum:
    """Relative higher weight spectra: counts restricted to subcodes meeting
    C2 only in 0, for r = 0..k1-k2."""
    return _spectrum(c1, c2, opts or ComputeOptions())
