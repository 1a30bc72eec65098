"""Generalized Hamming weights by bounded support-stratified search.

The search enumerates r-dimensional subspaces of the message space with
increasing support size w, encodes each through every systematic generator
matrix of an information-set decomposition, and keeps the smallest encoded
support as an upper bound.  Any subspace not yet seen through G_j meets at
least r - R_j fresh coordinates of its information set, and w + 1 - R_j
once rounds r..w are scanned through G_j: the lower bound is one counter
that each matrix a round scans raises by one.  The search stops once the
bounds meet.

Subspaces are weighed by a support-mask kernel, the Brouwer–Zimmermann
trick of encoding every message on a window once, extended from codewords to
subspaces.  Per round, every w-subset S of the message coordinates and every
matrix G_j gets a table of the supports of x·G_j[S] for all q^w messages x,
packed into uint64 words.  The tables are message-major, (q^w, nS, |sel|,
words): message x owns one contiguous row of masks for every (S, G_j), and a
subspace's supports are the OR of the r rows that its basis rows' codes,
yielded by the subspace stream, select.  Relative weights also tabulate the
syndromes x·(G_j·H2ᵀ)[S] in the same order, on only the k1 - k2 checks of C2
that C1 needs (the pivot columns of G1·H2ᵀ).  Over GF(2^s)
the tables of all messages are built additively, with no field product: a
message's entry is a shorter message's entry XOR one precomputed multiple of
a matrix row, kept as packed bit-planes.  A round whose tables, with the
entries they are built from, would exceed a fixed byte budget tabulates
instead the distinct rows of each block of the subspace stream, a few support
sets at a time, through one product per chunk and the same weighing; both
modes give the same bounds, witnesses and counts.

Relative weights M_r(C1, C2) run the same search on C1 and keep only the
subspaces that meet C2 in 0.  A hierarchy seeds each run after the first
with the averaging bound ceil((q^r - 1)·d_{r-1} / (q^r - q)), proven in
_search, which holds for relative weights too.  The spectra weigh every subspace through one
generator matrix with the search's kernel and C2 rejection and no bound;
they go by w, then r, so each w's tables are built once.  The naive oracles
enumerate the full Grassmannian through a single generator matrix with no
bounds on the plain path, one matmul per (block, support set), which only
they use, and serve as an independent cross-check of the search and of its
kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .code import LinearCode, bch_bound, dual
from .enumeration import gaussian_binomial, row_digits, subspace_blocks, subspace_codes
from .errors import BadHierarchy, BadRank, GHWError, NotNested, WorkLimitExceeded
from .infoset import information
from .matrix import MatrixGF, rref_array


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
    mat_index: int  # index into information(code).mats
    weight: int
    synthesized: bool  # the run's starting witness, r rows of the first matrix


@dataclass
class RunReport:
    """Instrumentation for a single weight computation.

    Every run records a ``witness`` of weight ``value``: the run starts from
    r rows of a systematic matrix and keeps the lightest subspace it finds.
    """

    r: int
    value: int | None = None
    rounds: list[RoundEvent] = dc_field(default_factory=list)
    witness: Witness | None = None
    subspaces_enumerated: int = 0


@dataclass
class Report:
    """Accumulates one RunReport per inner weight computation."""

    runs: list[RunReport] = dc_field(default_factory=list)


@dataclass
class ComputeOptions:
    """Knobs shared by all weight computations.

    Progress events go to ``progress`` if set; ``work_limit`` caps each
    Grassmannian a spectrum enumerates; ``report`` collects one RunReport per
    weight computation.
    """

    work_limit: int = 10**9
    progress: Callable[[RoundEvent], None] | None = None
    report: Report | None = None


def _emit(opts: ComputeOptions, ev: RoundEvent) -> None:
    if opts.progress is not None:
        opts.progress(ev)


def _make_witness(field, base: np.ndarray, s_cols: np.ndarray, j: int, weight: int, k: int,
                  synthesized: bool = False):
    expanded = np.zeros((base.shape[0], k), dtype=np.int64)
    expanded[:, s_cols] = base
    return Witness(MatrixGF(field, expanded), j, weight, synthesized)


def _independent(field, syn: np.ndarray, r: int) -> np.ndarray:
    """Which stacks of r syndromes, an (m, r, c) array, are linearly
    independent, by forward elimination on all of them at once (in place):
    row i survives iff it is nonzero after the pivots of rows 0..i-1 are
    cleared from it."""
    rows = np.arange(syn.shape[0])
    ok = np.ones(syn.shape[0], dtype=bool)
    for i in range(r - 1):
        nz = syn[:, i, :] != 0
        ok &= nz.any(axis=1)
        piv = nz.argmax(axis=1)
        # factors -t_j / p clear the pivot column of the rows below; a zero
        # row has p = 0, inverse 0 in the table, and clears nothing
        scale = field.inv_table[syn[rows, i, piv]]
        factors = field.neg_arrays(field.mul_arrays(syn[rows, i + 1 :, piv], scale[:, None]))
        upd = field.mul_arrays(factors[:, :, None], syn[:, i : i + 1, :])
        syn[:, i + 1 :, :] = field.add_arrays(syn[:, i + 1 :, :], upd)
    return ok & (syn[:, r - 1, :] != 0).any(axis=1)


def _meets_c2_in_zero(field, enc: np.ndarray, h2t: np.ndarray, r: int) -> np.ndarray:
    """Which subspaces meet C2 only in 0, given their encoded bases stacked r
    rows at a time: exactly those whose r syndromes enc·H2ᵀ are independent."""
    syn = field.matmul(enc.reshape(-1, h2t.shape[0]), h2t).reshape(-1, r, h2t.shape[1])
    return _independent(field, syn, r)


def _scan_round(field, mats, sel, r, w, k, upper, witness, h2t, stop):
    """Scan round w through the selected matrices for the least-weight
    subspace below ``upper`` (meeting C2 in 0 when ``h2t`` is given; the
    first on ties), ending early once upper <= stop; returns (upper,
    witness, subspaces).  The plain path of the naive oracles, and the
    reference the kernel is tested against: each block of the subspace
    stream is paired with every w-subset of the k message coordinates before
    the next block is built, and each (block, support set, matrix) is
    encoded with one matmul."""
    supports = [np.array(c, dtype=np.intp) for c in combinations(range(k), w)]
    count = 0
    for block in subspace_blocks(r, w, field):
        nsub = block.shape[0]
        for s_cols in supports:
            count += nsub
            for j in sel:
                prod = field.matmul(block.reshape(-1, w), mats[j][s_cols, :])
                weights = (prod != 0).reshape(nsub, r, -1).any(axis=1).sum(axis=1)
                c = int(weights.argmin())
                if weights[c] >= upper:
                    continue
                if h2t is not None:
                    cand = np.flatnonzero(weights < upper)
                    cand = cand[_meets_c2_in_zero(field, prod.reshape(nsub, r, -1)[cand], h2t, r)]
                    if not cand.size:
                        continue
                    c = int(cand[weights[cand].argmin()])
                upper = int(weights[c])
                witness = _make_witness(field, block[c], s_cols, j, upper, k)
            if stop is not None and upper <= stop:
                return upper, witness, count
    return upper, witness, count


# The support-mask kernel.  For every w-subset S of the message coordinates
# and every selected matrix G_j, the mask table of a list X of messages on w
# coordinates holds the support of X·G_j[S] as packed uint64 words, and with
# C2 the syndrome table holds X·(G_j·H2ᵀ)[S].  Both are message-major,
# (len(X), nS, |sel|, words) and (len(X), nS, |sel|, k1 - k2), so one
# message's entries for every (S, G_j) are one contiguous row.  A block of
# subspaces is then weighed on a chunk of S at once as the popcount of the OR
# of the rows that its r basis rows' codes select (subspace_codes), each
# lookup a copy of whole rows.  X lists all q^w messages in code order, once
# per round, when those tables and the XOR entries they are built from
# fit _TABLE_BYTES; otherwise X lists the distinct rows of one stream block,
# looked up by position.  Tables of X go through one field.matmul per chunk
# (_tables), except those of all messages over GF(2^s), which are built by
# XOR doubling of packed bit-planes (_xor_tables), the same bytes.
_GATHER_ELEMS = 1 << 16  # elements per table-build or gather chunk
_TABLE_BYTES = 1 << 25  # largest tables of all q^w messages, with their entries, in one round


def _tables(field, X: np.ndarray, B: np.ndarray, cols: np.ndarray, n: int):
    """The tables of the messages X on the support sets ``cols``, an (nS, w)
    array, through each stacked [G_j | G_j·H2ᵀ] of B, with one field.matmul
    whose product is already message-major: the masks, a (len(X), nS, |sel|,
    words) uint64 array, and the syndromes, (len(X), nS, |sel|, k1 - k2), or
    None without C2."""
    nj, (ns, w), width = len(B), cols.shape, B.shape[-1]
    prod = field.matmul(X, B[:, cols].transpose(2, 1, 0, 3).reshape(w, -1)).reshape(-1, ns, nj, width)
    masks = np.zeros(prod.shape[:3] + (-(-n // 64) * 8,), dtype=np.uint8)
    packed = np.packbits(prod[..., :n] != 0, axis=-1, bitorder="little")
    masks[..., : packed.shape[-1]] = packed
    return masks.view("<u8"), prod[..., n:].copy() if width > n else None


def _xor_entries(field, B: np.ndarray, n: int) -> np.ndarray:
    """The XOR-able entry of c·B[j, i] for every stacked matrix j, message
    row i and c in GF(2^s), a (|sel|, k, q, s·words + n2) uint64 array: the
    s bit-planes of its codeword part, each packed into words = ceil(n/64)
    words, then its syndrome part.  Addition over GF(2^s) is XOR of the
    integer encodings, so the entry of a sum is the XOR of the entries."""
    q, s, words = field.q, field.s, -(-n // 64)
    nj, k, width = B.shape
    entries = np.zeros((nj, k, q, s * words + width - n), dtype="<u8")
    # a few rows at a time, in the narrowest dtype, so temporaries stay small
    step = max(1, _GATHER_ELEMS // (nj * q * width))
    for lo in range(0, k, step):
        rows = slice(lo, lo + step)
        scaled = field.mul_arrays(np.arange(q)[:, None], B[:, rows, None, :]).astype(np.min_scalar_type(q - 1))
        for u in range(s):
            plane = entries[:, rows, :, u * words : (u + 1) * words].view(np.uint8)
            bits = scaled[..., :n] >> u & 1
            plane[..., : -(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
        entries[:, rows, :, s * words :] = scaled[..., n:]
    return entries


def _xor_tables(entries: np.ndarray, cols: np.ndarray, s: int, n: int):
    """_tables of all q^w messages over GF(2^s) on the support sets ``cols``,
    doubled from the round's ``entries`` with no field product.  Rows c < q
    of a table are the entries of c·B[j, S_0]; for x < q^t, row c·q^t + x is
    row x XOR the entry of c·B[j, S_t], so each (t, c) fills one contiguous
    slab of q^t message rows; and a mask is the OR of its row's planes."""
    (nj, _, q, width), (ns, w), words = entries.shape, cols.shape, -(-n // 64)
    tab = np.empty((q**w, ns, nj, width), dtype="<u8")
    tab[:q] = entries[:, cols[:, 0]].transpose(2, 1, 0, 3)
    for t in range(1, w):
        for c in range(1, q):
            add = entries[:, cols[:, t], c].transpose(1, 0, 2)
            np.bitwise_xor(tab[: q**t], add, out=tab[c * q**t : (c + 1) * q**t])
    masks = np.bitwise_or.reduce(tab[..., : s * words].reshape(tab.shape[:3] + (s, words)), axis=3)
    return masks, tab[..., s * words :].view(np.int64) if width > s * words else None


def _round_tables(field, mats, ghs, sel, k: int, w: int):
    """The nS = C(k, w) support sets of round w as an (nS, w) array, the
    stacked [G_j | G_j·H2ᵀ] of the selected matrices (G_j alone without C2),
    and the tables of all q^w messages on every support set when they fit
    _TABLE_BYTES together with the XOR entries they are built from, as
    message-major (q^w, nS, |sel|, ·) arrays filled a chunk of support sets
    at a time, else None: then each block tabulates its own rows."""
    ns, nq, n, nj = comb(k, w), field.q**w, mats[0].shape[1], len(sel)
    # one product gives each message's codeword and, with C2, its syndrome
    B = np.stack([mats[j] if ghs is None else np.hstack([mats[j], ghs[j]]) for j in sel])
    supports = np.array(list(combinations(range(k), w)), dtype=np.intp).reshape(ns, w)
    words, c = -(-n // 64), B.shape[-1] - n
    # over GF(2^s) the tables are doubled from k·q entries, which count too
    width = field.s * words + c if field.p == 2 else n + c
    entries = k * field.q * width if field.p == 2 else 0
    if (ns * nq * (words + c) + entries) * 8 * nj > _TABLE_BYTES:
        return supports, B, None
    if field.p == 2:
        build = partial(_xor_tables, _xor_entries(field, B, n), s=field.s, n=n)
    else:
        build = partial(_tables, field, row_digits(np.arange(nq), field.q, w), B, n=n)
    masks = np.empty((nq, ns, nj, words), dtype="<u8")
    syn = None if ghs is None else np.empty((nq, ns, nj, c), dtype=np.int64)
    step = max(1, _GATHER_ELEMS // (nj * nq * width))
    for lo in range(0, ns, step):
        masks[:, lo : lo + step], part = build(supports[lo : lo + step])
        if syn is not None:
            syn[:, lo : lo + step] = part
    return supports, B, (masks, syn)


def _block_tables(field, tabs, codes: np.ndarray, n: int):
    """For the (m, r) row ``codes`` of a stream block and the round's
    ``tabs``, per chunk of support sets in order: the chunk's support sets,
    the (m, r) positions of the block's rows in the chunk's tables, and the
    chunk's mask and syndrome tables, message-major like the round's.  A
    chunk is a slice of the round's tables of all messages along their
    support-set axis, where a row's position is its code, or else the
    block's distinct rows tabulated on it; either way it gathers or builds
    at most _GATHER_ELEMS elements."""
    supports, B, full = tabs
    m, r = codes.shape
    if full is None:
        used, codes = np.unique(codes.T, return_inverse=True)
        X, codes = row_digits(used, field.q, supports.shape[1]), codes.reshape(r, m).T
        step = max(1, _GATHER_ELEMS // (len(B) * len(X) * B.shape[-1]))
    else:
        width = full[0].shape[-1] + r * (B.shape[-1] - n)
        step = max(1, _GATHER_ELEMS // (len(B) * m * width))
    for lo in range(0, len(supports), step):
        sl = slice(lo, lo + step)
        if full is None:
            yield supports[sl], codes, *_tables(field, X, B, supports[sl], n)
        else:
            yield supports[sl], codes, full[0][:, sl], None if full[1] is None else full[1][:, sl]


def _weigh(field, masks, syn, codes: np.ndarray, r: int, upper: int, n: int) -> np.ndarray:
    """Support sizes of the subspaces whose basis rows have the (m, r) row
    ``codes``, weighed through each of a chunk's message-major tables: the
    popcount of the OR of the whole (nS, |sel|, words) rows that the codes
    select, an (m, nS, |sel|) array.  With C2, every one below ``upper``
    that meets C2 outside 0 weighs n + 1."""
    acc = masks[codes[:, 0]]
    for t in range(1, r):
        acc |= masks[codes[:, t]]
    wts = np.bitwise_count(acc).sum(axis=-1, dtype=np.int64)
    if syn is not None:
        i, s, j = np.nonzero(wts < upper)
        if i.size:
            bad = ~_independent(field, syn[codes[i], s[:, None], j[:, None]], r)
            wts[i[bad], s[bad], j[bad]] = n + 1
    return wts


def _scan_kernel(field, mats, ghs, sel, r, w, k, upper, witness, stop):
    """_scan_round through the support-mask tables, with C2 given by the
    syndrome matrices ``ghs``, and with the same visit order (block, support
    set, matrix), selection rule, early exit and count.  Each chunk of
    support sets is weighed at once and then replayed: the running minimum
    of the per-(S, j) minima is the upper bound after each (S, j), and the
    witness is the first subspace at its final value.  With C2, only
    subspaces below the chunk's starting bound can be picked, so only they
    are tested."""
    tabs = _round_tables(field, mats, ghs, sel, k, w)
    n, nj = mats[0].shape[1], len(sel)
    count = 0
    for codes in subspace_codes(r, w, field):
        m = codes.shape[0]
        for cols, rows, masks, syn in _block_tables(field, tabs, codes, n):
            wts = _weigh(field, masks, syn, rows, r, upper, n)
            mins = wts.min(axis=0).ravel()
            run = np.minimum(np.minimum.accumulate(mins), upper)
            visited, stopped = wts.shape[1], False
            if stop is not None:
                hit = np.flatnonzero(run[nj - 1 :: nj] <= stop)
                if hit.size:
                    visited, stopped = int(hit[0]) + 1, True
            count += m * visited
            best = int(run[visited * nj - 1])
            if best < upper:
                s, jj = divmod(int(np.argmax(mins == best)), nj)
                c = int(wts[:, s, jj].argmin())
                upper = best
                witness = _make_witness(field, row_digits(codes[c], field.q, w), cols[s], sel[jj], upper, k)
            if stopped:
                return upper, witness, count
    return upper, witness, count


def _run(field, mats, reds, ghs, rows, start, r, lower, opts) -> RunReport:
    """Bounded search for d_r (M_r when ``ghs`` is given) through the
    systematic ``mats`` with redundancies ``reds`` and their syndrome
    matrices ``ghs``, from the lower bound ``lower``.  The starting witness
    is ``rows[:r]`` of ``mats[0]``, of weight ``start``; it is built only if
    the search finds nothing lighter."""
    k = mats[0].shape[0]
    report = RunReport(r=r)
    # Matrices with R_j <= r take part, each credited r - R_j at the start:
    # G_j is the identity on I_j, so every r-dimensional subspace meets I_j
    # in at least r coordinates.  A scanned round adds one per matrix; only
    # a final round scans a proper prefix of ``parts``, so one counter holds.
    parts = sorted((j for j in range(len(mats)) if reds[j] <= r), key=lambda j: (reds[j], j))
    covered = sum(r - reds[j] for j in parts)
    lower = max(lower, covered)
    witness, w, upper = None, r, start

    while w <= k and lower < upper:
        t0 = time.perf_counter()
        sel = sorted(parts[: upper - covered])
        upper, witness, nsub = _scan_kernel(field, mats, ghs, sel, r, w, k, upper, witness, lower)
        report.subspaces_enumerated += nsub
        covered += len(sel)
        lower = max(lower, covered)
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

    report.value = upper
    report.witness = witness or _make_witness(
        field, np.eye(r, dtype=np.int64), np.array(rows[:r]), 0, upper, k, synthesized=True
    )
    if opts.report is not None:
        opts.report.runs.append(report)
    return report


def _is_cyclic(field, M: np.ndarray, iset) -> bool:
    """Whether the code that M generates is cyclic, for M the identity on
    the (1-based) information set ``iset``: whether the right shift S of
    each row stays in the code, that is, S = S[:, I]·M."""
    S = np.roll(M, 1, axis=1)
    return np.array_equal(field.matmul(S[:, np.array(iset) - 1], M), S)


def _cyclic_floor(code: LinearCode, M: np.ndarray, iset) -> int | None:
    """BCH bound of the code if it is cyclic and the bound is available,
    else None; M and ``iset`` as for _is_cyclic."""
    if not _is_cyclic(code.field, M, iset):
        return None
    try:
        return bch_bound(code)
    except (GHWError, ValueError):
        return None


def _nested_pair(c1: LinearCode, c2: LinearCode | None):
    """The k1 - k2 checks of C2 that decide membership for words of C1, as
    an (n, k1 - k2) matrix Hᵀ (None without C2), and the largest valid r,
    after checking that C2 is a proper subcode of C1.  Every column of
    G1·H2ᵀ is a combination of its pivot columns, so x ∈ C1 lies in C2 iff
    its syndrome is zero on those.  The kernel of G1·H2ᵀ, {m : m·G1 ∈ C2},
    has dimension dim(C1 ∩ C2), so C2 ⊆ C1 iff its rank is k1 - k2."""
    if c2 is None:
        return None, c1.k
    if c1.field != c2.field or c1.n != c2.n:
        raise NotNested("codes must share the same field and length")
    if c2.k >= c1.k:
        raise NotNested(f"need dim C2 < dim C1, got {c2.k} >= {c1.k}")
    h2t = dual(c2).G.array.T
    piv = rref_array(c1.field, c1.field.matmul(c1.G.array, h2t))[1]
    if len(piv) != c1.k - c2.k:
        raise NotNested("C2 is not a subcode of C1")
    return h2t[:, piv], c1.k - c2.k


def _check_rank(r: int, rmax: int, c2) -> None:
    if not 1 <= r <= rmax:
        bound = "k" if c2 is None else "k1 - k2"
        raise BadRank(f"need 1 <= r <= {bound} = {rmax}, got r={r}")


def _search(c1, c2, ranks, opts: ComputeOptions) -> list[int]:
    """d_r of C1, or M_r(C1, C2) when ``c2`` is given, for each r of
    ``ranks`` (None: every valid r, else one r).  Each run after the first
    is seeded with the averaging bound of the previous run's value d:
    d_r >= ceil((q^r - 1)·d / (q^r - q)), which exceeds d.  Proof: let D be
    an r-dimensional subcode of weight d_r (meeting C2 in 0).  Each of its
    N = (q^r - 1)/(q - 1) hyperplanes H is (r-1)-dimensional (and meets C2
    in 0), so |supp H| >= d_{r-1}.  A coordinate in supp D vanishes on
    exactly one hyperplane of D, so it lies in supp H for N - 1 of them:
    (N - 1)·d_r = sum_H |supp H| >= N·d_{r-1}, and N/(N - 1) = (q^r - 1)/(q^r - q)."""
    h2t, rmax = _nested_pair(c1, c2)
    ranks = range(1, rmax + 1) if ranks is None else ranks
    for r in ranks:
        _check_rank(r, rmax, c2)
    dec = information(c1)
    field, mats = c1.field, [M.array for M in dec.mats]
    floor = _cyclic_floor(c1, mats[0], dec.sets[0])
    ghs = None if h2t is None else [field.matmul(M, h2t) for M in mats]
    # each run's starting witness takes the first r of these rows: with C2,
    # the rows whose syndromes extend the span of those before them (the k1
    # syndromes span dimension k1 - k2 >= r)
    rows = list(range(c1.k)) if ghs is None else rref_array(field, ghs[0].T)[1]
    # the starting witness of run r spans rows[:r]: one cumulative OR weighs all
    starts = np.logical_or.accumulate(mats[0][rows] != 0, axis=0).sum(axis=1).tolist()
    values: list[int] = []
    q = field.q
    for r in ranks:
        lower = 0 if floor is None else floor + r - 1
        if values:
            lower = max(lower, -(-(q**r - 1) * values[-1] // (q**r - q)))
        values.append(_run(field, mats, dec.reds, ghs, rows, starts[r - 1], r, lower, opts).value)
    return values


def ghw(code: LinearCode, r: int, opts: ComputeOptions | None = None) -> int:
    """The r-th generalized Hamming weight d_r of a linear code."""
    return _search(code, None, [r], opts or ComputeOptions())[0]


def hierarchy(code: LinearCode, opts: ComputeOptions | None = None) -> Hierarchy:
    """The full weight hierarchy [d_1..d_k], seeding each inner run with the
    averaging bound of d_{r-1}."""
    return Hierarchy(tuple(_search(code, None, None, opts or ComputeOptions())))


def rghw(c1: LinearCode, c2: LinearCode, r: int, opts: ComputeOptions | None = None) -> int:
    """The r-th relative generalized Hamming weight M_r(C1, C2): minimum
    support among r-dimensional subcodes of C1 meeting C2 only in 0."""
    return _search(c1, c2, [r], opts or ComputeOptions())[0]


def rhierarchy(c1: LinearCode, c2: LinearCode, opts: ComputeOptions | None = None) -> Hierarchy:
    """The relative weight hierarchy [M_1..M_{k1-k2}], each inner run seeded
    with the averaging bound of M_{r-1}."""
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
    if code.k == code.n:
        return Hierarchy(tuple(range(1, code.n + 1)))
    if 2 * code.k <= code.n:
        return hierarchy(code, opts)
    return wei_duality(hierarchy(dual(code), opts), code.n)


def _naive(c1: LinearCode, c2: LinearCode | None, r: int) -> int:
    """Minimum encoded support over the whole Grassmannian through C1's
    generator matrix, keeping only subspaces that meet C2 in 0, tested on
    all n - k2 checks of C2."""
    _, rmax = _nested_pair(c1, c2)
    _check_rank(r, rmax, c2)
    h2t = None if c2 is None else dual(c2).G.array.T
    best = c1.n + 1
    for w in range(r, c1.k + 1):
        best, _, _ = _scan_round(c1.field, [c1.G.array], [0], r, w, c1.k, best, None, h2t, None)
    return best


def naive_ghw(code: LinearCode, r: int) -> int:
    """Oracle: minimum encoded support over the whole Grassmannian through a
    single generator matrix; no bounds, no early exit."""
    return _naive(code, None, r)


def naive_rghw(c1: LinearCode, c2: LinearCode, r: int) -> int:
    """Oracle for the relative weight: full enumeration with the trivial
    intersection test, no bounds."""
    return _naive(c1, c2, r)


def _spectrum(c1: LinearCode, c2: LinearCode | None, opts: ComputeOptions) -> Spectrum:
    """Support-weight histograms of all r-dimensional subspaces through C1's
    generator matrix, restricted to those meeting C2 in 0 when given.  The
    rounds go by w, then r, so each w's tables serve every r; a subspace
    that meets C2 outside 0 is counted at weight n + 1, which is dropped."""
    h2t, rmax = _nested_pair(c1, c2)
    field, k, n, G = c1.field, c1.k, c1.n, c1.G.array
    ghs = None if h2t is None else [field.matmul(G, h2t)]
    for r in range(rmax + 1):
        if gaussian_binomial(k, r, field.q) > opts.work_limit:
            raise WorkLimitExceeded(
                f"Grassmannian of dimension {r} exceeds the work limit {opts.work_limit}"
            )
    hist = np.zeros((rmax + 1, n + 2), dtype=np.int64)
    for w in range(1, k + 1):
        t0 = time.perf_counter()
        tabs = _round_tables(field, [G], ghs, [0], k, w)
        for r in range(1, min(w, rmax) + 1):
            nsub = 0
            for codes in subspace_codes(r, w, field):
                nsub += codes.shape[0] * comb(k, w)
                for _, rows, masks, syn in _block_tables(field, tabs, codes, n):
                    wts = _weigh(field, masks, syn, rows, r, n + 1, n)
                    hist[r] += np.bincount(wts.ravel(), minlength=n + 2)
            _emit(
                opts,
                RoundEvent(
                    r=r, w=w, lower=0, upper=0, active_mats=1, subspaces=nsub,
                    elapsed_s=time.perf_counter() - t0,
                ),
            )
            t0 = time.perf_counter()
    counts = {r: {w: int(c) for w, c in enumerate(hist[r, : n + 1]) if c} for r in range(1, rmax + 1)}
    return Spectrum({0: {0: 1}, **counts})


def higher_spectrum(code: LinearCode, opts: ComputeOptions | None = None) -> Spectrum:
    """Exact counts A_w^(r) for r = 0..k by full enumeration through one
    fixed generator matrix."""
    return _spectrum(code, None, opts or ComputeOptions())


def rhigher_spectrum(c1: LinearCode, c2: LinearCode, opts: ComputeOptions | None = None) -> Spectrum:
    """Relative higher weight spectra: counts restricted to subcodes meeting
    C2 only in 0, for r = 0..k1-k2."""
    return _spectrum(c1, c2, opts or ComputeOptions())
