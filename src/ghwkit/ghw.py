"""Generalized Hamming weights by bounded support-stratified search.

The search enumerates r-dimensional subspaces of the message space with
increasing support size w, encodes each through every systematic generator
matrix of an information-set decomposition, and keeps the smallest encoded
support as an upper bound.  Any subspace not yet seen through G_j meets at
least r - R_j fresh coordinates of its information set, and w + 1 - R_j
once rounds r..w are scanned through G_j: the lower bound is one counter
that each matrix a round scans raises by one.  The search stops once the
bounds meet.  The R_j never decrease, so a round scans the first nsel G_j.

Subspaces are weighed by a support-mask kernel, the Brouwer–Zimmermann
trick of encoding every message on a window once, extended from codewords to
subspaces.  Per round, every w-subset S of the message coordinates and every
matrix G_j gets a table of the supports of x·G_j[S] for all q^w messages x,
packed into uint64 words.  The tables are message-major, (q^w, nS, nsel,
words): message x owns one contiguous row of masks for every (S, G_j), and a
subspace's supports are the OR of the r rows that its basis rows' codes
select.  Relative weights also tabulate the
syndromes x·(G_j·H2ᵀ)[S] in the same order, on only the k1 - k2 checks of C2
that C1 needs (the pivot columns of G1·H2ᵀ).  Over GF(2^s), which
is the vector space GF(2)^s, the tables of all messages are built by one
binary doubling, with no field product: each bit of a message's code adds
one of the s multiples a^u·B of a matrix row, u < s, as its s packed
bit-planes (and its row of syndromes), and each step doubles every support
set's table at once, straight into the round's arrays; over GF(2) the
planes are the masks, else one OR makes them masks.  Over odd
characteristic the tables go through one product per chunk of support
sets.  A round whose tables, with those planes, would exceed a fixed byte
budget tabulates instead only the row codes that a batch of subspaces uses,
a few support sets at a time, through one product per chunk; both modes
give the same bounds, positions and counts.

The search walks each round w > r as a row tree, per pivot shape of the
RREF bases.  Adding a row to a subspace can only grow its support, so the
rows are fixed from the bottom one up, each level ORs one row's masks into
its parent's, and every node that already reaches the round's bound is
dropped with all its completions: Brouwer–Zimmermann cannot prune codeword
combinations this way.  A dropped subspace weighs at least the bound and
could never become it, so the survivors alone decide the round.  Each
carries its visit (stream block, support set), matrix and place in the
stream, and a shape keeps two running minima of them: the first, by visit,
at most the stop (the run's lower bound), whose visit ends the round, and
the lightest.  Every candidate visited before that first one weighs more
than the stop, so it is the bound where the round ends; with none, the
lightest is.  Either way the bound, the early exit, the count of visited
subspaces and the position of the lightest subspace are exactly those of
the plain path.  Round w = r, where every run starts and most end, has one
subspace on S, the span of e_S, which encodes through G_j to the r rows S of
G_j: it is one direct pass over the matrices' packed row supports (and rows
of syndromes), built once per search, with no tables and no product, that
weighs, filters and replays a chunk of support sets at a time.

A round builds no object: it returns its bound, its count and the position
of its lightest subspace below the bound it was given (support set S,
matrix index j, and base rows on S, or None for the unit basis e_S), or
None.  The run keeps the last position found and, when it ends, builds its
one Witness from it, or from the starting subspace, e_S through the first
matrix, if no round found a lighter one, by spreading the rows over the k
message coordinates.

Relative weights M_r(C1, C2) run the same search on C1 and keep only the
subspaces that meet C2 in 0.  A hierarchy seeds each run after the first
with the averaging bound ceil((q^r - 1)·d_{r-1} / (q^r - q)), proven in
_search, which holds for relative weights too.  The spectra take one of
two paths: of those the work limit allows, the one a cost model predicts
faster.  Enumeration weighs every subspace of the stream, in blocks,
through one generator matrix with the same tables and C2 rejection and no
bound, since a count cannot prune; it goes by w, then r, so each w's tables
are built once.  Subset sums enumerate no subspace: one zeta transform of
the histogram of the q^k codeword supports gives dim C1(T) (and dim C2(T))
for every coordinate set T, and Möbius inversion turns those into every
A_w^(r) (Greene; Kløve).  That costs q^k + n·2^n, not the Grassmannian, and
is open while the 2^n counts fit the byte budget.  The naive oracles
enumerate the full Grassmannian through a single generator matrix with no
bounds on the plain path, one matmul per (block, support set), which only
they use, and test V ∩ C2 = 0 by its definition, a rank of V's encoded
basis on C2's generator matrix: they share no C2 code with the kernel.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain, combinations
from math import comb, gcd
from operator import index, mul
from typing import Callable, NamedTuple

import numpy as np

from .code import LinearCode, _bch_from_generator, _cyclic_generator, dual
from .enumeration import (
    DEFAULT_BLOCK,
    RowTree,
    ShapeRows,
    gaussian_binomial,
    row_digits,
    shape_rows,
    subspace_blocks,
    subspace_codes,
)
from .errors import BadHierarchy, BadRank, NotNested, WorkLimitExceeded
from .gf import as_int
from .infoset import _decompose
from .matrix import MatrixGF, eliminate_rows, pack_rows, rank_array, rref_array


@dataclass(frozen=True)
class Hierarchy:
    """A strictly increasing sequence of weights d_1..d_k (or M_1..M_{k1-k2})."""

    values: tuple[int, ...]

    def __post_init__(self):
        v = self.values
        if any(type(x) is not int or x < 1 for x in v):
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
    r rows of a systematic matrix and keeps the lightest subspace it finds,
    built as a Witness once, when the run ends.
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

    Progress events go to ``progress`` if set; ``work_limit`` caps the work
    of a spectrum: it enumerates no Grassmannian larger than the limit and
    takes subset sums of no more elements; ``report`` collects one RunReport
    per weight computation.
    """

    work_limit: int = 10**9
    progress: Callable[[RoundEvent], None] | None = None
    report: Report | None = None


def _emit(opts: ComputeOptions, ev: RoundEvent) -> None:
    if opts.progress is not None:
        opts.progress(ev)


def _witness(field, k: int, pos, weight: int, synthesized=False) -> Witness:
    """The Witness of the subspace at a round's position ``pos`` = (support
    set S, matrix index j, base rows on S, or None for the unit basis e_S),
    its rows spread over the k message coordinates: e_S by one scalar store
    a row, cheaper at so few rows than fancy indexing, others by one."""
    cols, j, base = pos
    sub = np.zeros((len(cols) if base is None else len(base), k), dtype=np.int64)
    if base is None:
        for i, c in enumerate(cols.tolist()):
            sub[i, c] = 1
    else:
        sub[:, cols] = base
    return Witness(MatrixGF.unchecked(field, sub), j, weight, synthesized)


def _independent(field, syn: np.ndarray) -> np.ndarray:
    """Which stacks of r syndromes, an (m, r, c) array, are linearly
    independent, by forward elimination on all of them at once (in place):
    row i survives iff it is nonzero after the pivots of rows 0..i-1 are
    cleared from it."""
    rows, r = np.arange(syn.shape[0]), syn.shape[1]
    ok = np.ones(syn.shape[0], dtype=bool)
    for i in range(r - 1):
        nz = syn[:, i, :] != 0
        ok &= nz.any(axis=1)
        piv = nz.argmax(axis=1)
        # the rows below less t_j / p times row i clear its pivot column; a
        # zero row has p = 0, inverse 0 in the table, and clears nothing
        factors = field.mul_arrays(syn[rows, i + 1 :, piv], field.inv_table[syn[rows, i, piv]][:, None])
        syn[:, i + 1 :, :] = field.axpy_arrays(factors[:, :, None], syn[:, i + 1 :, :], syn[:, i : i + 1, :])
    return ok & (syn[:, r - 1, :] != 0).any(axis=1)


def _scan_round(field, mats, nsel, r, w, upper, g2, stop):
    """Scan round w through the first ``nsel`` matrices for the least-weight
    subspace below ``upper`` (the first on ties), ending early once upper <=
    stop; returns (upper, the position of that subspace, (support set,
    matrix index, base rows), or None if none is below ``upper``,
    subspaces).  Given C2's k2 x n generator matrix ``g2``, a subspace V
    counts only if V ∩ C2 = 0 by its definition: its encoded basis stacked
    on ``g2`` has rank r + k2, tested on the candidates lightest first until
    one passes.  The naive oracles' plain path and the kernel's reference:
    each block of the subspace stream is paired with every w-subset of the
    k message coordinates before the next, and each (block, support set,
    matrix) is encoded with one matmul."""
    def free(enc):  # V ∩ C2 = 0, by its definition
        return g2 is None or rank_array(field, np.vstack((enc, g2))) == r + len(g2)

    supports = [np.array(c, dtype=np.intp) for c in combinations(range(mats[0].shape[0]), w)]
    count, pos = 0, None
    for block in subspace_blocks(r, w, field):
        nsub = block.shape[0]
        for s_cols in supports:
            count += nsub
            for j in range(nsel):
                enc = field.matmul(block.reshape(-1, w), mats[j][s_cols, :]).reshape(nsub, r, -1)
                weights = (enc != 0).any(axis=1).sum(axis=1)
                cand = np.flatnonzero(weights < upper)
                # lightest first, the first on ties: the first that passes is the least
                c = next((c for c in cand[weights[cand].argsort(kind="stable")] if free(enc[c])), None)
                if c is not None:
                    upper, pos = int(weights[c]), (s_cols, j, block[c])
            if upper <= stop:
                return upper, pos, count
    return upper, pos, count


# The support-mask kernel.  For every w-subset S of the message coordinates
# and each of the first nsel matrices G_j, the mask table of a list X of
# messages on w coordinates holds the support of X·G_j[S] as packed uint64
# words, and with C2 the syndrome table holds X·(G_j·H2ᵀ)[S].  Both are
# message-major, (len(X), nS, nsel, words) and (len(X), nS, nsel, k1 - k2), so
# one message's entries for every (S, G_j) are one contiguous row.  X lists
# all q^w messages in code order, once per round, when those tables, with
# their bit-planes over GF(2^s), s > 1, fit _TABLE_BYTES; otherwise X lists
# the distinct row codes of one stream block (spectra) or of one batch of a
# row tree's prefixes, one batch per stream block (search), looked up by
# position.  Tables of X go through one field.matmul per chunk of support sets
# (_tables), except those of all messages over GF(2^s), built by XOR doubling
# (_double), the same bytes: one XOR per bit of a message code over every
# support set, with no chunk, straight into the round's syndrome array and its
# (q^w, nS, nsel, s·words) bit-planes, which over GF(2) are its masks and else
# are OR-ed into them once.
#
# The spectra weigh a stream block on a chunk of S at once as the popcount
# of the OR of the rows that its r basis rows' codes select (_weigh), each
# lookup a copy of whole rows; with C2, the r syndromes of every subspace go
# through one elimination.  The search's rounds w > r walk a row tree per
# pivot shape (_tree_weigh): its first min(r, 2) levels are dense, weighed
# the same way on every combination of the two bottom rows (for r <= 2, on
# the shape's full-support matrices), a chunk of S at a time, so a dense
# level holds at most _GATHER_ELEMS elements; past them, each node that is
# still below the bound the round had when the shape started gets one mask
# word row per child, gathered within the same budget.  Only survivors below
# that bound reach the leaves, where the full-support rule and C2 are
# checked, and each batch of leaves updates the shape's two running minima:
# the first candidate at most the stop and the lightest candidate.  Round
# w = r takes no tables and forms no row codes: its one subspace on S, the
# span of e_S, has through G_j the support of the OR of the rows S of G_j, so
# each chunk of support sets is one gather of their r packed row supports,
# one np.bitwise_or.reduce over the r and one popcount, an (nS, nsel) array
# of weights in visit order, flat by (S, j), on which the round is replayed in
# place (_unit_round): the first weight at most the stop ends it after its S,
# and the first least weight before that end is its position.  With C2, a
# candidate counts only if its r packed syndrome rows S of G_j·H2ᵀ, packed
# once per search, have r pivots.  Only those two deciders are tested, each
# at most once per chunk; one that fails has its weight set to the bound, no
# longer a candidate, and the chunk is replayed until both pass: the replay
# on weights with every failing candidate masked, the plain path's with C2.
_GATHER_ELEMS = 1 << 16  # elements per _tables product, gather or tree-level chunk
_TABLE_BYTES = 1 << 25  # largest tables of all q^w messages, with their bit-planes, in one round


@cache
def _supports(k: int, w: int) -> np.ndarray:
    """The w-subsets of range(k) in lexicographic order, as a read-only
    (C(k, w), w) array, built once per process."""
    out = np.fromiter(chain.from_iterable(combinations(range(k), w)), dtype=np.intp).reshape(-1, w)
    out.flags.writeable = False
    return out


def _pack(a: np.ndarray) -> np.ndarray:
    """The supports of ``a`` along its last axis, n entries, packed into
    ceil(n/64) little-endian uint64 words."""
    out = np.zeros(a.shape[:-1] + (-(-a.shape[-1] // 64) * 8,), dtype=np.uint8)
    bits = np.packbits(a != 0, axis=-1, bitorder="little")
    out[..., : bits.shape[-1]] = bits
    return out.view("<u8")


class _Matrices(NamedTuple):
    """A search's systematic matrices as its rounds read them, built once per
    search: ``stack``, the (m, k, n + k1 - k2) array of [G_j | G_j·H2ᵀ] (G_j
    alone without C2), and, for round w = r, the packed row supports of all
    of them, a (k, m, words) uint64 array, and the rows of their syndrome
    matrices in the elimination's row format (matrix.pack_rows), row i of
    G_j·H2ᵀ at j·k + i (None without C2).  A round scans the first nsel."""

    stack: np.ndarray
    n: int
    masks: np.ndarray
    syn: list | np.ndarray | None


def _matrices(field, mats: np.ndarray, syn: np.ndarray | None) -> _Matrices:
    """The store of the (m, k, n) matrices ``mats`` and of their syndrome
    matrices ``syn``, (m, k, k1 - k2) (None without C2); the row supports
    are packed from ``mats`` as it is and read through their (k, m, words)
    view, with no copy, and the m·k syndrome rows are packed once."""
    masks = _pack(mats).transpose(1, 0, 2)
    if syn is None:
        return _Matrices(mats, mats.shape[2], masks, None)
    rows = pack_rows(field, syn.reshape(-1, syn.shape[2]))
    return _Matrices(np.concatenate((mats, syn), axis=2), mats.shape[2], masks, rows)


def _tables(field, X: np.ndarray, B: np.ndarray, cols: np.ndarray, n: int):
    """The tables of the messages X on the support sets ``cols``, an (nS, w)
    array, through each stacked [G_j | G_j·H2ᵀ] of B, with one field.matmul
    whose product is already message-major: the masks, a (len(X), nS, nsel,
    words) uint64 array, and the syndromes, (len(X), nS, nsel, k1 - k2), or
    None without C2."""
    nj, (ns, w), width = len(B), cols.shape, B.shape[-1]
    prod = field.matmul(X, B[:, cols].transpose(2, 1, 0, 3).reshape(w, -1)).reshape(-1, ns, nj, width)
    return _pack(prod[..., :n]), prod[..., n:].copy() if width > n else None


def _bit_entries(field, B: np.ndarray, n: int):
    """The XOR-able entries a^u·B[j, i] of GF(2^s), for every stacked matrix
    j, message row i and u < s, a^u the element of index field.pow_p[u]: the
    s packed bit-planes of each codeword part, a (nsel, k, s, s·words)
    uint64 array, plane v holding bit v of every coordinate, and the
    syndrome parts, (nsel, k, s, k1 - k2).  Addition over GF(2^s) is XOR of
    the integer encodings, so the entry of a sum is the XOR of the entries.
    Over GF(2) the one entry of a row is the row itself, with no product."""
    s = field.s
    scaled = B[:, :, None] if s == 1 else field.mul_arrays(field.pow_p[:, None], B[:, :, None])
    planes = _pack(scaled[..., None, :n] >> np.arange(s)[:, None] & 1)
    return planes.reshape(scaled.shape[:3] + (-1,)), scaled[..., n:]


def _double(out: np.ndarray, entries: np.ndarray, cols: np.ndarray) -> None:
    """Fill ``out``, the message-major (q^w, nS, nsel, width) table of all
    q^w messages over GF(2^s) on the support sets ``cols``, an (nS, w)
    array, by XOR doubling from ``entries``, the (nsel, k, s, width)
    entries of a^u·B[j, i] (_bit_entries), with no field product.  Row 0 is
    zero; bit t·s + u of message code Σ x_t q^t is bit u of x_t, so step
    m = t·s + u sets rows 2^m..2^(m+1)-1 to rows 0..2^m-1 XOR the entry of
    a^u·B[j, S_t], on every support set at once."""
    s = entries.shape[2]
    out[0] = 0
    for t in range(cols.shape[1]):
        for u in range(s):
            m = 1 << (t * s + u)
            np.bitwise_xor(out[:m], entries[:, cols[:, t], u].transpose(1, 0, 2), out=out[m : 2 * m])


def _round_tables(field, ms: _Matrices, nsel: int, w: int):
    """The nS = C(k, w) support sets of round w as an (nS, w) array, the
    stacked [G_j | G_j·H2ᵀ] of the first ``nsel`` matrices of ``ms`` (G_j
    alone without C2), and the tables of all q^w messages on every support
    set when they fit _TABLE_BYTES, as message-major (q^w, nS, nsel, ·)
    arrays, else None: then each stream block of a spectrum, or each batch
    of a row tree, tabulates its own rows.  Over GF(2^s) they are doubled
    (_double) straight into those arrays, each mask as s bit-planes that,
    for s > 1, one OR reduces; over odd characteristic they go through one
    product per chunk of support sets."""
    # one product or doubling gives each message's codeword and, with C2, its syndrome
    B, n, k, nq = ms.stack[:nsel], ms.n, ms.stack.shape[1], field.q**w
    ns, supports = comb(k, w), _supports(k, w)
    words, c = -(-n // 64), B.shape[-1] - n
    # over GF(2^s), s > 1, the bit-planes the masks are OR-ed from count too
    planes = field.s * words if field.p == 2 and field.s > 1 else 0
    if ns * nq * (words + planes + c) * 8 * nsel > _TABLE_BYTES:
        return supports, B, None
    syn = np.empty((nq, ns, nsel, c), dtype=np.int64) if c else None
    if field.p == 2:
        bits, part = _bit_entries(field, B, n)
        masks = np.empty((nq, ns, nsel, field.s * words), dtype="<u8")
        _double(masks, bits, supports)
        if field.s > 1:
            # a coordinate is nonzero iff one of its bit-planes is
            masks = np.bitwise_or.reduce(masks.reshape(nq, ns, nsel, field.s, words), axis=3)
        if syn is not None:
            _double(syn, part, supports)
        return supports, B, (masks, syn)
    masks = np.empty((nq, ns, nsel, words), dtype="<u8")
    X = row_digits(np.arange(nq), field.q, w)
    step = max(1, _GATHER_ELEMS // (nsel * nq * (n + c)))
    for lo in range(0, ns, step):
        masks[:, lo : lo + step], part = _tables(field, X, B, supports[lo : lo + step], n)
        if syn is not None:
            syn[:, lo : lo + step] = part
    return supports, B, (masks, syn)


def _block_tables(field, tabs, codes: list, n: int, step: int):
    """The positions of a list of arrays of row ``codes`` in the tables of
    round ``tabs``, as a list of arrays of the same shapes, and per chunk of
    at most ``step`` support sets in order (lo, ns, off, masks, syn):
    support sets lo..lo+ns-1 sit at off..off+ns-1 of the message-major mask
    and syndrome tables.  Those are the round's tables of all messages,
    where a row's position is its code and off = lo, or else tables of the
    distinct codes alone, built per chunk with off = 0 and at most
    _GATHER_ELEMS elements, however large ``step`` is."""
    supports, B, full = tabs
    if full is None:
        used, inv = np.unique(np.concatenate([c.ravel() for c in codes]), return_inverse=True)
        X = row_digits(used, field.q, supports.shape[1])
        codes = [x.reshape(c.shape) for x, c in zip(np.split(inv, np.cumsum([c.size for c in codes])[:-1]), codes)]
        step = min(step, max(1, _GATHER_ELEMS // (len(B) * len(X) * B.shape[-1])))

    def chunks():
        for lo in range(0, len(supports), step):
            cols = supports[lo : lo + step]
            yield (lo, len(cols), 0, *_tables(field, X, B, cols, n)) if full is None else (lo, len(cols), lo, *full)

    return codes, chunks()


def _weigh(field, masks, syn, codes: np.ndarray, n: int) -> np.ndarray:
    """Support sizes of the subspaces whose basis rows have the (m, r) row
    ``codes``, weighed through each of a chunk's message-major tables: the
    popcount of the OR of the whole (nS, nsel, words) rows that the codes
    select, an (m, nS, nsel) array.  With C2, every one that meets C2
    outside 0 weighs n + 1.  The spectra's kernel."""
    acc = masks[codes[:, 0]]
    for t in range(1, codes.shape[1]):
        acc |= masks[codes[:, t]]
    wts = _popcount(acc)
    if syn is not None:
        _, ns, nj = wts.shape
        stacks = syn[codes[:, None, None], np.arange(ns)[:, None, None], np.arange(nj)[:, None]]
        ok = _independent(field, stacks.reshape(-1, *stacks.shape[3:]))
        wts[~ok.reshape(wts.shape)] = n + 1
    return wts


@cache
def _row_trees(r: int, w: int, field) -> tuple:
    """Each pivot shape of round (r, w), as enumeration.shape_rows gives it,
    with the combinations that its row tree's first D = min(r, 2) levels
    weigh densely, a (K, D) array of indices into rows r-1, .., r-D: all
    those of the D bottom rows, or, where D = r, the shape's full-support
    matrices; and its RowTree.  Built once per process."""
    trees = []
    for sh in shape_rows(r, w, field, DEFAULT_BLOCK):
        D, tree = min(r, 2), sh.tree(field)
        dense = np.indices([len(tree.rows[r - 1 - i]) for i in range(D)]).reshape(D, -1).T
        if D == r:
            dense = dense[tree.place(dense[:, ::-1].T)[0]]
        trees.append((sh, dense, tree))
    return tuple(trees)


def _tree_weigh(field, sh: ShapeRows, dense, tree: RowTree, tabs, n: int, upper: int, stop: int):
    """One pivot shape of a round w > r by the row tree, as the plain path
    ends it: (the subspaces it visits, its lightest candidate as (weight,
    visit, j, position) or None, whether it stopped), a visit being (block,
    support set) and a position the matrix's place in the shape's stream,
    all exact Python ints.  The leaves below ``upper`` keep two running
    minima: ``hit``, the least (visit, weight, j, position) at most
    ``stop``, whose visit is the stop; and ``low``, the least (weight,
    visit, j, position) of all.  Every candidate before the stop weighs more
    than ``stop``, so the bound there is the least weight of the stop's
    visit and its first subspace is ``hit``; with no hit, ``low`` is both.
    Each of the nS support sets pairs with a whole stream block before the
    next block, so a stop at visit (block, s) counts the earlier blocks on
    all nS sets and its own on s + 1.  The prefixes go in batches, one per
    stream block: a batch runs from the first prefix after the last batch
    to the one that holds the end of the block where it starts.  Each prefix
    is one tree (_tree_leaves), weighed a chunk of support sets at a time
    (_block_tables), so that the dense levels hold at most _GATHER_ELEMS
    elements, and no chunk or batch whose visits all come after the stop is
    weighed."""
    r, nS, prefixes = len(sh.pivots), len(tabs[0]), sh.total // sh.P
    nj, words = len(tabs[1]), -(-n // 64)
    end = sh.total * nS
    big, hit, low, first = end >= 2**63, None, None, end
    a = 0
    while a < prefixes:
        # the batch's visits are (block, support set) from (head, 0) on; it
        # ends by the prefix that holds block head's end, so that a stop in
        # that block waits on few positions of the next
        head = a * sh.P // DEFAULT_BLOCK
        if first < head * nS:
            break
        b = min(prefixes, -(-(head + 1) * DEFAULT_BLOCK // sh.P))
        pre = sh.prefix_codes(field, a, b)
        codes = [pre[t][:, None] + tree.rows[t] for t in range(r)]
        step = max(1, _GATHER_ELEMS // ((b - a) * len(dense) * nj * words))
        codes, chunks = _block_tables(field, tabs, codes, n, step)
        for lo, ns, off, masks, syn in chunks:
            for p, s, j, wt, spos in _tree_leaves(field, tree, dense, codes, masks, syn, off, ns, upper):
                if p.size:
                    at = (a + p.astype(object if big else np.int64)) * sh.P + spos
                    v = at // DEFAULT_BLOCK * nS + lo + s
                    least = _least(wt, v, j, at)
                    low = least if low is None else min(low, least)
                    if wt.min() <= stop:
                        h = wt <= stop
                        least = _least(v[h], wt[h], j[h], at[h])
                        hit = least if hit is None else min(hit, least)
                        first = hit[0]
            if first < head * nS + lo + ns:
                break
        a = b
    if hit is None:
        return end, low, False
    blk, s = divmod(first, nS)
    count = blk * DEFAULT_BLOCK * nS + min(DEFAULT_BLOCK, sh.total - blk * DEFAULT_BLOCK) * (s + 1)
    return count, (hit[1], first, *hit[2:]), True


def _tree_leaves(field, tree: RowTree, dense, codes, masks, syn, s_off: int, ns: int, upper: int):
    """The row trees of a batch of prefixes on support sets s_off..s_off+ns-1
    of message-major tables, whose rows ``codes[t]``, a (prefixes,
    len(tree.rows[t])) array, select.  Rows are fixed from the bottom one,
    which has the fewest free entries, up.  The first D = min(r, 2) levels
    are dense: each combination of ``dense`` (see _row_trees) is weighed
    like a stream block, as the OR of its rows' whole mask rows.  Below
    that, a node is (prefix, support set, matrix, rows fixed so far, the OR
    of their masks): each level ORs one mask word row per child into its
    parent's and keeps only the children below ``upper``, since adding a row
    can only grow a support; a level's gather holds at most _GATHER_ELEMS
    elements.  At the leaves (straight after the dense levels if D = r),
    the survivors with every free column nonzero, and with C2 those whose r
    syndromes are independent, are yielded a batch at a time as (prefix,
    support set - s_off, j, weight, suffix position)."""
    r, (_, nst, nj, words) = len(codes), masks.shape
    K, D = dense.shape
    dc = [codes[r - 1 - i][:, dense[:, i]].ravel() for i in range(D)]
    acc = masks[dc[0], s_off : s_off + ns]
    for x in dc[1:]:
        acc |= masks[x, s_off : s_off + ns]
    wts = _popcount(acc)
    kk, sj = np.divmod(np.flatnonzero(wts < upper), ns * nj)
    if not kk.size:
        return
    (s, j), (p, combo) = np.divmod(sj, nj), np.divmod(kk, K)
    flat, stride = masks.reshape(-1, words), nst * nj
    lin = [c * stride for c in codes]
    synf = None if syn is None else syn.reshape(-1, syn.shape[-1])

    def leaves(p, sj, wts, path):
        ok, spos = tree.place(path)
        p, sj, wts, path = p[ok], sj[ok], wts[ok], [x[ok] for x in path]
        if synf is not None and p.size:
            ok = _independent(field, np.stack([synf[lin[t][p, path[t]] + sj] for t in range(r)], axis=1))
            p, sj, wts, spos = p[ok], sj[ok], wts[ok], spos[ok]
        return p, sj // nj - s_off, sj % nj, wts, spos

    walk, path = (flat, lin, upper, leaves), [dense[combo, i] for i in range(D)]
    yield from _descend(walk, r - 1 - D, p, (s_off + s) * nj + j, acc[kk, s, j], wts[kk, s, j], path)


def _descend(tree, t: int, p, sj, acc, wts, path):
    """The sparse levels of _tree_leaves, rows t down to 0, on nodes (prefix
    ``p``, table offset ``sj`` of the support set and matrix, OR ``acc`` of
    the fixed rows' masks and its weight ``wts``, their indices ``path``
    from the bottom row on); with t = -1 the nodes are leaves."""
    flat, lin, upper, leaves = tree
    if t < 0:
        yield leaves(p, sj, wts, path[::-1])
        return
    step = max(1, _GATHER_ELEMS // (lin[t].shape[1] * flat.shape[1]))
    for lo in range(0, len(p), step):
        pe, se = p[lo : lo + step], sj[lo : lo + step]
        g = flat[lin[t][pe] + se[:, None]]
        g |= acc[lo : lo + step, None]
        wts = _popcount(g)
        e, c = np.divmod(np.flatnonzero(wts < upper), g.shape[1])
        if not e.size:
            continue
        kids = [x[lo : lo + step][e] for x in path] + [c]
        yield from _descend(tree, t - 1, pe[e], se[e], g[e, c], wts[e, c], kids)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """The support sizes of packed masks, along their last axis of words;
    uint8 for one word."""
    if masks.shape[-1] == 1:
        return np.bitwise_count(masks[..., 0])
    return np.bitwise_count(masks).sum(axis=-1, dtype=np.int64)


def _least(*keys) -> tuple:
    """The least of the tuples (keys[0][i], keys[1][i], ..) of equal-length
    arrays, as Python ints."""
    i = np.lexsort(keys[::-1])[0]
    return tuple(int(x[i]) for x in keys)


def _unit_round(field, ms: _Matrices, nsel: int, r: int, upper: int, stop: int):
    """Round w = r of _scan_kernel in one direct pass through the first
    ``nsel`` matrices, a chunk of support sets at a time (see _GATHER_ELEMS),
    replayed on each chunk's weights; returns (bound, position, count).  The
    round ends after the first support set that holds a candidate at most
    ``stop``, the bound is the least weight visited, the position (S, j,
    None) is that of the first subspace e_S at it, by support set, then
    matrix (None if none is below ``upper``), and each set visited counts
    one subspace.  With C2 the replay's deciders, ``first`` if a hit and
    ``i``, are tested (_unit_free), each at most once; one that fails is
    masked to ``upper`` and the chunk replayed, until both pass.  Masking
    only removes candidates, so ``first`` is then the first hit that passes
    and ``i`` the first least that passes before the end: the replay on
    fully masked weights, the plain path's with C2."""
    k, _, words = ms.masks.shape
    supports, masks = _supports(k, r), ms.masks[:, :nsel]
    step = max(1, _GATHER_ELEMS // (nsel * r * words))
    count, pos = 0, None
    for lo in range(0, len(supports), step):
        cols = supports[lo : lo + step]
        # in visit order, (support set, matrix) is flat index s·nsel + j;
        # upper <= n + 1 fits the uint8 weights of one-word masks
        wts = _popcount(np.bitwise_or.reduce(masks[cols], axis=1)).ravel()
        passed = set()
        while True:
            hit = wts <= stop
            first = int(hit.argmax())
            end = first // nsel + 1 if hit[first] else len(cols)
            i = int(wts[: end * nsel].argmin())
            if ms.syn is None or wts[i] >= upper:
                break
            for t in (first, i) if hit[first] else (i,):
                if t not in passed:
                    if not _unit_free(field, ms, cols[t // nsel].tolist(), t % nsel):
                        wts[t] = upper
                        break
                    passed.add(t)
            else:
                break
        if wts[i] < upper:
            upper, pos = int(wts[i]), (cols[i // nsel], i % nsel, None)
        count += end
        if upper <= stop:
            break
    return upper, pos, count


def _unit_free(field, ms: _Matrices, cols: list, j: int) -> bool:
    """Whether e_S, for the support set ``cols``, meets C2 only in 0 through
    matrix j: whether the r packed syndrome rows S of G_j·H2ᵀ have r
    pivots."""
    k = ms.stack.shape[1]
    rows = [ms.syn[j * k + i] for i in cols]
    return len(eliminate_rows(field, rows, ms.stack.shape[2] - ms.n)[1]) == len(rows)


def _scan_kernel(field, ms: _Matrices, nsel: int, r, w, upper, stop):
    """_scan_round through the support-mask kernel, on the first ``nsel``
    matrices of ``ms`` and with C2 given by their syndrome matrices, with the
    same visit order (block, support set, matrix), selection rule, early
    exit and count.  ``stop`` is an int below ``upper``, as in _run, where
    it is the run's lower bound: the round ends after the first visit that
    holds a candidate at most ``stop``.  Round w = r is one direct pass
    (_unit_round).  A round w > r goes pivot shape by pivot shape through
    the row tree (_tree_weigh), which gives the subspaces the shape visits,
    its lightest candidate below ``upper`` and whether it stopped: the
    candidate is the new bound.  A subspace the tree prunes weighs at least
    the bound and could never become it, so the bound, position (None if
    none is below the ``upper`` given) and count are the plain path's.  The
    position's base rows are decoded from the candidate's place in its
    shape's stream once, when the round ends."""
    if w == r:
        return _unit_round(field, ms, nsel, r, upper, stop)
    tabs = _round_tables(field, ms, nsel, w)
    count, best = 0, None
    for sh, dense, tree in _row_trees(r, w, field):
        nsub, found, stopped = _tree_weigh(field, sh, dense, tree, tabs, ms.n, upper, stop)
        count += nsub
        if found is not None:
            upper, v, j, at = found
            best = sh
        if stopped:
            break
    if best is None:
        return upper, None, count
    base = row_digits(best.codes(field, at, at + 1)[:, 0], field.q, w)
    return upper, (tabs[0][v % len(tabs[0])], j, base), count


def _run(field, ms: _Matrices, reds, rows, start, r, lower, opts) -> RunReport:
    """Bounded search for d_r (M_r when ``ms`` has syndrome matrices)
    through the systematic matrices of ``ms``, whose redundancies ``reds``
    never decrease, from the lower bound ``lower``.  The rounds return
    positions; the run builds one Witness, at its end, of the last position
    found, or, if the search finds nothing lighter, of the starting
    subspace, the span of e_S for S = ``rows[:r]`` through the first
    matrix, of weight ``start``."""
    report = RunReport(r=r)
    # The first m matrices, those with R_j <= r, take part, each credited
    # r - R_j at the start: G_j is the identity on I_j, so every r-dimensional
    # subspace meets I_j in at least r coordinates.  A scanned round adds one
    # per matrix; only a final round scans fewer than m, so one counter holds.
    m = bisect_right(reds, r)
    covered = r * m - sum(reds[:m])
    lower = max(lower, covered)
    k, pos, w, upper = ms.stack.shape[1], None, r, start

    while w <= k and lower < upper:
        t0 = time.perf_counter()
        nsel = min(m, upper - covered)
        upper, found, nsub = _scan_kernel(field, ms, nsel, r, w, upper, lower)
        pos = found or pos
        report.subspaces_enumerated += nsub
        covered += nsel
        lower = max(lower, covered)
        ev = RoundEvent(r=r, w=w, lower=min(upper, lower), upper=upper, active_mats=nsel, subspaces=nsub,
                        elapsed_s=time.perf_counter() - t0)
        report.rounds.append(ev)
        _emit(opts, ev)
        w += 1

    report.value = upper
    report.witness = _witness(field, k, pos or (rows[:r], 0, None), upper, pos is None)
    if opts.report is not None:
        opts.report.runs.append(report)
    return report


def _cyclic_floor(code: LinearCode, M: np.ndarray, iset) -> int | None:
    """BCH bound of the code if it is cyclic and the bound is available,
    else None; M is the identity on the (1-based) information set ``iset``.
    A cyclic code is spanned by x^i·g(x), i < k, whose first k columns are
    triangular with g_0 ≠ 0 on the diagonal, so its first information set
    is {1..k}: any other set, or a length the characteristic divides (no
    BCH bound), rejects the code before the product of _cyclic_generator."""
    field, n, k = code.field, code.n, len(iset)
    if iset[-1] != k or gcd(n, field.p) != 1:
        return None
    g = _cyclic_generator(field, M)
    try:
        return None if g is None else _bch_from_generator(field, n, g)
    except ValueError:  # GF(q^t) is larger than the largest field
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


def _check_rank(r, rmax: int, c2) -> None:
    """Raise BadRank unless r is an integer in [1, rmax]: not a float or a
    bool, while numpy integers pass through operator.index."""
    if as_int(r) is None or not 1 <= r <= rmax:
        bound = "k" if c2 is None else "k1 - k2"
        raise BadRank(f"need an integer 1 <= r <= {bound} = {rmax}, got r={r!r}")


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
    for r in () if ranks is None else ranks:
        _check_rank(r, rmax, c2)
    ranks = range(1, rmax + 1) if ranks is None else ranks
    sets, mats, reds = _decompose(c1)
    field = c1.field
    floor = _cyclic_floor(c1, mats[0], sets[0])
    syn = None if h2t is None else field.matmul(mats.reshape(-1, c1.n), h2t).reshape(len(sets), c1.k, -1)
    # each run's starting witness takes the first r of these rows: with C2,
    # the rows whose syndromes extend the span of those before them (the k1
    # syndromes span dimension k1 - k2 >= r)
    rows = np.arange(c1.k) if syn is None else np.array(rref_array(field, syn[0].T)[1])
    ms = _matrices(field, mats, syn)
    # the starting witness of run r spans rows[:r] of the first matrix: one
    # cumulative OR of their packed supports weighs all
    starts = _popcount(np.bitwise_or.accumulate(ms.masks[rows, 0], axis=0)).tolist()
    values: list[int] = []
    for r in ranks:
        lower = 0 if floor is None else floor + r - 1
        if values:
            lower = max(lower, -(-(field.q**r - 1) * values[-1] // (field.q**r - field.q)))
        values.append(_run(field, ms, reds, rows, starts[r - 1], r, lower, opts).value)
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
    {1..n}, ascending.  A Hierarchy is taken as it is; other weights go
    through operator.index into one, bools untouched so that its check
    rejects them."""
    if as_int(n) is None:
        raise BadHierarchy(f"code length must be an integer, got {n!r}")
    if not isinstance(h, Hierarchy):
        h = list(h)
        try:
            h = Hierarchy(tuple(x if isinstance(x, bool) else index(x) for x in h))
        except TypeError:
            raise BadHierarchy(f"weights must be positive integers: {h}") from None
    if any(not 1 <= d <= n for d in h):
        raise BadHierarchy(f"weights must lie in [1, {n}]: {h.values}")
    excluded = {n + 1 - d for d in h}
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
    generator matrix, keeping only subspaces V with V ∩ C2 = 0, tested by
    the rank of V's encoded basis stacked on C2's generator matrix.  No
    subspace weighs the stop 0, so every round runs whole."""
    _, rmax = _nested_pair(c1, c2)
    _check_rank(r, rmax, c2)
    g2 = None if c2 is None else c2.G.array
    best = c1.n + 1
    for w in range(r, c1.k + 1):
        best = _scan_round(c1.field, [c1.G.array], 1, r, w, best, g2, 0)[0]
    return best


def naive_ghw(code: LinearCode, r: int) -> int:
    """Oracle: minimum encoded support over the whole Grassmannian through a
    single generator matrix; no bounds, no early exit."""
    return _naive(code, None, r)


def naive_rghw(c1: LinearCode, c2: LinearCode, r: int) -> int:
    """Oracle for the relative weight: full enumeration, keeping the
    subspaces V of rank r + k2 when stacked on C2's generator matrix (V ∩ C2
    = 0 by definition), no bounds."""
    return _naive(c1, c2, r)


# Predicted time of a spectrum on each path, so that _spectrum takes the
# faster one.  Enumeration costs a constant per subspace of the Grassmannians
# it walks, one without C2 and a larger one with it, since each subspace then
# also gets an elimination of its syndromes, and a constant per pivot shape of
# its rounds, each at least one stream block of a few numpy calls.  Timed on
# a 2-vCPU Xeon host (Python 3.11, numpy 2.4, one BLAS thread), each path
# forced, best of 3-9 in one process: enumeration took 12-20 ns a subspace
# without C2, 340-800 ns with it, and 49-54 µs a pivot shape on codes of at
# most 66 subspaces.  Subset sums cost a constant per byte they stream, plus a
# fixed floor: 8 bytes for each of the q^k1 (+ q^k2) int64 codeword supports,
# and a count's itemsize for each of the n·2^n transform steps, since a step
# streams its counts at about the same rate in bytes whatever their width
# (1.4 ms for the 20 steps of 2^20 uint8 counts, 3.3 ms for uint16 ones).
# Their two constants were refit on a grid of 28 codes over GF(2..16) with
# n = 8..20 (CHANGES.md has it), each path forced, best of up to 15 in one
# process, in two passes on the same host: subset sums took 0.16-0.18 ns a byte at n = 20 and 0.2-0.35 ms
# at n <= 10, while enumeration then ran at 0.6-0.8 of its predicted time.
# They are the pair with the least total time lost to a wrong choice over both
# passes: every grid code takes its faster path but GF(2) [16,4] (0.59 against
# 0.47 ms).  GF(4) [20,6] is predicted 12.9 ms by subset sums against 14.5 by
# enumeration (measured 6.1 against 10.7).  A codeword support costs more than
# its 8 bytes (about 11 ns over GF(2^s) and 300 ns over GF(3)), which tips the
# choice only where q^k1 weighs against n·2^n.
_ENUM_S = 20e-9  # a subspace enumerated without C2
_ENUM_C2_S = 400e-9  # a subspace enumerated with C2
_SHAPE_S = 50e-6  # a pivot shape of an enumeration round
_SUBSET_S = 0.3e-9  # a byte of subset sums
_SUBSET_FLOOR_S = 0.3e-3  # subset sums' fixed cost


def _enumerated_spectrum(c1: LinearCode, h2t, rmax: int, opts: ComputeOptions) -> dict:
    """The spectra of C1 by enumerating every subspace through its generator
    matrix, with C2 given by the checks ``h2t``.  The rounds go by w, then r,
    so each w's tables serve every r; a subspace that meets C2 outside 0 is
    counted at weight n + 1, which is dropped."""
    field, k, n, G = c1.field, c1.k, c1.n, c1.G.array
    ms = _matrices(field, G[None], None if h2t is None else field.matmul(G, h2t)[None])
    hist = np.zeros((rmax + 1, n + 2), dtype=np.int64)
    words, c = -(-n // 64), 0 if h2t is None else h2t.shape[1]
    for w in range(1, k + 1):
        t0 = time.perf_counter()
        tabs = _round_tables(field, ms, 1, w)
        for r in range(1, min(w, rmax) + 1):
            nsub = 0
            for codes in subspace_codes(r, w, field):
                nsub += codes.shape[0] * comb(k, w)
                # a chunk gathers one mask row and r syndrome rows per subspace
                step = max(1, _GATHER_ELEMS // (codes.shape[0] * (words + r * c)))
                (rows,), chunks = _block_tables(field, tabs, [codes], n, step)
                for _, ns, off, masks, syn in chunks:
                    sl = slice(off, off + ns)
                    wts = _weigh(field, masks[:, sl], None if syn is None else syn[:, sl], rows, n)
                    hist[r] += np.bincount(wts.ravel(), minlength=n + 2)
            ev = RoundEvent(r=r, w=w, lower=0, upper=0, active_mats=1, subspaces=nsub,
                            elapsed_s=time.perf_counter() - t0)
            _emit(opts, ev)
            t0 = time.perf_counter()
    return {r: {w: int(c) for w, c in enumerate(hist[r, : n + 1]) if c} for r in range(1, rmax + 1)}


def _codeword_supports(field, G: np.ndarray):
    """The supports of all q^k codewords x·G, n <= 64, as n-bit masks in
    int64, a chunk of messages at a time, in no set order: never all q^k
    words at once.  Over GF(2^s) the bit-planes of the words on the low and
    on the high digits of a message are each one XOR doubling (_double), and
    a chunk of high parts XORs every low part, plane by plane, ORing the
    planes into masks; over odd characteristic a chunk of messages is one
    product.  A chunk holds about _TABLE_BYTES / 32 words, each a mask and
    one temporary, and the low planes a quarter of _TABLE_BYTES."""
    (k, n), q, s = G.shape, field.q, field.s
    chunk = max(1, _TABLE_BYTES // 32)
    if field.p != 2:
        step = max(1, _TABLE_BYTES // (16 * s * (n + k)))
        for lo in range(0, q**k, step):
            X = row_digits(np.arange(lo, min(q**k, lo + step)), q, k)
            yield _pack(field.matmul(X, G))[:, 0].view(np.int64)
        return
    entries = _bit_entries(field, G[None], n)[0]
    low = 0
    while low < k and q ** (low + 1) <= chunk // s:
        low += 1
    parts = []
    for cols in (np.arange(low), np.arange(low, k)):
        out = np.empty((q ** len(cols), 1, 1, s), dtype="<u8")
        _double(out, entries, cols[None])
        parts.append(out.reshape(-1, s).T.copy())
    lows, highs = parts
    step = max(1, chunk // lows.shape[1])
    for h in range(0, highs.shape[1], step):
        sup = lows[0] ^ highs[0, h : h + step, None]
        for u in range(1, s):
            sup |= lows[u] ^ highs[u, h : h + step, None]
        yield sup.ravel().view(np.int64)


def _step(a: np.ndarray, i: int) -> None:
    """One zeta step on bit i of the index of ``a``, in place: each run of
    2^i entries adds into the run after it."""
    v = a.reshape(-1, 2, 1 << i)
    v[:, 1] += v[:, 0]


def _transpose_squares(sq: np.ndarray) -> None:
    """Transpose each square of the (m, N, N) array ``sq`` in place, N a power
    of two, by swapping each 64 × 64 tile above the diagonal with the
    transpose of its mirror below it (a diagonal tile with itself)."""
    t = min(64, sq.shape[1])
    buf = np.empty((sq.shape[0], t, t), dtype=sq.dtype)
    for a in range(0, sq.shape[1], t):
        for b in range(a, sq.shape[1], t):
            upper, lower = sq[:, a : a + t, b : b + t], sq[:, b : b + t, a : a + t]
            np.copyto(buf, upper)
            upper[...] = lower.transpose(0, 2, 1)
            lower[...] = buf.transpose(0, 2, 1)


def _subset_sums(f: np.ndarray, n: int) -> np.ndarray:
    """The zeta transform g[T] = Σ_{S ⊆ T} f[S] of ``f``, indexed by the bit
    mask of T ⊆ [n], in place: one step per coordinate adds each set's entry
    into the same set with that coordinate.  The bits of T are split at
    lo = n//2: the high ones step in place on runs of at least 2^lo entries,
    then each 2^lo × 2^lo square of ``f`` is transposed in place
    (_transpose_squares), which moves the low bits to runs of at least 2^lo
    too.  So on return ``f`` holds g with the two lo-bit fields of T
    swapped, the same popcount at every position; the view returned reads g
    in the order of T (its ravel() is g)."""
    lo = n // 2
    for i in range(lo, n):
        _step(f, i)
    squares = f.reshape(-1, 1 << lo, 1 << lo)
    _transpose_squares(squares)
    for i in range(lo, 2 * lo):
        _step(f, i)
    return squares.transpose(0, 2, 1)


def _binades(c: np.ndarray) -> np.ndarray:
    """The binary exponent of each count c >= 1 rounded to float32, as uint8.
    Counts that are powers of p fall in distinct binades: rounding to
    nearest is monotone and commutes with doubling, so p^(e+1) >= 2·p^e
    rounds to at least twice p^e.  Over GF(2^s) it is log2 c."""
    return (c.astype(np.float32).view(np.uint32) >> 23).astype(np.uint8) - 127


def _count_layout(field, n: int, k: int, k2: int | None):
    """The 2^n subset counts of subset sums: (bits, dtype), or None when they
    do not fit.  A count is q^dim C1(T), with C2 that plus q^dim C2(T) shifted
    by ``bits``, in the narrowest unsigned dtype that holds q^k1 (and the
    shifted q^k2).  They fit when they take at most _TABLE_BYTES, the only
    2^n-sized array of the path.  While they are built, a chunk of codeword
    supports (_codeword_supports) and its temporaries sit beside them, up to
    three quarters of _TABLE_BYTES more: by tracemalloc GF(2) [23,20], whose
    counts fill the budget, peaks at 48 MiB, GF(2) [22,21] at 40 MiB and
    GF(4) [20,6] at 2.8 MiB."""
    bits = (field.q**k).bit_length()
    top = field.q**k if k2 is None else field.q**k | field.q**k2 << bits
    if top >= 1 << 63:
        return None
    dtype = np.min_scalar_type(top)
    if (1 << n) * dtype.itemsize > _TABLE_BYTES:
        return None
    return bits, dtype


def _subset_spectrum(c1: LinearCode, c2: LinearCode | None, rmax: int, layout, opts: ComputeOptions) -> dict:
    """The spectra of C1 (restricted to subcodes meeting C2 in 0) by Möbius
    inversion from the subcode dimensions a = dim C1(T), b = dim C2(T) of
    every coordinate set T (Greene 1976; Kløve 1992), with no subspace
    enumerated.  C1(T), the words supported in T, has q^a words, so one
    histogram of the q^k1 codeword supports and one subset-sum transform
    (_subset_sums) give q^a for every T at once, and, in the same counts
    shifted by ``bits``, q^b.  Each chunk of supports adds into the counts
    by index (np.add.at), with no temporary of its own.  The transform
    permutes only the bits of T's position, so |T| is the popcount of the
    position, and the histogram of (|T|, a, b) is read off the counts in
    place, _GATHER_ELEMS keys at a time in the narrowest dtype.  The
    r-dimensional subcodes of C1(T) meeting C2 in 0 number
    N_r(T) = q^(r·b)·[a - b, r]_q, and a subcode of support size w lies in
    C(n - w, u - w) sets of size u, so
    A_w^(r) = Σ_u (−1)^(w−u)·C(n−u, w−u)·Σ_{|T|=u} N_r(T), in exact Python
    ints.  One RoundEvent per r, with w = n and no subspaces; the first also
    times the transform."""
    t0 = time.perf_counter()
    field, k, n = c1.field, c1.k, c1.n
    q, (bits, dtype) = field.q, layout
    f = np.zeros(1 << n, dtype=dtype)
    for G, shift in [(c1.G.array, 0)] + ([] if c2 is None else [(c2.G.array, bits)]):
        for sup in _codeword_supports(field, G):
            np.add.at(f, sup, dtype.type(1 << shift))
    _subset_sums(f, n)
    # the histogram of (|T|, binades of q^a and q^b); a chunk's positions
    # x + i, i < step, have popcount |x| + |i|
    ka, kb = bits + 1, 1 if c2 is None else (q**c2.k).bit_length() + 1
    hist = np.zeros((n + 1) * ka * kb, dtype=np.int64)
    step = min(len(f), _GATHER_ELEMS)
    key_type = np.min_scalar_type(len(hist) - 1)
    sizes = np.bitwise_count(np.arange(step)).astype(key_type)
    sizes *= ka * kb
    for x in range(0, len(f), step):
        v = f[x : x + step]
        if c2 is None:
            key = _binades(v).astype(key_type)
        else:
            key = _binades(v & (1 << bits) - 1).astype(key_type)
            key *= kb
            key += _binades(v >> bits)
        key += sizes
        key += x.bit_count() * ka * kb
        hist += np.bincount(key, minlength=len(hist))
    at = _binades(np.array([q**a for a in range(k + 1)], dtype=dtype))
    hist = hist.reshape(n + 1, ka, kb)[:, at][:, :, [0] if c2 is None else at[: c2.k + 1]]
    cells = {(a, b): hist[:, a, b].tolist() for a, b in np.ndindex(hist.shape[1:]) if hist[:, a, b].any()}
    inversion = [[(-1) ** (w - u) * comb(n - u, w - u) for u in range(w + 1)] for w in range(n + 1)]
    counts = {}
    for r in range(1, rmax + 1):
        sums = [0] * (n + 1)
        for (a, b), col in cells.items():
            if a - b >= r:
                subcodes = q ** (r * b) * gaussian_binomial(a - b, r, q)
                sums = [x + subcodes * c for x, c in zip(sums, col)]
        row = (sum(map(mul, inversion[w], sums)) for w in range(n + 1))
        counts[r] = {w: c for w, c in enumerate(row) if c}
        _emit(opts, RoundEvent(r=r, w=n, lower=0, upper=0, active_mats=1, subspaces=0,
                               elapsed_s=time.perf_counter() - t0))
        t0 = time.perf_counter()
    return counts


def _by_subset_sums(with_c2: bool, k: int, rmax: int, subspaces: int, nbytes: int) -> bool:
    """Whether subset sums over ``nbytes`` are predicted faster than
    enumerating ``subspaces`` in the rounds r <= w <= k, r <= rmax, whose
    pivot shapes number C(w - 1, r - 1) (the first pivot sits in column 0)."""
    shapes = sum(comb(w - 1, r - 1) for w in range(1, k + 1) for r in range(1, min(w, rmax) + 1))
    enumeration = subspaces * (_ENUM_C2_S if with_c2 else _ENUM_S) + shapes * _SHAPE_S
    return _SUBSET_FLOOR_S + nbytes * _SUBSET_S < enumeration


def _spectrum(c1: LinearCode, c2: LinearCode | None, opts: ComputeOptions) -> Spectrum:
    """Support-weight histograms of all r-dimensional subcodes of C1,
    restricted to those meeting C2 in 0 when given, by enumeration, which
    walks Σ_r [k1, r]_q subspaces (_enumerated_spectrum), or by subset sums,
    which take q^k1 (+ q^k2) codeword supports and n·2^n transform steps
    (_subset_spectrum).  ``work_limit`` opens enumeration when no
    Grassmannian [k1, r]_q exceeds it, and subset sums when their elements
    do not and their 2^n counts fit _TABLE_BYTES; of the open paths the one
    predicted faster is taken, and with neither open the spectrum is
    refused."""
    h2t, rmax = _nested_pair(c1, c2)
    field, k, n = c1.field, c1.k, c1.n
    k2 = None if c2 is None else c2.k
    largest = max(gaussian_binomial(k, r, field.q) for r in range(rmax + 1))
    codewords = field.q**k + (0 if k2 is None else field.q**k2)
    elements = codewords + n * 2**n
    layout = _count_layout(field, n, k, k2)
    enumerable = largest <= opts.work_limit
    summable = layout is not None and elements <= opts.work_limit
    if not (enumerable or summable):
        over = f"its largest Grassmannian has {largest} subspaces"
        if layout is not None:
            over += f" and its subset sums {elements} elements"
        raise WorkLimitExceeded(f"the spectrum exceeds the work limit {opts.work_limit}: {over}")
    subspaces = sum(gaussian_binomial(k, r, field.q) for r in range(1, rmax + 1))
    subset = summable and (not enumerable or _by_subset_sums(
        c2 is not None, k, rmax, subspaces, 8 * codewords + n * 2**n * layout[1].itemsize))
    if subset:
        counts = _subset_spectrum(c1, c2, rmax, layout, opts)
    else:
        counts = _enumerated_spectrum(c1, h2t, rmax, opts)
    return Spectrum({0: {0: 1}, **counts})


def higher_spectrum(code: LinearCode, opts: ComputeOptions | None = None) -> Spectrum:
    """Exact counts A_w^(r) for r = 0..k, by enumeration through one fixed
    generator matrix or by subset sums, whichever is predicted faster."""
    return _spectrum(code, None, opts or ComputeOptions())


def rhigher_spectrum(c1: LinearCode, c2: LinearCode, opts: ComputeOptions | None = None) -> Spectrum:
    """Relative higher weight spectra: counts restricted to subcodes meeting
    C2 only in 0, for r = 0..k1-k2."""
    return _spectrum(c1, c2, opts or ComputeOptions())
