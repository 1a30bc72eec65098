"""Shared test helpers: independent brute-force oracles and code generators.

Everything here is deliberately written without using the package's
enumeration or search machinery, so tests cross-validate rather than
tautologize.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from ghwkit.gf import build_field
from ghwkit.matrix import MatrixGF, rank_array, rref_array
from ghwkit.code import LinearCode, dual, new_code


# -- tiny pure-python polynomial oracle over GF(p) (prime fields) ------------


def poly_mul_mod(a, b, modulus, p):
    """(a * b) mod modulus over GF(p); coefficient tuples, ascending."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    dm = len(modulus) - 1
    while len(prod) > dm:
        lead = prod.pop()
        if lead:
            shift = len(prod) - dm
            for i in range(dm):
                prod[shift + i] = (prod[shift + i] - lead * modulus[i]) % p
    while len(prod) < dm:
        prod.append(0)
    return tuple(prod)


def poly_add(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return tuple((x + y) % p for x, y in zip(a, b))


def tiny_rref(rows, p):
    """Minimal row reduction over a prime field; independent reference for
    exhaustive RREF tests.  Returns the RREF as a tuple of row tuples."""
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    row = 0
    for col in range(n):
        if row == m:
            break
        piv = next((i for i in range(row, m) if A[i][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = pow(A[row][col], p - 2, p)
        A[row] = [x * inv % p for x in A[row]]
        for i in range(m):
            if i != row and A[i][col]:
                f = A[i][col]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[row])]
        row += 1
    return tuple(tuple(r) for r in A)


# -- brute-force subspace enumeration (independent of ghwkit.enumeration) ----


def all_vectors(q, k):
    return [np.array(v, dtype=np.int64) for v in product(range(q), repeat=k)]


def span_fingerprint(field, rows):
    """Frozenset of all codeword tuples in the row span (small k only)."""
    rows = np.asarray(rows, dtype=np.int64)
    r = rows.shape[0]
    coeffs = np.array(list(product(range(field.q), repeat=r)), dtype=np.int64)
    words = field.matmul(coeffs, rows)
    return frozenset(map(tuple, words.tolist()))


def brute_subspaces(field, k, r):
    """Every r-dimensional subspace of F^k, as {fingerprint: basis rows}.

    Enumerates all r-tuples of nonzero vectors and dedupes by a canonical
    form (the reference RREF for prime fields, the full span otherwise).
    """
    nonzero = [v for v in all_vectors(field.q, k) if v.any()]
    prime = field.s == 1
    seen = {}
    for rows in combinations(nonzero, r):
        M = np.array(rows)
        if prime:
            R = tiny_rref(M.tolist(), field.p)
            if any(not any(row) for row in R):
                continue  # rank < r
            fp = R
        else:
            if rank_array(field, M) != r:
                continue
            fp = span_fingerprint(field, M)
        if fp not in seen:
            seen[fp] = M
    return seen


def brute_ghw(code: LinearCode, r: int) -> int:
    """Minimum support over all r-dimensional subcodes, by span dedupe."""
    best = code.n + 1
    for rows in brute_subspaces(code.field, code.k, r).values():
        enc = code.field.matmul(rows, code.G.array)
        best = min(best, int((enc != 0).any(axis=0).sum()))
    return best


def brute_min_weight(code: LinearCode) -> int:
    """Minimum nonzero codeword weight by enumerating all messages."""
    best = code.n + 1
    for msg in all_vectors(code.field.q, code.k):
        if not msg.any():
            continue
        word = code.field.matmul(msg[None, :], code.G.array)[0]
        best = min(best, int((word != 0).sum()))
    return best


def brute_spectrum(code: LinearCode, r: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for rows in brute_subspaces(code.field, code.k, r).values():
        enc = code.field.matmul(rows, code.G.array)
        w = int((enc != 0).any(axis=0).sum())
        counts[w] = counts.get(w, 0) + 1
    return counts


def brute_rspectrum(c1: LinearCode, c2: LinearCode, r: int) -> dict[int, int]:
    """Support sizes of the r-dimensional subcodes V of C1 with V ∩ C2 = 0,
    tested as rank [V·G1; G2] = r + k2 rather than through syndromes."""
    f = c1.field
    counts: dict[int, int] = {}
    for rows in brute_subspaces(f, c1.k, r).values():
        enc = f.matmul(rows, c1.G.array)
        if rank_array(f, np.vstack([enc, c2.G.array])) == r + c2.k:
            w = int((enc != 0).any(axis=0).sum())
            counts[w] = counts.get(w, 0) + 1
    return counts


# -- soundness of a search run ------------------------------------------------


def verify_run(code, dec, run, c2=None, label=None):
    """Soundness instrumentation: recorded lower bounds never exceed the
    value, and the witness attains it and, given C2, meets it in 0.
    ``label`` names the run in assertion messages."""
    assert run.value is not None, label
    for ev in run.rounds:
        assert ev.lower <= run.value, (label, ev, run.value)
    wit = run.witness
    assert wit is not None, label
    assert wit.weight == run.value, label
    R, rank, _ = wit.subspace.rref()
    assert rank == run.r and R == wit.subspace, label
    enc = wit.subspace.matmul(dec.mats[wit.mat_index])
    assert enc.support_size() == run.value, label
    if c2 is not None:
        h2 = dual(c2).G.array
        assert rank_array(code.field, code.field.matmul(h2, enc.array.T)) == run.r, label


# -- reference information-set decomposition ----------------------------------


def greedy_information(code):
    """(sets, reds, mats) of the greedy decomposition by the probe loop:
    each set takes the RREF pivots of the columns no earlier set used, then,
    below rank k, probes the used columns in ascending order one rank
    computation at a time, keeping each that extends the rank; its matrix
    is G row-reduced on the columns of the set followed by the rest."""
    field, G = code.field, code.G.array
    k, n = G.shape
    nonzero_cols = [c for c in range(n) if G[:, c].any()]
    used: set[int] = set()
    sets, reds, mats = [], [], []
    while True:
        fresh = [c for c in nonzero_cols if c not in used]
        if not fresh:
            break
        chosen = [fresh[i] for i in rref_array(field, G[:, fresh])[1]]
        reused: list[int] = []
        rank = len(chosen)
        for c in sorted(used):
            if rank == k:
                break
            if rank_array(field, G[:, chosen + reused + [c]]) > rank:
                reused.append(c)
                rank += 1
        iset = sorted(chosen + reused)
        perm = iset + [c for c in range(n) if c not in iset]
        R, piv = rref_array(field, G[:, perm])
        assert piv == list(range(k))
        out = np.empty_like(G)
        out[:, perm] = R
        sets.append(tuple(c + 1 for c in iset))
        reds.append(len(reused))
        mats.append(out)
        used.update(iset)
    return tuple(sets), tuple(reds), mats


# -- random codes -------------------------------------------------------------


def random_code(rng, field, n, k) -> LinearCode:
    while True:
        G = rng.integers(0, field.q, (k, n))
        if rank_array(field, G) == k:
            return new_code(field, MatrixGF(field, G))


def random_nested_pair(rng, field, n, k1, k2):
    c1 = random_code(rng, field, n, k1)
    while True:
        mix = rng.integers(0, field.q, (k2, k1))
        if rank_array(field, mix) == k2:
            break
    g2 = field.matmul(mix, c1.G.array)
    return c1, new_code(field, MatrixGF(field, g2))


# -- cyclic codes from cyclotomic cosets (prime base fields) ------------------


def cyclic_code_from_cosets(field, n, reps) -> LinearCode:
    """Cyclic code of length n over a prime field whose defining set is the
    union of the q-cyclotomic cosets of ``reps``."""
    q = field.q
    assert field.s == 1 and n % field.p != 0
    t = 1
    while (q**t - 1) % n != 0:
        t += 1
    big = build_field(field.p, t) if t > 1 else field
    alpha = big.pow(big.generator, (big.q - 1) // n)
    defining = set()
    for rep in reps:
        c = rep % n
        while c not in defining:
            defining.add(c)
            c = c * q % n
    g = (1,)
    for i in sorted(defining):
        root = big.pow(alpha, i)
        g = _polymul_field(big, g, (big.neg(root), 1))
    assert all(c < field.p for c in g), "generator polynomial must land in the base field"
    k = n - (len(g) - 1)
    assert k >= 1, "defining set leaves no dimension"
    G = np.zeros((k, n), dtype=np.int64)
    for j in range(k):
        G[j, j : j + len(g)] = g
    return new_code(field, MatrixGF(field, G))


def _polymul_field(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return tuple(out)


def bch_code(field, n, designed_distance) -> LinearCode:
    """Narrow-sense BCH code: defining set generated by 1..delta-1."""
    return cyclic_code_from_cosets(field, n, range(1, designed_distance))


# -- assorted fixtures ---------------------------------------------------------


HAMMING_7_4 = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]

# Nested pairs over GF(2) with equal relative hierarchies but differing dual
# relative hierarchies.
PAIR_A_G1 = [
    [0, 1, 0, 1, 0, 0, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 0, 1],
    [1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 1, 0, 0, 0, 0],
]
PAIR_B_G1 = [
    [1, 1, 0, 1, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 1, 1, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 0, 1, 0],
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
]


def example_pairs():
    """The two reference nested pairs (C1, C2) and (C1', C2') over GF(2)."""
    F2 = build_field(2)
    c1 = new_code(F2, MatrixGF(F2, PAIR_A_G1))
    c2 = new_code(F2, MatrixGF(F2, PAIR_A_G1[:3]))
    c1p = new_code(F2, MatrixGF(F2, PAIR_B_G1))
    c2p = new_code(F2, MatrixGF(F2, PAIR_B_G1[:3]))
    return (c1, c2), (c1p, c2p)
