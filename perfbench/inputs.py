"""Workload inputs, made from the seed alone.

A workload is a list of codes, written as ghwkit code-file text, and a list
of queries over them.  Each query is a dict with ``op`` (the ghwkit entry
point), ``code`` (an index into the code list) and, where the entry point
takes them, ``r`` and ``sub`` (the index of the nested subcode C2).

- search-gf2: the [48,12] binary code drawn as
  ``tests/support.random_code(default_rng(7), GF(2), 48, 12)`` draws it,
  given in the random basis A.G with A drawn from the seed.  The row space,
  hence ghwkit's information-set decomposition and the whole search, is the
  same for every seed, so seeds vary the input text and not the work.
- spectra-gf4: a random GF(4) [20,6] code and a random nested pair
  [14,5] > [14,1], all drawn from the seed.  Full enumeration visits a
  number of subspaces fixed by (k, q), so the work does not depend on the
  seed either.
- scan-mixed: a fixed list of shapes over GF(2), GF(3), GF(4) and GF(5),
  filled with random codes and nested pairs drawn from ``default_rng(7)``,
  plus binary cyclic codes.  Each code is given in a random basis drawn from
  the seed, so, as for search-gf2, seeds vary the input text and not the
  work, and a wrong answer on one of these codes is wrong on every seed.
  One more code, :data:`KNOWN_FAULT_GF2`, is queried as given.
"""

from __future__ import annotations

import numpy as np

from gfref import F2, F4, FIELDS

WORKLOADS = ("search-gf2", "spectra-gf4", "scan-mixed")

# (q, op, n, k) for single codes and (q, "rhierarchy", n, k1, k2) for pairs,
# each repeated ``count`` times.  Every hierarchy query keeps n - k <= 8 and
# every hierarchy_auto query has k > n/2, so the Wei-duality check, which
# also computes the hierarchy of the dual, stays small.
SCAN_SHAPES = [
    # count, q, op, n, k[, k2]
    (24, 2, "hierarchy", 14, 6),
    (24, 2, "hierarchy", 12, 5),
    (16, 2, "hierarchy", 10, 4),
    (20, 2, "hierarchy_auto", 12, 7),
    (16, 2, "hierarchy_auto", 10, 6),
    (20, 2, "rhierarchy", 14, 6, 2),
    (16, 2, "rhierarchy", 12, 5, 1),
    (24, 3, "hierarchy", 11, 5),
    (20, 3, "hierarchy", 9, 4),
    (20, 3, "hierarchy_auto", 10, 6),
    (16, 3, "hierarchy_auto", 8, 5),
    (20, 3, "rhierarchy", 10, 4, 1),
    (20, 4, "hierarchy", 9, 4),
    (20, 4, "hierarchy", 8, 3),
    (20, 4, "hierarchy_auto", 8, 5),
    (16, 4, "rhierarchy", 8, 4, 1),
    (20, 5, "hierarchy", 8, 3),
    (20, 5, "hierarchy", 7, 3),
    (20, 5, "hierarchy_auto", 7, 4),
    (16, 5, "rhierarchy", 7, 3, 1),
]

# Binary cyclic codes by generator polynomial, ascending coefficients.
CYCLIC_GF2 = [
    (7, [1, 1, 0, 1], "hierarchy_auto"),  # [7,4] Hamming
    (7, [1, 1, 1, 0, 1], "hierarchy"),  # [7,3] simplex
    (9, [1, 0, 0, 1, 0, 0, 1], "hierarchy"),  # [9,3]
    (15, [1, 1, 0, 0, 1], "hierarchy_auto"),  # [15,11] Hamming
    (15, [1, 0, 0, 0, 1, 0, 1, 1, 1], "hierarchy"),  # [15,7] BCH
    (15, [1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1], "hierarchy"),  # [15,5] BCH
    (17, [1, 0, 0, 1, 1, 1, 0, 0, 1], "hierarchy_auto"),  # [17,9] QR
]

# A [12,7] binary code on which ghwkit's hierarchy() returns d_2 = 5 where
# the exhaustive check and ghwkit's naive_ghw give 4.  It is queried as
# given, not re-based, so the fault shows as one failed query in every pass
# on every seed.
KNOWN_FAULT_GF2 = [
    [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1],
    [0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1],
    [1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1],
    [1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1],
]


def code_text(field, G: np.ndarray) -> str:
    lines = [field.header()] + [" ".join(str(int(e)) for e in row) for row in G]
    return "\n".join(lines) + "\n"


def parse_text(text: str):
    """(field, G) from code-file text written by :func:`code_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
    q = int(head["p"]) ** int(head["s"])
    return FIELDS[q], np.array([[int(t) for t in ln.split()] for ln in lines[1:]], dtype=np.int64)


def _rebase(field, rng, G: np.ndarray) -> np.ndarray:
    """G in a random basis: A.G for an invertible A drawn from rng."""
    A = field.random_full_rank(rng, G.shape[0], G.shape[0])
    return field.matmul(A, G)


def _nested_pair(field, rng, n: int, k1: int, k2: int):
    G1 = field.random_full_rank(rng, k1, n)
    mix = field.random_full_rank(rng, k2, k1)
    return G1, field.matmul(mix, G1)


def _cyclic_generator(n: int, g: list[int]) -> np.ndarray:
    rem = [1] + [0] * (n - 1) + [1]  # x^n - 1 over GF(2)
    for top in range(n, len(g) - 2, -1):
        if rem[top]:
            for i, c in enumerate(g):
                rem[top - len(g) + 1 + i] ^= c
    if any(rem):
        raise ValueError(f"{g} does not divide x^{n} - 1")
    k = n - (len(g) - 1)
    G = np.zeros((k, n), dtype=np.int64)
    for j in range(k):
        G[j, j : j + len(g)] = g
    return G


def build(workload: str, seed: int) -> dict:
    """The codes (as text) and queries of one workload for one seed."""
    rng = np.random.default_rng(seed)
    codes: list[str] = []
    queries: list[dict] = []

    def add(field, G) -> int:
        codes.append(code_text(field, G))
        return len(codes) - 1

    if workload == "search-gf2":
        base = F2.random_full_rank(np.random.default_rng(7), 12, 48)
        c = add(F2, _rebase(F2, rng, base))
        queries = [{"op": "ghw", "code": c, "r": r} for r in (1, 2, 3)]
    elif workload == "spectra-gf4":
        c = add(F4, F4.random_full_rank(rng, 6, 20))
        G1, G2 = _nested_pair(F4, rng, 14, 5, 1)
        c1, c2 = add(F4, G1), add(F4, G2)
        queries = [
            {"op": "higher_spectrum", "code": c},
            {"op": "rhigher_spectrum", "code": c1, "sub": c2},
        ]
    elif workload == "scan-mixed":
        base = np.random.default_rng(7)
        for count, q, op, n, k, *k2 in SCAN_SHAPES:
            field = FIELDS[q]
            for _ in range(count):
                if op == "rhierarchy":
                    G1, G2 = _nested_pair(field, base, n, k, k2[0])
                    c1, c2 = add(field, _rebase(field, rng, G1)), add(field, _rebase(field, rng, G2))
                    queries.append({"op": op, "code": c1, "sub": c2})
                else:
                    G = _rebase(field, rng, field.random_full_rank(base, k, n))
                    queries.append({"op": op, "code": add(field, G)})
        for n, g, op in CYCLIC_GF2:
            queries.append({"op": op, "code": add(F2, _rebase(F2, rng, _cyclic_generator(n, g)))})
        queries.append({"op": "hierarchy", "code": add(F2, np.array(KNOWN_FAULT_GF2))})
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "codes": codes, "queries": queries}
