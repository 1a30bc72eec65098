"""Answer checks made apart from ghwkit.

Exhaustive references, identities and properties that every answer must
satisfy.  Everything here computes with :mod:`gfref`; nothing calls ghwkit's
enumeration, search or matrix code.  Each ``check_*`` function returns a list
of failure messages, empty when the answer passes.
"""

from __future__ import annotations

from math import comb

import numpy as np

from gfref import F2, Field, gaussian_binomial, support_masks, weights

# -- exhaustive references ---------------------------------------------------


def min_weight(field: Field, G: np.ndarray) -> int:
    """d_1 by enumerating all codewords."""
    return int(weights(field.codewords(G)[1:]).min())


def _word_keys(field: Field, words: np.ndarray) -> np.ndarray:
    """Each word as one integer, its entries read as base-q digits."""
    return (words * (field.q ** np.arange(words.shape[1], dtype=np.int64))).sum(axis=1)


def relative_min_weight(field: Field, G1: np.ndarray, G2: np.ndarray) -> int:
    """M_1 by enumerating all codewords of C1 outside C2."""
    words = field.codewords(G1)
    outside = ~np.isin(_word_keys(field, words), _word_keys(field, field.codewords(G2)))
    return int(weights(words[outside]).min())


def weight_counts(field: Field, G: np.ndarray, G2: np.ndarray | None = None) -> dict[int, int]:
    """Number of 1-dimensional subcodes (meeting C2 only in 0) per support
    size: nonzero codewords (outside C2) per weight, divided by q - 1."""
    words = field.codewords(G)[1:]
    if G2 is not None:
        words = words[~np.isin(_word_keys(field, words), _word_keys(field, field.codewords(G2)))]
    w, c = np.unique(weights(words), return_counts=True)
    return {int(a): int(b) // (field.q - 1) for a, b in zip(w, c)}


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


def d2_binary(G: np.ndarray) -> int:
    """d_2 of a binary code: two distinct nonzero codewords span a
    2-dimensional subcode whose support is the OR of their supports."""
    masks = support_masks(F2.codewords(G)[1:])
    best = G.shape[1]
    for lo in range(0, masks.size, 256):
        part = masks[lo : lo + 256]
        pc = _popcount(part[:, None] | masks[None, :])
        pc[part[:, None] == masks[None, :]] = G.shape[1] + 1
        best = min(best, int(pc.min()))
    return best


def d3_binary(G: np.ndarray) -> int:
    """d_3 of a binary code by bitmask enumeration of its 3-dimensional
    subcodes, pruned by an averaging lemma.

    In a 3-dimensional binary subcode with support S, each coordinate of S
    is nonzero in exactly 4 of the 8 codewords, so the 7 nonzero words have
    total weight 4|S| and one of them weighs at most 4|S|/7.  Every subcode
    with |S| < best therefore has a basis (a, b, c) with wt(a) <=
    4(best - 1)/7, |a | b| < best and |a | b | c| = |S|; the loops below
    visit all such bases.
    """
    k, n = G.shape
    masks = support_masks(F2.codewords(G)[1:])
    masks = masks[np.argsort(_popcount(masks), kind="stable")]
    # a first upper bound from the lightest words, improved below
    best = n - k + 3
    light = masks[:24]
    for i in range(light.size):
        for j in range(i + 1, light.size):
            a, b = light[i], light[j]
            others = light[(light != a) & (light != b) & (light != (a ^ b))]
            if others.size:
                best = min(best, int(_popcount(a | b | others).min()))
    for a in masks:
        if 7 * int(_popcount(a)) > 4 * (best - 1):
            break
        bs = masks[(_popcount(a | masks) < best) & (masks != a)]
        for lo in range(0, bs.size, 64):
            b = bs[lo : lo + 64, None]
            ab = a | b
            pc = _popcount(ab | masks[None, :])
            in_span = (masks[None, :] == a) | (masks[None, :] == b) | (masks[None, :] == (a ^ b))
            pc[in_span] = n + 1
            best = min(best, int(pc.min()))
    return best


def _subcode_dims(field: Field, G: np.ndarray) -> np.ndarray:
    """dims[T] = dimension of the subcode supported inside T, for every
    coordinate set T given as a bit mask."""
    n, k = G.shape[1], G.shape[0]
    counts = np.bincount(support_masks(field.codewords(G)).astype(np.int64), minlength=1 << n)
    for i in range(n):  # subset sums: words with support inside T
        view = counts.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    powers = field.q ** np.arange(k + 1, dtype=np.int64)
    dims = np.searchsorted(powers, counts)
    if not np.array_equal(powers[dims], counts):
        raise AssertionError("subcode sizes must be powers of q")
    return dims


def spectrum_by_subset_ranks(field: Field, G: np.ndarray, G2: np.ndarray | None = None) -> dict:
    """Higher weight spectra {r: {w: A_w^(r)}} from subcode dimensions, by
    Moebius inversion over coordinate sets T:

        A_w^(r) = sum_j (-1)^(w-j) C(n-j, w-j) sum_{|T|=j} N_r(T)

    with N_r(T) = [dim C(T), r]_q, or for a nested pair the number
    q^(r dim C2(T)) [dim C1(T) - dim C2(T), r]_q of r-dimensional subcodes
    of C1(T) that meet C2 only in 0.
    """
    k, n = G.shape
    q = field.q
    size = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    d1 = _subcode_dims(field, G)
    d2 = _subcode_dims(field, G2) if G2 is not None else np.zeros_like(d1)
    # how many T have |T| = j, dim C1(T) = a, dim C2(T) = b
    count = np.bincount((size * (k + 1) + d1) * (k + 1) + d2).tolist()
    cells = [(c // (k + 1) ** 2, c // (k + 1) % (k + 1), c % (k + 1)) for c in range(len(count))]
    rmax = k - (G2.shape[0] if G2 is not None else 0)
    spectra = {}
    for r in range(rmax + 1):
        sums = [0] * (n + 1)
        for (j, a, b), c in zip(cells, count):
            if c:
                sums[j] += c * q ** (r * b) * gaussian_binomial(a - b, r, q)
        row = {}
        for w in range(n + 1):
            total = sum((-1) ** (w - j) * comb(n - j, w - j) * sums[j] for j in range(w + 1))
            if total:
                row[w] = total
        spectra[r] = row
    return spectra


# -- checks --------------------------------------------------------------------


def check_equal(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got}, independent value {want}"]


def check_weight(r: int, d: int, n: int, k: int) -> list[str]:
    """r <= d_r <= n - k + r, the generalized Singleton bound; it holds for
    M_r of a nested pair with k = dim C1 too."""
    return [] if r <= d <= n - k + r else [f"d_{r} = {d} outside [{r}, n - k + r = {n - k + r}]"]


def check_step(r: int, prev: int, d: int, q: int) -> list[str]:
    """d_(r-1) < d_r and the averaging inequality (q^r - 1) d_(r-1) <=
    (q^r - q) d_r.  Each coordinate of an r-dimensional subcode's support
    lies outside exactly one of its (q^r - 1)/(q - 1) hyperplanes, which
    also holds among subcodes meeting C2 only in 0."""
    out = []
    if d <= prev:
        out.append(f"not strictly increasing at r = {r}: {prev}, {d}")
    if (q**r - 1) * prev > (q**r - q) * d:
        out.append(f"averaging inequality fails at r = {r}: {prev}, {d}")
    return out


def check_hierarchy(values, n: int, k: int, q: int) -> list[str]:
    """:func:`check_weight` and :func:`check_step` along a whole hierarchy."""
    v = list(values)
    out = []
    for r, d in enumerate(v, start=1):
        out += check_weight(r, d, n, k)
        if r > 1:
            out += check_step(r, v[r - 2], d, q)
    return out


def check_wei(values, dual_values, n: int) -> list[str]:
    """Wei duality: {d_r(C)} and {n + 1 - d_s(C^perp)} partition {1..n}."""
    a = set(values)
    b = {n + 1 - d for d in dual_values}
    if len(a) + len(b) == n and a | b == set(range(1, n + 1)):
        return []
    return [f"Wei duality fails: {list(values)} against dual {list(dual_values)}"]


def check_dual(field: Field, G: np.ndarray, H: np.ndarray) -> list[str]:
    out = []
    if field.matmul(G, H.T).any():
        out.append("dual: G H^T != 0")
    if field.rank(H) != G.shape[1] - G.shape[0] or H.shape[0] != G.shape[1] - G.shape[0]:
        out.append(f"dual: H has shape {H.shape} and rank {field.rank(H)}, need n - k")
    return out


def check_witness(
    field: Field, G: np.ndarray, info_set, subspace, r: int, value: int, G2=None
) -> list[str]:
    """The witness subspace, a message-space basis for the systematic
    generator matrix on ``info_set`` (0-based), re-encodes to an
    r-dimensional subcode with support ``value`` (meeting C2 only in 0)."""
    try:
        Gj = field.systematic(G, info_set)
    except ValueError as exc:
        return [f"witness: {exc}"]
    enc = field.matmul(np.asarray(subspace), Gj)
    out = []
    if enc.shape[0] != r or field.rank(enc) != r:
        out.append(f"witness: encodes to rank {field.rank(enc)}, need {r}")
    support = int((enc != 0).any(axis=0).sum())
    if support != value:
        out.append(f"witness: support {support} != returned value {value}")
    if G2 is not None and field.rank(np.vstack([enc, G2])) != r + G2.shape[0]:
        out.append("witness: meets C2 in a nonzero word")
    return out


def check_spectrum_totals(spectrum: dict, k: int, q: int, k2: int = 0) -> list[str]:
    """Sum_w A_w^(r) = [k, r]_q, or q^(r k2) [k - k2, r]_q for a nested
    pair with dim C1 = k and dim C2 = k2."""
    out = []
    if sorted(spectrum) != list(range(k - k2 + 1)):
        return [f"spectrum has ranks {sorted(spectrum)}, need 0..{k - k2}"]
    for r, row in spectrum.items():
        want = q ** (r * k2) * gaussian_binomial(k - k2, r, q)
        if sum(row.values()) != want:
            out.append(f"spectrum total for r = {r}: {sum(row.values())} != {want}")
    return out
