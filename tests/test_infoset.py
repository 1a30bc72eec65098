import numpy as np
from hypothesis import given, settings, strategies as st

import ghwkit.infoset as infoset
from ghwkit.code import code_from_rows, new_code
from ghwkit.gf import build_field
from ghwkit.infoset import information
from ghwkit.matrix import MatrixGF

from support import HAMMING_7_4, greedy_information, random_code

F2 = build_field(2)
F3 = build_field(3)
F5 = build_field(5)


def test_two_disjoint_blocks():
    # G = (I_k | A) with A invertible: two disjoint information sets
    A = [[1, 2, 0, 1], [2, 1, 1, 0], [0, 1, 1, 1], [1, 0, 2, 2]]
    G = np.hstack([np.eye(4, dtype=np.int64), np.array(A)])
    C = new_code(F3, MatrixGF(F3, G))
    dec = information(C)
    assert dec.m == 2
    assert dec.sets[0] == (1, 2, 3, 4)
    assert dec.sets[1] == (5, 6, 7, 8)
    assert dec.reds == (0, 0)


def test_hamming_decomposition():
    C = code_from_rows(F2, HAMMING_7_4)
    dec = information(C)
    assert dec.m == 2
    assert dec.sets[0] == (1, 2, 3, 4)
    assert set(dec.sets[1]) > {5, 6, 7} and len(dec.sets[1]) == 4
    assert dec.reds == (0, 1)


def test_full_space():
    C = new_code(F5, MatrixGF.identity(F5, 3))
    dec = information(C)
    assert dec.m == 1 and dec.sets == ((1, 2, 3),) and dec.reds == (0,)


def _check_invariants(C, dec):
    k, n = C.k, C.n
    G_rref = C.G.rref()[0]
    union = set()
    for iset, Gj, Rj in zip(dec.sets, dec.mats, dec.reds):
        assert len(iset) == k and all(1 <= c <= n for c in iset)
        sub = Gj.array[:, [c - 1 for c in iset]]
        assert (sub == np.eye(k, dtype=np.int64)).all()
        assert Gj.rref()[0] == G_rref  # same row space
        assert len(set(iset) & union) == Rj
        union |= set(iset)
    assert dec.reds[0] == 0
    assert all(0 <= R <= k for R in dec.reds)
    zero_cols = {c + 1 for c in range(n) if not C.G.array[:, c].any()}
    nonzero = set(range(1, n + 1)) - zero_cols
    assert union == nonzero  # covers exactly the nonzero columns
    assert sum(k - R for R in dec.reds) == len(nonzero)


def test_invariants_on_random_codes():
    rng = np.random.default_rng(31)
    for F in (F2, F3, F5):
        for _ in range(15):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, min(n, 6) + 1))
            C = random_code(rng, F, n, k)
            _check_invariants(C, information(C))


def test_zero_columns_are_never_used():
    C = code_from_rows(F2, [[1, 0, 0, 1, 0], [0, 0, 1, 1, 0]])
    dec = information(C)
    for iset in dec.sets:
        assert 2 not in iset and 5 not in iset
    _check_invariants(C, dec)


def test_decomposition_is_deterministic():
    rng = np.random.default_rng(37)
    C = random_code(rng, F3, 9, 4)
    a = information(C)
    b = information(C)
    assert a.sets == b.sets and a.reds == b.reds
    assert all(x == y for x, y in zip(a.mats, b.mats))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, build_field(2, 2), F5, build_field(3, 2)]), st.data())
def test_information_matches_the_probe_loop(F, data):
    # a full-rank k x (b + k) matrix, then zero columns and repeated columns
    # (scalar multiples of drawn ones), all in a drawn column order
    k = data.draw(st.integers(1, 5), label="k")
    b = data.draw(st.integers(0, 6), label="b")
    entries = data.draw(st.lists(st.integers(0, F.q - 1), min_size=k * b, max_size=k * b))
    cols = list(np.array(entries, dtype=np.int64).reshape(k, b).T) + list(np.eye(k, dtype=np.int64))
    for _ in range(data.draw(st.integers(0, 2), label="zero columns")):
        cols.append(np.zeros(k, dtype=np.int64))
    for _ in range(data.draw(st.integers(0, 3), label="repeats")):
        c = cols[data.draw(st.integers(0, len(cols) - 1))]
        cols.append(F.mul_arrays(c, data.draw(st.integers(1, F.q - 1))))
    order = data.draw(st.permutations(range(len(cols))), label="order")
    C = new_code(F, MatrixGF(F, np.stack([cols[i] for i in order], axis=1)))
    dec = information(C)
    sets, reds, mats = greedy_information(C)
    assert dec.sets == sets and dec.reds == reds and len(dec.mats) == len(mats)
    for got, want in zip(dec.mats, mats):
        assert got.array.dtype == want.dtype and got.array.tobytes() == want.tobytes()


def test_one_elimination_per_information_set(monkeypatch):
    calls = {"rref": 0, "rank": 0}
    real_rref = infoset.rref_array

    def rref(*args):
        calls["rref"] += 1
        return real_rref(*args)

    def rank(*args):
        calls["rank"] += 1
        raise AssertionError("information() must not probe ranks")

    monkeypatch.setattr(infoset, "rref_array", rref)
    # information() imports no rank_array; one put there must go uncalled
    monkeypatch.setattr(infoset, "rank_array", rank, raising=False)
    rng = np.random.default_rng(41)
    codes = [code_from_rows(F2, HAMMING_7_4)] + [random_code(rng, F3, 9, k) for k in (2, 4, 6, 9)]
    reused = False
    for C in codes:
        calls["rref"] = 0
        dec = information(C)
        assert calls == {"rref": dec.m, "rank": 0}
        reused |= any(dec.reds)
    assert reused
