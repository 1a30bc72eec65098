"""Judging each query's answer with the checks of :mod:`checks`.

A :class:`Verifier` is made after the timed passes.  It checks an answer
once per distinct (query, answer) pair, so passes that return the same
answer cost one check.  The Wei-duality and ``hierarchy_auto`` checks call
ghwkit a second time on another code (the dual, or the code itself by the
direct search); every other reference is computed in :mod:`checks`.
"""

from __future__ import annotations

import checks
from inputs import parse_text


class Verifier:
    def __init__(self, ghwkit, codes, texts):
        self.ghwkit = ghwkit
        self.codes = codes  # ghwkit LinearCode objects
        self.mats = [parse_text(t) for t in texts]  # (gfref Field, G)
        self._memo: dict = {}
        self._cache: dict = {}

    def _once(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def failures(self, i: int, query: dict, answer, context: dict) -> list[str]:
        """Failure messages for answer (value, runs) to query ``i``; an
        exception raised by the query arrives as a string.  ``context``
        maps (code, r) to the same pass's ghw values, for the properties
        that link d_(r-1) and d_r."""
        if isinstance(answer, str):
            return [answer]
        value, runs = answer
        key = (i, _fingerprint(value, runs), context.get((query["code"], query.get("r", 0) - 1)))
        if key not in self._memo:
            self._memo[key] = getattr(self, "_" + query["op"])(query, value, runs, context)
        return self._memo[key]

    # -- per entry point ------------------------------------------------------

    def _ghw(self, query, value, runs, context):
        c, r = query["code"], query["r"]
        field, G = self.mats[c]
        k, n = G.shape
        out = checks.check_weight(r, value, n, k)
        prev = context.get((c, r - 1))
        if prev is not None:
            out += checks.check_step(r, prev, value, field.q)
        if r == 1:
            out += checks.check_equal("d_1", value, self._once(("d1", c), lambda: checks.min_weight(field, G)))
        if r == 2 and field.q == 2:
            out += checks.check_equal("d_2", value, self._once(("d2", c), lambda: checks.d2_binary(G)))
        if r == 3 and field.q == 2:
            out += checks.check_equal("d_3", value, self._once(("d3", c), lambda: checks.d3_binary(G)))
        return out + self._witnesses(c, self.codes[c], runs, [value])

    def _hierarchy(self, query, value, runs, context):
        c = query["code"]
        field, G = self.mats[c]
        code = self.codes[c]
        out = self._hierarchy_common(c, value)
        dual = self.ghwkit.dual(code)
        out += checks.check_dual(field, G, dual.G.array)
        out += checks.check_wei(value, self.ghwkit.hierarchy(dual), code.n)
        return out + self._witnesses(c, code, runs, value)

    def _hierarchy_auto(self, query, value, runs, context):
        code = self.codes[query["code"]]
        if not code.k < code.n < 2 * code.k:
            return self._hierarchy(query, value, runs, context)
        # ghwkit searched the dual: its runs are the dual's hierarchy
        field, G = self.mats[query["code"]]
        out = self._hierarchy_common(query["code"], value)
        dual = self.ghwkit.dual(code)
        out += checks.check_dual(field, G, dual.G.array)
        out += checks.check_wei(value, [run.value for run in runs], code.n)
        out += checks.check_equal("direct hierarchy", list(value), list(self.ghwkit.hierarchy(code)))
        return out + self._witnesses(query["code"], dual, runs, [run.value for run in runs])

    def _rhierarchy(self, query, value, runs, context):
        c1, c2 = query["code"], query["sub"]
        field, G1 = self.mats[c1]
        G2 = self.mats[c2][1]
        k1, k2, n = G1.shape[0], G2.shape[0], G1.shape[1]
        out = checks.check_hierarchy(value, n, k1, field.q)
        if len(value) != k1 - k2:
            out.append(f"relative hierarchy has {len(value)} values, need {k1 - k2}")
        out += checks.check_equal("M_1", value[0], checks.relative_min_weight(field, G1, G2))
        return out + self._witnesses(c1, self.codes[c1], runs, value, G2)

    def _higher_spectrum(self, query, value, runs, context):
        field, G = self.mats[query["code"]]
        return self._spectrum(field, G, None, value)

    def _rhigher_spectrum(self, query, value, runs, context):
        field, G1 = self.mats[query["code"]]
        return self._spectrum(field, G1, self.mats[query["sub"]][1], value)

    # -- shared parts -----------------------------------------------------------

    def _hierarchy_common(self, c: int, value) -> list[str]:
        field, G = self.mats[c]
        k, n = G.shape
        out = checks.check_hierarchy(value, n, k, field.q)
        if len(value) != k:
            out.append(f"hierarchy has {len(value)} values, need {k}")
        out += checks.check_equal("d_1", value[0], checks.min_weight(field, G))
        if field.q == 2 and len(value) >= 2:
            out += checks.check_equal("d_2", value[1], checks.d2_binary(G))
        if field.q == 2 and len(value) >= 3:
            out += checks.check_equal("d_3", value[2], checks.d3_binary(G))
        return out

    def _spectrum(self, field, G, G2, counts) -> list[str]:
        k2 = 0 if G2 is None else G2.shape[0]
        out = checks.check_spectrum_totals(counts, G.shape[0], field.q, k2)
        out += checks.check_equal("A^(1)", counts.get(1), checks.weight_counts(field, G, G2))
        out += checks.check_equal("spectrum", counts, checks.spectrum_by_subset_ranks(field, G, G2))
        return out

    def _witnesses(self, c: int, code, runs, values, G2=None) -> list[str]:
        """Every run's witness re-encodes to its returned value.  ``code``
        is the code ghwkit searched: code ``c`` itself or its dual, over
        the same field."""
        out = []
        if [run.value for run in runs] != list(values):
            return [f"run reports {[run.value for run in runs]} != answer {list(values)}"]
        field = self.mats[c][0]
        sets = self._once(("sets", c, code.k), lambda: self.ghwkit.information(code).sets)
        for run in runs:
            if run.witness is None:
                out.append(f"r = {run.r}: no witness for {run.value}")
                continue
            info_set = [col - 1 for col in sets[run.witness.mat_index]]
            out += checks.check_witness(
                field, code.G.array, info_set, run.witness.subspace.array, run.r, run.value, G2
            )
        return out


def fingerprint(answer):
    """A hashable digest of an answer (value, runs), or the error message."""
    if isinstance(answer, str):
        return answer
    return _fingerprint(*answer)


def _fingerprint(value, runs):
    wit = tuple(
        None if run.witness is None else (run.witness.mat_index, run.witness.subspace.array.tobytes())
        for run in runs
    )
    if isinstance(value, dict):
        value = tuple(sorted((r, tuple(sorted(row.items()))) for r, row in value.items()))
    return (value, wit)
