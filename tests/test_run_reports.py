"""Golden run reports: every field of every RunReport of a few seeded
queries, against data recorded from the search as it stood before its
rounds returned positions instead of witnesses.

The queries cover GF(2), GF(3), GF(4) and GF(5); `hierarchy`, `rhierarchy`
and `ghw` at one r; a binary cyclic code, whose runs start from its BCH
floor; and runs whose witnesses come from rounds w > r ([18,8] over GF(2),
r = 2 and 3; the GF(2) pair at r = 3; [12,5] over GF(3), r = 2).  A round event is recorded without
its elapsed time.  `PYTHONPATH=src python tests/test_run_reports.py` rewrites
the data.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ghwkit.gf import build_field
from ghwkit.ghw import ComputeOptions, Report, ghw, hierarchy, rhierarchy

from support import cyclic_code_from_cosets, random_code, random_nested_pair

DATA = Path(__file__).with_name("run_reports.json")
F2, F3, F4, F5 = build_field(2), build_field(3), build_field(2, 2), build_field(5)


def _rng(seed):
    return np.random.default_rng(seed)


QUERIES = {
    "gf2-hierarchy-18-8": lambda o: hierarchy(random_code(_rng(9), F2, 18, 8), o),
    "gf3-hierarchy-12-5": lambda o: hierarchy(random_code(_rng(3), F3, 12, 5), o),
    "gf4-ghw-10-5-r2": lambda o: ghw(random_code(_rng(3), F4, 10, 5), 2, o),
    "gf5-hierarchy-8-4": lambda o: hierarchy(random_code(_rng(3), F5, 8, 4), o),
    "gf2-cyclic-15-7": lambda o: hierarchy(cyclic_code_from_cosets(F2, 15, [1, 3]), o),
    "gf2-rhierarchy-12-5-2": lambda o: rhierarchy(*random_nested_pair(_rng(17), F2, 12, 5, 2), o),
    "gf3-rhierarchy-10-5-2": lambda o: rhierarchy(*random_nested_pair(_rng(3), F3, 10, 5, 2), o),
    "gf4-rhierarchy-10-4-1": lambda o: rhierarchy(*random_nested_pair(_rng(3), F4, 10, 4, 1), o),
}


def _record(run) -> dict:
    wit = run.witness
    return {
        "r": run.r,
        "value": run.value,
        "subspaces_enumerated": run.subspaces_enumerated,
        "rounds": [[e.r, e.w, e.lower, e.upper, e.active_mats, e.subspaces] for e in run.rounds],
        "witness": {
            "subspace": wit.subspace.array.tolist(),
            "mat_index": wit.mat_index,
            "weight": wit.weight,
            "synthesized": wit.synthesized,
        },
    }


def reports(name: str) -> list[dict]:
    report = Report()
    QUERIES[name](ComputeOptions(report=report))
    return [_record(run) for run in report.runs]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_run_reports_match_the_recorded_ones(name):
    assert reports(name) == json.loads(DATA.read_text())[name]


def test_the_data_has_witnesses_from_rounds_past_r():
    # a witness of round w has w nonzero columns
    data = json.loads(DATA.read_text())
    late = [
        (name, run["r"]) for name in sorted(data) for run in data[name]
        if np.any(run["witness"]["subspace"], axis=0).sum() > run["r"]
    ]
    assert late == [("gf2-hierarchy-18-8", 2), ("gf2-hierarchy-18-8", 3), ("gf2-rhierarchy-12-5-2", 3),
                    ("gf3-hierarchy-12-5", 2)]


if __name__ == "__main__":
    # one run a line
    cases = (f' "{name}": [\n  ' + ",\n  ".join(map(json.dumps, reports(name))) + "\n ]" for name in sorted(QUERIES))
    DATA.write_text("{\n" + ",\n".join(cases) + "\n}\n")
