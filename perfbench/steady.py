"""Steadiness check: two interleaved sets of benchmark runs of one commit.

    python3 perfbench/steady.py [--runs 10]

Every workload of BENCHMARK.json runs in two sets of ``--runs`` runs of
``run_seconds`` each, one workload after another; within a workload, run i
of each set uses seed FIRST_SEED + i and the sets alternate which goes
first.  For every end-to-end metric and workload it prints each set's
median and quartiles, the spread (q3 - q1) / median, and whether the sets
agree: each spread within the metric's bound, the two medians apart by no
more than the bound in either direction, and the same share of failed
queries.  The figures are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    # One workload at a time, so that each set spans minutes rather than the
    # whole check: a shared host's speed can drift by tens of percent over
    # tens of minutes, and the sets are meant to compare runs, not drift.
    runs = {(w, s): [] for w in workloads for s in (0, 1)}
    for w in workloads:
        for i in range(args.runs):
            for s in (0, 1) if i % 2 == 0 else (1, 0):
                runs[(w, s)].append(one_run(w, FIRST_SEED + i, spec["run_seconds"]))
                print(f"run {i} set {s} {w}: {json.dumps(runs[(w, s)][-1])}", file=sys.stderr)

    report, ok = {}, True
    for w in workloads:
        sets = [runs[(w, s)] for s in (0, 1)]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        same_share = len(set(shares)) == 1
        ok &= same_share and all(r["correct"] for rs in sets for r in rs)
        print(f"\n{w}: failed share per set {shares}, correct in every run: "
              f"{all(r['correct'] for rs in sets for r in rs)}")
        report[w] = {"failed_share": shares}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            shift = stats[1]["median"] / stats[0]["median"] - 1
            agree = all(st["spread"] <= bound for st in stats) and abs(shift) <= bound
            line = "  ".join(
                f"set {s}: median {st['median']:.6g} q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.2%}"
                for s, st in enumerate(stats)
            )
            line += f"  shift {shift:+.2%}"
            ok &= agree
            print(f"  {name} [{m['unit']}, bound {bound:.0%}] {line}  {'agree' if agree else 'DISAGREE'}")
            report[w][name] = stats
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
