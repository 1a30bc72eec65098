"""ghwkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload search-gf2 --seed 1 --seconds 10 --trace 0

Run from the root of a ghwkit checkout; ghwkit is imported from its ``src``.
The run makes the workload's inputs from the seed (see inputs.py), then:

- with ``--trace 0`` it times the set-up (import ghwkit, build the fields,
  parse the codes) in fresh processes, one discarded warm-up and then
  SETUP_PROBES more, and runs the workload in a fresh process (child.py)
  for ``--seconds``; it prints the end-to-end metrics of BENCHMARK.json;
- with ``--trace 1`` it runs the workload once more with spans around the
  calls into each ghwkit module, writes them to perfbench/out/ and prints
  the per-layer metrics of BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every process runs
BLAS on one thread and ghwkit with its default of one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
# the child runs whole passes, so it may overrun --seconds by one pass and
# then check the answers
CHILD_GRACE_S = 100
ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child(script: str, args: list[str], payload: str, timeout: float) -> str:
    """Run a benchmark script in a fresh interpreter; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        input=payload,
        capture_output=True,
        text=True,
        env=ENV,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        fail(f"{script} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(payload: str) -> float:
    """Median set-up time over SETUP_PROBES fresh processes, after one
    discarded warm-up that compiles .pyc files and fills the file cache."""
    times = [float(child("probe.py", [], payload, PROBE_TIMEOUT_S)) for _ in range(SETUP_PROBES + 1)]
    return statistics.median(times[1:])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "ghwkit" / "__init__.py").is_file():
        fail(f"no ghwkit sources under {ROOT / 'src'}; run from a ghwkit checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    sys.path.insert(0, str(HERE))
    import inputs

    payload = json.dumps(inputs.build(args.workload, args.seed))
    child_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        child_args += ["--trace-file", str(trace_file)]
    else:
        setup_s = setup_seconds(payload)
    result = json.loads(child("child.py", child_args, payload, args.seconds + CHILD_GRACE_S).splitlines()[-1])

    passes = result["pass_s"]
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "wall_s": statistics.median(result["scaled_s"]),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "subspaces": result["subspaces"],
        }
    if set(values) != set(units):
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, "
        f"{result['attempted']} queries attempted, {result['failed']} failed"
    )
    for message in result["failures"]:
        print(f"  FAILED {message}")
    if not result["repeats"]:
        print("  INCORRECT: the answers or the subspace count differed between passes")
    print(f"pass median {statistics.median(passes)} s as measured")
    if args.trace:
        print(f"spans in {trace_file.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    # a wrong answer counts in ``failed``; ``correct`` asks that every pass
    # returned the same answers and enumerated the same subspaces
    correct = result["repeats"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
