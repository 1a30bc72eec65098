"""The workload process: timed passes over the queries, then the checks.

Reads the workload (see :mod:`inputs`) as JSON on stdin, imports ghwkit
from the checkout's ``src``, parses the codes, and repeats whole passes over
the query list until ``--seconds`` have gone by.  After the last pass it
reads the peak resident set, checks every answer (see :mod:`verify`) and
prints one JSON object.  With ``--trace 1`` it records spans (see
:mod:`spans`), writes them to ``--trace-file`` and adds the per-layer
figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from spans import Tracer
from verify import Verifier, fingerprint

ROOT = Path(__file__).resolve().parent.parent
ABSOLUTE = ("ghw", "hierarchy", "hierarchy_auto")


def _call(ghwkit, codes, query, opts):
    op, code = query["op"], codes[query["code"]]
    fn = getattr(ghwkit, op)
    if op == "ghw":
        return fn(code, query["r"], opts)
    if "sub" in query:
        return fn(code, codes[query["sub"]], opts)
    return fn(code, opts)


def _value(result):
    if isinstance(result, int):
        return result
    if hasattr(result, "counts"):
        return result.counts
    return tuple(result)


def run_pass(ghwkit, codes, queries, tracer):
    """One pass; returns (answers, round events).  An answer is (value,
    runs) or, if the query raised, a message."""
    answers, events = [], []
    query_id = tracer.name_id("query") if tracer is not None else None
    for query in queries:
        report = ghwkit.Report()
        opts = ghwkit.ComputeOptions(progress=events.append, report=report)
        span = tracer.open(query_id) if tracer is not None else None
        try:
            answers.append((_value(_call(ghwkit, codes, query, opts)), report.runs))
        except Exception as exc:  # a failed query is counted, not fatal
            answers.append(f"{query['op']} raised {exc!r}")
        finally:
            if tracer is not None:
                tracer.close(span)
    return answers, events


def model_ratio(ghwkit, codes, queries, answers) -> float:
    """Subspaces the absolute searches enumerated over the paper's
    expected_enumeration(m, d, r, k, q), summed over one pass."""
    done = expected = 0
    for query, answer in zip(queries, answers):
        if query["op"] not in ABSOLUTE or isinstance(answer, str):
            continue
        code = codes[query["code"]]
        if query["op"] == "hierarchy_auto" and code.k < code.n < 2 * code.k:
            code = ghwkit.dual(code)
        m = ghwkit.information(code).m
        for run in answer[1]:
            done += run.subspaces_enumerated
            expected += ghwkit.expected_enumeration(m, run.value, run.r, code.k, code.field.q)
    return done / expected if expected else 0.0


def layer_metrics(tracer, setup, passes, rounds, ratio) -> dict[str, float]:
    """Per-layer figures: set-up plus the median pass for counts and times,
    the median pass for rates and ratios.  ``passes`` holds each pass's span
    range and ``rounds`` its (subspaces, rounds, encodings)."""
    s = tracer.totals(*setup)
    per = [tracer.totals(lo, hi) for lo, hi in passes]

    def both(name, key):
        return s[name][key] + statistics.median(p[name][key] for p in per)

    def rate(name, num, den):
        return statistics.median(p[name][num] / p[name][den] if p[name][den] else 0.0 for p in per)

    nxt = "enumeration.subspace_blocks.next"
    out = {
        "gf.matmul.calls": both("gf.matmul", "calls"),
        "gf.matmul.s": both("gf.matmul", "s"),
        "gf.matmul.rows_per_call": rate("gf.matmul", "x", "calls"),
        "gf.matmul.macs": both("gf.matmul", "y"),
        "gf.matmul.macs_per_s": rate("gf.matmul", "y", "s"),
        "gf.build_field.s": both("gf.build_field", "s"),
        "matrix.rank_array.calls": both("matrix.rank_array", "calls"),
        "matrix.rank_array.s": both("matrix.rank_array", "s"),
        "matrix.rank_array.full_ratio": rate("matrix.rank_array", "full", "calls"),
        "matrix.rref_array.calls": both("matrix.rref_array", "calls"),
        "matrix.rref_array.s": both("matrix.rref_array", "s"),
        "enumeration.subspace_blocks.calls": both("enumeration.subspace_blocks", "calls"),
        "enumeration.subspace_blocks.s": both(nxt, "s"),
        "enumeration.rows": both(nxt, "x"),
        "enumeration.bytes": both(nxt, "y"),
        "infoset.information.calls": both("infoset.information", "calls"),
        "infoset.information.s": both("infoset.information", "s"),
        "ghw.rounds": statistics.median(r[1] for r in rounds),
        "ghw.encodings": statistics.median(r[2] for r in rounds),
        "ghw.model_ratio": ratio,
        "ghw.subspaces_per_s": statistics.median(
            r[0] / p["pass"]["s"] for r, p in zip(rounds, per)
        ),
        "ghw.self_s": statistics.median(p["query"]["self_s"] for p in per),
        "cli.parse_code_file.s": both("cli.parse_code_file", "s"),
    }
    for fn in ("new_code", "dual", "is_cyclic", "bch_bound"):
        out[f"code.{fn}.calls"] = both(f"code.{fn}", "calls")
        out[f"code.{fn}.s"] = both(f"code.{fn}", "s")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    workload = json.load(sys.stdin)
    texts, queries = workload["codes"], workload["queries"]

    sys.path.insert(0, str(ROOT / "src"))
    import ghwkit
    import ghwkit.cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        for name in ("setup", "pass", "query"):
            tracer.name_id(name)
        lo = len(tracer)
        span = tracer.open(tracer.name_id("setup"))
    codes = [ghwkit.cli.parse_code_file(t) for t in texts]
    if tracer is not None:
        tracer.close(span)
        setup = (lo, len(tracer))

    # Only distinct answer lists are kept, so memory does not grow with the
    # number of passes; rounds are kept as (subspaces, rounds, encodings).
    # Untraced passes are also timed at the reference host's speed.
    speed = HostSpeed() if tracer is None else None
    pass_s, scaled_s, rounds, ranges = [], [], [], []
    distinct: dict[tuple, list] = {}
    begin = time.perf_counter()
    with speed or contextlib.nullcontext():
        while True:
            lo = len(tracer) if tracer is not None else 0
            span = tracer.open(tracer.name_id("pass")) if tracer is not None else None
            if speed is not None:
                speed.restart()
            t0 = time.perf_counter()
            answers, events = run_pass(ghwkit, codes, queries, tracer)
            elapsed = time.perf_counter() - t0
            pass_s.append(elapsed)
            if speed is not None:
                scaled_s.append(speed.scaled(elapsed))
            if tracer is not None:
                tracer.close(span)
                ranges.append((lo, len(tracer)))
            distinct.setdefault(tuple(fingerprint(a) for a in answers), [answers, 0])[1] += 1
            rounds.append(
                (sum(e.subspaces for e in events), len(events), sum(e.subspaces * e.active_mats for e in events))
            )
            del answers, events
            if time.perf_counter() - begin >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    verifier = Verifier(ghwkit, codes, texts)
    failed, messages = 0, []
    for answers, times in distinct.values():
        context = {
            (q["code"], q["r"]): a[0]
            for q, a in zip(queries, answers)
            if q["op"] == "ghw" and not isinstance(a, str)
        }
        for i, (query, answer) in enumerate(zip(queries, answers)):
            bad = verifier.failures(i, query, answer, context)
            if bad:
                failed += times
                messages.extend(f"query {i} ({query['op']}): {m}" for m in bad)

    subspaces = [r[0] for r in rounds]
    result = {
        "pass_s": pass_s,
        "scaled_s": scaled_s,
        "attempted": len(queries) * len(pass_s),
        "failed": failed,
        "failures": sorted(set(messages))[:20],
        "subspaces": statistics.median_low(subspaces),
        "repeats": len(set(subspaces)) == 1 and len(distinct) == 1,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        ratio = model_ratio(ghwkit, codes, queries, next(iter(distinct.values()))[0])
        result["layers"] = layer_metrics(tracer, setup, ranges, rounds, ratio)
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
