"""Command-line front end.

Code file format (text, line-oriented):

    # optional comments anywhere
    field: p=<p> s=<s> [modulus=<c0,c1,...,cs>]
    <row of space-separated element indices in [0, q)>
    ...

Subcommands: ghw, hierarchy, rghw, rhierarchy, spectrum, rspectrum, duality,
mindist (alias for ghw -r 1) and benchmark.  Exit codes: 0 success, 1
computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from .code import LinearCode, new_code
from .errors import (
    CodeFileFieldError,
    CodeFileSyntaxError,
    GHWError,
    MismatchedResults,
)
from .gf import build_field
from .ghw import (
    ComputeOptions,
    Spectrum,
    ghw,
    hierarchy,
    higher_spectrum,
    naive_ghw,
    naive_rghw,
    rghw,
    rhierarchy,
    rhigher_spectrum,
    wei_duality,
)
from .matrix import MatrixGF

_FIELD_RE = re.compile(
    r"^field:\s*p=(\d+)\s+s=(\d+)(?:\s+modulus=([0-9]+(?:,[0-9]+)*))?\s*$"
)


def parse_code_file(text: str) -> LinearCode:
    """Parse the code file format; errors carry 1-based line numbers."""
    field = None
    rows: list[list[int]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if field is None:
            m = _FIELD_RE.match(line)
            if m is None:
                raise CodeFileSyntaxError(lineno, f"expected 'field: p=<p> s=<s>', got {line!r}")
            p, s = int(m.group(1)), int(m.group(2))
            modulus = [int(c) for c in m.group(3).split(",")] if m.group(3) else None
            try:
                field = build_field(p, s, modulus)
            except (GHWError, ValueError) as exc:
                raise CodeFileFieldError(f"line {lineno}: {exc}") from exc
            continue
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise CodeFileSyntaxError(lineno, f"matrix row must be integers, got {line!r}")
        if any(not 0 <= e < field.q for e in row):
            raise CodeFileSyntaxError(lineno, f"entries must lie in [0, {field.q})")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CodeFileSyntaxError(lineno, f"expected {width} entries, got {len(row)}")
        rows.append(row)
    if field is None:
        raise CodeFileSyntaxError(1, "missing 'field:' header line")
    if not rows:
        raise CodeFileSyntaxError(1, "no matrix rows found")
    return new_code(field, MatrixGF(field, np.array(rows, dtype=np.int64)))


def serialize_code(code: LinearCode) -> str:
    """Inverse of :func:`parse_code_file`."""
    f = code.field
    head = f"field: p={f.p} s={f.s}"
    if f.s > 1:
        head += " modulus=" + ",".join(str(c) for c in f.modulus)
    lines = [head]
    for row in code.G.array:
        lines.append(" ".join(str(int(e)) for e in row))
    return "\n".join(lines) + "\n"


def _load(path: str) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_file(fh.read())


def _options(args) -> ComputeOptions:
    return ComputeOptions(verbose=args.verbose, work_limit=getattr(args, "work_limit", 10**9))


def _render(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        print(text)


def _result(op, code, r, value, elapsed_s) -> dict:
    return {
        "op": op,
        "n": code.n if code else None,
        "k": code.k if code else None,
        "q": code.field.q if code else None,
        "r": r,
        "value": value,
        "elapsed_ms": round(elapsed_s * 1000, 3),
    }


def _spectrum_text(counts: dict) -> str:
    lines = []
    for r in sorted(counts):
        body = " ".join(f"{w}:{c}" for w, c in sorted(counts[r].items()))
        lines.append(f"r={r}: {body}")
    return "\n".join(lines)


# The compute subcommands: name -> (help, number of codes, takes -r, search,
# naive oracle or None).  mindist runs ghw with r fixed to 1.
_COMPUTE = {
    "ghw": ("r-th generalized Hamming weight", 1, True, ghw, naive_ghw),
    "mindist": ("minimum distance (ghw -r 1)", 1, False, ghw, naive_ghw),
    "hierarchy": (
        "full weight hierarchy d_1..d_k", 1, False, hierarchy,
        lambda c: [naive_ghw(c, r) for r in range(1, c.k + 1)],
    ),
    "rghw": ("r-th relative generalized Hamming weight", 2, True, rghw, naive_rghw),
    "rhierarchy": (
        "relative weight hierarchy", 2, False, rhierarchy,
        lambda c1, c2: [naive_rghw(c1, c2, r) for r in range(1, c1.k - c2.k + 1)],
    ),
    "spectrum": ("higher weight spectra A_w^(r)", 1, False, higher_spectrum, None),
    "rspectrum": ("relative higher weight spectra", 2, False, rhigher_spectrum, None),
}


def _compute(args) -> int:
    _, ncodes, _, search, naive = _COMPUTE[args.command]
    codes = [_load(args.code)] if ncodes == 1 else [_load(args.code1), _load(args.code2)]
    rank = () if args.r is None else (args.r,)
    t0 = time.perf_counter()
    if args.algorithm == "naive" and naive is not None:
        value = naive(*codes, *rank)
    else:
        value = search(*codes, *rank, _options(args))
    elapsed_s = time.perf_counter() - t0
    if isinstance(value, Spectrum):
        text = _spectrum_text(value.counts)
        value = {str(r): {str(w): c for w, c in ws.items()} for r, ws in value.counts.items()}
    elif isinstance(value, int):
        text = str(value)
    else:
        value = list(value)
        text = " ".join(str(v) for v in value)
    _render(args, _result(args.command, codes[0], args.r, value, elapsed_s), text)
    return 0


def _cmd_duality(args) -> int:
    t0 = time.perf_counter()
    values = list(wei_duality(args.weights, args.n))
    payload = _result("duality", None, None, values, time.perf_counter() - t0)
    payload["n"] = args.n
    _render(args, payload, " ".join(str(v) for v in values))
    return 0


def benchmark(code_files, r: int, low_mem: bool = False, threads: int = 1):
    """Time the bounded search against the naive oracle on each code file.

    Returns a list of row dicts; raises :class:`MismatchedResults` if the two
    algorithms ever disagree (a correctness bug, not a benchmark artifact).
    ``low_mem`` and ``threads`` are accepted and ignored.
    """
    rows = []
    for path in code_files:
        code = _load(path)
        t0 = time.perf_counter()
        value_bz = ghw(code, r)
        bz_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        value_naive = naive_ghw(code, r)
        naive_s = time.perf_counter() - t0
        if value_bz != value_naive:
            raise MismatchedResults(
                f"{path}: search found {value_bz} but the naive oracle found {value_naive}"
            )
        rows.append(
            {
                "code": os.path.splitext(os.path.basename(path))[0],
                "n": code.n,
                "k": code.k,
                "q": code.field.q,
                "r": r,
                "value": value_bz,
                "bz_ms": round(bz_s * 1000, 3),
                "naive_ms": round(naive_s * 1000, 3),
                "speedup": round(naive_s / bz_s, 3) if bz_s > 0 else float("inf"),
            }
        )
    return rows


_BENCH_COLUMNS = ["code", "n", "k", "q", "r", "value", "bz_ms", "naive_ms", "speedup"]


def _cmd_benchmark(args) -> int:
    rows = benchmark(args.codes, args.r)
    if args.json:
        print(json.dumps(rows))
    else:
        header = "  ".join(f"{c:>10}" for c in _BENCH_COLUMNS)
        print(header)
        for row in rows:
            print("  ".join(f"{row[c]:>10}" for c in _BENCH_COLUMNS))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(_BENCH_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(str(row[c]) for c in _BENCH_COLUMNS) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghwkit",
        description="Generalized Hamming weights of linear codes over GF(p^s)",
    )
    # --threads and --low-mem are accepted and ignored: runs use one thread
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, ncodes, takes_r, _, _) in _COMPUTE.items():
        p = subs.add_parser(name, help=help_text)
        for arg in ["code"] if ncodes == 1 else ["code1", "code2"]:
            p.add_argument(arg)
        if takes_r:
            p.add_argument("-r", type=int, required=True, help="subcode dimension")
        else:
            p.set_defaults(r=1 if name == "mindist" else None)
        p.add_argument("--low-mem", action="store_true", help=argparse.SUPPRESS)
        p.add_argument("--verbose", action="store_true", help="print one progress line per round to stderr")
        p.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
        p.add_argument("--algorithm", choices=["bz", "naive"], default="bz", help="bounded search (default) or the naive oracle")
        if name.endswith("spectrum"):
            p.add_argument("--work-limit", type=int, default=10**9, help="max subspaces per dimension")
        p.set_defaults(func=_compute)

    p = subs.add_parser("duality", help="hierarchy of the dual from a hierarchy and n")
    p.add_argument("-n", type=int, required=True, help="code length")
    p.add_argument("weights", type=int, nargs="+", help="hierarchy values d_1..d_k")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_duality)

    p = subs.add_parser("benchmark", help="time the search against the naive oracle")
    p.add_argument("codes", nargs="+")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--low-mem", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", help="also write the table to this CSV file")
    p.set_defaults(func=_cmd_benchmark)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GHWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
