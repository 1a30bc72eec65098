"""Spans around the calls into each ghwkit module, recorded from outside.

:meth:`Tracer.install` replaces the public functions listed in
:data:`TARGETS` in every ``ghwkit`` module that holds them, so calls made
inside the package are recorded too; :meth:`Tracer.uninstall` puts the
originals back.  Spans (name, start, end, parent, x, y) stay in memory in
flat arrays and are written out once at the end.  ``x`` and ``y`` carry the
work a span did, computed from argument and result shapes:

- ``gf.matmul``: x = product rows, y = multiply-accumulates (rows x inner x cols)
- ``matrix.rank_array``: x = input rows, y = the rank returned
- ``enumeration.subspace_blocks.next``: x = subspace rows, y = block bytes

``subspace_blocks`` returns a generator, so its call is a zero-length span
and each ``next()`` on it is a span of its own.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

import numpy as np


def _matmul_work(args, result):
    A, B = np.shape(args[1]), np.shape(args[2])
    rows = int(np.prod(A[:-1]))
    return rows, rows * A[-1] * B[-1]


def _rank_work(args, result):
    return np.shape(args[1])[0], result


# span name -> (module, attribute, work function); "gf.matmul" is a method
TARGETS = {
    "gf.matmul": ("ghwkit.gf", "FiniteField.matmul", _matmul_work),
    "gf.build_field": ("ghwkit.gf", "build_field", None),
    "matrix.rank_array": ("ghwkit.matrix", "rank_array", _rank_work),
    "matrix.rref_array": ("ghwkit.matrix", "rref_array", None),
    "enumeration.subspace_blocks": ("ghwkit.enumeration", "subspace_blocks", None),
    "infoset.information": ("ghwkit.infoset", "information", None),
    "code.new_code": ("ghwkit.code", "new_code", None),
    "code.dual": ("ghwkit.code", "dual", None),
    "code.is_cyclic": ("ghwkit.code", "is_cyclic", None),
    "code.bch_bound": ("ghwkit.code", "bch_bound", None),
    "cli.parse_code_file": ("ghwkit.cli", "parse_code_file", None),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.x = array("d")
        self.y = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.x.append(0.0)
        self.y.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.kind)

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn, work):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if work is not None:
                self.x[i], self.y[i] = work(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        call_id, next_id = self.name_id(name), self.name_id(name + ".next")

        def timed(it):
            while True:
                i = self.open(next_id)
                try:
                    block = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.x[i] = block.shape[0] * block.shape[1]
                self.y[i] = block.nbytes
                yield block

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.close(self.open(call_id))
            return timed(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ghwkit" or n.startswith("ghwkit.")]
        for name, (modname, attr, work) in TARGETS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[modname], cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, work))
                continue
            orig = getattr(sys.modules[modname], attr)
            if name == "enumeration.subspace_blocks":
                wrapper = self._wrap_generator(name, orig)
            else:
                wrapper = self._wrap(name, orig, work)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def totals(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans lo..hi-1: calls, inclusive seconds
        ``s``, ``self_s`` (duration minus direct children), the sums of x
        and y, and ``full`` (spans with x == y, i.e. rank tests at full
        row rank)."""
        kind = np.frombuffer(self.kind, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        x = np.frombuffer(self.x)[lo:hi]
        y = np.frombuffer(self.y)[lo:hi]
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = kind == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
                "x": float(x[sel].sum()),
                "y": float(y[sel].sum()),
                "full": int((x[sel] == y[sel]).sum()),
            }
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: a header with the span names, then
        [name, start, end, parent, x, y] per span, times in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.kind, self.start, self.end, self.parent, self.x, self.y):
                fh.write("[%d,%.9f,%.9f,%d,%g,%g]\n" % row)
