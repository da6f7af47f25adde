"""Spans around the package's public functions, and a scalar-op counter.

Both are installed from outside the package by rebinding module attributes,
and both are removed again afterwards; nothing under ``src/`` knows about
them.  A function is rebound wherever it is looked up, not only where it is
defined: ``from .poly import poly_roots`` in ``report`` gets the same
wrapper as ``poly.poly_roots`` itself.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Modules whose public functions get spans, in the name the spans carry.
LAYERS = ("problemfile", "model", "perturb", "poly", "chains", "oracle",
          "linalg", "floatmode", "report", "scalars")

# The chain constructions a report attempts, exact and float.
CHAIN_CONSTRUCTIONS = (
    "chains.same_block_chain", "chains.other_block_chain",
    "chains.distinct_eig_chain", "floatmode.same_block_chain_float",
    "floatmode.other_block_chain_float", "floatmode.distinct_eig_chain_float",
)

PACKAGE = "geu"
NO_SPAN = -1


class Tracer:
    """In-memory span table: one row per call, kept in typed arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.problem = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.current = NO_SPAN
        self.problem_id = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.problem.append(self.problem_id)
        self.raised.append(0)
        self.end.append(0.0)
        self.start.append(0.0)
        self.current = idx
        return idx

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        tracer = self

        def spanned(*args, **kwargs):
            idx = tracer._open(name_id)
            prev = tracer.parent[idx]
            tracer.start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer.end[idx] = perf_counter()
                tracer.current = prev

        return spanned

    def root(self, name: str, problem_id: int, fn):
        """fn() under a parentless span tagged with a problem id.

        Returns (result, span duration).
        """
        idx = len(self.name)
        self.problem_id = problem_id
        try:
            out = self.wrap(fn, name)()
        finally:
            self.problem_id = -1
        return out, self.end[idx] - self.start[idx]

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "problem", "start_s", "end_s",
                        "raised"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "problem": self.problem.tolist(),
            "start_s": self.start.tolist(),
            "end_s": self.end.tolist(),
            "raised": self.raised.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def _split_counter(fn, counts: Counter):
    """poly_roots, counting exact attempts and the ones that split."""

    def poly_roots(p, mode="exact"):
        if mode != "exact":
            return fn(p, mode)
        counts["poly.exact_tried"] += 1
        out = fn(p, mode)
        counts["poly.exact_split"] += 1
        return out

    return poly_roots


def _targets() -> dict[int, tuple[object, str]]:
    """id(original) -> (original, span name) for every traced callable."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[id(obj)] = (obj, f"{layer}.{attr}")
    floatmode = sys.modules[f"{PACKAGE}.floatmode"]
    out[id(floatmode.FloatProblem)] = (floatmode.FloatProblem,
                                       "floatmode.FloatProblem")
    cli = sys.modules[f"{PACKAGE}.cli"]
    # the sort_keys JSON dump `geu compute` ends with
    out[id(cli._emit)] = (cli._emit, "report.emit")
    return out


def install_spans(tracer: Tracer) -> list:
    """Rebind every traced callable in every loaded module of the package.

    Returns the undo list for `restore`.
    """
    targets = _targets()
    wrappers = {}
    for key, (fn, name) in targets.items():
        inner = fn
        if name == "poly.poly_roots":
            inner = _split_counter(fn, tracer.counts)
        wrappers[key] = tracer.wrap(inner, name)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and targets[id(obj)][0] is obj:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, obj))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# GaussScalar operators counted as one field operation each.  __rsub__ and
# __rtruediv__ are left out: they delegate to __sub__ and __truediv__.
COUNTED_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
               "__truediv__")


def _counting(op, tally: list):
    def counted(a, b):
        out = op(a, b)
        if out is not NotImplemented:
            tally[0] += 1
            bits = max(out.re.numerator.bit_length(),
                       out.re.denominator.bit_length(),
                       out.im.numerator.bit_length(),
                       out.im.denominator.bit_length())
            if bits > tally[1]:
                tally[1] = bits
        return out

    return counted


def install_op_counter(cls, tally: list) -> list:
    """Count cls's field operations into tally = [ops, max_bits]."""
    undo = []
    for attr in COUNTED_OPS:
        original = cls.__dict__[attr]
        setattr(cls, attr, _counting(original, tally))
        undo.append((cls, attr, original))
    return undo


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, inclusive and self time, and span coverage.

    Self time is a span's duration minus the time its child spans cover.
    Inclusive time counts only outermost calls when a function calls itself
    directly.  Coverage is the share of the root spans' time that their
    direct children cover.
    """
    count = len(tracer.name)
    names = tracer.name
    parent = tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p != NO_SPAN:
            child[p] += dur[i]
    stats = {}
    root_total = 0.0
    covered = 0.0
    for i in range(count):
        nm = names[i]
        entry = stats.get(nm)
        if entry is None:
            entry = stats[nm] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        p = parent[i]
        if p == NO_SPAN:
            root_total += dur[i]
            covered += child[i]
        if p == NO_SPAN or names[p] != nm:
            entry[1] += dur[i]
        entry[2] += dur[i] - child[i]
        entry[3] += tracer.raised[i]
    out = {}
    for nid, (calls, total, self_s, raised) in stats.items():
        out[tracer.names[nid]] = {"calls": calls, "total_s": total,
                                  "self_s": self_s, "raised": raised}
    return {
        "functions": out,
        "root_s": root_total,
        "coverage": covered / root_total if root_total else 0.0,
        "spans": count,
    }
