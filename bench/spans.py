"""In-memory span recorder that times qupitcube's layers from outside.

``Tracer.install()`` wraps the public functions of the traced modules and
rebinds every name in the package that refers to one of them, including
names a module took with ``from .logical import ...`` (as ``cli`` does);
without that, calls through those names would go untimed.
A traced pass runs in its own interpreter, so untraced passes run the
library exactly as shipped.  The library itself is never edited.

A span is ``[name, start, end, parent, op_id, counts]``.  Self time is a
span's duration minus the durations of its direct children; calls are
single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("fp", "codes", "conditions", "oracle", "classify", "logical",
           "algebra", "cli")

# cli is traced at its entry point only, so that argument parsing, report
# assembly and JSON output all count as cli.main's self time.
ONLY = {"cli": frozenset({"main"})}

# Public methods traced besides module-level functions.
METHODS = ("classify.OrbitCache.canonical", "logical.TorusCode.generator_matrix",
           "logical.TorusCode.check_abelian", "logical.TorusCode.rank")

# Scalar helpers called from inner loops (hundreds of thousands of times
# per op).  A wrapper costs more than they do, so their time stays in the
# caller's self time.
UNWRAPPED = frozenset({
    "codes.symplectic_product", "codes.scale_pair", "codes.add_pairs",
    "fp.fp_inv", "fp.normalize",
    "classify.nonzero_pairs",
    "algebra.cyc_zero", "algebra.cyc_is_zero", "algebra.cyc_from_power",
    "algebra.cyc_add", "algebra.cyc_scale", "algebra.cyc_mul",
    "algebra.cyc_mul_power", "algebra.pauli_mul", "algebra.pauli_power",
    "algebra.pauli_inverse", "algebra.commutator_exponent",
})


def _rref_cells(M, *args, **kwargs):
    return {"cells": int(np.size(M))}


def _canonical_hit(cache, t, *args, **kwargs):
    return {"hits": int(t in getattr(cache, "cache", {}))}


def _matrix_bytes(torus):
    built = getattr(torus, "_matrix", None) is not None
    return {"matrix_bytes": 0 if built else torus.n * 2 * torus.n * 8}


def _term_pairs(a, b, *args, **kwargs):
    return {"term_pairs": len(a.terms) * len(b.terms)}


# Counts taken from the arguments before the call ...
BEFORE = {
    "fp.mat_rref": _rref_cells,
    "classify.OrbitCache.canonical": _canonical_hit,
    "logical.TorusCode.generator_matrix": _matrix_bytes,
    "algebra.op_mul": _term_pairs,
}

# ... and from the result after it.
AFTER = {
    "oracle.build_segment_constraints":
        lambda r: {"rows": r.matrix.shape[0], "cols": r.matrix.shape[1]},
    "oracle.solve_segment": lambda r: {"nontrivial": int(r.nontrivial)},
    "classify.enumerate_deformable": lambda r: {"tuples": len(r)},
    "classify.orbit": lambda r: {"tuples_visited": len(r)},
}


class Tracer:
    """Records spans while installed; ``op_id`` tags each span with its op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = before(*args, **kwargs) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, counts]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                span[5] = after(result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for modname in MODULES:
            mod = importlib.import_module(f"qupitcube.{modname}")
            for attr, obj in vars(mod).items():
                name = f"{modname}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED
                        and (modname not in ONLY or attr in ONLY[modname])):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        package = [m for n, m in list(sys.modules.items())
                   if n == "qupitcube" or n.startswith("qupitcube.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for name in METHODS:
            modname, cls_name, attr = name.split(".")
            cls = getattr(importlib.import_module(f"qupitcube.{modname}"),
                          cls_name, None)
            member = None if cls is None else cls.__dict__.get(attr)
            if isinstance(member, property):
                setattr(cls, attr, property(self._wrap(name, member.fget)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    def take_totals(self) -> dict[str, dict]:
        """Per-name sums of calls, self time and counts; clears the spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        totals: dict[str, dict] = {}
        for i, (name, start, end, _parent, _op, counts) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child[i]
            for key, value in (counts or {}).items():
                t[key] = t.get(key, 0) + value
        spans.clear()
        return totals
