"""Spans around the package's public functions, and per-layer metrics.

The tracer replaces each traced function where its callers look it up (the
module attribute or class attribute), so nothing in the package is edited.
A span records its name, start, end, parent span, problem id, an optional
work count and whether it ended by an exception.  Spans stay in memory
until the run writes them out.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("exact", "transform", "kernel", "symbol", "zeros", "operator_lab", "cli")


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, problem, work, error]
        self.problem = None
        self._stack = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem, 0, False]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, problem, work, err) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "problem": problem,
                                     "work": work, "error": err}) + "\n")


def _targets():
    """(owner, attribute, span name, work) for every traced call site."""
    from bezoutiant import cli, exact, kernel, operator_lab, symbol, transform

    def size_of_z(args, _):
        return int(np.size(args[1]))

    def u_points(args, _):
        return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)

    def kernel_terms(_, k):
        return len(k.u_lower.terms) + len(k.u_upper.terms)

    def zeros_found(_, zs):
        return len(zs.zeros)

    def grid_cells(args, _):
        return args[3].n ** 2

    return [
        (cli, "run", "cli.run", None),
        (cli, "decide", "symbol.decide", None),
        (symbol, "l_operator", "symbol.l_operator", None),
        (symbol, "v_symbol", "symbol.v_symbol", None),
        (cli, "normalize_pair", "kernel.normalize_pair", None),
        (symbol, "normalize_pair", "kernel.normalize_pair", None),
        (cli, "build_m_functions", "kernel.build_m_functions", None),
        (cli, "build_kernel", "kernel.build_kernel", kernel_terms),
        (kernel.BezoutKernel, "u_float", "kernel.u_float", u_points),
        (exact.Poly, "__mul__", "exact.Poly.__mul__", None),
        (exact.Poly, "__call__", "exact.Poly.__call__", None),
        (exact.Poly, "derivative", "exact.Poly.derivative", None),
        (exact.MPoly, "__mul__", "exact.MPoly.__mul__", None),
        (exact.MPoly, "definite_integral", "exact.MPoly.definite_integral", None),
        (transform.ClosedTransform, "from_density", "transform.from_density", None),
        (transform.ClosedTransform, "eval_many", "transform.eval_many", size_of_z),
        (cli, "locate_zeros", "zeros.locate_zeros", zeros_found),
        (cli, "compare_zero_sets", "zeros.compare_zero_sets", None),
        (cli, "convergence_study", "operator_lab.convergence_study", None),
        (operator_lab, "discretize_all", "operator_lab.discretize_all", grid_cells),
        (operator_lab, "identity_residual", "operator_lab.identity_residual", None),
    ]


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for owner, attr, name, work in _targets():
        raw = owner.__dict__[attr]
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, work)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw, work))

    def restore():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
    return restore


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, sp in enumerate(spans):
        t0, t1 = sp[1], sp[2]
        covered, reach = 0.0, t0
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((t1 - t0) - covered)
    return out


def _ancestors_named(spans, name):
    """Indices of spans that run inside (or are) a span called `name`."""
    inside = [False] * len(spans)
    for i, sp in enumerate(spans):  # parents precede their children
        inside[i] = sp[0] == name or (sp[3] >= 0 and inside[sp[3]])
    return inside


def layer_metrics(spans) -> dict:
    """Per-layer self times and work counts, keyed by metric name."""
    selfs = self_times(spans)
    s = defaultdict(float)      # self seconds per span name
    total = defaultdict(float)  # inclusive seconds per span name
    calls = defaultdict(int)
    work = defaultdict(int)
    errors = defaultdict(int)
    layer_self = defaultdict(float)
    for sp, st in zip(spans, selfs):
        name = sp[0]
        s[name] += st
        total[name] += sp[2] - sp[1]
        calls[name] += 1
        work[name] += sp[5]
        errors[name] += sp[6]
        layer_self[name.split(".", 1)[0]] += st

    in_locate = _ancestors_named(spans, "zeros.locate_zeros")
    locate_points = sum(sp[5] for sp, inside in zip(spans, in_locate)
                        if inside and sp[0] == "transform.eval_many")
    found = work["zeros.locate_zeros"]
    eval_s = s["transform.eval_many"]

    m = {
        "cli.run_s": total["cli.run"],
        "cli.self_s": s["cli.run"],
        "symbol.decide_s": s["symbol.decide"],
        "symbol.decide_calls": calls["symbol.decide"],
        "symbol.l_operator_s": s["symbol.l_operator"],
        "symbol.v_symbol_s": s["symbol.v_symbol"],
        "kernel.normalize_s": s["kernel.normalize_pair"],
        "kernel.m_functions_s": s["kernel.build_m_functions"],
        "kernel.build_s": s["kernel.build_kernel"],
        "kernel.build_calls": calls["kernel.build_kernel"],
        "kernel.terms": work["kernel.build_kernel"],
        "kernel.u_float_s": s["kernel.u_float"],
        "kernel.u_float_points": work["kernel.u_float"],
        "exact.mpoly_mul_calls": calls["exact.MPoly.__mul__"],
        "exact.mpoly_mul_s": s["exact.MPoly.__mul__"],
        "exact.mpoly_definite_integral_calls": calls["exact.MPoly.definite_integral"],
        "exact.poly_mul_calls": calls["exact.Poly.__mul__"],
        "exact.poly_mul_s": s["exact.Poly.__mul__"],
        "exact.poly_eval_calls": calls["exact.Poly.__call__"],
        "exact.poly_eval_s": s["exact.Poly.__call__"],
        "exact.poly_derivative_calls": calls["exact.Poly.derivative"],
        "exact.poly_derivative_s": s["exact.Poly.derivative"],
        "transform.build_s": s["transform.from_density"],
        "transform.build_calls": calls["transform.from_density"],
        "transform.eval_s": eval_s,
        "transform.eval_calls": calls["transform.eval_many"],
        "transform.eval_points": work["transform.eval_many"],
        "transform.points_per_s": work["transform.eval_many"] / eval_s if eval_s > 0 else 0.0,
        "zeros.locate_s": s["zeros.locate_zeros"],
        "zeros.locate_calls": calls["zeros.locate_zeros"],
        "zeros.locate_errors": errors["zeros.locate_zeros"],
        "zeros.zeros_found": found,
        "zeros.eval_points_per_zero": locate_points / found if found else 0.0,
        "zeros.compare_s": s["zeros.compare_zero_sets"],
        "operator_lab.convergence_s": s["operator_lab.convergence_study"],
        "operator_lab.discretize_s": s["operator_lab.discretize_all"],
        "operator_lab.residual_s": s["operator_lab.identity_residual"],
        "operator_lab.grid_cells": work["operator_lab.discretize_all"],
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self[layer]
    return m
