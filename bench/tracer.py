"""Span recording around the calls into each gup_spectra layer.

The wrappers are installed from the benchmark side, at every name a caller
looks the function up by: each ``gup_spectra.*`` module attribute bound to
the wrapped object is replaced, so a function imported with ``from x import
f`` is wrapped in the importing module as well as in its home module.
Methods are wrapped on the class.  A target missing from the program (for
example a function a later change removes) is skipped, and its counters
read 0.

Spans stay in memory as (name, start, end, parent, request) rows and are
written out only when the run ends.  Self time is a span's duration minus the
time its child spans cover.  Very frequent calls (``quad``, the phase
boundary root) are counted without a span, so their time stays in the
enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, request]
        self.counts = Counter()
        self.request = -1
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def self_times(self):
        """Per span name: (calls, summed self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,request\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{req}\n")


def _spanned(tracer, name, fn, points=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if points is not None:
            tracer.counts[name + ".points"] += points(args, kwargs, out)
        return out
    return wrapper


def _counted(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + ".calls"] += 1
        return fn(*args, **kwargs)
    return wrapper


def _arg(i, key):
    def get(args, kwargs, out):
        return int(np.size(args[i] if len(args) > i else kwargs[key]))
    return get


def _scan_points(args, kwargs, curves):
    return sum(len(c.points) for c in curves)


def _transform_wrapper(tracer, fn):
    """to_potential, with the returned V / q_of_p / p_of_q / chi traced."""
    spanned = _spanned(tracer, "liouville.to_potential", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = spanned(*args, **kwargs)
        for attr in ("V", "q_of_p", "p_of_q", "chi"):
            setattr(tr, attr, _spanned(tracer, "liouville.transform",
                                       getattr(tr, attr), _arg(0, "q")))
        return tr
    return wrapper


def _v_wrapper(tracer, fn):
    """v_from_Qw, with evaluations of the returned v(q) traced."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _spanned(tracer, "liouville.v_from_Qw", fn(*args, **kwargs),
                        _arg(0, "q"))
    return wrapper


def _norm_wrapper(tracer, fn):
    spanned = _spanned(tracer, "solutions.norm", fn)

    @functools.wraps(fn)
    def wrapper(self, n):
        if n in getattr(self, "_norms", ()):
            tracer.counts["solutions.norm.hits"] += 1
        return spanned(self, n)
    return wrapper


def _function_targets(tracer):
    """(home module, attribute, wrapper factory) for every traced function."""
    def span(name, points=None):
        return lambda fn: _spanned(tracer, name, fn, points)

    def count(name):
        return lambda fn: _counted(tracer, name, fn)

    return [
        ("gup_spectra.specfun", "assoc_legendre",
         span("specfun.assoc_legendre", _arg(1, "z"))),
        ("gup_spectra.specfun", "jacobi", span("specfun.jacobi", _arg(1, "x"))),
        ("gup_spectra.specfun", "assoc_legendre_jet", span("specfun.jet")),
        ("gup_spectra.specfun", "jacobi_jet", span("specfun.jet")),
        ("gup_spectra.solutions", "solve", span("solutions.solve")),
        ("gup_spectra.solutions", "gram_matrix", span("solutions.gram_matrix")),
        ("gup_spectra.solutions", "native_quadrature",
         span("solutions.native_quadrature")),
        ("gup_spectra.solutions", "transformed_potential",
         span("solutions.transformed_potential")),
        ("gup_spectra.solutions", "metric_generic", span("solutions.metric_generic")),
        ("gup_spectra.oracle", "expectation_unified",
         span("oracle.expectation_unified")),
        ("gup_spectra.oracle", "roots_jacobi", span("oracle.roots_jacobi")),
        ("gup_spectra.oracle", "verify_spectrum", span("oracle.verify_spectrum")),
        ("gup_spectra.oracle", "fd_eigenvalues", span("oracle.fd_eigenvalues")),
        ("gup_spectra.oracle", "eigvalsh_tridiagonal",
         span("oracle.eigvalsh_tridiagonal", _arg(0, "d"))),
        ("gup_spectra.oracle", "expectation_direct",
         span("oracle.expectation_direct")),
        ("gup_spectra.operators", "apply_X", span("operators.apply_X", _arg(3, "grid"))),
        ("gup_spectra.operators", "apply_P", span("operators.apply_P")),
        ("gup_spectra.phase", "scan", span("phase.scan", _scan_points)),
        ("gup_spectra.phase", "boundary_beta", count("phase.boundary_beta")),
        ("gup_spectra.liouville", "to_potential",
         lambda fn: _transform_wrapper(tracer, fn)),
        ("gup_spectra.liouville", "v_from_Qw", lambda fn: _v_wrapper(tracer, fn)),
        ("gup_spectra.liouville", "master_residual", span("liouville.master_residual")),
        ("gup_spectra.liouville", "quad", count("liouville.quad")),
        ("gup_spectra.cli", "_emit", span("cli.emit")),
    ]


def install(tracer):
    """Wrap every traced target; returns the (owner, attr, original) undo list."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "gup_spectra"
                                     or name.startswith("gup_spectra."))]
    for home, attr, factory in _function_targets(tracer):
        home_mod = sys.modules.get(home)
        original = getattr(home_mod, attr, None)
        if original is None:
            continue
        wrapped = factory(original)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    undo.append((mod, key, val))
                    setattr(mod, key, wrapped)
    solutions = sys.modules.get("gup_spectra.solutions")
    cls = getattr(solutions, "ClosedFormSolution", None)
    if cls is not None:
        for attr, factory in (
                ("psi", lambda fn: _spanned(tracer, "solutions.psi", fn, _arg(2, "p"))),
                ("norm", lambda fn: _norm_wrapper(tracer, fn))):
            original = cls.__dict__.get(attr)
            if original is not None:
                undo.append((cls, attr, original))
                setattr(cls, attr, factory(original))
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
