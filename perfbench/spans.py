"""Span tracing for the traced benchmark run, kept outside the package.

`traced(tracer)` rebinds every function in TRACED in each `spark_branch`
module namespace that holds it by name (for example both
`steady.jacobian` and `continuation.jacobian`), and wraps
`scipy.sparse.linalg.splu`.  Each call records a span
(name, start, end, parent, ok).  On exit every rebound attribute gets its
original back, and the restore is verified.
"""

import functools
import sys
import time
from contextlib import contextmanager

import scipy.sparse.linalg

# Layer -> public functions whose calls are spans.  Span names are
# "<layer>.<function>"; splu is reported under the "factor" layer.
TRACED = {
    "steady": ["jacobian", "residual_vector", "dresidual_dlambda",
               "newton_solve", "trivial_linearization"],
    "continuation": ["trace_branch", "arclength_step", "tangent_and_sigma"],
    "electron": ["solve_electron", "sparking_voltage", "critical_gamma"],
    "adjoint": ["nullspace_triple", "nullspace_residual", "linearized_matrix",
                "solve_adjoint_w", "transversality_F",
                "transversality_crosscheck", "svd_probe",
                "adjoint_identity_check"],
    "validation": ["fd_jacobian", "discrete_bifurcation_pair"],
    "cli": ["main"],
}
SPLU = "factor.splu"
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
SPAN_NAMES.append(SPLU)


class Tracer:
    """In-memory span log.  Spans are lists [name, start, end, parent, ok]
    with parent the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self.lu_nnz = 0
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[4] = True
                return out
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return call

    def wrap_splu(self, fn):
        inner = self.wrap(SPLU, fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            lu = inner(*args, **kwargs)
            # SuperLU's own count of stored L and U nonzeros (computed,
            # not measured traffic); read after the span has closed.
            self.lu_nnz += lu.nnz
            return lu

        return call


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spark_branch"
                                  or name.startswith("spark_branch."))]


@contextmanager
def traced(tracer):
    """Rebind the TRACED functions and splu for the duration of the block."""
    saved = []          # (namespace object, attribute, original)
    modules = _package_modules()
    try:
        for layer, fns in TRACED.items():
            home = sys.modules[f"spark_branch.{layer}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapped = tracer.wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        orig_splu = scipy.sparse.linalg.splu
        saved.append((scipy.sparse.linalg, "splu", orig_splu))
        scipy.sparse.linalg.splu = tracer.wrap_splu(orig_splu)
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
        stale = [f"{mod.__name__}.{attr}" for mod, attr, orig in saved
                 if getattr(mod, attr) is not orig]
        if stale:
            raise RuntimeError(f"traced functions not restored: {stale}")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children
    (calls are single-threaded and nest, so children never overlap)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
