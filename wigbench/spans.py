"""Span recorder for one traced wigsim job.

Run as the job's interpreter entry point:

    python3 spans.py SPANS_OUT cli ARGS...      # wigsim.cli.main(ARGS)
    python3 spans.py SPANS_OUT script ARGS...   # gqw_levels.main(ARGS)

Before the job starts, every public wigsim function a layer calls is
replaced, under the name its caller looks it up by, with a wrapper that
records a span: name, start, end, parent span and a work count (points,
nodes or order).  Spans stay in memory and are written to SPANS_OUT as JSON
when the process exits.  No file of the program is changed.
"""

from __future__ import annotations

import atexit
import functools
import json
import sys
import time

import numpy as np

# one record per span: [name, start, end, parent index, count, integrand calls]
_SPANS: list = []
_STACK: list = []


def _open(name: str) -> list:
    rec = [name, 0.0, 0.0, _STACK[-1] if _STACK else -1, 0, 0]
    _STACK.append(len(_SPANS))
    _SPANS.append(rec)
    rec[1] = time.perf_counter()
    return rec


def _close(rec: list) -> None:
    rec[2] = time.perf_counter()
    _STACK.pop()


def _wrap(name: str, fn, count=None):
    """Wrap fn in a span; count(args, result) gives the span's work count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            _close(rec)
        if count is not None:
            rec[4] = count(args, out)
        return out

    return wrapper


def _size_of_arg(args, _out) -> int:
    return int(np.size(args[-1]))


def _size_of_result(_args, out) -> int:
    return int(np.size(out))


def _order(args, _out) -> int:
    return int(args[0])


def _wrap_integrate(fn):
    """quadrature.integrate: count nodes and integrand calls, and give the
    integrand passed in its own span, named after the module that made it."""

    @functools.wraps(fn)
    def integrate(f, dims, scheme, *args, **kwargs):
        rec = _open("quadrature.integrate")
        label = getattr(f, "__module__", "") or ""
        label = label.rsplit(".", 1)[-1] + ".integrand"

        def integrand(*coords):
            rec[5] += 1
            inner = _open(label)
            try:
                return f(*coords)
            finally:
                _close(inner)

        try:
            return fn(integrand, dims, scheme, *args, **kwargs)
        finally:
            _close(rec)
            rec[4] = int(np.prod(scheme.orders))

    return integrate


def install() -> None:
    """Patch wigsim's module attributes and state methods with span wrappers."""
    import wigsim
    from wigsim import cli, measures, quadrature, specfun, wigner

    airy_ai = _wrap("specfun.airy_ai", specfun.airy_ai, _size_of_arg)
    specfun.airy_ai = airy_ai             # inner calls of airy_zero
    wigner.airy_ai = airy_ai
    wigner.airy_zero = _wrap("specfun.airy_zero", wigner.airy_zero)
    wigner.laguerre = _wrap("specfun.laguerre", wigner.laguerre, _size_of_arg)
    quadrature.gauss_hermite = _wrap("specfun.gauss_hermite", quadrature.gauss_hermite, _order)
    quadrature.integrate = _wrap_integrate(quadrature.integrate)

    for name in ("fidelity_curve", "fidelity_quadrature", "entropy_vs_field", "shannon_entropy"):
        setattr(measures, name, _wrap("measures." + name, getattr(measures, name)))
    evolve = _wrap("dynamics.evolve", measures.evolve, _size_of_arg)
    measures.evolve = evolve
    cli.evolve = evolve

    for cls in (wigner.Gaussian2D, wigner.GaussianWigner, wigner.HOSector,
                wigner.StationaryHOState, wigner.LandauState, wigner.GQWState,
                wigner.GQWYSector):
        cls.value = _wrap("wigner.value", cls.value, _size_of_result)
    wigner.GQWState.__init__ = _wrap("wigner.GQWState", wigner.GQWState.__init__)
    stargen = _wrap("wigner.stargen_residual", wigner.stargen_residual)
    wigner.stargen_residual = stargen
    wigsim.stargen_residual = stargen
    cli.main = _wrap("cli.main", cli.main)


def _dump(path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_SPANS, fh)


def main(argv) -> int:
    out_path, target, job_args = argv[0], argv[1], argv[2:]
    install()
    atexit.register(_dump, out_path)
    if target == "cli":
        from wigsim import cli
        return cli.main(job_args)
    import gqw_levels
    return _wrap("script.main", gqw_levels.main)(job_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
