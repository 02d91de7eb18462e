"""Special functions needed by the Wigner states and the quadrature rules.

Everything here is self-contained (numpy only): Laguerre polynomials by the
three-term recurrence, the Airy function Ai by a Maclaurin series spliced to
Poincare asymptotics, negative zeros of Ai by bisection, and Gauss-Hermite
rules by Newton iteration on the orthonormal recurrence.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "laguerre",
    "airy_ai",
    "airy_zero",
    "GaussHermiteRule",
    "gauss_hermite",
]

# Ai(0) = 3^{-2/3} / Gamma(2/3), Ai'(0) = -3^{-1/3} / Gamma(1/3)
_AI0 = 0.35502805388781723926
_AIP0 = -0.25881940379280679840

# series/asymptotics handover; the negative-side asymptotic series cannot
# reach 1e-10 absolute error below |x| ~ 6.5
_AIRY_SPLIT = 7.0

# u_k coefficients of the Airy asymptotic expansions
_U_COEFF = [1.0]
for _k in range(1, 41):
    _U_COEFF.append(
        _U_COEFF[-1] * (6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1) / ((2 * _k - 1) * 216.0 * _k)
    )


def _unwrap_scalar(v):
    """A 0-d result as a Python float; any other shape unchanged."""
    v = np.asarray(v)
    return float(v) if v.ndim == 0 else v


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the upward three-term recurrence.

    Accepts scalar or array x.  Upward recurrence is numerically benign for
    the arguments used here (x >= 0, moderate n).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("laguerre degree must be a nonnegative integer")
    arr = np.asarray(x, dtype=float)
    prev = np.ones_like(arr)
    if n == 0:
        return _unwrap_scalar(prev)
    cur = 1.0 - arr
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - arr) * cur - k * prev) / (k + 1)
    return _unwrap_scalar(cur)


def _airy_series(x: np.ndarray) -> np.ndarray:
    # Maclaurin series Ai(x) = Ai(0) f(x) + Ai'(0) g(x); term recurrences in x^3
    x3 = x * x * x
    tf = np.ones_like(x)
    tg = x.copy()
    total = _AI0 * tf + _AIP0 * tg
    for k in range(70):
        tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        total = total + _AI0 * tf + _AIP0 * tg
        if max(np.max(np.abs(tf)), np.max(np.abs(tg))) < 1e-22:
            break
    return total


def _asym_sum(zeta: np.ndarray, start: int, stride: int) -> np.ndarray:
    """Sum (-1)^j u_{start + j stride} / zeta^{start + j stride}.

    The expansions are divergent; each element is truncated at its smallest
    term via a per-element active mask.
    """
    out = np.zeros_like(zeta)
    prev_mag = np.full_like(zeta, np.inf)
    active = np.ones(zeta.shape, dtype=bool)
    sign = 1.0
    for k in range(start, len(_U_COEFF), stride):
        term = _U_COEFF[k] / zeta ** k
        mag = np.abs(term)
        active = active & (mag < prev_mag)
        if not active.any():
            break
        out = np.where(active, out + sign * term, out)
        prev_mag = np.where(active, mag, prev_mag)
        sign = -sign
    return out


def _airy_asym_pos(x: np.ndarray) -> np.ndarray:
    zeta = (2.0 / 3.0) * x ** 1.5
    s = _asym_sum(zeta, 0, 1)
    return np.exp(-zeta) * s / (2.0 * math.sqrt(math.pi) * x ** 0.25)


def _airy_asym_neg(x: np.ndarray) -> np.ndarray:
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    phase = zeta + math.pi / 4.0
    return (np.sin(phase) * _asym_sum(zeta, 0, 2) - np.cos(phase) * _asym_sum(zeta, 1, 2)) / (
        math.sqrt(math.pi) * t ** 0.25
    )


def airy_ai(x):
    """Airy function Ai(x), accurate to about 1e-10 absolute on [-15, 10].

    Maclaurin series for |x| < 7, Poincare asymptotics beyond; both sides are
    oscillation-safe (asymptotic sums truncate at their smallest term).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    out = np.empty_like(arr)
    core = np.abs(arr) < _AIRY_SPLIT
    pos = (~core) & (arr > 0)
    neg = (~core) & (arr < 0)

    if core.any():
        out[core] = _airy_series(arr[core])
    if pos.any():
        out[pos] = _airy_asym_pos(arr[pos])
    if neg.any():
        out[neg] = _airy_asym_neg(arr[neg])

    return float(out[0]) if scalar else out


def airy_zero(n):
    """n-th negative zero a_n of Ai (n = 1, 2, ...), by bisection.

    Accepts an integer or an integer array.  Brackets come from the
    asymptotic zero locations, so each bracket isolates exactly one zero.
    All brackets are bisected together, one airy_ai call per step, and each
    one is frozen once it is 1e-14 relative wide (or hits an exact zero).
    """
    idx = np.asarray(n)
    if idx.dtype.kind not in "iu" or np.any(idx < 1):
        raise ValueError("airy zero index starts at 1")
    # Python-float powers, so every bracket is the same whatever the batch
    t = [3.0 * math.pi * (4 * k - 1) / 8.0 for k in idx.ravel().tolist()]
    guess = np.array([-(tk ** (2.0 / 3.0)) * (1.0 + 5.0 / (48.0 * tk * tk)) for tk in t])
    half = np.array([0.35 * math.pi * tk ** (-1.0 / 3.0) for tk in t])
    lo, hi = guess - half, guess + half
    flo, fhi = airy_ai(np.stack((lo, hi)))
    bad = flo * fhi > 0
    if bad.any():
        raise RuntimeError(f"airy_zero bracket failed for n={idx.ravel()[bad].tolist()}")
    # an end that is an exact zero collapses its bracket onto it
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where(fhi == 0.0, hi, lo)
    live = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    for _ in range(200):
        if live.size == 0:
            break
        a, b = lo[live], hi[live]
        mid = 0.5 * (a + b)
        fm = airy_ai(mid)
        left = flo[live] * fm < 0
        exact = fm == 0.0
        a = np.where(left, a, mid)
        b = np.where(left | exact, mid, b)
        lo[live], hi[live] = a, b
        flo[live] = np.where(left, flo[live], fm)
        live = live[~exact & (b - a > 1e-14 * np.maximum(1.0, np.abs(a)))]
    return _unwrap_scalar((0.5 * (lo + hi)).reshape(idx.shape))


class GaussHermiteRule(NamedTuple):
    """Nodes and weights for integrating f(x) e^{-x^2} dx over the line."""

    nodes: np.ndarray
    weights: np.ndarray


def _hermite_pair(n: int, x: np.ndarray):
    """Orthonormal Hermite values (p_n, p_{n-1}) against weight e^{-x^2}."""
    prev = np.zeros_like(x)
    cur = np.full_like(x, math.pi ** -0.25)
    for j in range(1, n + 1):
        prev, cur = cur, x * math.sqrt(2.0 / j) * cur - math.sqrt((j - 1.0) / j) * prev
    return cur, prev


def gauss_hermite(n: int) -> GaussHermiteRule:
    """Gauss-Hermite rule of order n (1 <= n <= 256).

    Each order is built once per process and shared by every caller, so the
    returned nodes and weights are read-only arrays.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 256:
        raise ValueError("gauss_hermite order must satisfy 1 <= n <= 256")
    return _build_gauss_hermite(int(n))


@functools.lru_cache(maxsize=None)   # bounded by the 256 orders validated above
def _build_gauss_hermite(n: int) -> GaussHermiteRule:
    """Build the order-n rule.

    Positive roots are bracketed by sign changes of p_n on a cosine grid
    x = sqrt(2n+1) cos(theta) (the roots are nearly uniform in theta), then
    polished by Newton steps kept inside their brackets.  Only the positive
    half is solved, so nodes come out exactly symmetric.
    """
    pp_scale = math.sqrt(2.0 * n)
    n_pos = n // 2

    roots = np.empty(0)
    pp_at_roots = np.empty(0)
    if n_pos:
        edge = math.sqrt(2.0 * n + 1.0)
        theta = np.linspace(0.0, math.pi / 2.0, max(64, 8 * n))
        xs = edge * np.cos(theta)            # descending, ends just above 0
        vals, _ = _hermite_pair(n, xs)
        flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        if len(flips) != n_pos:
            raise RuntimeError(f"gauss_hermite bracketing failed (n={n})")
        hi, lo = xs[flips], xs[flips + 1]
        sign_lo = np.sign(vals[flips + 1])

        z = 0.5 * (lo + hi)
        pp = np.zeros_like(z)
        for _ in range(100):
            pn, pm = _hermite_pair(n, z)
            pp = pp_scale * pm
            on_lo_side = np.sign(pn) == sign_lo
            lo = np.where(on_lo_side, z, lo)
            hi = np.where(on_lo_side, hi, z)
            step = pn / pp
            znew = z - step
            outside = (znew <= lo) | (znew >= hi)
            znew = np.where(outside, 0.5 * (lo + hi), znew)
            done = np.abs(znew - z) <= 1e-15 * np.maximum(1.0, np.abs(znew))
            z = znew
            if done.all():
                break
        else:
            raise RuntimeError(f"gauss_hermite Newton did not converge (n={n})")
        _, pm = _hermite_pair(n, z)
        roots = z                            # descending positive roots
        pp_at_roots = pp_scale * pm

    nodes = np.empty(n)
    weights = np.empty(n)
    for i in range(n_pos):
        w = 2.0 / pp_at_roots[i] ** 2
        nodes[i] = -roots[i]
        weights[i] = w
        nodes[n - 1 - i] = roots[i]
        weights[n - 1 - i] = w
    if n % 2:
        _, pm0 = _hermite_pair(n, np.zeros(1))
        nodes[n_pos] = 0.0
        weights[n_pos] = 2.0 / (pp_scale * pm0[0]) ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussHermiteRule(nodes=nodes, weights=weights)
