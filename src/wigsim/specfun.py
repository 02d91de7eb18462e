"""Special functions needed by the Wigner states and the quadrature rules.

Everything here is self-contained (numpy only): Laguerre polynomials by the
three-term recurrence; Ai and Ai' by Taylor re-expansion about a checked-in
mpmath table on [-8, 10] and DLMF 9.7 asymptotics beyond (within 2e-15
absolute on [-15, 0], 8e-15 relative on [0, 14]); negative zeros of Ai by
three Newton steps from their asymptotic series (within 2 ulp); and
Gauss-Hermite rules, which are numpy's hermgauss rules.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .model import NumericalError

__all__ = [
    "laguerre",
    "airy_ai",
    "airy_zero",
    "GaussHermiteRule",
    "gauss_hermite",
]

# Ai and Ai' at the nodes x = -8, -7.75, ..., 10, as (Ai, Ai') pairs: the
# output of tools/airy_table.py (mpmath at 30 digits, rounded to doubles)
_AIRY_TABLE = np.array("""
-0.0527050503563862 0.9355609381983065 0.17497790079676515 0.8112327355065283
0.3217757163806479 0.3188095066985546 0.32374057321118616 -0.30022899504735406
0.18428083525050565 -0.7710081684101265 -0.03338479058876496 -0.9067040516921281
-0.2380203019971158 -0.6749524925132022 -0.3496120516108905 -0.19108625952341715
-0.3291451736298231 0.3459354872813429 -0.18884209899944737 0.7391656870866844
0.017781541276574976 0.8641972177713984 0.21900944784501322 0.701566726175189
0.35076100902411433 0.32719281855444315 0.37593203432914213 -0.12709960620642027
0.2921527810559595 -0.5233625323157477 0.12778292722826728 -0.759267412057374
-0.07026553294928951 -0.7906285753685813 -0.2516127030142227 -0.6324539662611763
-0.37553382314043193 -0.34344343345404815 -0.4190132668052308 -0.0024538481879481863
-0.37881429367765806 0.3145837692165988 -0.2684905459125971 0.5513380742629775
-0.11232506769296609 0.6788527342647943 0.06159865877700528 0.6950162067015286
0.22740742820168558 0.618259020741691 0.36548325221423156 0.4786515716673063
0.4642565777488694 0.3091869672024104 0.5200454774352992 0.13907956335191776
0.5355608832923521 -0.01016056711664521 0.5177725751515836 -0.1259905473379542
0.4757280916105396 -0.20408167033954738 0.41872461427545293 -0.24638918992017597
0.3550280538878172 -0.2588194037928068 0.2911639543485452 -0.24906211200489714
0.23169360648083348 -0.2249105326646839 0.17933630547864524 -0.19317520810437647
0.13529241631288141 -0.1591474412967932 0.09964454475691667 -0.12648662068538938
0.07174949700810541 -0.09738201284230132 0.05056988080579487 -0.07285371376202839
0.03492413042327438 -0.05309038443365363 0.023654658557747447 -0.037758570992018514
0.01572592338047049 -0.026250881035903232 0.010269209855011988 -0.017864093772294476
0.006591139357460719 -0.011912976705951319 0.004160454618117256 -0.007792687926790721
0.002584098786989635 -0.005004413967952583 0.0015800717179210132 -0.003157514753239784
0.0009515638512048018 -0.001958640950204179 0.0005646398353425014 -0.0011952051345449142
0.00033025032351430896 -0.0007178665675575089 0.0001904614592681605 -0.0004245926894565621
0.00010834442813607442 -0.0002474138908684625 6.081011452242365e-05 -0.00014209461719726815
3.368531190859981e-05 -8.046339130556515e-05 1.8421246197730245e-05 -4.494062122298348e-05
9.947694360252889e-06 -2.4765200397034955e-05 5.3058617487520814e-06 -1.3469113451450983e-05
2.7958823432049136e-06 -7.231931466601793e-06 1.4558127445788758e-06 -3.834455740949934e-06
7.492128863997167e-07 -2.008150894738792e-06 3.8115630183373774e-07 -1.0390462946280257e-06
1.9172560675134309e-07 -5.312713959720545e-07 9.537038961641585e-08 -2.6849288679532617e-07
4.6922076160992316e-08 -1.3414392979067865e-07 2.2837139444822283e-08 -6.626952666987631e-08
1.0997009755195506e-08 -3.237725440447602e-08 5.2401142318917526e-09 -1.5646762027577948e-08
2.47116843087249e-09 -7.480641389658946e-09 1.1535041557283402e-09 -3.538763310465635e-09
5.330263704617492e-10 -1.6566394593740667e-09 2.438632135722847e-10 -7.675930651861793e-10
1.1047532552898686e-10 -3.5206336767389237e-10
""".split(), dtype=float).reshape(-1, 2)
_AIRY_LO, _AIRY_HI, _AIRY_STEP = -8.0, 10.0, 0.25
_AIRY_NODES = _AIRY_LO + _AIRY_STEP * np.arange(len(_AIRY_TABLE))

# Taylor coefficients about each node, highest order first: c_k of Ai from
# Ai'' = x Ai, c_{k+2} = (x0 c_k + c_{k-1}) / ((k+1)(k+2)), and (k+1) c_{k+1} of Ai'
_c = [_AIRY_TABLE[:, 0], _AIRY_TABLE[:, 1], 0.5 * _AIRY_NODES * _AIRY_TABLE[:, 0]]
for _k in range(1, 14):
    _c.append((_AIRY_NODES * _c[_k] + _c[_k - 1]) / ((_k + 1) * (_k + 2)))
_AIRY_TAYLOR = np.stack((_c, [k * c for k, c in enumerate(_c)][1:] + [0.0 * _c[0]]), axis=1)[::-1]

# signed u_k, v_k of DLMF 9.7.2, highest order first: (-1)^k (u_k, v_k) to k = 15
# for x > 10; (-1)^j (u_2j, u_2j+1, v_2j, v_2j+1) to j = 11 for x < -8
_U, _V = [1.0], [1.0]
for _k in range(1, 24):
    _U.append(_U[-1] * (6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1) / ((2 * _k - 1) * 216.0 * _k))
    _V.append(-(6 * _k + 1) / (6 * _k - 1) * _U[-1])
_POS_UV = np.array([[[(-1) ** k * _U[k]], [(-1) ** k * _V[k]]] for k in range(15, -1, -1)])
_NEG_UV = np.array([[[(-1) ** j * c[2 * j + r]] for c in (_U, _V) for r in (0, 1)]
                    for j in range(11, -1, -1)])


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
    prev, cur = np.zeros_like(arr), np.ones_like(arr)     # L_{-1} and L_0
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - arr) * cur - k * prev) / (k + 1)
    return _unwrap_scalar(cur)


def _horner(coeffs: np.ndarray, w: np.ndarray, i=slice(None)) -> np.ndarray:
    """Rows of sum_k coeffs[k][:, i] w^k, coeffs listed from the highest order down.

    One coefficient column is gathered per step, so temporaries stay (rows, len(w)).
    """
    acc = np.zeros((coeffs.shape[1], w.size))
    for a in coeffs:
        acc *= w
        acc += a[:, i]
    return acc


def airy_ai(x, prime: bool = False):
    """Airy function Ai(x); with prime=True, the pair (Ai(x), Ai'(x)).

    Taylor series about the nearest table node (|x - x0| <= 1/8) on [-8, 10],
    DLMF 9.7 asymptotics beyond; Ai' is within 9e-15 absolute on [-15, 0].
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    m = 1 + bool(prime)
    out = np.empty((m,) + arr.shape)
    mid, pos = (arr >= _AIRY_LO) & (arr <= _AIRY_HI), arr > _AIRY_HI
    neg = ~(mid | pos)                     # x < -8, and NaN
    if mid.any():
        xm = arr[mid]
        i = np.rint((xm - _AIRY_LO) / _AIRY_STEP).astype(np.intp)
        out[:, mid] = _horner(_AIRY_TAYLOR[:, :m], xm - _AIRY_NODES[i], i)
    if pos.any():
        xp = arr[pos]
        q, zeta = xp ** 0.25, (2.0 / 3.0) * xp ** 1.5
        s = _horner(_POS_UV[:, :m], 1.0 / zeta) * (np.exp(-zeta) / (2.0 * math.sqrt(math.pi)))
        out[:, pos] = s * np.stack((1.0 / q, -q))[:m]
    if neg.any():
        t = -arr[neg]
        q, zeta = t ** 0.25, (2.0 / 3.0) * t ** 1.5
        s = _horner(_NEG_UV[:, :2 * m], zeta ** -2.0) / math.sqrt(math.pi)
        s[1::2] /= zeta                    # the odd-order sums
        c, sn = np.cos(zeta - math.pi / 4.0), np.sin(zeta - math.pi / 4.0)
        out[0, neg] = (c * s[0] + sn * s[1]) / q
        if prime:
            out[1, neg] = q * (sn * s[2] - c * s[3])
    res = [_unwrap_scalar(v.reshape(np.shape(x))) for v in out]
    return tuple(res) if prime else res[0]


def airy_zero(n):
    """n-th negative zero a_n of Ai (n = 1, 2, ...); an integer or an integer array.

    Starts from the asymptotic a_n ~ -T(3 pi (4n - 1) / 8) (DLMF 9.9.6, 9.9.18)
    and takes three Newton steps on the whole array; Newton converges
    cubically here because Ai'' = x Ai vanishes at a zero.  Measured against
    mpmath, zeros 1..200 and a sample up to 10^4 are within 2 ulp.  Raises
    NumericalError where Ai at the last iterate is not small against its slope.
    """
    idx = np.asarray(n)
    if idx.dtype.kind not in "iu" or np.any(idx < 1):
        raise ValueError("airy zero index starts at 1")
    t = (3.0 * math.pi / 8.0) * (4.0 * idx.astype(float) - 1.0)
    w = t ** -2.0
    z = -(t ** (2.0 / 3.0)) * (1.0 + w * (5.0 / 48.0 + w * (-5.0 / 36.0 + w * 77125.0 / 82944.0)))
    for _ in range(3):
        f, fp = airy_ai(z, prime=True)
        z = z - f / fp
    bad = ~(np.abs(f) <= 1e-13 * np.abs(fp * z))   # Ai at the last iterate
    if np.any(bad):
        raise NumericalError(f"airy_zero Newton did not converge for n={idx[bad].tolist()}")
    return _unwrap_scalar(z)


# highest Gauss-Hermite order built; quadrature schemes are checked against it
_MAX_HERMITE_ORDER = 256


class GaussHermiteRule(NamedTuple):
    """Nodes and weights for integrating f(x) e^{-x^2} dx over the line."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_hermite(n: int) -> GaussHermiteRule:
    """Gauss-Hermite rule of order n (1 <= n <= _MAX_HERMITE_ORDER).

    Each order is built once per process and shared by every caller, so the
    returned nodes and weights are read-only arrays.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= _MAX_HERMITE_ORDER:
        raise ValueError(f"gauss_hermite order must satisfy 1 <= n <= {_MAX_HERMITE_ORDER}")
    return _build_gauss_hermite(int(n))


@functools.lru_cache(maxsize=None)   # bounded by the orders validated above
def _build_gauss_hermite(n: int) -> GaussHermiteRule:
    """Build the order-n rule: numpy's hermgauss (Golub-Welsch eigenvalues, one Newton polish)."""
    # imported here so that importing wigsim does not load numpy.polynomial
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussHermiteRule(nodes=nodes, weights=weights)
