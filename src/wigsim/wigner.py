"""Wigner functions of the planar systems: Gaussians, stationary trapped
states, Landau levels, and gravitational (Airy) states.

Conventions: unit-width Gaussians (natural units), the antisymmetric pairing
with eps_12 = +1, and explicit truncation boxes wherever a state is not
integrable over the whole plane (Landau levels are flat along two phase-space
directions, the Airy state along x and px).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import quadrature
from .model import PhasePoint, SystemParams
from .specfun import _checked_index, _unwrap_scalar, airy_ai, airy_zero, laguerre

__all__ = [
    "GaussianWigner",
    "StationaryHOState",
    "LandauState",
    "GQWState",
    "ho_energy",
    "landau_energy",
    "gqw_energy",
    "normalize_gqw",
    "stargen_residual",
]


class HOSector:
    """Gaussian factor over one plane (a, b), (da, db) taken from the center:
    norm / (pi hbar) * exp[-(ratio da^2 + cross da db + db^2 / ratio) / hbar].
    Trap ground-state sectors have ratio = lam/kappa = m big_omega, cross = 0;
    a Landau ridge has cross = -+2 and is flat along one direction.
    The precisions ratio/hbar and 1/(ratio hbar) must be positive and finite,
    and their product 1/hbar^2, which a raw box entropy reaches, finite."""

    def __init__(self, ratio: float, hbar: float, center=(0.0, 0.0), cross: float = 0.0,
                 norm: float = 1.0):
        self.ratio = float(ratio)
        self.hbar = float(hbar)
        r, h = self.ratio, self.hbar
        if not (r > 0 and 0.0 < r / h < math.inf and 0.0 < 1.0 / r / h < math.inf
                and 1.0 / h / h < math.inf):
            raise ValueError("sector precisions lam/(kappa hbar), kappa/(lam hbar) and "
                             "1/hbar^2 are out of range")
        self.center = (float(center[0]), float(center[1]))
        self.cross = float(cross)
        self.norm = float(norm)

    def value(self, a, b):
        da = np.asarray(a, dtype=float) - self.center[0]
        db = np.asarray(b, dtype=float) - self.center[1]
        arg = (self.ratio * da * da + self.cross * da * db + db * db / self.ratio) / self.hbar
        return _unwrap_scalar(self.norm * np.exp(-arg) / (math.pi * self.hbar))


class Gaussian2D(HOSector):
    """Unit-width Gaussian over one (coordinate, momentum) sector."""

    def __init__(self, center=(0.0, 0.0)):
        super().__init__(1.0, 1.0, center)


class ProductState:
    """A 4D state W_a W_b: sectors() gives each 2D factor with the (x, y, px, py)
    indices of its two arguments, or raises ValueError on a non-product level.
    value and the sector_x/sector_y properties are read off sectors()."""

    def value(self, x, y, px, py):
        z = (x, y, px, py)
        (wa, (i, j)), (wb, (k, l)) = self.sectors()
        return _unwrap_scalar(np.asarray(wa.value(z[i], z[j])) * np.asarray(wb.value(z[k], z[l])))

    @property
    def sector_x(self):
        return self.sectors()[0][0]

    @property
    def sector_y(self):
        return self.sectors()[1][0]


class GaussianWigner(ProductState):
    """Unit-width Gaussian Wigner function centered at a phase point.

    W(z) = exp(-|z - c|^2) / pi^2.  Time evolution of this family is rigid
    translation of the center along the classical flow.
    """

    def __init__(self, center: PhasePoint = PhasePoint(0.0, 0.0, 0.0, 0.0)):
        self.center = PhasePoint(*(float(c) for c in center))

    def sectors(self):
        c = self.center
        return (Gaussian2D((c.x, c.px)), (0, 2)), (Gaussian2D((c.y, c.py)), (1, 3))


def _quad_forms(params: SystemParams, x, y, px, py):
    """The two invariant quadratic forms Omega_+/- (both nonnegative)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    ratio = params.lam / params.kappa
    quad = ratio * (x * x + y * y) + (px * px + py * py) / ratio
    lz = x * py - y * px
    return quad - 2.0 * lz, quad + 2.0 * lz


class StationaryHOState(ProductState):
    """Stationary Wigner function of the trapped charge in a field.

    W_{n1,n2} = (-1)^{n1+n2} / (pi hbar)^2 * exp[-(lam/kap r^2 + kap/lam p^2)/hbar]
                * L_{n1}(Omega_+/hbar) * L_{n2}(Omega_-/hbar)

    with Omega_+- = lam/kap r^2 + kap/lam p^2 -+ 2 L_z.  Requires
    big_omega > 0 so the lam/kap ratio is finite.
    """

    def __init__(self, n1: int, n2: int, params: SystemParams):
        self.n1 = _checked_index(n1, 0, "n1 must be a nonnegative integer")
        self.n2 = _checked_index(n2, 0, "n2 must be a nonnegative integer")
        if not params.big_omega > 0:
            raise ValueError("stationary trapped state needs big_omega > 0")
        self.params = params

    def value(self, x, y, px, py):
        hbar = self.params.hbar
        op, om = _quad_forms(self.params, x, y, px, py)
        out = (
            (-1.0) ** (self.n1 + self.n2)
            / (math.pi * hbar) ** 2
            * np.exp(-(op + om) / (2.0 * hbar))
            * laguerre(self.n1, op / hbar)
            * laguerre(self.n2, om / hbar)
        )
        return _unwrap_scalar(out)

    def sectors(self):
        """(x, px) x (y, py), ground state only."""
        if self.n1 or self.n2:
            raise ValueError("sector factorization only holds for the ground state")
        sector = HOSector(self.params.lam / self.params.kappa, self.params.hbar)
        return (sector, (0, 2)), (sector, (1, 3))


def ho_energy(n1, n2, params: SystemParams):
    """E_{n1,n2} = hbar [big_omega (n1 + n2 + 1) + omega (n1 - n2)], also
    over integer arrays n1, n2 that broadcast; big_omega = 0 is a continuum."""
    for n in (n1, n2):
        _checked_index(n, 0, "quantum numbers must be nonnegative integers", scalar=False)
    if not params.big_omega > 0:
        raise ValueError("the trap ladder requires big_omega > 0")
    return params.hbar * (params.big_omega * (n1 + n2 + 1) + params.omega * (n1 - n2))


class LandauState(ProductState):
    """Landau-level Wigner function of the free charge in a field.

    W_n = (-1)^n / (pi hbar) * exp(-Omega/hbar) * L_n(Omega/hbar)
    with Omega = m omega r^2 + p^2/(m omega) - 2 L_z, a rank-2 form, so the
    state is flat along two phase-space directions and has no finite mass
    over the whole space.  The printed prefactor is kept; a box mass, where
    one is needed, comes from the two ridge sectors.
    """

    def __init__(self, n: int, params: SystemParams):
        self.n = _checked_index(n, 0, "Landau index must be a nonnegative integer")
        if params.omega0 != 0:
            raise ValueError("Landau levels require omega0 = 0")
        if not params.omega > 0:
            raise ValueError("Landau levels require omega > 0")
        self.params = params

    def value(self, x, y, px, py):
        hbar = self.params.hbar
        om = _quad_forms(self.params, x, y, px, py)[0] / hbar
        out = (-1.0) ** self.n / (math.pi * hbar) * np.exp(-om) * laguerre(self.n, om)
        return _unwrap_scalar(out)

    def sectors(self):
        """Omega = u^2 + v^2 with u = a x - py/a, v = a y + px/a, a^2 = m omega:
        ridges over (x, py) and (y, px), the latter carrying 1/(pi hbar)."""
        if self.n:
            raise ValueError("sector factorization only holds for the lowest Landau level")
        p = self.params
        ratio = p.lam / p.kappa
        return ((HOSector(ratio, p.hbar, cross=-2.0, norm=math.pi * p.hbar), (0, 3)),
                (HOSector(ratio, p.hbar, cross=2.0), (1, 2)))


def landau_energy(n, params: SystemParams):
    """E_n = hbar omega (2n + 1), for a level index or an integer array of them."""
    _checked_index(n, 0, "Landau index must be a nonnegative integer", scalar=False)
    if not params.omega > 0:
        raise ValueError("Landau ladder requires omega > 0")
    return params.hbar * params.omega * (2 * n + 1)


class GQWYSector:
    """Airy-form y-sector of the gravitational stationary state.

    W_y(y, py) = norm * Ai[alpha (xi - E)], xi = py^2/(2m) + m g y, on the
    state's domain y in [0, y_max], |py| <= p_cut.
    """

    def __init__(self, state: "GQWState"):
        self._s = state

    def value_xi(self, xi):
        s = self._s
        return _unwrap_scalar(s.norm * airy_ai(s.alpha * (np.asarray(xi, dtype=float) - s.energy)))

    def value(self, y, py):
        s = self._s
        y = np.asarray(y, dtype=float)
        py = np.asarray(py, dtype=float)
        if np.any(y < 0) or np.any(y > s.y_max):
            raise ValueError(f"y outside the declared domain [0, {s.y_max}]")
        xi = py * py / (2.0 * s.params.mass) + s.params.mass * s.params.g * y
        return self.value_xi(xi)


_GQW_LEVEL = "gravitational level index must be an integer starting at 1"


class GQWState(ProductState):
    """Stationary Wigner state of a particle bouncing in uniform gravity.

    The y-sector is the Airy function of the conserved variable
    xi = py^2/(2m) + m g y; the x-sector is a unit Gaussian (transported
    rigidly by the flow).  Levels are indexed from n_y = 1, with
    E_{n_y} = -(m g^2 hbar^2 / 2)^{1/3} lambda_{n_y} built from the Airy
    zeros lambda_{n_y} < 0.

    The y-sector is normalized over its one domain y in [0, y_max],
    |py| <= p_cut, with y_max = 3 E / (m g) and p_cut reaching
    xi_max = E + 12 / alpha, where Ai has decayed below 1e-12 of its peak.
    In the Airy variable alpha m g y the domain ends at 3 alpha E, past the
    turning point alpha E by 2 alpha E >= 7.42.
    """

    def __init__(self, n_y: int, params: SystemParams):
        self.n_y = _checked_index(n_y, 1, _GQW_LEVEL)
        self.params = params
        m, g = params.mass, params.g
        self.energy = gqw_energy(n_y, params)
        # (8 / (m g^2 hbar^2))^(1/3), from the scale gqw_energy has checked
        self.alpha = 2.0 ** (2.0 / 3.0) / _gqw_scale(params)
        if not m * g >= sys.float_info.min:
            raise ValueError("m g underflows: the domain's y axis has no scale")
        self.y_max = 3.0 * self.energy / (m * g)
        self.xi_max = self.energy + 12.0 / self.alpha
        self.p_cut = math.sqrt(2.0 * m * self.xi_max)
        self._sectors = (Gaussian2D(), (0, 2)), (GQWYSector(self), (1, 3))
        self.norm = normalize_gqw(self)

    def sectors(self):
        return self._sectors


def _gqw_scale(params: SystemParams) -> float:
    """The gravitational energy scale (m g^2 hbar^2 / 2)^(1/3)."""
    m, g, hbar = params.mass, params.g, params.hbar
    # as (m/2)^(1/3) g^(2/3) hbar^(2/3): m g^2 hbar^2 itself under- or overflows first
    return (m / 2.0) ** (1.0 / 3.0) * g ** (2.0 / 3.0) * hbar ** (2.0 / 3.0)


def gqw_energy(n_y, params: SystemParams):
    """E_{n_y} = -(m g^2 hbar^2 / 2)^{1/3} lambda_{n_y} (positive).

    n_y is a level index or an integer array of them (one zero search).
    """
    _checked_index(n_y, 1, _GQW_LEVEL, scalar=False)
    if not params.g > 0:
        raise ValueError("gravitational spectrum requires g > 0")
    scale = _gqw_scale(params)
    zeros = airy_zero(n_y)
    if not (sys.float_info.min <= scale and scale * float(np.max(-zeros)) < math.inf):
        raise ValueError("gravitational energy scale (m g^2 hbar^2 / 2)^(1/3) or the "
                         "energies it gives are out of range")
    return -scale * zeros


def normalize_gqw(state: GQWState) -> float:
    """Normalization constant A_n with integral of |W_y| = 1 over the domain,
    by the midpoint rule on 256 x 256 nodes.

    The nodes are uniform in alpha m g y and py / p_cut, so the mass a box
    [y_max, 2 y_max] at the same spacing would add is the same share of the
    total at every (m, g, hbar): 1.7e-8 at n = 1, 1.2e-16 at n = 2.
    """
    m = state.params.mass
    g = state.params.g

    def unnormalized(y, py):
        xi = np.asarray(py, dtype=float) ** 2 / (2.0 * m) + m * g * np.asarray(y, dtype=float)
        return np.abs(airy_ai(state.alpha * (xi - state.energy)))

    box = quadrature.box_scheme((256, 256), [(0.0, state.y_max), (-state.p_cut, state.p_cut)])
    total = quadrature.integrate(unnormalized, 2, box)
    if not total > 0:
        raise ValueError("y-sector has no mass on the declared domain")
    return 1.0 / total


# Ai(a'_1): the largest |Ai|, at Ai's first critical point a'_1 = -1.0187929716474711
_AI_PEAK = 0.5356566560156999


def stargen_residual(state: GQWState, xi: float, h: float = 5e-4,
                     energy: float | None = None) -> float:
    """Residual of [xi - (hbar^2 m g^2 / 8) d^2/dxi^2 - E] W_y at one xi,
    relative to the peak norm Ai(a'_1) of |W_y|: over the domain the Airy
    variable x = alpha (xi - E) spans [-alpha E, 12], which holds a'_1.
    hbar^2 m g^2 / 8 is alpha^-3, so its product with W_y'' is the central
    second difference of W_y in x, at step alpha h, over alpha; alpha h must
    lie in [1e-4, 0.1].  Small h recovers the star-genvalue identity; passing
    a wrong energy breaks it."""
    k = state.alpha * h
    if not 1e-4 <= k <= 0.1:
        raise ValueError(f"step h gives alpha h = {k:.3g}, outside [1e-4, 0.1]")
    e_val = state.energy if energy is None else float(energy)
    xi = float(xi)
    below, at, above = state.sector_y.value_xi(xi + np.array([-h, 0.0, h]))
    second = (above - 2.0 * at + below) / (k * k) / state.alpha
    return abs((xi - e_val) * at - second) / (state.norm * _AI_PEAK)
