"""Fidelity and Shannon entropy of Wigner functions.

Fidelity follows the square-root overlap definition
F = [integral sqrt(W1 W2)]^2, evaluated in closed form for Gaussian pairs
and by quadrature in general (nonnegative states only).  Entropy is
S = -integral |W| ln |W| over a declared box, either of the raw state
(RAW_BOX) or after rescaling |W| to unit box mass (NORMALIZED_BOX).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .dynamics import _quadratic_map, _transport, evolve
from .model import PhasePoint, SystemKind, SystemParams
from .specfun import _unwrap_scalar
from .wigner import GaussianWigner, LandauState, StationaryHOState

__all__ = [
    "WignerNegativityError",
    "fidelity_gaussian_closed",
    "default_fidelity_scheme",
    "fidelity_quadrature",
    "fidelity_ho_paper",
    "paper_form_point",
    "FidelityCurve",
    "fidelity_curve",
    "EntropyConvention",
    "shannon_entropy",
    "entropy_vs_field",
]

# dips below this are treated as real negativity, not rounding
_NEGATIVITY_FLOOR = -1e-12


class WignerNegativityError(RuntimeError):
    """A state passed to the overlap quadrature is genuinely negative."""


def fidelity_gaussian_closed(c0: PhasePoint, ct: PhasePoint):
    """F = exp(-|ct - c0|^2 / 2) for two unit-width Gaussians.

    Accepts array-valued components in ct (or c0) and broadcasts.
    """
    d = ct.as_array() - c0.as_array()
    return _unwrap_scalar(np.exp(-0.5 * np.sum(d * d, axis=-1)))


def default_fidelity_scheme(w1, w2, order: int = 32) -> quadrature.QuadratureScheme:
    """Gauss-Hermite scheme centered between the two states, one axis per
    center coordinate (a state without a center sits at the origin).

    With unit scales the sqrt-overlap integrand of two unit Gaussians is a
    polynomial times the scheme's own weight, so the rule is exact for them.
    """
    dims = len(getattr(w1, "center", getattr(w2, "center", (0.0,) * 4)))
    c1, c2 = (np.asarray(getattr(w, "center", (0.0,) * dims), dtype=float) for w in (w1, w2))
    mid = 0.5 * (c1 + c2)
    return quadrature.hermite_scheme((order,) * dims, centers=tuple(mid), scales=(1.0,) * dims)


def _checked_nonnegative(state, coords, label: str) -> np.ndarray:
    vals = np.asarray(state.value(*coords), dtype=float)
    if np.min(vals) < _NEGATIVITY_FLOOR:
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        grids = [np.broadcast_to(np.asarray(c, dtype=float), vals.shape) for c in coords]
        node = tuple(float(g[idx]) for g in grids)
        raise WignerNegativityError(
            f"{label} ({type(state).__name__}) is negative at node {node}: {vals[idx]:.3e}"
        )
    return np.where(vals > 0.0, vals, 0.0)


def fidelity_quadrature(w1, w2, scheme: quadrature.QuadratureScheme) -> float:
    """F = [integral sqrt(W1 W2)]^2 on the given scheme (4D, or 2D for sectors).

    Both states must be pointwise nonnegative; rounding-level dips (above
    -1e-12) are clamped to zero, anything lower raises
    WignerNegativityError naming the state and node.
    """

    def integrand(*coords):
        v1 = _checked_nonnegative(w1, coords, "first state")
        v2 = _checked_nonnegative(w2, coords, "second state")
        return np.sqrt(v1 * v2)

    amplitude = quadrature.integrate(integrand, scheme.dims, scheme)
    return amplitude * amplitude


def paper_form_point(omega, t, c0: PhasePoint) -> PhasePoint:
    """Center trajectory of the printed trapped-system fidelity family.

    Rotation at omega composed with unit-frequency oscillation carrying unit
    position/momentum weights (the omega0 = 1 family with the lam/kap ratio
    replaced by 1).
    """
    return _transport(_quadratic_map(omega, 1.0, 1.0, t), 0.0, c0)


def fidelity_ho_paper(omega, t, c0: PhasePoint):
    """Closed-form trapped-system fidelity (omega0 = 1 family):

    F = exp[S (cos(t) cos(omega t) - 1) + 2 J sin(t) sin(omega t)]

    with S = |c0|^2 and J = py0 x0 - px0 y0.  Equals the Gaussian closed
    form along paper_form_point exactly.
    """
    t = np.asarray(t, dtype=float)
    s_tot = c0.x ** 2 + c0.y ** 2 + c0.px ** 2 + c0.py ** 2
    j_tot = c0.py * c0.x - c0.px * c0.y
    with np.errstate(over="ignore"):   # callers check the cells are finite
        return _unwrap_scalar(np.exp(
            s_tot * (np.cos(t) * np.cos(omega * t) - 1.0)
            + 2.0 * j_tot * np.sin(t) * np.sin(omega * t)
        ))


@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity of an evolving Gaussian against its initial state."""

    times: np.ndarray
    closed: np.ndarray          # Gaussian closed form along the trajectory
    quad: np.ndarray            # quadrature value, same trajectory
    paper: np.ndarray | None    # printed trapped-system formula, if defined
    abs_diff: np.ndarray        # |closed - quad|


def fidelity_curve(params: SystemParams, c0: PhasePoint, times, order: int = 32,
                   form: str = "consistent") -> FidelityCurve:
    """Fidelity F(t) between the initial Gaussian at c0 and the evolved one.

    form="consistent" moves the center with the canonical flow of params;
    form="paper" (trapped system with omega0 = 1 only) uses the printed
    unit-weight rotation family.  The closed and quadrature routes are both
    evaluated at every time so their agreement is part of the output; the
    quadrature value is the product of the two order^2 sector overlaps.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if form not in ("consistent", "paper"):
        raise ValueError("form must be 'consistent' or 'paper'")
    is_ho_unit = params.kind is SystemKind.HO_FIELD and params.omega0 == 1.0
    if form == "paper" and not is_ho_unit:
        raise ValueError("the printed fidelity family assumes the trapped system with omega0 = 1")

    if form == "paper":
        ct = paper_form_point(params.omega, times, c0)
    else:
        ct = evolve(params, c0, times)
    # the closed and printed forms square the center coordinates: below 2^510, |c0|^2 is finite
    if not np.all(np.abs(c0.as_array()) < 2.0 ** 510):
        raise ValueError("initial point out of range: |c0|^2 overflows")
    closed = fidelity_gaussian_closed(c0, ct)
    sectors0 = GaussianWigner(c0).sectors()
    quad = np.ones_like(times)
    for i, center in enumerate(ct.as_array()):
        for (s0, _), (st, _) in zip(sectors0, GaussianWigner(PhasePoint(*center)).sectors()):
            quad[i] *= fidelity_quadrature(s0, st, default_fidelity_scheme(s0, st, order))
    # both states are unit Gaussians the rule integrates exactly: any excess over 1 is rounding
    quad = np.minimum(quad, 1.0)
    paper = fidelity_ho_paper(params.omega, times, c0) if is_ho_unit else None
    return FidelityCurve(times=times, closed=closed, quad=quad, paper=paper,
                         abs_diff=np.abs(closed - quad))


class EntropyConvention(enum.Enum):
    RAW_BOX = "raw"
    NORMALIZED_BOX = "normalized"


def _box_mass(state, scheme: quadrature.QuadratureScheme) -> float:
    """Integral of |W| over the scheme's box."""
    return quadrature.integrate(
        lambda *c: np.abs(np.asarray(state.value(*c), dtype=float)), scheme.dims, scheme
    )


def shannon_entropy(state, scheme: quadrature.QuadratureScheme,
                    convention: EntropyConvention = EntropyConvention.RAW_BOX) -> float:
    """S = -integral |W| ln |W| over the scheme's box.

    RAW_BOX uses the state as printed; NORMALIZED_BOX rescales |W| by its
    box mass first.  The integrand at |W| = 0 is taken as 0.  The state's
    .value arity must match the scheme dimension (4D states or 2D sectors).
    """
    if scheme.kind is not quadrature.SchemeKind.UNIFORM_BOX:
        raise ValueError("entropy uses a uniform box scheme")

    scale = 1.0
    if convention is EntropyConvention.NORMALIZED_BOX:
        mass = _box_mass(state, scheme)
        if not (mass > 0 and math.isfinite(mass)):
            raise ValueError("state has no mass on the box; cannot normalize")
        scale = 1.0 / mass

    def integrand(*coords):
        w = scale * np.abs(np.asarray(state.value(*coords), dtype=float))
        safe = np.where(w > 0.0, w, 1.0)
        return np.where(w > 0.0, -w * np.log(safe), 0.0)

    return quadrature.integrate(integrand, scheme.dims, scheme)


def _check_sector_precision(params: SystemParams) -> None:
    """The ground-state sectors are Gaussians with precisions r/hbar and
    1/(r hbar), r = lam/kappa, which must be positive and finite; so must
    their product 1/hbar^2, which the raw entropy's mass-times-entropy terms reach."""
    ratio = params.lam / params.kappa
    hbar = params.hbar
    if not (ratio > 0 and all(0.0 < s < math.inf for s in (ratio / hbar, 1.0 / ratio / hbar))
            and 1.0 / hbar / hbar < math.inf):
        raise ValueError("sector precisions lam/(kappa hbar), kappa/(lam hbar) and 1/hbar^2 "
                         "are out of range")


def entropy_vs_field(kind: SystemKind, b0_values, *, mass: float = 1.0, hbar: float = 1.0,
                     charge: float = 1.0, omega0: float = 1.0, box_half_width: float = 8.0,
                     nodes_per_axis: int = 101,
                     convention: EntropyConvention = EntropyConvention.RAW_BOX):
    """Ground-state entropy as a function of the field strength.

    The ground state is a product W_a W_b over two phase-space planes: the
    trap's (x, px) x (y, py), the Landau level's (x, py) x (y, px).  So on a
    product box the 4D entropy is M_b S_a + M_a S_b, with M the box mass of
    |W| of each sector (in the normalized convention both masses are 1).
    Returns a list of (b0, entropy) pairs.
    """
    L = float(box_half_width)
    rows = []
    for b0 in b0_values:
        b0 = float(b0)
        if kind is SystemKind.HO_FIELD:
            params = SystemParams(kind=kind, mass=mass, hbar=hbar, charge=charge,
                                  b0=b0, omega0=omega0)
            state = StationaryHOState(0, 0, params)
        elif kind is SystemKind.FREE_FIELD:
            params = SystemParams(kind=kind, mass=mass, hbar=hbar, charge=charge, b0=b0)
            state = LandauState(0, params)
        else:
            raise ValueError("entropy sweep is defined for the trapped and free systems")
        _check_sector_precision(params)
        box = quadrature.box_scheme((nodes_per_axis,) * 2, [(-L, L)] * 2)
        (wa, _), (wb, _) = state.sectors()
        sa = shannon_entropy(wa, box, convention)
        sb = shannon_entropy(wb, box, convention)
        ma, mb = ((_box_mass(wa, box), _box_mass(wb, box))
                  if convention is EntropyConvention.RAW_BOX else (1.0, 1.0))
        rows.append((b0, mb * sa + ma * sb))
    return rows
