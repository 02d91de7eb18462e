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
# evolve stays importable from here: wigbench/spans.py wraps it as measures.evolve
from .dynamics import _displacement, evolve
from .model import NumericalError, PhasePoint, SystemKind, SystemParams
from .specfun import gauss_hermite
from .wigner import LandauState, StationaryHOState

__all__ = [
    "fidelity_quadrature",
    "FidelityCurve",
    "fidelity_curve",
    "EntropyConvention",
    "shannon_entropy",
    "entropy_vs_field",
]

# dips below this are treated as real negativity, not rounding
_NEGATIVITY_FLOOR = -1e-12


def _checked_nonnegative(state, coords, label: str) -> np.ndarray:
    vals = np.asarray(state.value(*coords), dtype=float)
    if np.min(vals) < _NEGATIVITY_FLOOR:
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        grids = [np.broadcast_to(np.asarray(c, dtype=float), vals.shape) for c in coords]
        node = tuple(float(g[idx]) for g in grids)
        raise NumericalError(
            f"{label} ({type(state).__name__}) is negative at node {node}: {vals[idx]:.3e}"
        )
    return np.where(vals > 0.0, vals, 0.0)


def fidelity_quadrature(w1, w2, scheme: quadrature.QuadratureScheme) -> float:
    """F = [integral sqrt(W1 W2)]^2 on the given scheme (4D, or 2D for sectors).

    Both states must be pointwise nonnegative; rounding-level dips (above
    -1e-12) are clamped to zero, anything lower raises NumericalError
    naming the state and node.
    """

    def integrand(*coords):
        v1 = _checked_nonnegative(w1, coords, "first state")
        v2 = _checked_nonnegative(w2, coords, "second state")
        return np.sqrt(v1 * v2)

    amplitude = quadrature.integrate(integrand, scheme.dims, scheme)
    return amplitude * amplitude


@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity of an evolving Gaussian against its initial state."""

    times: np.ndarray
    closed: np.ndarray          # Gaussian closed form along the trajectory
    # sqrt(W_0 W_t) on W_0's own order-n Hermite rule; worst |quad - closed| on
    # the benchmark's curves: 1.3e-7 at n = 10, 5.3e-9 at 12, 8.5e-12 at 16, 3.4e-15 at 32
    quad: np.ndarray
    paper: np.ndarray | None    # the printed omega0 = 1 family, on that trap only
    abs_diff: np.ndarray        # |closed - quad|


def fidelity_curve(params: SystemParams, c0: PhasePoint, times, order: int = 32,
                   form: str = "consistent") -> FidelityCurve:
    """Fidelity F(t) between the initial Gaussian at c0 and the evolved one.

    form="consistent" moves the center with the canonical flow of params;
    form="paper" (trapped system with omega0 = 1 only) uses the printed
    unit-weight rotation family, whose exp(-|d_p|^2/2) is the paper column on
    that system in either form.  The family holds big_omega at 1: it is the trap at
    omega0' = sqrt(1 - omega^2), and for omega >= 1 (b0 >= 2 at m = q = 1) no real
    trap matches it.  Closed and quadrature routes are both evaluated
    at every time so their agreement is part of the output: the quadrature value
    integrates sqrt(W_0 W_t) on W_0's own unit Gauss-Hermite rule of the given
    order (1 to 256), fixed before t is known, so it carries the rule's true
    error.  Over curves shaped like the benchmark's, the worst |quad - closed| is
    1.3e-7 at order 10, 5.3e-9 at 12, 8.5e-12 at 16 and 3.4e-15 at 32.
    """
    rule = gauss_hermite(order)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if form not in ("consistent", "paper"):
        raise ValueError("form must be 'consistent' or 'paper'")
    is_ho_unit = params.kind is SystemKind.HO_FIELD and params.omega0 == 1.0
    if form == "paper" and not is_ho_unit:
        raise ValueError("the printed fidelity family assumes the trapped system with omega0 = 1")
    # below 2^510 per coordinate, |c0|^2 is finite; checked before any flow
    z0 = c0.as_array()
    if not np.all(np.abs(z0) < 2.0 ** 510):
        raise ValueError("initial point must be finite, with each coordinate below 2^510 "
                         "so that |c0|^2 does not overflow")

    # on the omega0 = 1 trap the printed family, unit weights at big_omega = 1, is stacked
    # after the system and shares its field rotation
    big_omega, mass = ((np.array([[params.big_omega], [1.0]]), np.array([[params.mass], [1.0]]))
                       if is_ho_unit else (params.big_omega, params.mass))
    d = _displacement(params.omega, big_omega, mass, params.g, times, z0)
    if not np.isfinite(d).all():
        raise NumericalError("evolved center is not finite: the flow overflows")
    f = np.exp(-0.5 * np.sum(d * d, axis=-1))
    if is_ho_unit:
        f0, paper = f
        d, closed = (d[1], paper) if form == "paper" else (d[0], f0)
    else:
        closed, paper = f, None
    # sqrt(W_0 W_t) on W_0's unit rule, relative to c0: per axis k,
    # s_k = sum_i w_i exp(x_i^2/2 - (d_k - x_i)^2/2) / sqrt(pi), summed over the
    # nodes for all taus at once; this form of the exponent stays finite at any finite d
    s = sum(w * np.exp(0.5 * x * x - 0.5 * (d - x) ** 2) for x, w in zip(rule.nodes, rule.weights))
    # any excess over 1 is rounding
    quad = np.minimum(np.prod(s / math.sqrt(math.pi), axis=-1) ** 2, 1.0)
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


def entropy_vs_field(params_list, *, box_half_width: float = 8.0, nodes_per_axis: int = 101,
                     convention: EntropyConvention = EntropyConvention.RAW_BOX) -> list:
    """Ground-state entropy of each trapped or free system in params_list.

    The ground state is a product W_a W_b over two phase-space planes: the
    trap's (x, px) x (y, py), the Landau level's (x, py) x (y, px).  So on a
    product box the 4D entropy is M_b S_a + M_a S_b, with M the box mass of
    |W| of each sector (in the normalized convention both masses are 1).
    Returns one entropy per params, in order.
    """
    values = []
    for params in params_list:
        if params.kind is SystemKind.HO_FIELD:
            state = StationaryHOState(0, 0, params)
        elif params.kind is SystemKind.FREE_FIELD:
            state = LandauState(0, params)
        else:
            raise ValueError("entropy sweep is defined for the trapped and free systems")
        (wa, _), (wb, _) = state.sectors()
        box = quadrature.box_scheme((nodes_per_axis,) * 2, [(-box_half_width, box_half_width)] * 2)
        sa = shannon_entropy(wa, box, convention)
        sb = shannon_entropy(wb, box, convention)
        ma, mb = ((_box_mass(wa, box), _box_mass(wb, box))
                  if convention is EntropyConvention.RAW_BOX else (1.0, 1.0))
        values.append(mb * sa + ma * sb)
    return values
