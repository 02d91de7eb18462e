"""Noncommutative-parameter maps onto effective commutative systems.

Position-position (theta) and momentum-momentum (eta) deformations map each
planar system onto the ordinary one with an effective field strength; the
remaining freedom (mu, nu) enters through the auxiliary parameter s and, for
the gravitational system, an affine reshaping of the x coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import PhasePoint, SystemParams

__all__ = [
    "NCParams",
    "effective_b0_ho",
    "effective_b0_free",
    "CoordinateShift",
    "gqw_nc_map",
    "auxiliary_s",
    "sigma_invertible",
]


@dataclass(frozen=True)
class NCParams:
    """Deformation parameters (theta, eta) and scaling pair (mu, nu)."""

    theta: float = 0.0
    eta: float = 0.0
    mu: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        for name in ("theta", "eta", "mu", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.theta < 0 or self.eta < 0:
            raise ValueError("theta and eta must be nonnegative")
        if not (self.mu > 0 and self.nu > 0):
            raise ValueError("mu and nu must be positive")


def _ratio(numerator: Fraction, *factors: float) -> float:
    """numerator / prod(factors) of exact rationals, rounded once to a float,
    so no product of the floats under- or overflows on the way."""
    try:
        return float(numerator / math.prod(map(Fraction, factors)))
    except OverflowError:
        raise ValueError("noncommutative map value overflows a float") from None


def effective_b0_ho(nc: NCParams, params: SystemParams) -> float:
    """Effective field of the deformed trapped system:
    B_eff = m^2 omega0^2 theta / (q hbar) + eta / (q hbar)."""
    if params.charge == 0:
        raise ValueError("effective field requires a nonzero charge")
    if not params.omega0 > 0:
        raise ValueError("trapped-system map requires omega0 > 0")
    trap = Fraction(params.mass) * Fraction(params.omega0)
    return _ratio(trap * trap * Fraction(nc.theta) + Fraction(nc.eta), params.charge, params.hbar)


def effective_b0_free(nc: NCParams, params: SystemParams) -> float:
    """Effective field of the deformed free (or gravitational) system:
    B_eff = eta / (q hbar); theta drops out of the field strength."""
    if params.charge == 0:
        raise ValueError("effective field requires a nonzero charge")
    return _ratio(Fraction(nc.eta), params.charge, params.hbar)


@dataclass(frozen=True)
class CoordinateShift:
    """Affine x reshaping x -> scale_x * x + shear_x_from_py * py."""

    scale_x: float
    shear_x_from_py: float

    def apply(self, point: PhasePoint) -> PhasePoint:
        return PhasePoint(
            self.scale_x * point.x + self.shear_x_from_py * point.py,
            point.y,
            point.px,
            point.py,
        )


def gqw_nc_map(nc: NCParams, params: SystemParams) -> tuple[float, CoordinateShift]:
    """Map of the deformed gravitational system: effective field
    eta/(q hbar) plus the x reshaping x -> nu x - theta/(2 nu hbar) py."""
    b_eff = effective_b0_free(nc, params)
    shear = -_ratio(Fraction(nc.theta), 2.0, nc.nu, params.hbar)
    return b_eff, CoordinateShift(scale_x=nc.nu, shear_x_from_py=shear)


def auxiliary_s(mu: float, nu: float) -> float:
    """s = 1/(mu nu) - 1; s -> 0 is the identity scaling, s -> 1 recovers
    the undeformed free system."""
    if not (mu > 0 and nu > 0):
        raise ValueError("mu and nu must be positive")
    prod = mu * nu
    if not (0 < prod and 1.0 / prod < math.inf):
        raise ValueError(f"1/(mu nu) is out of float range for mu={mu!r}, nu={nu!r}")
    return 1.0 / prod - 1.0


def sigma_invertible(nc: NCParams, hbar: float) -> bool:
    """Whether the deformation matrix is invertible: theta * eta != hbar^2.

    Exact comparison of the rationals, where no product underflows; callers
    worried about near-singular parameter choices should test the margin.
    """
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    return Fraction(nc.theta) * Fraction(nc.eta) != Fraction(hbar) ** 2
