"""Parameters, phase points, and derived frequencies for the planar systems.

All systems live in a four dimensional phase space (x, y, px, py) and share
the quadratic Hamiltonian

    H = lam^2 (x^2 + y^2) + kap^2 (px^2 + py^2) + omega (px y - py x) + m g y

with omega = q B0 / (2 m), lam^2 = m (omega^2 + omega0^2) / 2 and
kap^2 = 1 / (2 m).  The cross term uses the antisymmetric pairing with
eps_12 = +1, i.e. omega (px y - py x) = -omega L_z.  Natural units
(m = hbar = q = 1) are the defaults throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .specfun import _unwrap_scalar

__all__ = [
    "SystemKind",
    "PhasePoint",
    "TimeGrid",
    "SystemParams",
    "hamiltonian_value",
]


class SystemKind(enum.Enum):
    """The four closed-form systems."""

    HO_FIELD = "ho_field"
    FREE_FIELD = "free_field"
    GQW_BALLISTIC = "gqw_ballistic"
    GQW_FIELD = "gqw_field"


class PhasePoint(NamedTuple):
    """A point (x, y, px, py) in phase space.

    Components may be scalars or equally shaped arrays, so one PhasePoint can
    hold a whole trajectory sampled on a time grid.
    """

    x: float
    y: float
    px: float
    py: float

    def as_array(self) -> np.ndarray:
        """Components stacked along the last axis (shape (..., 4))."""
        parts = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in self))
        return np.stack(parts, axis=-1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of the evolution parameter tau."""

    start: float
    end: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("time grid start and end must be finite")
        if not self.end > self.start:
            raise ValueError("time grid requires end > start")
        if self.steps < 2:
            raise ValueError("time grid requires at least 2 samples")

    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps)


@dataclass(frozen=True)
class SystemParams:
    """Immutable physical parameters of one system.

    The rotation frequency omega = q B0 / (2 m) is taken nonnegative, so the
    product q * b0 must not be negative; flipping the field direction is not
    modeled separately.  Kind-specific constraints keep the parameters
    consistent with the corresponding closed-form flow: the free particle has
    no trap and no gravity, the gravitational systems have no trap, the
    trapped system has no gravity, and the ballistic system has no field.
    """

    kind: SystemKind
    mass: float = 1.0
    hbar: float = 1.0
    charge: float = 1.0
    b0: float = 0.0
    omega0: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("mass must be positive and finite")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")
        if not math.isfinite(self.charge):
            raise ValueError("charge must be finite")
        if not (self.b0 >= 0 and math.isfinite(self.b0)):
            raise ValueError("b0 must be nonnegative and finite")
        if not (self.omega0 >= 0 and math.isfinite(self.omega0)):
            raise ValueError("omega0 must be nonnegative and finite")
        if not (self.g >= 0 and math.isfinite(self.g)):
            raise ValueError("g must be nonnegative and finite")
        if self.charge * self.b0 < 0:
            raise ValueError("q * b0 must be nonnegative (omega >= 0 convention)")
        kind = self.kind
        if kind is SystemKind.HO_FIELD and self.g != 0:
            raise ValueError("trapped system carries no gravity (g must be 0)")
        if kind is SystemKind.FREE_FIELD and (self.omega0 != 0 or self.g != 0):
            raise ValueError("free system requires omega0 = 0 and g = 0")
        if kind in (SystemKind.GQW_BALLISTIC, SystemKind.GQW_FIELD) and self.omega0 != 0:
            raise ValueError("gravitational systems have no trap (omega0 must be 0)")
        if kind is SystemKind.GQW_BALLISTIC and self.b0 != 0:
            raise ValueError("ballistic gravitational system has no field (b0 must be 0)")
        try:
            derived = (self.omega, self.lam, self.kappa, self.big_omega)
        except OverflowError:
            derived = (math.inf,)
        if not all(math.isfinite(v) for v in derived):
            raise ValueError("derived frequencies omega, lam, kappa, big_omega overflow; "
                             "the parameters are out of range")

    @property
    def omega(self) -> float:
        return self.charge * self.b0 / (2.0 * self.mass)

    @property
    def lam(self) -> float:
        return math.sqrt(self.mass * (self.omega ** 2 + self.omega0 ** 2) / 2.0)

    @property
    def kappa(self) -> float:
        return math.sqrt(1.0 / (2.0 * self.mass))

    @property
    def big_omega(self) -> float:
        return 2.0 * self.lam * self.kappa


def hamiltonian_value(params: SystemParams, point: PhasePoint):
    """Evaluate the quadratic Hamiltonian at a phase point.

    Accepts array-valued components and broadcasts.
    """
    x = np.asarray(point.x, dtype=float)
    y = np.asarray(point.y, dtype=float)
    px = np.asarray(point.px, dtype=float)
    py = np.asarray(point.py, dtype=float)
    lam2 = params.lam ** 2
    kap2 = params.kappa ** 2
    val = (
        lam2 * (x * x + y * y)
        + kap2 * (px * px + py * py)
        + params.omega * (px * y - py * x)
        + params.mass * params.g * y
    )
    return _unwrap_scalar(val)
