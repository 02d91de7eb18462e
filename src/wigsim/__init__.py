"""Closed-form Wigner phase-space toolkit for planar charged particles.

Four exactly solvable systems (trapped, free, and gravitational motion with
or without a transverse magnetic field), their stationary Wigner states, and
phase-space measures (fidelity, Shannon entropy) evaluated both in closed
form and by deterministic quadrature.
"""

from .model import (
    PhasePoint,
    SystemKind,
    SystemParams,
    TimeGrid,
    hamiltonian_value,
)
from .dynamics import (
    TrajectorySolution,
    canonical_rhs,
    evolve,
    evolve_free,
    evolve_gqw_ballistic,
    evolve_gqw_field,
    evolve_ho,
    flow_jacobian,
    flow_map,
    ode_residual,
)
from .quadrature import (
    NonFiniteIntegrandError,
    QuadratureScheme,
    SchemeKind,
    box_scheme,
    hermite_scheme,
    integrate,
)
from .wigner import (
    GaussianWigner,
    GQWState,
    LandauState,
    StationaryHOState,
    TruncationError,
    gqw_energy,
    ho_energy,
    landau_energy,
    normalize_gqw,
    stargen_residual,
)
from .measures import (
    EntropyConvention,
    EntropyResult,
    FidelityCurve,
    WignerNegativityError,
    default_fidelity_scheme,
    entropy_vs_field,
    fidelity_curve,
    fidelity_gaussian_closed,
    fidelity_ho_paper,
    fidelity_quadrature,
    paper_form_point,
    shannon_entropy,
)
from .ncmap import (
    CoordinateShift,
    NCParams,
    auxiliary_s,
    effective_b0_free,
    effective_b0_ho,
    gqw_nc_map,
    sigma_invertible,
)

__version__ = "0.1.0"

__all__ = [
    "PhasePoint",
    "SystemKind",
    "SystemParams",
    "TimeGrid",
    "hamiltonian_value",
    "TrajectorySolution",
    "canonical_rhs",
    "evolve",
    "evolve_free",
    "evolve_gqw_ballistic",
    "evolve_gqw_field",
    "evolve_ho",
    "flow_jacobian",
    "flow_map",
    "ode_residual",
    "NonFiniteIntegrandError",
    "QuadratureScheme",
    "SchemeKind",
    "box_scheme",
    "hermite_scheme",
    "integrate",
    "GaussianWigner",
    "GQWState",
    "LandauState",
    "StationaryHOState",
    "TruncationError",
    "gqw_energy",
    "ho_energy",
    "landau_energy",
    "normalize_gqw",
    "stargen_residual",
    "EntropyConvention",
    "EntropyResult",
    "FidelityCurve",
    "WignerNegativityError",
    "default_fidelity_scheme",
    "entropy_vs_field",
    "fidelity_curve",
    "fidelity_gaussian_closed",
    "fidelity_ho_paper",
    "fidelity_quadrature",
    "paper_form_point",
    "shannon_entropy",
    "CoordinateShift",
    "NCParams",
    "auxiliary_s",
    "effective_b0_free",
    "effective_b0_ho",
    "gqw_nc_map",
    "sigma_invertible",
]
