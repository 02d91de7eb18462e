"""Closed-form Wigner phase-space toolkit for planar charged particles.

Four exactly solvable systems (trapped, free, and gravitational motion with
or without a transverse magnetic field), their stationary Wigner states, and
phase-space measures (fidelity, Shannon entropy) evaluated both in closed
form and by deterministic quadrature.
"""

from . import dynamics, measures, model, ncmap, quadrature, wigner
from .model import *
from .dynamics import *
from .quadrature import *
from .wigner import *
from .measures import *
from .ncmap import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *dynamics.__all__, *quadrature.__all__, *wigner.__all__,
           *measures.__all__, *ncmap.__all__]
