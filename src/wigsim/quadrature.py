"""Deterministic tensor-product quadrature over phase space.

Two schemes: Gauss-Hermite with affine node maps (for Gaussian-weighted
integrands over the whole space) and uniform midpoint boxes (for entropy
integrals and truncated-domain states).  Evaluation order is fixed by the
scheme alone, so repeated runs are bit-identical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import NumericalError
from .specfun import _MAX_HERMITE_ORDER, _checked_index, gauss_hermite

__all__ = [
    "SchemeKind",
    "QuadratureScheme",
    "hermite_scheme",
    "box_scheme",
    "integrate",
]

# most nodes in one grid, which integrate evaluates as one block
_NODE_LIMIT = 2 ** 22


class SchemeKind(enum.Enum):
    TENSOR_HERMITE = "tensor_hermite"
    UNIFORM_BOX = "uniform_box"


@dataclass(frozen=True)
class QuadratureScheme:
    """Tensor-product rule description: one (a, b) pair per axis.

    Hermite pairs are (center, scale): node x -> c + s x, and the weights
    absorb the Gaussian factor, so plain integrals are computed.  Box pairs
    are (lo, hi) bounds, with midpoint nodes.
    """

    kind: SchemeKind
    orders: tuple
    pairs: tuple

    def __post_init__(self):
        if len(self.orders) == 0:
            raise ValueError("scheme needs at least one axis")
        for n in self.orders:
            _checked_index(n, 1, "orders must be positive integers")
        if len(self.pairs) != len(self.orders):
            raise ValueError("scheme needs one (a, b) pair per axis")
        if self.kind is SchemeKind.TENSOR_HERMITE:
            if any(n > _MAX_HERMITE_ORDER for n in self.orders):
                raise ValueError(f"hermite orders above {_MAX_HERMITE_ORDER} are not supported")
            if any(not (s > 0 and math.isfinite(s)) for _, s in self.pairs):
                raise ValueError("scales must be positive and finite")
            if not all(math.isfinite(c) for c, _ in self.pairs):
                raise ValueError("centers must be finite")
        # a finite width hi - lo also rules out infinite bounds
        elif any(not (lo < hi and math.isfinite(hi - lo)) for lo, hi in self.pairs):
            raise ValueError("box bounds require lo < hi with a finite width hi - lo")

    @property
    def dims(self) -> int:
        return len(self.orders)


def hermite_scheme(orders: Sequence[int], centers: Sequence[float] | None = None,
                   scales: Sequence[float] | None = None) -> QuadratureScheme:
    """Gauss-Hermite tensor scheme; centers default to 0, scales to 1."""
    orders = tuple(orders)
    centers = (0.0,) * len(orders) if centers is None else centers
    scales = (1.0,) * len(orders) if scales is None else scales
    if len(centers) != len(orders) or len(scales) != len(orders):
        raise ValueError("centers/scales length must match orders")
    return QuadratureScheme(SchemeKind.TENSOR_HERMITE, orders,
                            tuple((float(c), float(s)) for c, s in zip(centers, scales)))


def box_scheme(orders: Sequence[int], bounds: Sequence[tuple]) -> QuadratureScheme:
    """Uniform midpoint rule on a product of intervals."""
    return QuadratureScheme(SchemeKind.UNIFORM_BOX, tuple(orders),
                            tuple((float(lo), float(hi)) for lo, hi in bounds))


def _axes(scheme: QuadratureScheme):
    """Per-axis (nodes, weights); Hermite weights absorb e^{+x^2}."""
    axes = []
    for n, (a, b) in zip(scheme.orders, scheme.pairs):
        if scheme.kind is SchemeKind.TENSOR_HERMITE:
            rule = gauss_hermite(n)
            nodes = a + b * rule.nodes
            # exp(log w + x^2) avoids 0 * inf at large orders
            weights = b * np.exp(np.log(rule.weights) + rule.nodes ** 2)
        else:
            h = (b - a) / n
            nodes = a + h * (np.arange(n) + 0.5)
            weights = np.full(n, h)
        axes.append((nodes, weights))
    return axes


def integrate(f: Callable, dims: int, scheme: QuadratureScheme) -> float:
    """Integrate f over dims variables with the given scheme.

    f is called once, with dims coordinate arrays that broadcast to the whole
    grid, and must return the value array on it; the values are contracted
    with each axis's weights, last axis first.  Raises ValueError, before
    building any node, when the grid has more than _NODE_LIMIT nodes.
    """
    if dims != scheme.dims:
        raise ValueError(f"scheme has {scheme.dims} axes, integrand expects {dims}")
    size = math.prod(scheme.orders)
    if size > _NODE_LIMIT:
        raise ValueError(f"the scheme's grid has {size} nodes; at most {_NODE_LIMIT} allowed")
    axes = _axes(scheme)
    grids = np.ix_(*(nodes for nodes, _ in axes))
    vals = np.broadcast_to(np.asarray(f(*grids), dtype=float), scheme.orders)
    if not np.all(np.isfinite(vals)):
        idx = np.argwhere(~np.isfinite(vals))[0]
        node = tuple(float(nodes[i]) for (nodes, _), i in zip(axes, idx))
        raise NumericalError(f"integrand not finite at node {node}")
    for axis in range(dims - 1, -1, -1):
        vals = np.tensordot(vals, axes[axis][1], axes=([axis], [0]))
    total = float(vals)
    if not math.isfinite(total):
        raise NumericalError(f"weighted sum of the integrand not finite: {total}")
    return total
