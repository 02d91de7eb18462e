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

from .specfun import _MAX_HERMITE_ORDER, gauss_hermite

__all__ = [
    "SchemeKind",
    "QuadratureScheme",
    "hermite_scheme",
    "box_scheme",
    "integrate",
    "NonFiniteIntegrandError",
]

# grids larger than this are evaluated one first-axis node at a time;
# the threshold depends only on the scheme, so chunking is deterministic
_CHUNK_LIMIT = 2 ** 22


class NonFiniteIntegrandError(RuntimeError):
    """Integrand returned NaN or inf at a quadrature node."""


class SchemeKind(enum.Enum):
    TENSOR_HERMITE = "tensor_hermite"
    UNIFORM_BOX = "uniform_box"


@dataclass(frozen=True)
class QuadratureScheme:
    """Tensor-product rule description.

    Hermite schemes need per-axis centers and scales (node x -> c + s x,
    weights absorb the Gaussian factor, so plain integrals are computed).
    Box schemes need per-axis (lo, hi) bounds and use midpoint nodes.
    """

    kind: SchemeKind
    orders: tuple
    centers: tuple | None = None
    scales: tuple | None = None
    bounds: tuple | None = None

    def __post_init__(self):
        if len(self.orders) == 0:
            raise ValueError("scheme needs at least one axis")
        if any(int(n) != n or n < 1 for n in self.orders):
            raise ValueError("orders must be positive integers")
        if self.kind is SchemeKind.TENSOR_HERMITE:
            if any(n > _MAX_HERMITE_ORDER for n in self.orders):
                raise ValueError(f"hermite orders above {_MAX_HERMITE_ORDER} are not supported")
            if self.bounds is not None:
                raise ValueError("hermite scheme takes centers/scales, not bounds")
            if self.centers is None or self.scales is None:
                raise ValueError("hermite scheme requires centers and scales")
            if len(self.centers) != len(self.orders) or len(self.scales) != len(self.orders):
                raise ValueError("centers/scales length must match orders")
            if any(not (s > 0 and math.isfinite(s)) for s in self.scales):
                raise ValueError("scales must be positive and finite")
        else:
            if self.centers is not None or self.scales is not None:
                raise ValueError("box scheme takes bounds, not centers/scales")
            if self.bounds is None or len(self.bounds) != len(self.orders):
                raise ValueError("box scheme requires one (lo, hi) pair per axis")
            if any(not (lo < hi) for lo, hi in self.bounds):
                raise ValueError("box bounds require lo < hi")

    @property
    def dims(self) -> int:
        return len(self.orders)


def hermite_scheme(orders: Sequence[int], centers: Sequence[float] | None = None,
                   scales: Sequence[float] | None = None) -> QuadratureScheme:
    """Gauss-Hermite tensor scheme; centers default to 0, scales to 1."""
    orders = tuple(int(n) for n in orders)
    if centers is None:
        centers = (0.0,) * len(orders)
    if scales is None:
        scales = (1.0,) * len(orders)
    return QuadratureScheme(
        kind=SchemeKind.TENSOR_HERMITE,
        orders=orders,
        centers=tuple(float(c) for c in centers),
        scales=tuple(float(s) for s in scales),
    )


def box_scheme(orders: Sequence[int], bounds: Sequence[tuple]) -> QuadratureScheme:
    """Uniform midpoint rule on a product of intervals."""
    return QuadratureScheme(
        kind=SchemeKind.UNIFORM_BOX,
        orders=tuple(int(n) for n in orders),
        bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
    )


def _axes(scheme: QuadratureScheme):
    """Per-axis (nodes, weights); Hermite weights absorb e^{+x^2}."""
    axes = []
    if scheme.kind is SchemeKind.TENSOR_HERMITE:
        for n, c, s in zip(scheme.orders, scheme.centers, scheme.scales):
            rule = gauss_hermite(n)
            nodes = c + s * rule.nodes
            # exp(log w + x^2) avoids 0 * inf at large orders
            weights = s * np.exp(np.log(rule.weights) + rule.nodes ** 2)
            axes.append((nodes, weights))
    else:
        for n, (lo, hi) in zip(scheme.orders, scheme.bounds):
            h = (hi - lo) / n
            nodes = lo + h * (np.arange(n) + 0.5)
            weights = np.full(n, h)
            axes.append((nodes, weights))
    return axes


def integrate(f: Callable, dims: int, scheme: QuadratureScheme) -> float:
    """Integrate f over dims variables with the given scheme.

    f is called with dims broadcastable coordinate arrays and must return the
    broadcast value array.  It is evaluated in chunks along the first axis:
    the whole axis at once, or one node per chunk on grids above
    _CHUNK_LIMIT, a layout fixed by the scheme.
    """
    if dims != scheme.dims:
        raise ValueError(f"scheme has {scheme.dims} axes, integrand expects {dims}")
    axes = _axes(scheme)
    (nodes0, weights0), rest = axes[0], axes[1:]
    size = math.prod(len(nodes) for nodes, _ in axes)
    step = len(nodes0) if size <= _CHUNK_LIMIT or not rest else 1
    total = 0.0
    for lo in range(0, len(nodes0), step):
        chunk = [(nodes0[lo:lo + step], weights0[lo:lo + step])] + rest
        grids = [nodes.reshape((1,) * i + (-1,) + (1,) * (dims - i - 1))
                 for i, (nodes, _) in enumerate(chunk)]
        vals = np.broadcast_to(np.asarray(f(*grids), dtype=float), tuple(g.size for g in grids))
        if not np.all(np.isfinite(vals)):
            idx = np.argwhere(~np.isfinite(vals))[0]
            node = tuple(float(nodes[i]) for (nodes, _), i in zip(chunk, idx))
            raise NonFiniteIntegrandError(f"integrand not finite at node {node}")
        for axis in range(dims - 1, -1, -1):
            vals = np.tensordot(vals, chunk[axis][1], axes=([axis], [0]))
        total += float(vals)
    return total
