"""Generate the mpmath reference values that `tests/test_specfun.py` checks against.

    python3 tools/mpmath_reference.py > tests/mpmath_reference.json

writes, evaluated by mpmath at 30 digits and rounded to the nearest double:

- the Airy zeros a_n for n = 1..200, 60 seeded indices in 201..10^4, and
  n = 10^4 (`mpmath.airyaizero`);
- the nodes and weights of the Gauss-Hermite rules of `HERMITE_ORDERS`
  (`mpmath.gauss_quadrature`, Golub-Welsch at 30 digits).

It takes about 17 s, most of it in the order-256 rule.  The Tier-1 suite
reads the checked-in file, and recomputes a seeded sample of each table live
with `airy_zero_entry` and `hermite_entry`: the sample must equal the file.
"""

from __future__ import annotations

import json
import sys

import numpy as np

HERMITE_ORDERS = (2, 12, 32, 64, 128, 256)


def zero_indices() -> list[int]:
    """1..200, 60 indices drawn from 201..10^4 with seed 2718 (sorted), and 10^4."""
    rng = np.random.default_rng(2718)
    sample = np.sort(rng.choice(np.arange(201, 10001), 60, replace=False))
    return list(range(1, 201)) + [int(n) for n in sample] + [10000]


def airy_zero_entry(n: int) -> float:
    """a_n, the n-th zero of Ai, as a double."""
    from mpmath import mp

    with mp.workdps(30):
        return float(mp.airyaizero(n))


def hermite_entry(n: int, start: float) -> tuple[float, float]:
    """(node, weight) of the n-point Gauss-Hermite rule at the root of H_n
    nearest to start, by three Newton steps on H_n at 30 digits and the
    Christoffel weight 2^(n-1) n! sqrt(pi) / (n H_(n-1)(x))^2.  This route
    is independent of the eigenvalue route that `table()` takes."""
    from mpmath import mp

    with mp.workdps(30):
        x = mp.mpf(start)
        for _ in range(3):
            x -= mp.hermite(n, x) / (2 * n * mp.hermite(n - 1, x))
        h = mp.hermite(n - 1, x)
        w = mp.power(2, n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / (n * h) ** 2
        return float(x), float(w)


def table() -> dict:
    """The reference values, keyed as in `tests/mpmath_reference.json`."""
    from mpmath import mp

    ns = zero_indices()
    rules = {}
    with mp.workdps(30):
        for n in HERMITE_ORDERS:
            nodes, weights = mp.gauss_quadrature(n, "hermite")
            rules[str(n)] = {"nodes": [float(v) for v in nodes],
                             "weights": [float(v) for v in weights]}
    return {"airy_zeros": {"n": ns, "a_n": [airy_zero_entry(n) for n in ns]},
            "gauss_hermite": rules}


def main() -> None:
    json.dump(table(), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
