"""Generate the Ai/Ai' node table that `wigsim.specfun` re-expands by Taylor series.

    python3 tools/airy_table.py

prints Ai(x) and Ai'(x) at x = -8, -7.75, ..., 10, evaluated by mpmath at 30
digits and rounded to the nearest double, as the whitespace-separated float
literals of `specfun._AIRY_TABLE` (Ai, Ai' pairs, four numbers a line).  The
Tier-1 suite compares the checked-in table with `table()` exactly.
"""

from __future__ import annotations

X_LO, X_HI, STEP = -8.0, 10.0, 0.25


def table() -> list[float]:
    """[Ai(x_0), Ai'(x_0), Ai(x_1), Ai'(x_1), ...] at the table nodes, as doubles."""
    import mpmath

    out = []
    with mpmath.workdps(30):
        for i in range(int((X_HI - X_LO) / STEP) + 1):
            x = mpmath.mpf(X_LO + STEP * i)
            out += [float(mpmath.airyai(x)), float(mpmath.airyai(x, derivative=1))]
    return out


def main() -> None:
    values = [repr(v) for v in table()]
    for i in range(0, len(values), 4):
        print(" ".join(values[i:i + 4]))


if __name__ == "__main__":
    main()
