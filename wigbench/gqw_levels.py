"""Public-API job of the gravity-tables workload.

    python3 gqw_levels.py --gravity G --levels 2,5 --xi 0.3,1.1

Builds wigsim.GQWState for each level and evaluates wigsim.stargen_residual
at each xi given as a fraction of the level energy.  Prints one CSV row per
(level, xi): n_y, xi, energy, norm, residual.  Names are looked up on the
wigsim package at call time, so a traced run sees every call.
"""

from __future__ import annotations

import argparse
import sys

import wigsim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gqw_levels")
    parser.add_argument("--gravity", type=float, required=True)
    parser.add_argument("--levels", required=True)
    parser.add_argument("--xi", required=True, help="xi values as fractions of the energy")
    ns = parser.parse_args(argv)
    params = wigsim.SystemParams(kind=wigsim.SystemKind.GQW_BALLISTIC, g=ns.gravity)
    lines = ["n_y,xi,energy,norm,residual"]
    for n_y in (int(v) for v in ns.levels.split(",")):
        state = wigsim.GQWState(n_y, params)
        for frac in (float(v) for v in ns.xi.split(",")):
            xi = frac * state.energy
            residual = wigsim.stargen_residual(state, xi)
            lines.append(f"{n_y},{xi:.12g},{state.energy:.12g},{state.norm:.12g},{residual:.12g}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
