"""Command-line front end: parameter sweeps emitting plot-ready CSV/JSON.

Subcommands: fidelity, entropy, trajectory, spectrum, ncmap.  Config
precedence is flags > config file > defaults; every output embeds the fully
resolved configuration as header metadata.  Identical configs produce
byte-identical output.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, measures, quadrature, wigner
from .model import PhasePoint, SystemKind, SystemParams, TimeGrid
from .dynamics import TrajectorySolution, evolve
from .ncmap import (
    NCParams,
    auxiliary_s,
    effective_b0_free,
    effective_b0_ho,
    gqw_nc_map,
    sigma_invertible,
)

__all__ = ["main", "build_parser"]

_EPS_NOTE = "eps12=+1; cross term omega*(px*y - py*x)"
_DEFAULT_B0 = "0, 0.1, 0.5, 1"
_ENTROPY_B0 = "0.1, 0.25, 0.5, 0.75, 1"
_T_END_DEFAULT = 4.0 * math.pi


class ConfigError(Exception):
    """Malformed config input (unknown key, bad syntax, unreadable file)."""


def _float_list(text: str):
    items = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            items.append(float(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}")
    if not items:
        raise argparse.ArgumentTypeError("list must be non-empty")
    return items


def _add_output_flags(p):
    p.add_argument("--config", metavar="PATH",
                   help="flat 'key = value' config file; flags override it")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", metavar="PATH", help="output file, '-' for stdout")


def _add_physics_flags(p):
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--charge", type=float, default=1.0)
    p.add_argument("--omega0", type=float, default=None,
                   help="trap frequency (default: 1 for ho, 0 otherwise)")
    p.add_argument("--gravity", type=float, default=None,
                   help="gravitational acceleration (default: 2 for gqw systems, 0 otherwise)")


def _add_initial_flags(p):
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--y0", type=float, default=1.0)
    p.add_argument("--px0", type=float, default=1.0)
    p.add_argument("--py0", type=float, default=1.0)


def _add_time_flags(p):
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=_T_END_DEFAULT)
    p.add_argument("--t-steps", type=int, default=50)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigsim",
        description="Closed-form Wigner phase-space sweeps (fidelity, entropy, "
                    "trajectories, spectra, noncommutative maps).",
    )
    parser.add_argument("--version", action="version", version=f"wigsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="Gaussian fidelity F(tau) per field value")
    p.add_argument("--system", choices=("ho", "free", "gqw", "gqw-b"), default="ho")
    p.add_argument("--b0", type=_float_list, default=None, metavar="LIST",
                   help=f"comma-separated field strengths (default: {_DEFAULT_B0})")
    _add_physics_flags(p)
    _add_initial_flags(p)
    _add_time_flags(p)
    p.add_argument("--quad-order", type=int, default=32,
                   help="Gauss-Hermite order per axis for the quadrature column")
    p.add_argument("--fidelity-form", choices=("consistent", "paper"), default="consistent",
                   help="trajectory family: canonical flow, or the printed "
                        "unit-weight rotation family (ho only)")
    _add_output_flags(p)

    p = sub.add_parser("trajectory", help="closed-form phase-space trajectory samples")
    p.add_argument("--system", choices=("ho", "free", "gqw", "gqw-b"), default="ho")
    p.add_argument("--b0", type=_float_list, default=None, metavar="LIST")
    _add_physics_flags(p)
    _add_initial_flags(p)
    _add_time_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("entropy", help="ground-state box entropy vs field strength")
    p.add_argument("--system", choices=("ho", "free", "both"), default="both")
    p.add_argument("--b0", type=_float_list, default=None, metavar="LIST",
                   help=f"field strengths (default: {_ENTROPY_B0}; 0 is invalid for free)")
    _add_physics_flags(p)
    p.add_argument("--quad-order", type=int, default=101,
                   help="box nodes per axis (midpoint rule)")
    p.add_argument("--box-half-width", type=float, default=8.0)
    p.add_argument("--entropy-convention", choices=("raw", "normalized"), default="raw")
    _add_output_flags(p)

    p = sub.add_parser("spectrum", help="energy level tables")
    p.add_argument("--system", choices=("ho", "free", "gqw", "gqw-b"), default="ho")
    p.add_argument("--b0", type=_float_list, default=None, metavar="LIST",
                   help="field strengths (ho/free tables; unused for gqw)")
    _add_physics_flags(p)
    p.add_argument("--n-max", type=int, default=5, help="largest quantum number")
    _add_output_flags(p)

    p = sub.add_parser("ncmap", help="noncommutative parameters to effective field")
    p.add_argument("--system", choices=("ho", "free", "gqw"), default="ho",
                   help="which system's map to apply")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=1.0)
    _add_physics_flags(p)
    _add_initial_flags(p)
    _add_output_flags(p)

    return parser


# config-file keys allowed per subcommand (same names as the long flags)
_COMMON_KEYS = {"format", "out", "mass", "hbar", "charge", "omega0", "gravity"}
_CONFIG_KEYS = {
    "fidelity": _COMMON_KEYS | {"system", "b0", "x0", "y0", "px0", "py0", "t-start",
                                "t-end", "t-steps", "quad-order", "fidelity-form"},
    "trajectory": _COMMON_KEYS | {"system", "b0", "x0", "y0", "px0", "py0", "t-start",
                                  "t-end", "t-steps"},
    "entropy": _COMMON_KEYS | {"system", "b0", "quad-order", "box-half-width",
                               "entropy-convention"},
    "spectrum": _COMMON_KEYS | {"system", "b0", "n-max"},
    "ncmap": _COMMON_KEYS | {"system", "theta", "eta", "mu", "nu",
                             "x0", "y0", "px0", "py0"},
}


def _config_tokens(path: str, command: str):
    allowed = _CONFIG_KEYS.get(command)
    if allowed is None:
        raise ConfigError(f"unknown subcommand {command!r}")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        tokens.extend([f"--{key}", value])
    return tokens


def _inject_config(argv):
    """Expand --config into flag tokens placed before explicit flags, so the
    command line always wins."""
    sub_index = None
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            sub_index = i
            break
    if sub_index is None:
        return argv
    rest = argv[sub_index + 1:]
    path = None
    for j, tok in enumerate(rest):
        if tok == "--config" and j + 1 < len(rest):
            path = rest[j + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    tokens = _config_tokens(path, argv[sub_index])
    return argv[:sub_index + 1] + tokens + rest


def _resolve_omega0(ns, system: str) -> float:
    if ns.omega0 is not None:
        return ns.omega0
    return 1.0 if system == "ho" else 0.0


def _resolve_gravity(ns, system: str) -> float:
    if ns.gravity is not None:
        return ns.gravity
    return 2.0 if system in ("gqw", "gqw-b") else 0.0


def _make_params(system: str, b0: float, ns) -> SystemParams:
    omega0 = _resolve_omega0(ns, system)
    g = _resolve_gravity(ns, system)
    common = dict(mass=ns.mass, hbar=ns.hbar, charge=ns.charge)
    if system == "ho":
        return SystemParams(kind=SystemKind.HO_FIELD, b0=b0, omega0=omega0, g=g, **common)
    if system == "free":
        return SystemParams(kind=SystemKind.FREE_FIELD, b0=b0, omega0=omega0, g=g, **common)
    if system == "gqw":
        if b0 != 0:
            raise ValueError("system gqw is field-free; use gqw-b for b0 > 0")
        return SystemParams(kind=SystemKind.GQW_BALLISTIC, b0=0.0, omega0=omega0, g=g, **common)
    if b0 == 0:
        return SystemParams(kind=SystemKind.GQW_BALLISTIC, b0=0.0, omega0=omega0, g=g, **common)
    return SystemParams(kind=SystemKind.GQW_FIELD, b0=b0, omega0=omega0, g=g, **common)


def _initial_point(ns) -> PhasePoint:
    c0 = PhasePoint(ns.x0, ns.y0, ns.px0, ns.py0)
    if not all(math.isfinite(v) for v in c0):
        raise ValueError("initial point --x0 --y0 --px0 --py0 must be finite")
    return c0


_PHYSICS_KEYS = ("mass", "hbar", "charge", "omega0")
_FLOW_KEYS = ("x0", "y0", "px0", "py0", "t_start", "t_end", "t_steps")


def _config(command: str, ns, keys, **values) -> dict:
    """Header config of a run: command and version, then each key in order.

    A key's value comes from values, else from the defaults here (omega0 and
    gravity as resolved for ns.system, the fixed notes), else from the flag
    of the same name.
    """
    values = {"omega0": _resolve_omega0(ns, ns.system),
              "gravity": _resolve_gravity(ns, ns.system),
              "epsilon_convention": _EPS_NOTE, "time_variable": "tau", **values}
    cfg = {"command": command, "wigsim_version": __version__}
    for key in keys:
        cfg[key] = values[key] if key in values else getattr(ns, key)
    return cfg


def _run_fidelity(ns):
    b0_list = ns.b0 if ns.b0 is not None else _float_list(_DEFAULT_B0)
    c0 = _initial_point(ns)
    times = TimeGrid(ns.t_start, ns.t_end, ns.t_steps).times()
    if ns.quad_order < 1:
        raise ValueError("quad-order must be positive")
    if ns.fidelity_form == "paper" and ns.system != "ho":
        raise ValueError("fidelity-form 'paper' applies to the trapped system (ho) only")

    rows = []
    has_paper = False
    for b0 in b0_list:
        params = _make_params(ns.system, b0, ns)
        form = ns.fidelity_form if ns.system == "ho" else "consistent"
        curve = measures.fidelity_curve(params, c0, times, order=ns.quad_order, form=form)
        has_paper = has_paper or curve.paper is not None
        for j, t in enumerate(times):
            row = {
                "b0": b0,
                "tau": float(t),
                "f_closed": float(curve.closed[j]),
                "f_quadrature": float(curve.quad[j]),
                "abs_diff": float(curve.abs_diff[j]),
            }
            if curve.paper is not None:
                row["f_paper"] = float(curve.paper[j])
            rows.append(row)

    columns = ["b0", "tau", "f_closed", "f_quadrature"]
    if has_paper:
        columns.append("f_paper")
    columns.append("abs_diff")

    cfg = _config("fidelity", ns, ("system", "b0", *_PHYSICS_KEYS, "gravity", *_FLOW_KEYS,
                                   "quad_order", "fidelity_form", "epsilon_convention",
                                   "time_variable"), b0=b0_list)
    if has_paper:
        cfg["f_paper_note"] = "printed omega0=1 family (unit-weight rotation)"
    return columns, rows, cfg


def _run_trajectory(ns):
    b0_list = ns.b0 if ns.b0 is not None else _float_list(_DEFAULT_B0)
    c0 = _initial_point(ns)
    times = TimeGrid(ns.t_start, ns.t_end, ns.t_steps).times()
    rows = []
    for b0 in b0_list:
        params = _make_params(ns.system, b0, ns)
        pt = evolve(TrajectorySolution(params, c0), times)
        arr = pt.as_array()
        for j, t in enumerate(times):
            rows.append({
                "b0": b0, "tau": float(t),
                "x": float(arr[j, 0]), "y": float(arr[j, 1]),
                "px": float(arr[j, 2]), "py": float(arr[j, 3]),
            })
    columns = ["b0", "tau", "x", "y", "px", "py"]
    cfg = _config("trajectory", ns, ("system", "b0", *_PHYSICS_KEYS, "gravity", *_FLOW_KEYS,
                                     "epsilon_convention", "time_variable"), b0=b0_list)
    return columns, rows, cfg


def _run_entropy(ns):
    b0_list = ns.b0 if ns.b0 is not None else _float_list(_ENTROPY_B0)
    if ns.gravity not in (None, 0.0):
        raise ValueError("gravity does not apply to the entropy sweep systems")
    if ns.system == "free" and ns.omega0 not in (None, 0.0):
        raise ValueError("omega0 does not apply to the free entropy sweep")
    # the trap frequency of the ho rows; the free sweep has no trap
    omega0 = _resolve_omega0(ns, "free" if ns.system == "free" else "ho")
    if ns.quad_order < 3:
        raise ValueError("quad-order (box nodes per axis) must be at least 3")
    convention = (measures.EntropyConvention.RAW_BOX if ns.entropy_convention == "raw"
                  else measures.EntropyConvention.NORMALIZED_BOX)
    systems = ["ho", "free"] if ns.system == "both" else [ns.system]
    rows = []
    for name in systems:
        kind = SystemKind.HO_FIELD if name == "ho" else SystemKind.FREE_FIELD
        pairs = measures.entropy_vs_field(
            kind, b0_list, mass=ns.mass, hbar=ns.hbar, charge=ns.charge, omega0=omega0,
            box_half_width=ns.box_half_width, nodes_per_axis=ns.quad_order,
            convention=convention,
        )
        for b0, value in pairs:
            rows.append({"system": name, "b0": b0, "entropy": value,
                         "convention": ns.entropy_convention})
    columns = ["system", "b0", "entropy", "convention"]
    cfg = _config("entropy", ns, ("system", "b0", *_PHYSICS_KEYS, "quad_order",
                                  "box_half_width", "entropy_convention", "epsilon_convention"),
                  b0=b0_list, omega0=omega0)
    return columns, rows, cfg


def _run_spectrum(ns):
    if ns.n_max < 0:
        raise ValueError("n-max must be nonnegative")
    b0_list = ns.b0 if ns.b0 is not None else _float_list(_DEFAULT_B0)
    rows = []
    if ns.system == "ho":
        if ns.gravity not in (None, 0.0):
            raise ValueError("gravity does not apply to the trapped spectrum")
        columns = ["b0", "n1", "n2", "energy"]
        for b0 in b0_list:
            params = _make_params("ho", b0, ns)
            for n1 in range(ns.n_max + 1):
                for n2 in range(ns.n_max + 1):
                    rows.append({"b0": b0, "n1": n1, "n2": n2,
                                 "energy": wigner.ho_energy(n1, n2, params)})
        b0_used = b0_list
    elif ns.system == "free":
        if ns.gravity not in (None, 0.0):
            raise ValueError("gravity does not apply to the free spectrum")
        columns = ["b0", "n", "energy"]
        b0_used = [b0 for b0 in b0_list if b0 > 0]
        if not b0_used:
            raise ValueError("the Landau ladder needs at least one positive b0")
        for b0 in b0_used:
            params = _make_params("free", b0, ns)
            for n in range(ns.n_max + 1):
                rows.append({"b0": b0, "n": n, "energy": wigner.landau_energy(n, params)})
    else:
        # gravitational levels are field-independent; the b0 list is unused
        if ns.n_max < 1:
            raise ValueError("gravitational levels start at n_y = 1; n-max must be >= 1")
        columns = ["n_y", "energy"]
        params = SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=ns.mass, hbar=ns.hbar,
                              charge=ns.charge, g=_resolve_gravity(ns, "gqw"))
        for n_y in range(1, ns.n_max + 1):
            rows.append({"n_y": n_y, "energy": wigner.gqw_energy(n_y, params)})
        b0_used = []
    cfg = _config("spectrum", ns, ("system", "b0", *_PHYSICS_KEYS, "gravity", "n_max"), b0=b0_used)
    return columns, rows, cfg


def _run_ncmap(ns):
    nc = NCParams(theta=ns.theta, eta=ns.eta, mu=ns.mu, nu=ns.nu)
    omega0 = _resolve_omega0(ns, ns.system)
    g = _resolve_gravity(ns, ns.system)
    row = {"map": ns.system, "theta": ns.theta, "eta": ns.eta, "mu": ns.mu, "nu": ns.nu}
    if ns.system == "ho":
        params = SystemParams(kind=SystemKind.HO_FIELD, mass=ns.mass, hbar=ns.hbar,
                              charge=ns.charge, omega0=omega0)
        row["b0_effective"] = effective_b0_ho(nc, params)
    elif ns.system == "free":
        params = SystemParams(kind=SystemKind.FREE_FIELD, mass=ns.mass, hbar=ns.hbar,
                              charge=ns.charge)
        row["b0_effective"] = effective_b0_free(nc, params)
    else:
        params = SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=ns.mass, hbar=ns.hbar,
                              charge=ns.charge, g=g)
        b_eff, shift = gqw_nc_map(nc, params)
        row["b0_effective"] = b_eff
        row["x_scale"] = shift.scale_x
        row["x_shear_from_py"] = shift.shear_x_from_py
        mapped = shift.apply(_initial_point(ns))
        row["x0_mapped"] = mapped.x
    row["s_aux"] = auxiliary_s(ns.mu, ns.nu)
    row["sigma_invertible"] = sigma_invertible(nc, ns.hbar)
    columns = list(row.keys())
    initial = ("x0", "y0", "px0", "py0") if ns.system == "gqw" else ()
    cfg = _config("ncmap", ns, ("system", "theta", "eta", "mu", "nu", *_PHYSICS_KEYS,
                                "gravity", *initial))
    return columns, [row], cfg


_RUNNERS = {
    "fidelity": _run_fidelity,
    "trajectory": _run_trajectory,
    "entropy": _run_entropy,
    "spectrum": _run_spectrum,
    "ncmap": _run_ncmap,
}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _config_float(value: float) -> str:
    """A header float at 12 significant digits when they read back as the
    same float, else at repr, so a run from the header uses the same value."""
    text = f"{value:.12g}"
    return text if float(text) == value else repr(value)


def _config_line(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_config_line(v) for v in value)
    return _config_float(value) if isinstance(value, float) else _format_cell(value)


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _json_config(value):
    if isinstance(value, float):
        return float(_config_float(value))
    if isinstance(value, (list, tuple)):
        return [_json_config(v) for v in value]
    return _json_value(value)


def _render(fmt: str, command: str, config: dict, columns, rows) -> str:
    if fmt == "csv":
        lines = [f"# wigsim {command}"]
        for key, value in config.items():
            lines.append(f"# {key} = {_config_line(value)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_format_cell(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    doc = {
        "config": {k: _json_config(v) for k, v in config.items()},
        "rows": [{c: _json_value(row[c]) for c in columns} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        expanded = _inject_config(raw)
    except ConfigError as exc:
        print(f"error: E_PARSE: {exc}", file=sys.stderr)
        return 2
    try:
        ns = parser.parse_args(expanded)
    except SystemExit as exc:
        # argparse has already printed its message; fold into our exit codes
        return 0 if exc.code in (0, None) else 2

    try:
        columns, rows, config = _RUNNERS[ns.command](ns)
    except ConfigError as exc:
        print(f"error: E_PARSE: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: E_RANGE: {exc}", file=sys.stderr)
        return 2
    except (quadrature.NonFiniteIntegrandError, measures.WignerNegativityError,
            wigner.TruncationError) as exc:
        print(f"error: E_NUMERIC: {exc}", file=sys.stderr)
        return 3

    config["format"] = ns.format
    text = _render(ns.format, ns.command, config, columns, rows)
    if ns.out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(ns.out).write_text(text)
        except OSError as exc:
            print(f"error: E_PARSE: cannot write {ns.out}: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
