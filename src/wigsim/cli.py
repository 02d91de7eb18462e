"""Command-line front end: parameter sweeps emitting plot-ready CSV/JSON.

Subcommands: fidelity, entropy, trajectory, spectrum, ncmap.  Config
precedence is flags > config file > defaults; every output embeds the flags
the run read, at their resolved values, as header metadata.  Identical
configs produce byte-identical output.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, measures, quadrature, wigner
from .model import NumericalError, PhasePoint, SystemKind, SystemParams
from .dynamics import evolve
from .ncmap import (
    NCParams,
    auxiliary_s,
    effective_b0,
    gqw_nc_map,
    sigma_invertible,
)

__all__ = ["main", "build_parser"]

_EPS_NOTE = "eps12=+1; cross term omega*(px*y - py*x)"
_FLOW_NOTES = {"epsilon_convention": _EPS_NOTE, "time_variable": "tau"}
_DEFAULT_B0 = "0, 0.1, 0.5, 1"
_INITIAL_FLAGS = ("x0", "y0", "px0", "py0")
# the declared flags a system's run does not read: main rejects a value other
# than the parser default, and the header leaves them out
_UNUSED = {("spectrum", "gqw"): ("b0", "charge"), ("spectrum", "gqw-b"): ("b0", "charge"),
           ("ncmap", "ho"): _INITIAL_FLAGS, ("ncmap", "free"): ("mass", *_INITIAL_FLAGS),
           ("ncmap", "gqw"): ("mass", "y0", "px0")}
_T_END_DEFAULT = 4.0 * math.pi
# most output rows one run may ask for, checked before anything is allocated
_ROW_BUDGET = 10 ** 6
# most entropy box nodes per axis (2048): a sector grid within the node budget
_ENTROPY_ORDER_LIMIT = math.isqrt(quadrature._NODE_LIMIT)
_KINDS = {"ho": SystemKind.HO_FIELD, "free": SystemKind.FREE_FIELD,
          "gqw": SystemKind.GQW_BALLISTIC, "gqw-b": SystemKind.GQW_FIELD}


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


def _add_physics_flags(p, hbar=True, gravity=True):
    p.add_argument("--mass", type=float, default=1.0)
    if hbar:
        p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--charge", type=float, default=1.0)
    p.add_argument("--omega0", type=float, default=None,
                   help="trap frequency (default: 1 for ho, 0 otherwise)")
    if gravity:
        p.add_argument("--gravity", type=float, default=None,
                       help="gravitational acceleration (default: 2 for gqw systems, 0 otherwise)")


def _add_initial_flags(p):
    for name in _INITIAL_FLAGS:
        p.add_argument(f"--{name}", type=float, default=1.0)


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
    p.add_argument("--system", choices=_KINDS, default="ho")
    p.add_argument("--b0", type=_float_list, default=_DEFAULT_B0, metavar="LIST",
                   help="comma-separated field strengths (default: %(default)s)")
    # the packets are unit-width and the flow is classical: no hbar
    _add_physics_flags(p, hbar=False)
    _add_initial_flags(p)
    _add_time_flags(p)
    p.add_argument("--quad-order", type=int, default=32,
                   help="Gauss-Hermite order per axis for the quadrature column")
    p.add_argument("--fidelity-form", choices=("consistent", "paper"), default="consistent",
                   help="trajectory family: canonical flow, or the printed "
                        "unit-weight rotation family (ho only)")
    _add_output_flags(p)

    p = sub.add_parser("trajectory", help="closed-form phase-space trajectory samples")
    p.add_argument("--system", choices=_KINDS, default="ho")
    p.add_argument("--b0", type=_float_list, default=_DEFAULT_B0, metavar="LIST")
    _add_physics_flags(p, hbar=False)
    _add_initial_flags(p)
    _add_time_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("entropy", help="ground-state box entropy vs field strength")
    p.add_argument("--system", choices=("ho", "free", "both"), default="both")
    p.add_argument("--b0", type=_float_list, default="0.1, 0.25, 0.5, 0.75, 1", metavar="LIST",
                   help="field strengths (default: %(default)s; 0 is invalid for free)")
    _add_physics_flags(p, gravity=False)
    p.add_argument("--quad-order", type=int, default=101,
                   help="box nodes per axis (midpoint rule)")
    p.add_argument("--box-half-width", type=float, default=8.0)
    p.add_argument("--entropy-convention", default="raw",
                   choices=[c.value for c in measures.EntropyConvention])
    _add_output_flags(p)

    p = sub.add_parser("spectrum", help="energy level tables")
    p.add_argument("--system", choices=_KINDS, default="ho")
    p.add_argument("--b0", type=_float_list, default=_DEFAULT_B0, metavar="LIST",
                   help="field strengths of the ho and free tables; gqw and gqw-b take none")
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
    _add_physics_flags(p, gravity=False)
    _add_initial_flags(p)
    _add_output_flags(p)

    return parser


def _config_tokens(parser, ns) -> list:
    """The --config file's 'key = value' lines as flag tokens.  Each line in
    turn must have that syntax, a key among the subcommand's flags less
    --config, and a value that parses alone; the first bad line is an E_PARSE
    error at path:line, with argparse's message for a bad value."""
    path, command = ns.config, ns.command
    allowed = {dest.replace("_", "-") for dest in vars(ns)} - {"command", "config"}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r} for {command}")
        if not value:
            raise ConfigError(f"{where}: empty value for {key!r}")
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                parser.parse_args([command, f"--{key}", value])
        except SystemExit:
            message = err.getvalue().splitlines()[-1].split(": error: ", 1)[-1]
            raise ConfigError(f"{where}: {message}") from None
        tokens += [f"--{key}", value]
    return tokens


def _make_params(ns, b0: float) -> SystemParams:
    if ns.system == "gqw" and b0 != 0:
        raise ValueError("system gqw is field-free; use gqw-b for b0 > 0")
    return SystemParams(kind=_KINDS[ns.system], mass=ns.mass, hbar=getattr(ns, "hbar", 1.0),
                        charge=ns.charge, b0=b0, omega0=ns.omega0, g=getattr(ns, "gravity", 0.0))


def _initial_point(ns) -> PhasePoint:
    c0 = PhasePoint(ns.x0, ns.y0, ns.px0, ns.py0)
    if not all(math.isfinite(v) for v in c0):
        raise ValueError("initial point --x0 --y0 --px0 --py0 must be finite")
    return c0


_OUTPUT_FLAGS = ("command", "config", "format", "out")


def _config(ns, **notes) -> dict:
    """Header config of a run: command and version; then the subcommand's
    flags at their resolved values, in the order build_parser declares them,
    less the output flags and the system's _UNUSED ones; then notes on the
    run; then the format.
    """
    skip = _OUTPUT_FLAGS + _UNUSED.get((ns.command, ns.system), ())
    flags = {key: value for key, value in vars(ns).items() if key not in skip}
    return {"command": ns.command, "wigsim_version": __version__, **flags, **notes,
            "format": ns.format}


def _check_rows(n_rows: int) -> None:
    if n_rows > _ROW_BUDGET:
        raise ValueError(f"the run asks for {n_rows} output rows; at most {_ROW_BUDGET} allowed")


def _flow_sweep(ns):
    """The parameters of every b0, all built before any work, the initial
    point, the sample times and the (b0, tau) columns, b0 slowest."""
    _check_rows(ns.t_steps * len(ns.b0))
    params = [_make_params(ns, b0) for b0 in ns.b0]
    c0 = _initial_point(ns)
    if not (math.isfinite(ns.t_start) and math.isfinite(ns.t_end)):
        raise ValueError("time grid start and end must be finite")
    if not ns.t_end > ns.t_start:
        raise ValueError("time grid requires end > start")
    if ns.t_steps < 2:
        raise ValueError("time grid requires at least 2 samples")
    times = np.linspace(ns.t_start, ns.t_end, ns.t_steps)
    table = {"b0": np.repeat(ns.b0, len(times)), "tau": np.tile(times, len(ns.b0))}
    return params, c0, times, table


def _run_fidelity(ns):
    params, c0, times, table = _flow_sweep(ns)
    curves = [measures.fidelity_curve(p, c0, times, order=ns.quad_order, form=ns.fidelity_form)
              for p in params]
    table["f_closed"] = np.concatenate([c.closed for c in curves])
    table["f_quadrature"] = np.concatenate([c.quad for c in curves])
    # every curve of one run is of the same form, so all or none have f_paper
    has_paper = curves[0].paper is not None
    if has_paper:
        table["f_paper"] = np.concatenate([c.paper for c in curves])
    table["abs_diff"] = np.concatenate([c.abs_diff for c in curves])

    paper_note = {"f_paper_note": "printed omega0=1 family (unit-weight rotation)"}
    return table, _config(ns, **_FLOW_NOTES, **(paper_note if has_paper else {}))


def _run_trajectory(ns):
    params, c0, times, table = _flow_sweep(ns)
    points = np.concatenate([evolve(p, c0, times).as_array() for p in params])
    table.update(zip(("x", "y", "px", "py"), points.T))
    return table, _config(ns, **_FLOW_NOTES)


def _run_entropy(ns):
    if ns.system == "free" and ns.omega0 != 0:
        raise ValueError("omega0 does not apply to the free entropy sweep")
    if not 3 <= ns.quad_order <= _ENTROPY_ORDER_LIMIT:
        raise ValueError(f"quad-order (box nodes per axis) must be between 3 and "
                         f"{_ENTROPY_ORDER_LIMIT}, got {ns.quad_order}")
    convention = measures.EntropyConvention(ns.entropy_convention)
    systems = ["ho", "free"] if ns.system == "both" else [ns.system]
    _check_rows(len(ns.b0) * len(systems))
    params = [SystemParams(kind=_KINDS[name], mass=ns.mass, hbar=ns.hbar, charge=ns.charge,
                           b0=b0, omega0=ns.omega0 if name == "ho" else 0.0)
              for name in systems for b0 in ns.b0]
    values = measures.entropy_vs_field(params, box_half_width=ns.box_half_width,
                                       nodes_per_axis=ns.quad_order, convention=convention)
    table = {"system": np.repeat(systems, len(ns.b0)), "b0": ns.b0 * len(systems),
             "entropy": values, "convention": [ns.entropy_convention] * len(params)}
    return table, _config(ns, epsilon_convention=_EPS_NOTE)


def _run_spectrum(ns):
    if ns.n_max < 0:
        raise ValueError("n-max must be nonnegative")
    n_levels = ns.n_max + 1
    if ns.system == "ho":
        _check_rows(n_levels ** 2 * len(ns.b0))
        params = [_make_params(ns, b0) for b0 in ns.b0]
        n1, n2 = np.divmod(np.arange(n_levels ** 2), n_levels)
        table = {"b0": np.repeat(ns.b0, n_levels ** 2), "n1": np.tile(n1, len(ns.b0)),
                 "n2": np.tile(n2, len(ns.b0)),
                 "energy": np.concatenate([wigner.ho_energy(n1, n2, p) for p in params])}
    elif ns.system == "free":
        # the ladder's fields, which are also all the header records
        ns.b0 = [b0 for b0 in ns.b0 if b0 > 0]
        if not ns.b0:
            raise ValueError("the Landau ladder needs at least one positive b0")
        _check_rows(n_levels * len(ns.b0))
        params = [_make_params(ns, b0) for b0 in ns.b0]
        n = np.arange(n_levels)
        table = {"b0": np.repeat(ns.b0, n_levels), "n": np.tile(n, len(ns.b0)),
                 "energy": np.concatenate([wigner.landau_energy(n, p) for p in params])}
    else:
        # gravitational levels are field-independent: _UNUSED holds b0 and charge
        if ns.n_max < 1:
            raise ValueError("gravitational levels start at n_y = 1; n-max must be >= 1")
        _check_rows(ns.n_max)
        n_y = np.arange(1, ns.n_max + 1)
        table = {"n_y": n_y, "energy": wigner.gqw_energy(n_y, _make_params(ns, 0.0))}
    return table, _config(ns)


def _run_ncmap(ns):
    nc = NCParams(theta=ns.theta, eta=ns.eta, mu=ns.mu, nu=ns.nu)
    params = _make_params(ns, 0.0)
    row = {"map": ns.system, "theta": ns.theta, "eta": ns.eta, "mu": ns.mu, "nu": ns.nu,
           "b0_effective": effective_b0(nc, params)}
    if ns.system == "gqw":
        shift = gqw_nc_map(nc, params)
        row["x_scale"] = shift.scale_x
        row["x_shear_from_py"] = shift.shear_x_from_py
        row["x0_mapped"] = shift.apply(_initial_point(ns)).x
    row["s_aux"] = auxiliary_s(ns.mu, ns.nu)
    row["sigma_invertible"] = sigma_invertible(nc, ns.hbar)
    return {key: [value] for key, value in row.items()}, _config(ns)


_RUNNERS = {
    "fidelity": _run_fidelity,
    "trajectory": _run_trajectory,
    "entropy": _run_entropy,
    "spectrum": _run_spectrum,
    "ncmap": _run_ncmap,
}


def _text(value) -> str:
    """A header value or non-float cell as CSV text: a float at 12 significant
    digits when they read back as the same float, else at repr, so a run from
    the header uses the same value."""
    if isinstance(value, (list, tuple)):
        return ", ".join(map(_text, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = f"{value:.12g}"
        return text if float(text) == value else repr(value)
    return str(value)


def _column(name: str, column, fmt: str):
    """The cells of one column, as Python numbers or text, and the % conversion
    that writes each: %d for integers, %s for text (_text in CSV, json.dumps in
    JSON), and floats at 12 significant digits; in JSON as %r of the float those
    digits read back as, which is what json.dumps writes for it."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return column.tolist(), "%d"
    if column.dtype.kind != "f":
        return list(map(_text if fmt == "csv" else json.dumps, column.tolist())), "%s"
    if not np.isfinite(column).all():
        raise NumericalError(f"column {name!r} has a non-finite value")
    if fmt == "csv":
        return column.tolist(), "%.12g"
    return list(map(float, map("%.12g".__mod__, column.tolist()))), "%r"


def _render(fmt: str, command: str, config: dict, table: dict) -> str:
    """A run's output text; table maps each column name to its cells, and one
    row template, filled once per row, writes the rows in either format."""
    columns, conversions = zip(*(_column(name, col, fmt) for name, col in table.items()))
    if fmt == "csv":
        lines = [f"# wigsim {command}"]
        lines += (f"# {key} = {_text(value)}" for key, value in config.items())
        lines += [",".join(table), *map(",".join(conversions).__mod__, zip(*columns)), ""]
        del columns
        return "\n".join(lines)
    # the layout json.dumps(doc, indent=2) gives
    head = json.dumps({"config": config}, indent=2)
    keys = (json.dumps(name).replace("%", "%%") for name in table)
    row = "    {\n" + ",\n".join(map("      {}: {}".format, keys, conversions)) + "\n    }"
    rows = [*map(row.__mod__, zip(*columns))]
    del columns
    rows = ("[\n", ",\n".join(rows), "\n  ]") if rows else ("[]",)
    return "".join([head[:-2], ',\n  "rows": ', *rows, "\n}\n"])


# one parser per process, built on the first run rather than at import
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config is not None:
            # the file's tokens go right after the subcommand, so explicit flags win
            at = argv.index(ns.command) + 1
            ns = parser.parse_args(argv[:at] + _config_tokens(parser, ns) + argv[at:])
    except SystemExit as exc:
        # argparse has already printed its message; fold into our exit codes
        return 0 if exc.code in (0, None) else 2
    except ConfigError as exc:
        print(f"error: E_PARSE: {exc}", file=sys.stderr)
        return 2
    # the defaults that depend on the system, resolved once for every use
    if ns.omega0 is None:
        ns.omega0 = 1.0 if ns.system in ("ho", "both") else 0.0
    if getattr(ns, "gravity", 0.0) is None:
        ns.gravity = 2.0 if ns.system in ("gqw", "gqw-b") else 0.0

    try:
        defaults = parser.parse_args([ns.command])
        for key in _UNUSED.get((ns.command, ns.system), ()):
            if getattr(ns, key) != getattr(defaults, key):
                raise ValueError(f"{ns.command} --system {ns.system} does not read --{key}")
        # numpy stays quiet here alone; the checks report each non-finite result
        with np.errstate(all="ignore"):
            table, config = _RUNNERS[ns.command](ns)
        text = _render(ns.format, ns.command, config, table)
    except ValueError as exc:
        print(f"error: E_RANGE: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: E_NUMERIC: {exc}", file=sys.stderr)
        return 3

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
