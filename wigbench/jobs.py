"""Seeded workloads of the wigsim benchmark and the output check of each job.

A workload is an endless sequence of cycles.  Every cycle holds the same
slots (job shapes: subcommand, quadrature order, list lengths) in a seeded
order, and each slot draws fresh seeded values (system, field strengths,
initial point, box width, gravity).  Any run of whole cycles therefore has
the same cost mix, whatever the seed, while no two cycles repeat inputs.

Each job's output is checked against a reference computed here with numpy
and scipy, never with wigsim: canonical flows as the matrix exponential of
the 5x5 augmented generator, box entropies as a sum over the two phase-space
sectors of the state, and gravitational levels from scipy's Airy zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import ai_zeros, airy

FIDELITY_TOL = 1e-6      # |f - F_ref|, the bound of acceptance criterion 01
FLOW_TOL = 1e-6          # trajectory rows; every bound is scaled by max(1, |reference|)
REL_TOL = 1e-9           # entropies, energies: printed with 12 significant digits
NORM_TOL = 1e-8          # GQW box normalization (wigsim's Ai is good to ~1e-10)
AI_ABS_ERR = 1e-10       # wigsim's documented Ai accuracy, absolute
RESIDUAL_H = 5e-4        # stargen_residual's default step, which gqw_levels.py uses

T_END = 4.0 * math.pi    # fidelity's default tau grid: 50 steps on [0, 4 pi]
T_STEPS = 50


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Job:
    """One wigsim invocation: CLI arguments, or arguments of gqw_levels.py."""

    target: str          # "cli" or "script"
    args: tuple
    params: dict         # the generated inputs, for the reference


def _fmt(v: float) -> str:
    return repr(float(v))


def _flags(**kw) -> list:
    out = []
    for key, value in kw.items():
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(_fmt(v) for v in value)
        elif isinstance(value, float):
            value = _fmt(value)
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


# ---------------------------------------------------------------- generators


def _point(rng) -> list:
    return [round(float(v), 3) for v in rng.uniform(-1.5, 1.5, 4)]


def _fields(rng, n: int) -> list:
    return sorted(round(float(v), 4) for v in rng.uniform(0.1, 1.5, n))


def _fidelity_job(rng, order: int, n_b0: int) -> Job:
    systems = ("ho", "free", "gqw", "gqw-b") if n_b0 == 1 else ("ho", "free", "gqw-b")
    system = str(rng.choice(systems))
    b0 = [0.0] if system == "gqw" else _fields(rng, n_b0)
    x0, y0, px0, py0 = _point(rng)
    gravity = round(float(rng.uniform(0.05, 0.5)), 3) if system.startswith("gqw") else None
    form = "paper" if system == "ho" and rng.random() < 1.0 / 3.0 else None
    args = ["fidelity"] + _flags(system=system, b0=b0, x0=x0, y0=y0, px0=px0, py0=py0,
                                 gravity=gravity, quad_order=order, fidelity_form=form)
    params = dict(system=system, b0=b0, z0=[x0, y0, px0, py0], gravity=gravity or 0.0,
                  order=order, form=form or "consistent")
    return Job("cli", tuple(args), params)


def _entropy_job(rng, system: str, truncating: bool, order: int, n_b0: int) -> Job:
    half_width = float(rng.choice([1.0, 1.5, 2.0])) if truncating else 8.0
    b0 = _fields(rng, n_b0)
    args = ["entropy"] + _flags(system=system, b0=b0, quad_order=order,
                                box_half_width=half_width)
    return Job("cli", tuple(args), dict(system=system, b0=b0, half_width=half_width,
                                        order=order))


def _spectrum_job(rng, lo: int, hi: int) -> Job:
    n_max = int(rng.integers(lo, hi + 1))
    gravity = round(float(rng.uniform(0.5, 4.0)), 3)
    args = ["spectrum"] + _flags(system="gqw", n_max=n_max, gravity=gravity)
    return Job("cli", tuple(args), dict(n_max=n_max, gravity=gravity))


def _trajectory_job(rng, n_b0: int, steps: int, fmt: str) -> Job:
    b0 = _fields(rng, n_b0)
    x0, y0, px0, py0 = _point(rng)
    gravity = round(float(rng.uniform(0.5, 4.0)), 3)
    t_end = round(float(rng.uniform(20.0, 80.0)), 3)
    args = ["trajectory"] + _flags(system="gqw-b", b0=b0, x0=x0, y0=y0, px0=px0, py0=py0,
                                   gravity=gravity, t_end=t_end, t_steps=steps, format=fmt)
    return Job("cli", tuple(args), dict(system="gqw-b", b0=b0, z0=[x0, y0, px0, py0],
                                        gravity=gravity, t_end=t_end, steps=steps, fmt=fmt))


def _levels_job(rng, n_levels: int) -> Job:
    levels = sorted(int(v) for v in rng.choice(np.arange(1, 7), n_levels, replace=False))
    xi = [round(float(v), 3) for v in rng.uniform(0.2, 1.5, 3)]
    gravity = round(float(rng.uniform(0.5, 4.0)), 3)
    args = ["--gravity", _fmt(gravity), "--levels", ",".join(map(str, levels)),
            "--xi", ",".join(_fmt(v) for v in xi)]
    return Job("script", tuple(args), dict(levels=levels, xi=xi, gravity=gravity))


# Slots of one cycle, as (generator, arguments).  Each list has an odd length
# and slots of about equal cost around its middle, so the median job of any
# run of whole cycles falls inside that group, never between two far-apart
# slot costs.
_SLOTS = {
    # quad order x number of b0 values: every job is 50 tau samples, each a
    # 4D Gauss-Hermite integral of order^4 nodes.  Five order-12 jobs make
    # the middle class, between two cheaper and two dearer slots, so the
    # median is one of many alike jobs; the default order 32 and the two-b0
    # job set most of the summed time.
    "fidelity-curves": [
        (_fidelity_job, (10, 1)),
        (_fidelity_job, (10, 1)),
        (_fidelity_job, (12, 1)),
        (_fidelity_job, (12, 1)),
        (_fidelity_job, (12, 1)),
        (_fidelity_job, (12, 1)),
        (_fidelity_job, (12, 1)),
        (_fidelity_job, (16, 2)),
        (_fidelity_job, (32, 1)),
    ],
    # 45^4 nodes run as one block, 61^4 in slabs; Landau boxes of half-width
    # <= 2 truncate the state, half-width 8 does not.  Truncating trap boxes
    # are the known-defect probes below, not slots.
    "entropy-boxes": [
        (_entropy_job, ("ho", False, 61, 2)),
        (_entropy_job, ("ho", False, 45, 2)),
        (_entropy_job, ("free", True, 45, 2)),
        (_entropy_job, ("both", False, 45, 2)),
        (_entropy_job, ("free", False, 61, 1)),
        (_entropy_job, ("both", False, 61, 1)),
        (_entropy_job, ("free", True, 61, 1)),
    ],
    # one cheap slot, three of about equal cost, one dear slot
    "gravity-tables": [
        (_spectrum_job, (4, 5)),
        (_spectrum_job, (10, 12)),
        (_levels_job, (2,)),
        (_trajectory_job, (1, 8000, "json")),
        (_trajectory_job, (3, 12000, "csv")),
    ],
}


WORKLOADS = tuple(_SLOTS)

# Jobs that fail their check because of a known wigsim defect.  They run once
# per run of their workload, after the timed loop: they are neither timed nor
# counted as attempted, and their outcome is printed and recorded.
#   4a: the trap entropy on a box that truncates the state adds the sector
#       entropies without their box masses (2.346589 against 1.666462 at
#       half-width 1, 41 nodes, b0 = 0.5).
KNOWN_DEFECTS = {
    "entropy-boxes": [
        ("4a", Job("cli", ("entropy", "--system", "ho", "--b0", "0.5", "--quad-order", "41",
                           "--box-half-width", str(half_width)),
                   dict(system="ho", b0=[0.5], half_width=half_width, order=41)))
        for half_width in (1.0, 2.0)
    ],
}


def cycles(workload: str, seed: int):
    """Yield the workload's cycles (lists of Jobs); the seed fixes all of them."""
    rng = np.random.default_rng(seed)
    slots = _SLOTS[workload]
    while True:
        yield [gen(rng, *args) for gen, args in (slots[i] for i in rng.permutation(len(slots)))]


# ---------------------------------------------------------------- references


def _generator(b0: float, omega0: float, g: float, unit_weights: bool) -> np.ndarray:
    """Augmented 5x5 generator of the canonical flow (m = hbar = q = 1).

    unit_weights replaces 2 lam^2 and 2 kap^2 by 1: the printed rotation
    family of the trapped system."""
    w = b0 / 2.0
    two_lam2 = 1.0 if unit_weights else w * w + omega0 * omega0
    two_kap2 = 1.0
    gen = np.zeros((5, 5))
    gen[0, 1], gen[0, 2] = w, two_kap2
    gen[1, 0], gen[1, 3] = -w, two_kap2
    gen[2, 0], gen[2, 3] = -two_lam2, w
    gen[3, 1], gen[3, 2] = -two_lam2, -w
    gen[3, 4] = -g
    return gen


def flow_reference(gen: np.ndarray, z0, t_end: float, steps: int) -> np.ndarray:
    """Phase points exp(G t) (z0, 1) on linspace(0, t_end, steps), shape (steps, 4).

    exp(G t_j) = exp(G dt)^j, with the powers built by repeated squaring."""
    j = np.arange(steps)
    maps = np.broadcast_to(np.eye(5), (steps, 5, 5)).copy()
    square = expm(gen * (t_end / (steps - 1)))
    bit = 1
    while bit < steps:
        sel = (j & bit) != 0
        maps[sel] = maps[sel] @ square
        square = square @ square
        bit <<= 1
    return maps[:, :4, :4] @ np.asarray(z0, dtype=float) + maps[:, :4, 4]


def _sector_entropy(f: np.ndarray, cell: float):
    """Box mass and -sum f ln f of one sector on its midpoint nodes."""
    safe = np.where(f > 0.0, f, 1.0)
    return float(np.sum(f) * cell), float(np.sum(np.where(f > 0.0, -f * np.log(safe), 0.0)) * cell)


def entropy_reference(system: str, b0: float, half_width: float, order: int,
                      omega0: float = 1.0) -> float:
    """Raw box entropy S = M2 S1 + M1 S2 over the two sectors of the state.

    Trap ground state: sectors (x, px) and (y, py).  Landau n = 0: sectors
    (x, py) and (y, px) in u = a x - py/a and v = a y + px/a, a^2 = m omega."""
    h = 2.0 * half_width / order
    nodes = -half_width + h * (np.arange(order) + 0.5)
    q, p = np.meshgrid(nodes, nodes, indexing="ij")
    w = b0 / 2.0
    if system == "ho":
        r = math.sqrt(w * w + omega0 * omega0)
        f = np.exp(-(r * q * q + p * p / r)) / math.pi
        f1, f2 = f, f
    else:
        a = math.sqrt(w)
        f1 = np.exp(-(a * q - p / a) ** 2)
        f2 = np.exp(-(a * q + p / a) ** 2) / math.pi
    m1, s1 = _sector_entropy(f1, h * h)
    m2, s2 = _sector_entropy(f2, h * h)
    return m2 * s1 + m1 * s2


def gqw_energies(n_max: int, g: float) -> np.ndarray:
    return -((g * g / 2.0) ** (1.0 / 3.0)) * ai_zeros(n_max)[0]


def residual_reference(energy: float, g: float, xi) -> tuple:
    """Star-genvalue residual at the true energy, as wigsim.stargen_residual
    defines it, with scipy's Ai, and the most that an Ai error of AI_ABS_ERR
    can move it.  The central second difference divides Ai errors by h^2, so
    near Ai's switch of expansions (|x| = 7) the printed residual may reach
    ~1e-4 while the exact one is ~1e-12."""
    alpha = (8.0 / (g * g)) ** (1.0 / 3.0)
    c = g * g / 8.0
    h = RESIDUAL_H
    xi = np.asarray(xi, dtype=float)

    def ai(x):
        return airy(alpha * (x - energy))[0]

    second = (ai(xi + h) - 2.0 * ai(xi) + ai(xi - h)) / (h * h)
    peak = np.max(np.abs(ai(np.linspace(0.0, energy + 12.0 / alpha, 2001))))
    exact = np.abs(xi * ai(xi) - c * second - energy * ai(xi)) / peak
    slack = (4.0 * c / (h * h) + np.abs(xi) + energy) * AI_ABS_ERR / peak
    return exact, slack


def gqw_norm(energy: float, g: float) -> float:
    """1 / box integral of |Ai(alpha (xi - E))| on GQWState's declared domain."""
    alpha = (8.0 / (g * g)) ** (1.0 / 3.0)
    y_max = 3.0 * energy / g
    p_cut = math.sqrt(2.0 * (energy + 12.0 / alpha))
    hy, hp = y_max / 256, 2.0 * p_cut / 256
    y = hy * (np.arange(256) + 0.5)
    p = hp * (np.arange(128) + 0.5)          # the py nodes are symmetric about 0
    xi = p[None, :] ** 2 / 2.0 + g * y[:, None]
    return 1.0 / (2.0 * np.sum(np.abs(airy(alpha * (xi - energy))[0])) * hy * hp)


# ---------------------------------------------------------------- checks


def parse_table(text: str, fmt: str = "csv") -> dict:
    """Columns of a wigsim table: float arrays, or lists of str for text columns."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        header = list(rows[0]) if rows else []
        cells = [[row[key] for row in rows] for key in header]
    else:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        try:
            cells = list(np.loadtxt(lines[1:], delimiter=",", ndmin=2).T)
        except ValueError:                # a text column
            cells = list(zip(*(ln.split(",") for ln in lines[1:])))
        if len(cells) != len(header):
            raise ValueError("CSV rows do not match the header")
    table = {}
    for key, column in zip(header, cells):
        try:
            table[key] = np.array(column, dtype=float)
        except ValueError:
            table[key] = list(column)
    return table


def _n_rows(table: dict) -> int:
    return len(next(iter(table.values()))) if table else 0


def _expect_rows(table: dict, n: int) -> None:
    if _n_rows(table) != n:
        raise CheckFailed(f"expected {n} rows, got {_n_rows(table)}")


def _expect(table: dict, column: str, ref, what: str, tol: float = REL_TOL) -> None:
    """Require |value - ref| <= tol * max(1, |ref|) in every row of a column."""
    got = table[column]
    ref = np.broadcast_to(np.asarray(ref, dtype=float), got.shape)
    bad = np.flatnonzero(~(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref))))
    if bad.size:
        i = bad[0]
        raise CheckFailed(f"{what}: {column} = {float(got[i])!r} in row {i}, "
                          f"reference {float(ref[i])!r}")


def _fidelity(gen: np.ndarray, z0) -> np.ndarray:
    return np.exp(-0.5 * np.sum((flow_reference(gen, z0, T_END, T_STEPS) - z0) ** 2, axis=1))


def _check_fidelity(p: dict, table: dict) -> None:
    _expect_rows(table, T_STEPS * len(p["b0"]))
    what = f"fidelity {p['system']} b0={p['b0']}"
    omega0 = 1.0 if p["system"] == "ho" else 0.0
    unit = p["form"] == "paper"
    f_ref = [_fidelity(_generator(b0, omega0, p["gravity"], unit), p["z0"]) for b0 in p["b0"]]
    _expect(table, "b0", np.repeat(p["b0"], T_STEPS), what)
    _expect(table, "tau", np.tile(np.linspace(0.0, T_END, T_STEPS), len(p["b0"])), what)
    _expect(table, "f_quadrature", np.concatenate(f_ref), what, FIDELITY_TOL)
    _expect(table, "f_closed", np.concatenate(f_ref), what, FIDELITY_TOL)
    if p["system"] == "ho":
        paper = [_fidelity(_generator(b0, omega0, 0.0, True), p["z0"]) for b0 in p["b0"]]
        _expect(table, "f_paper", np.concatenate(paper), what, FIDELITY_TOL)


def _check_trajectory(p: dict, table: dict) -> None:
    steps = p["steps"]
    _expect_rows(table, steps * len(p["b0"]))
    what = f"trajectory b0={p['b0']}"
    ref = np.concatenate([flow_reference(_generator(b0, 0.0, p["gravity"], False), p["z0"],
                                         p["t_end"], steps) for b0 in p["b0"]])
    _expect(table, "tau", np.tile(np.linspace(0.0, p["t_end"], steps), len(p["b0"])), what)
    for i, column in enumerate(("x", "y", "px", "py")):
        _expect(table, column, ref[:, i], what, FLOW_TOL)


def _check_entropy(p: dict, table: dict) -> None:
    systems = ["ho", "free"] if p["system"] == "both" else [p["system"]]
    expected = [(s, b0) for s in systems for b0 in p["b0"]]
    _expect_rows(table, len(expected))
    if table["system"] != [s for s, _ in expected] or set(table["convention"]) != {"raw"}:
        raise CheckFailed(f"unexpected systems or conventions: {table}")
    ref = [entropy_reference(s, b0, p["half_width"], p["order"]) for s, b0 in expected]
    _expect(table, "b0", [b0 for _, b0 in expected], "entropy")
    _expect(table, "entropy", ref,
            f"entropy {p['system']} b0={p['b0']} half-width={p['half_width']} nodes={p['order']}")


def _check_spectrum(p: dict, table: dict) -> None:
    _expect_rows(table, p["n_max"])
    _expect(table, "n_y", np.arange(1, p["n_max"] + 1), "gqw spectrum")
    _expect(table, "energy", gqw_energies(p["n_max"], p["gravity"]), "gqw spectrum")


def _check_levels(p: dict, table: dict) -> None:
    n_xi = len(p["xi"])
    _expect_rows(table, len(p["levels"]) * n_xi)
    energies = gqw_energies(max(p["levels"]), p["gravity"])[np.array(p["levels"]) - 1]
    norms = [gqw_norm(e, p["gravity"]) for e in energies]
    what = f"gqw levels {p['levels']}"
    _expect(table, "n_y", np.repeat(p["levels"], n_xi), what)
    _expect(table, "energy", np.repeat(energies, n_xi), what)
    _expect(table, "norm", np.repeat(norms, n_xi), what, NORM_TOL)
    exact, slack = zip(*(residual_reference(e, p["gravity"], frac * e)
                         for e in energies for frac in p["xi"]))
    _expect(table, "xi", [frac * e for e in energies for frac in p["xi"]], what)
    bad = np.flatnonzero(~(np.abs(table["residual"] - exact) <= slack))
    if bad.size:
        i = bad[0]
        raise CheckFailed(f"{what}: residual = {float(table['residual'][i])!r} in row {i}, "
                          f"reference {exact[i]!r} +- {slack[i]!r}")


def check(job: Job, text: str) -> int:
    """Check a job's stdout against its reference; return the row count.

    Raises CheckFailed on any disagreement."""
    checker = _check_levels if job.target == "script" else {
        "fidelity": _check_fidelity,
        "trajectory": _check_trajectory,
        "entropy": _check_entropy,
        "spectrum": _check_spectrum,
    }[job.args[0]]
    try:
        table = parse_table(text, job.params.get("fmt", "csv"))
        checker(job.params, table)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}")
    return _n_rows(table)
