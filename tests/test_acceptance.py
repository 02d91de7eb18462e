"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -rA tests/test_acceptance.py` to see the per-criterion lines.
Helper tolerances and grids are stated inline next to each check.
"""

import math

import numpy as np
import pytest

import wigsim.cli as cli
from oracles import (
    airy_ode_values,
    fidelity_gaussian_closed,
    flow_jacobian,
    hamiltonian_value,
    ode_residual,
    paper_form_point,
)
from wigsim import measures, quadrature
from wigsim.dynamics import evolve
from wigsim.measures import EntropyConvention, entropy_vs_field, shannon_entropy
from wigsim.model import PhasePoint, SystemKind, SystemParams
from wigsim.ncmap import NCParams, auxiliary_s, effective_b0, sigma_invertible
from wigsim.wigner import (
    GaussianWigner,
    GQWState,
    LandauState,
    StationaryHOState,
    gqw_energy,
    ho_energy,
    landau_energy,
    stargen_residual,
)

C0 = PhasePoint(1.0, 1.0, 1.0, 1.0)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {tag}: {desc}{suffix}")
    assert ok, f"criterion {num:02d} failed: {desc}{suffix}"


def _params(kind, b0, **extra):
    if kind is SystemKind.HO_FIELD:
        extra.setdefault("omega0", 1.0)
    if kind in (SystemKind.GQW_FIELD, SystemKind.GQW_BALLISTIC):
        extra.setdefault("g", 2.0)
    return SystemParams(kind=kind, b0=b0, **extra)


def test_criterion_01_closed_vs_quadrature_fidelity():
    times = np.linspace(0.0, 4 * np.pi, 50)
    worst = 0.0
    cases = [
        (SystemKind.HO_FIELD, (0.0, 0.1, 0.5, 1.0)),
        (SystemKind.FREE_FIELD, (0.0, 0.1, 0.5, 1.0)),
        (SystemKind.GQW_FIELD, (0.0, 0.1, 0.5, 1.0)),
        (SystemKind.GQW_BALLISTIC, (0.0,)),
    ]
    for kind, b0s in cases:
        for b0 in b0s:
            curve = measures.fidelity_curve(_params(kind, b0), C0, times, order=32)
            worst = max(worst, float(curve.abs_diff.max()))
    _report(1, "closed-form and order-32 quadrature fidelities agree to 1e-6 "
               "for all four flows and field strengths", worst <= 1e-6,
            f"worst |diff| = {worst:.2e}")


def test_criterion_02_trap_beating_structure():
    p0 = _params(SystemKind.HO_FIELD, 0.0)
    dense = np.linspace(0.0, 4 * np.pi, 4001)
    f = fidelity_gaussian_closed(C0, evolve(p0, C0, dense))

    # the grid holds two periods, [0, 2 pi] and [2 pi, 4 pi] of 2001 samples each:
    # the lowest sample of each lies one grid step from its pi or 3 pi, at exp(-8)
    def min_in_period(period, at):
        k = 2000 * period + int(np.argmin(f[2000 * period:2000 * period + 2001]))
        return abs(dense[k] - at) <= dense[1] and abs(float(f[k]) - math.exp(-8.0)) <= 1e-9

    min_at_pi = min_in_period(0, np.pi) and min_in_period(1, 3 * np.pi)
    shift = fidelity_gaussian_closed(C0, evolve(p0, C0, dense[:1000] + 2 * np.pi))
    periodic = float(np.max(np.abs(shift - f[:1000]))) <= 1e-9

    def first_revival(omega, form):
        if form == "paper":
            ts = np.arange(0.0, 80.0, 5e-4)
            vals = measures.fidelity_ho_paper(omega, ts, C0)
        else:
            p = _params(SystemKind.HO_FIELD, 2.0 * omega)
            ts = np.arange(0.0, 700.0, 1e-3)
            vals = fidelity_gaussian_closed(C0, evolve(p, C0, ts))
        dip = np.nonzero(vals < 0.5)[0]
        rise = np.nonzero(vals[dip[0]:] > 0.999)[0]
        return float(ts[dip[0] + rise[0]])

    ordered = all(first_revival(0.1, form) > first_revival(0.5, form)
                  for form in ("paper", "consistent"))
    _report(2, "zero-field trap fidelity has period 2pi with minimum exp(-8) at t=pi, "
               "and the full-revival time grows as the field weakens",
            min_at_pi and periodic and ordered)


def test_criterion_03_free_charge_periodicity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for omega in (0.05, 0.25, 0.5):
        p = _params(SystemKind.FREE_FIELD, 2.0 * omega)
        ts = rng.uniform(0.0, 4 * np.pi, size=20)
        d = np.abs(fidelity_gaussian_closed(C0, evolve(p, C0, ts + np.pi / omega))
                   - fidelity_gaussian_closed(C0, evolve(p, C0, ts)))
        worst = max(worst, float(d.max()))
    _report(3, "free-charge fidelity repeats with period pi/omega to 1e-9 "
               "at 20 random times for omega in {0.05, 0.25, 0.5}", worst <= 1e-9,
            f"worst |diff| = {worst:.2e}")


def test_criterion_04_gravitational_suppression_ordering():
    ok = True
    for t in (0.25, 0.5, 1.0):
        vals = []
        for b0 in (0.0, 0.1, 0.5, 1.0):
            kind = SystemKind.GQW_BALLISTIC if b0 == 0.0 else SystemKind.GQW_FIELD
            ct = evolve(_params(kind, b0), C0, t)
            vals.append(float(fidelity_gaussian_closed(C0, ct)))
        ok = ok and all(b < a for a, b in zip(vals, vals[1:]))
    _report(4, "gravitational fidelity at t in {0.25, 0.5, 1.0} decreases strictly "
               "with field strength (zero-field row uses the ballistic flow)", ok)


def test_criterion_05_flow_self_consistency():
    cases = [
        _params(SystemKind.HO_FIELD, 1.0),
        _params(SystemKind.FREE_FIELD, 1.0),
        _params(SystemKind.GQW_BALLISTIC, 0.0),
        _params(SystemKind.GQW_FIELD, 0.5),
    ]
    ts = np.linspace(0.0, 20.0, 41)[1:]
    worst_res = worst_drift = worst_det = 0.0
    for p in cases:
        worst_res = max(worst_res, max(ode_residual(p, C0, t, h=1e-5) for t in ts))
        e0 = hamiltonian_value(p, C0)
        worst_drift = max(worst_drift,
                          max(abs(hamiltonian_value(p, evolve(p, C0, t)) - e0) for t in ts))
        # flows are affine in the initial point, so a larger step only cuts rounding
        worst_det = max(worst_det,
                        max(abs(np.linalg.det(flow_jacobian(p, C0, t, h=1e-3)) - 1.0) for t in ts))
    _report(5, "canonical residuals <= 1e-8, energy drift <= 1e-10 on [0, 20], "
               "flow determinant = 1 +- 1e-10 for all four flows",
            worst_res <= 1e-8 and worst_drift <= 1e-10 and worst_det <= 1e-10,
            f"res {worst_res:.1e}, drift {worst_drift:.1e}, |det-1| {worst_det:.1e}")


def test_criterion_06_stationarity_along_flows():
    rng = np.random.default_rng(62)
    pho = _params(SystemKind.HO_FIELD, 1.0)
    ho = StationaryHOState(1, 2, pho)
    pfr = _params(SystemKind.FREE_FIELD, 1.0)
    lan = LandauState(2, pfr)
    pgq = _params(SystemKind.GQW_BALLISTIC, 0.0)
    gqw = GQWState(1, pgq)

    worst = 0.0
    for _ in range(100):
        z0 = PhasePoint(*rng.uniform(-2.0, 2.0, size=4))
        t = float(rng.uniform(0.0, 10.0))
        zt = evolve(pho, z0, t)
        worst = max(worst, abs(float(ho.value(*zt)) - float(ho.value(*z0))))
        zt = evolve(pfr, z0, t)
        worst = max(worst, abs(float(lan.value(*zt)) - float(lan.value(*z0))))

    # the Airy sector lives on a declared bounded domain; keep both endpoints inside
    n = 0
    while n < 100:
        z0 = PhasePoint(0.0, float(rng.uniform(0.0, gqw.y_max)),
                        0.0, float(rng.uniform(-gqw.p_cut, gqw.p_cut)))
        t = float(rng.uniform(0.0, 0.5))
        zt = evolve(pgq, z0, t)
        if not (0.0 <= zt.y <= gqw.y_max and abs(zt.py) <= gqw.p_cut):
            continue
        worst = max(worst, abs(float(gqw.sector_y.value(zt.y, zt.py))
                               - float(gqw.sector_y.value(z0.y, z0.py))))
        n += 1
    _report(6, "stationary trap, Landau, and gravitational states are constant along "
               "their flows to 1e-8 at 100 random (point, t) pairs", worst <= 1e-8,
            f"worst |diff| = {worst:.2e}")


def _bisect_airy_zero(lo: float, hi: float) -> float:
    """Root of the ODE-marched reference Airy values; independent of the library."""
    flo = float(airy_ode_values(np.array([lo]))[0])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = float(airy_ode_values(np.array([mid]))[0])
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_07_spectra():
    pho = _params(SystemKind.HO_FIELD, 1.0)
    exact_ho = all(
        ho_energy(n1, n2, pho)
        == pho.hbar * (pho.big_omega * (n1 + n2 + 1) + pho.omega * (n1 - n2))
        for n1 in range(6) for n2 in range(6))
    exact_landau = True
    for b0 in (0.5, 1.0):
        pfr = _params(SystemKind.FREE_FIELD, b0)
        exact_landau = exact_landau and all(
            landau_energy(n, pfr) == pfr.hbar * pfr.omega * (2 * n + 1) for n in range(6))

    e1 = gqw_energy(1, _params(SystemKind.GQW_BALLISTIC, 0.0))
    e1_oracle = -((4.0 / 2.0) ** (1.0 / 3.0)) * _bisect_airy_zero(-3.0, -2.0)
    gqw_ok = abs(e1 - e1_oracle) <= 1e-5
    _report(7, "trap levels hbar[Omega(n1+n2+1) + omega(n1-n2)] and Landau levels "
               "hbar omega(2n+1) exact for n <= 5; ground gravitational level matches "
               "the bisection oracle within 1e-5",
            exact_ho and exact_landau and gqw_ok,
            f"E1 = {e1:.9f}, oracle {e1_oracle:.9f}, |diff| = {abs(e1 - e1_oracle):.1e}")


def test_criterion_08_eigenvalue_residual():
    st = GQWState(1, _params(SystemKind.GQW_BALLISTIC, 0.0))
    e = st.energy
    xis = (e - 1.0, e, e + 1.0, 0.5)
    worst = max(stargen_residual(st, xi) for xi in xis)
    broken = min(stargen_residual(st, xi, energy=e + 0.1) for xi in (e - 1.0, e, e + 1.0))
    _report(8, "the Airy state solves its phase-space eigenvalue ODE to 1e-6; "
               "shifting the level by 0.1 breaks the residual past 1e-3",
            worst <= 1e-6 and broken > 1e-3,
            f"residual {worst:.2e}, perturbed {broken:.2e}")


def test_criterion_09_entropy_shape():
    g4 = GaussianWigner(PhasePoint(0.0, 0.0, 0.0, 0.0))
    box4 = quadrature.box_scheme((45,) * 4, [(-8.0, 8.0)] * 4)
    box2 = quadrature.box_scheme((45,) * 2, [(-8.0, 8.0)] * 2)
    s4 = shannon_entropy(g4, box4)
    ssum = shannon_entropy(g4.sector_x, box2) + shannon_entropy(g4.sector_y, box2)
    additive = abs(s4 - ssum) <= 1e-8
    target = math.log(math.pi ** 2) + 2.0
    snorm = shannon_entropy(g4, box4, EntropyConvention.NORMALIZED_BOX)
    gaussian_value = abs(snorm - target) <= 1e-3

    b0s = [0.1, 0.25, 0.5, 1.0]
    ho_vals = entropy_vs_field([SystemParams(kind=SystemKind.HO_FIELD, b0=b0, omega0=1.0)
                                for b0 in [0.0] + b0s], nodes_per_axis=81)
    fr_vals = entropy_vs_field([SystemParams(kind=SystemKind.FREE_FIELD, b0=b0) for b0 in b0s],
                               nodes_per_axis=41)
    monotone = (all(b >= a - 1e-9 for a, b in zip(ho_vals, ho_vals[1:]))
                and all(b > a for a, b in zip(fr_vals, fr_vals[1:])))
    # the free curve is proportional to the field over the sweep, so it heads to
    # zero with the field; the trap curve is field-independent at its Gaussian value
    through_origin = all(abs(s / fr_vals[-1] - b0) <= 0.02 for b0, s in zip(b0s, fr_vals))
    trap_at_gaussian = abs(ho_vals[0] - target) <= 1e-3
    _report(9, "entropy is additive over sectors to 1e-8, the unit Gaussian gives "
               "ln(pi^2)+2 +- 1e-3, and the field sweeps are monotone with the free "
               "curve vanishing with the field",
            additive and gaussian_value and monotone and through_origin and trap_at_gaussian,
            f"additivity {abs(s4 - ssum):.1e}, gaussian {abs(snorm - target):.1e}")


def test_criterion_10_rotating_frame_identity():
    worst = 0.0
    for omega in (0.05, 0.1, 0.25, 0.5, 1.0):
        for t in np.linspace(0.0, 4 * np.pi, 50):
            a = float(measures.fidelity_ho_paper(omega, t, C0))
            b = float(fidelity_gaussian_closed(C0, paper_form_point(omega, t, C0)))
            worst = max(worst, abs(a - b))
    _report(10, "the rotating-frame fidelity equals the closed form along its own "
                "trajectory to 1e-12", worst <= 1e-12, f"worst |diff| = {worst:.2e}")


def test_criterion_11_parameter_map_round_trip(capsys):
    ps = SystemParams(kind=SystemKind.HO_FIELD, b0=0.0, omega0=1.0)
    spot = (abs(effective_b0(NCParams(theta=0.1, eta=0.2), ps) - 0.3) <= 1e-15
            and auxiliary_s(2.0, 0.25) == 1.0
            and not sigma_invertible(NCParams(theta=1.0, eta=1.0), 1.0)
            and sigma_invertible(NCParams(theta=1.0, eta=0.5), 1.0))

    assert cli.main(["ncmap", "--system", "ho", "--theta", "0.1", "--eta", "0.2"]) == 0
    table = capsys.readouterr().out
    header = None
    b0_text = None
    for line in table.splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            b0_text = dict(zip(header, line.split(",")))["b0_effective"]
    argv = ["trajectory", "--system", "ho", "--t-steps", "5"]
    assert cli.main(argv + ["--b0", b0_text]) == 0
    mapped = capsys.readouterr().out
    assert cli.main(argv + ["--b0", "0.3"]) == 0
    direct = capsys.readouterr().out
    _report(11, "parameter-map spot values hold and a mapped-field run is "
                "byte-identical to the direct-field run",
            spot and b0_text == "0.3" and mapped == direct)
