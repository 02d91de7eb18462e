"""Wigner states: values, signs, normalization, and stationarity."""

import math

import numpy as np
import pytest

from wigsim import wigner
from wigsim.dynamics import evolve
from wigsim.model import PhasePoint, SystemKind, SystemParams
from wigsim.quadrature import box_scheme, hermite_scheme, integrate
from wigsim.specfun import airy_ai
from wigsim.wigner import (
    Gaussian2D,
    GaussianWigner,
    GQWState,
    LandauState,
    StationaryHOState,
    _quad_forms,
    gqw_energy,
    ho_energy,
    landau_energy,
    normalize_gqw,
    stargen_residual,
)

GQW_E1 = 2.9458307433534534          # -2^{1/3} airy_zero(1) at m = hbar = 1, g = 2
GQW_A1 = 0.3949637115623306          # y-sector normalization of the same level


def trap_params(b0=0.0, omega0=1.0):
    return SystemParams(kind=SystemKind.HO_FIELD, b0=b0, omega0=omega0)


def landau_params(b0=1.0):
    return SystemParams(kind=SystemKind.FREE_FIELD, b0=b0)


def gqw_params(g=2.0):
    return SystemParams(kind=SystemKind.GQW_BALLISTIC, g=g)


def random_points(count, rng, scale=2.0):
    pts = rng.uniform(-scale, scale, (count, 4))
    return PhasePoint(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])


class TestGaussian:
    def test_peak_value(self):
        w = GaussianWigner()
        assert w.value(0.0, 0.0, 0.0, 0.0) == pytest.approx(1.0 / math.pi ** 2, rel=1e-12)

    def test_normalized(self):
        w = GaussianWigner(PhasePoint(1.0, -0.5, 0.3, 2.0))
        sch = hermite_scheme((24,) * 4, centers=(1.0, -0.5, 0.3, 2.0))
        assert integrate(w.value, 4, sch) == pytest.approx(1.0, abs=1e-10)

    def test_value_is_the_4d_gaussian(self):
        # value is read off the two sectors; check it against the 4D formula
        c = PhasePoint(1.0, -0.5, 0.3, 2.0)
        pts = np.random.default_rng(5).uniform(-2.0, 3.0, (4, 200))
        want = np.exp(-np.sum((pts - np.array(c)[:, None]) ** 2, axis=0)) / math.pi ** 2
        assert np.allclose(GaussianWigner(c).value(*pts), want, rtol=1e-14, atol=0.0)

    def test_sector_product(self):
        w = GaussianWigner(PhasePoint(1.0, -0.5, 0.3, 2.0))
        gx, gy = w.sector_x, w.sector_y
        val = gx.value(0.2, 0.1) * gy.value(-0.3, 1.2)
        assert val == pytest.approx(w.value(0.2, -0.3, 0.1, 1.2), rel=1e-12)

    def test_translation_covariance(self):
        # recentered Gaussian is the origin Gaussian of the displaced argument
        c = PhasePoint(0.7, -1.1, 0.4, 0.9)
        w0, wc = GaussianWigner(), GaussianWigner(c)
        assert wc.value(1.0, 1.0, 1.0, 1.0) == pytest.approx(
            w0.value(1.0 - c.x, 1.0 - c.y, 1.0 - c.px, 1.0 - c.py), rel=1e-12)


class TestStationaryHO:
    def test_ground_state_is_unit_gaussian(self):
        # m big_omega = 1 makes the stationary ground state the unit Gaussian
        state = StationaryHOState(0, 0, trap_params())
        w = GaussianWigner()
        rng = np.random.default_rng(3)
        pts = random_points(64, rng)
        assert np.allclose(state.value(*pts), w.value(*pts), rtol=1e-12, atol=1e-15)

    def test_invariant_forms_nonnegative(self):
        state = StationaryHOState(1, 2, trap_params(b0=1.0, omega0=0.3))
        rng = np.random.default_rng(5)
        pts = random_points(10_000, rng, scale=4.0)
        op, om = _quad_forms(state.params, *pts)
        assert np.all(op >= 0)
        assert np.all(om >= 0)

    def test_origin_sign_alternates(self):
        p = trap_params(b0=1.0, omega0=1.0)
        for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 1)):
            state = StationaryHOState(n1, n2, p)
            want = (-1.0) ** (n1 + n2) / (math.pi * p.hbar) ** 2
            assert state.value(0, 0, 0, 0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (2, 3)])
    def test_unit_integral(self, n1, n2):
        p = trap_params(b0=1.0, omega0=1.0)
        state = StationaryHOState(n1, n2, p)
        r = p.lam / p.kappa
        sx = math.sqrt(p.hbar / r)
        sp = math.sqrt(p.hbar * r)
        sch = hermite_scheme((32,) * 4, scales=(sx, sx, sp, sp))
        assert integrate(state.value, 4, sch) == pytest.approx(1.0, abs=1e-9)

    def test_stationary_under_flow(self):
        p = trap_params(b0=0.8, omega0=1.2)
        state = StationaryHOState(2, 1, p)
        rng = np.random.default_rng(9)
        pts = random_points(32, rng)
        base = state.value(*pts)
        for t in (0.37, 1.9, 5.1):
            moved = evolve(p, pts, t)
            assert np.allclose(state.value(*moved), base, rtol=1e-10, atol=1e-13)

    def test_sector_factorization_ground_only(self):
        p = trap_params(b0=0.7, omega0=1.1)
        ground = StationaryHOState(0, 0, p)
        val = ground.sector_x.value(0.4, -0.2) * ground.sector_y.value(0.1, 0.8)
        assert val == pytest.approx(ground.value(0.4, 0.1, -0.2, 0.8), rel=1e-12)
        excited = StationaryHOState(1, 0, p)
        with pytest.raises(ValueError):
            excited.sector_x

    def test_energy_formula(self):
        p = trap_params(b0=1.0, omega0=1.0)
        for n1 in range(3):
            for n2 in range(3):
                want = p.hbar * (p.big_omega * (n1 + n2 + 1) + p.omega * (n1 - n2))
                assert ho_energy(n1, n2, p) == want
        # integer arrays broadcast and give the scalar calls' floats exactly
        n1, n2 = np.divmod(np.arange(400), 20)
        want = [ho_energy(a, b, p) for a, b in zip(n1.tolist(), n2.tolist())]
        assert ho_energy(n1, n2, p).tolist() == want
        assert ho_energy(n1[:, None], n2, p).shape == (400, 400)
        with pytest.raises(ValueError):
            ho_energy(n1, n2 - 1, p)
        # levels are labelled by integers: the formula's value at 1.5 is no level
        for n in (1.5, 2.0, np.arange(3.0), True):
            with pytest.raises(ValueError, match="nonnegative integers"):
                ho_energy(0, n, p)

    def test_energy_rejects_the_continuum(self):
        # no trap and no field: big_omega = 0 and the ladder is a continuum
        with pytest.raises(ValueError, match="big_omega"):
            ho_energy(0, 0, trap_params(b0=0.0, omega0=0.0))
        assert ho_energy(0, 0, trap_params(b0=0.5, omega0=0.0)) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            StationaryHOState(-1, 0, trap_params())
        # a level is labelled by integers, and a bool is not one
        for n1, n2 in ((True, False), (1.5, 0), (0, np.array([1]))):
            with pytest.raises(ValueError, match="must be a nonnegative integer"):
                StationaryHOState(n1, n2, trap_params())
        with pytest.raises(ValueError):
            StationaryHOState(0, 0, SystemParams(kind=SystemKind.FREE_FIELD, b0=0.0))


class TestLandau:
    def test_printed_form(self):
        p = landau_params()
        state = LandauState(0, p)
        # ground level: W = e^{-Omega/hbar} / (pi hbar)
        om = _quad_forms(p, 1.0, 0.5, -0.2, 0.3)[0]
        assert state.value(1.0, 0.5, -0.2, 0.3) == pytest.approx(
            math.exp(-om) / math.pi, rel=1e-12)
        assert om >= 0

    def test_form_nonnegative(self):
        state = LandauState(2, landau_params())
        rng = np.random.default_rng(7)
        pts = random_points(10_000, rng, scale=5.0)
        assert np.all(_quad_forms(state.params, *pts)[0] >= 0)

    def test_stationary_under_flow(self):
        p = landau_params()
        state = LandauState(1, p)
        rng = np.random.default_rng(11)
        pts = random_points(32, rng)
        base = state.value(*pts)
        for t in (0.5, 2.2):
            moved = evolve(p, pts, t)
            assert np.allclose(state.value(*moved), base, rtol=1e-10, atol=1e-13)

    def test_energy_ladder(self):
        p = landau_params()
        for n in range(6):
            assert landau_energy(n, p) == p.hbar * p.omega * (2 * n + 1)
        levels = np.arange(1000)
        assert landau_energy(levels, p).tolist() == [landau_energy(n, p) for n in range(1000)]
        with pytest.raises(ValueError):
            landau_energy(levels - 1, p)
        for n in (0.5, 1.0, np.arange(3.0), True):
            with pytest.raises(ValueError, match="nonnegative integer"):
                landau_energy(n, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            LandauState(0, landau_params(b0=0.0))
        with pytest.raises(ValueError):
            LandauState(-1, landau_params())
        for n in (True, 1.5):
            with pytest.raises(ValueError, match="Landau index must be a nonnegative integer"):
                LandauState(n, landau_params())
        with pytest.raises(ValueError):
            LandauState(0, trap_params(b0=1.0))


class TestGQW:
    def test_first_level_energy(self):
        assert gqw_energy(1, gqw_params()) == pytest.approx(GQW_E1, rel=1e-12)
        state = GQWState(1, gqw_params())
        assert state.energy == pytest.approx(GQW_E1, rel=1e-12)

    def test_energy_ladder_increases(self):
        p = gqw_params()
        levels = [gqw_energy(n, p) for n in range(1, 8)]
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_normalization_constant(self):
        state = GQWState(1, gqw_params())
        assert state.norm == pytest.approx(GQW_A1, rel=1e-9)

    def test_norm_against_finer_scheme(self):
        state = GQWState(1, gqw_params())
        fine = box_scheme((512, 512), [(0.0, state.y_max), (-state.p_cut, state.p_cut)])

        def absval(y, py):
            xi = py ** 2 / (2.0 * state.params.mass) + state.params.mass * state.params.g * y
            return np.abs(airy_ai(state.alpha * (xi - state.energy)))

        assert 1.0 / integrate(absval, 2, fine) == pytest.approx(state.norm, rel=1e-5)

    @pytest.mark.parametrize("g", [0.7, 2.0, 3.9])
    @pytest.mark.parametrize("n_y", [1, 3, 6, 12])
    def test_norm_matches_two_pass_oracle(self, n_y, g):
        # the earlier route: integrate the box, then the tail box
        # [y_max, 2 y_max] at the same spacing, and compare the two masses.
        # Both boxes are uniform in alpha m g y and py / p_cut, so the tail's
        # share depends on n alone: the same at every (m, g, hbar), <= 1e-6
        def masses(state):
            m, mg = state.params.mass, state.params.mass * state.params.g

            def absval(y, py):
                xi = py ** 2 / (2.0 * m) + mg * y
                return np.abs(airy_ai(state.alpha * (xi - state.energy)))

            p_bounds = (-state.p_cut, state.p_cut)
            return [integrate(absval, 2, box_scheme((256, 256), [y_bounds, p_bounds]))
                    for y_bounds in ((0.0, state.y_max), (state.y_max, 2 * state.y_max))]

        total, tail = masses(GQWState(n_y, gqw_params()))
        unit_share = tail / total
        assert unit_share <= 1e-6
        for mass, hbar in ((1.0, 1.0), (0.3, 2.5), (4.0, 0.2)):
            state = GQWState(n_y, SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=mass, g=g,
                                               hbar=hbar))
            total, tail = masses(state)
            assert tail / total == pytest.approx(unit_share, rel=1e-12)
            assert state.norm == pytest.approx(1.0 / total, rel=1e-12)
            assert normalize_gqw(state) == pytest.approx(1.0 / total, rel=1e-12)

    @pytest.mark.parametrize("g, hbar", [(1e-300, 1.0), (2.0, 1e-300), (1e-200, 1e-150),
                                         (1e200, 1.0)])
    def test_energy_at_extreme_scales_against_mpmath(self, g, hbar):
        # m g^2 hbar^2 under- or overflows here, though the energies are normal floats
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        p = SystemParams(kind=SystemKind.GQW_BALLISTIC, g=g, hbar=hbar)
        scale = mpmath.cbrt(mpmath.mpf(g) ** 2 * mpmath.mpf(hbar) ** 2 / 2)
        for n, e in zip((1, 2), gqw_energy(np.array([1, 2]), p)):
            want = -scale * mpmath.airyaizero(n)
            assert abs(e - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("g, hbar", [(1e-300, 1.0), (2.0, 1e-300), (1e-200, 1e-150),
                                         (1e200, 1.0)])
    def test_state_at_extreme_scales(self, g, hbar):
        # alpha comes from the same scale as the energy, so the state builds
        # wherever the energy does; norm * hbar does not depend on g or hbar
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        state = GQWState(1, SystemParams(kind=SystemKind.GQW_BALLISTIC, g=g, hbar=hbar))
        want = mpmath.cbrt(8 / (mpmath.mpf(g) ** 2 * mpmath.mpf(hbar) ** 2))
        assert abs(state.alpha - want) <= 1e-12 * want
        assert state.norm * hbar == pytest.approx(GQWState(1, gqw_params()).norm, rel=1e-12)

    @pytest.mark.parametrize("mass, g, hbar", [
        (1e-300, 1e50, 1e150), (1e-300, 1e150, 1e50), (1e-300, 1e150, 1e150),
        (1e-300, 1e300, 1e-50), (1e-300, 1e300, 1.0), (1e-300, 1e300, 1e50),
        (1e-300, 1e300, 1e150), (1e-300, 1e300, 1e300), (1e-150, 1e50, 1e300),
        (1e-150, 1e150, 1e300), (1e-150, 1e300, 1e50), (1e-150, 1e300, 1e150),
        (1e-50, 1e150, 1e300), (1e-50, 1e300, 1e150),
    ])
    def test_state_where_the_airy_width_underflows(self, mass, g, hbar):
        # 1 / (alpha m g), the Airy width in y, overflows here (alpha m g
        # underflows to 0); the domain is fixed in Airy units, so the state
        # builds with the unit-scale norm * hbar all the same
        state = GQWState(1, SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=mass, g=g,
                                         hbar=hbar))
        assert state.norm * hbar == pytest.approx(GQWState(1, gqw_params()).norm, rel=1e-12)

    @pytest.mark.parametrize("mass, g, hbar", [
        (1e-300, 1.0, 1e300), (1e-300, 1e50, 1e300), (1e-300, 1e150, 1e300),
        (1e-150, 1e-150, 1e300),
    ])
    def test_domain_beyond_float_range(self, mass, g, hbar):
        # the same underflowing Airy width, where y_max or p_cut is not finite
        p = SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=mass, g=g, hbar=hbar)
        with pytest.raises(ValueError, match="box bounds"):
            GQWState(1, p)

    @pytest.mark.parametrize("mass, g", [(1e-300, 1e-50), (1e-150, 1e-300), (1e-300, 1e-300)])
    def test_mass_times_gravity_underflow(self, mass, g):
        # y_max = 3 E / (m g) has no scale when m g underflows
        p = SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=mass, g=g)
        with pytest.raises(ValueError, match="m g underflows"):
            GQWState(1, p)

    @pytest.mark.parametrize("mass, g, hbar", [
        (1e-300, 1e-300, 1e-300),   # the scale underflows
        (1e300, 1e300, 2e12),       # the scale is finite, the energies are not
    ], ids=["scale-underflow", "energy-overflow"])
    def test_energy_scale_out_of_range(self, mass, g, hbar):
        p = SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=mass, g=g, hbar=hbar)
        with pytest.raises(ValueError, match="energy scale"):
            gqw_energy(np.array([1, 2]), p)

    def test_energy_of_level_array(self):
        p = gqw_params(3.9)
        levels = gqw_energy(np.arange(1, 13), p)
        assert levels.tolist() == [gqw_energy(n, p) for n in range(1, 13)]
        with pytest.raises(ValueError):
            gqw_energy(np.array([2, 0]), p)

    def test_unit_mass_on_domain(self):
        state = GQWState(1, gqw_params())
        sch = box_scheme((256, 256), [(0.0, state.y_max), (-state.p_cut, state.p_cut)])

        def absval(y, py):
            return np.abs(state.sector_y.value(y, py))

        assert integrate(absval, 2, sch) == pytest.approx(1.0, rel=1e-6)

    def test_airy_factor_at_turning_point(self):
        # xi = E puts the Airy argument at zero
        state = GQWState(1, gqw_params())
        p = state.params
        y_turn = state.energy / (p.mass * p.g)
        want = state.sector_x.value(0.3, -0.1) * state.norm * 0.35502805388781723926
        assert state.value(0.3, y_turn, -0.1, 0.0) == pytest.approx(want, rel=1e-9)

    def test_decays_past_turning_point(self):
        state = GQWState(1, gqw_params())
        peak = state.norm * 0.5357  # max |Ai| is about 0.5357 at the first hump
        assert abs(state.sector_y.value(state.y_max, 0.0)) < 1e-5 * peak

    def test_y_sector_constant_along_ballistic_flow(self):
        # the y sector depends only on xi = py^2/2m + m g y, which the
        # ballistic flow conserves; sample points whose image stays in domain
        p = gqw_params()
        state = GQWState(1, p)
        rng = np.random.default_rng(13)
        kept = 0
        for _ in range(200):
            y0 = rng.uniform(0.0, state.y_max)
            py0 = rng.uniform(-state.p_cut, state.p_cut)
            t = rng.uniform(-0.3, 0.3)
            pt = evolve(p, PhasePoint(0.0, y0, 0.0, py0), t)
            if not 0.0 <= pt.y <= state.y_max:
                continue
            kept += 1
            # abs floor 1e-11: deep-tail Airy values carry series noise ~1e-12
            assert state.sector_y.value(pt.y, pt.py) == pytest.approx(
                state.sector_y.value(y0, py0), rel=1e-10, abs=1e-11)
        assert kept > 50

    def test_x_sector_is_the_unit_gaussian(self):
        # the x factor is the unit Gaussian at the origin
        state = GQWState(1, gqw_params())
        pts = np.random.default_rng(17).uniform(-2.0, 2.0, (2, 50))
        assert np.array_equal(state.sector_x.value(*pts), Gaussian2D().value(*pts))

    def test_domain_enforced(self):
        state = GQWState(1, gqw_params())
        with pytest.raises(ValueError):
            state.sector_y.value(-0.1, 0.0)
        with pytest.raises(ValueError):
            state.sector_y.value(state.y_max + 0.1, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GQWState(0, gqw_params())
        # a non-integer level fails on the level, not inside the Airy zero search
        for n in (True, 1.5):
            with pytest.raises(ValueError, match="gravitational level index must be an integer"):
                GQWState(n, gqw_params())
        for n in (1.5, np.array([1.0, 2.0]), True):
            with pytest.raises(ValueError, match="gravitational level index must be an integer"):
                gqw_energy(n, gqw_params())
        # a system without gravity, a trap or a free charge too, has no gravitational level
        for params in (SystemParams(kind=SystemKind.GQW_BALLISTIC, g=0.0), landau_params(),
                       SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0)):
            with pytest.raises(ValueError, match="requires g > 0"):
                GQWState(1, params)


class TestSectors:
    """sectors(): the two factors and the axes they act on multiply back to
    the 4D state; levels that are not products have none."""

    @pytest.mark.parametrize("make", [
        lambda: GaussianWigner(PhasePoint(1.0, -0.5, 0.3, 2.0)),
        lambda: StationaryHOState(0, 0, SystemParams(kind=SystemKind.HO_FIELD, mass=1.7,
                                                     hbar=0.6, b0=0.8, omega0=1.3)),
        lambda: LandauState(0, SystemParams(kind=SystemKind.FREE_FIELD, mass=1.7, hbar=0.6,
                                            charge=2.3, b0=0.5)),
        lambda: GQWState(1, gqw_params()),
    ], ids=["gaussian", "trap", "landau", "gqw"])
    def test_product_is_the_state(self, make):
        state = make()
        rng = np.random.default_rng(13)
        pts = rng.uniform(-2.0, 2.0, (4, 200))
        pts[1] = rng.uniform(0.0, 2.0, 200)      # inside the GQW y domain
        (wa, axes_a), (wb, axes_b) = state.sectors()
        assert sorted(axes_a + axes_b) == [0, 1, 2, 3]
        got = wa.value(*pts[list(axes_a)]) * wb.value(*pts[list(axes_b)])
        assert np.allclose(got, state.value(*pts), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("make", [
        lambda: StationaryHOState(1, 0, trap_params(b0=0.5)),
        lambda: StationaryHOState(0, 2, trap_params(b0=0.5)),
        lambda: LandauState(1, landau_params()),
    ], ids=["trap-1-0", "trap-0-2", "landau-1"])
    def test_excited_levels_have_no_sectors(self, make):
        with pytest.raises(ValueError):
            make().sectors()

    @pytest.mark.parametrize("make", [
        lambda: StationaryHOState(0, 0, SystemParams(kind=SystemKind.HO_FIELD, hbar=1e-300,
                                                     b0=0.5, omega0=1.0)),
        lambda: LandauState(0, SystemParams(kind=SystemKind.FREE_FIELD, mass=1e300, b0=0.5)),
        lambda: LandauState(0, SystemParams(kind=SystemKind.FREE_FIELD, b0=1e-300)),
    ], ids=["trap-hbar-1e-300", "landau-mass-1e300", "landau-b0-1e-300"])
    def test_out_of_range_precisions_have_no_sectors(self, make):
        # 1/hbar^2 overflows, or lam/kappa underflows to 0
        with pytest.raises(ValueError, match="sector precisions"):
            make().sectors()

    def test_vanishing_precision_product_is_allowed(self):
        # 1/hbar^2 underflows to 0 at hbar = 1e300, but both precisions stay positive
        p = SystemParams(kind=SystemKind.HO_FIELD, hbar=1e300, b0=0.5, omega0=1.0)
        (wa, _), (wb, _) = StationaryHOState(0, 0, p).sectors()
        assert wa.hbar == wb.hbar == 1e300

    def test_sector_properties_are_read_only(self):
        state = GQWState(1, gqw_params())
        assert state.sector_x is state.sectors()[0][0]
        assert state.sector_y is state.sectors()[1][0]
        with pytest.raises(AttributeError):
            state.sector_x = Gaussian2D()


class TestStarGen:
    def test_residual_small_on_shell(self):
        state = GQWState(1, gqw_params())
        for xi in (state.energy, state.energy - 0.7, state.energy + 0.7):
            assert stargen_residual(state, xi) <= 1e-6

    def test_residual_scales_quadratically(self):
        state = GQWState(2, gqw_params())
        xi = state.energy + 0.3
        coarse = stargen_residual(state, xi, h=4e-3)
        fine = stargen_residual(state, xi, h=1e-3)
        assert 8.0 <= coarse / fine <= 40.0

    def test_wrong_energy_breaks_identity(self):
        state = GQWState(1, gqw_params())
        assert stargen_residual(state, state.energy, energy=state.energy + 0.1) > 1e-3

    def test_residual_without_hbar_squared(self):
        # hbar^2 = 1e320 overflows, yet alpha = 2 and alpha h = 1e-3 as at g = hbar = 1
        unit = GQWState(1, SystemParams(kind=SystemKind.GQW_BALLISTIC, g=1.0))
        far = GQWState(1, SystemParams(kind=SystemKind.GQW_BALLISTIC, g=1e-160, hbar=1e160))
        assert far.alpha == pytest.approx(unit.alpha, rel=1e-14)
        for frac in (0.5, 1.0, 1.3):
            # both are a 4e-8 truncation error, with rounding noise ~1e-10
            # divided by (alpha h)^2 on top
            got = stargen_residual(far, frac * far.energy)
            assert got == pytest.approx(stargen_residual(unit, frac * unit.energy), rel=1e-2)
            assert got <= 1e-6

    @pytest.mark.parametrize("g, hbar, h", [
        (1e-100, 1.0, 5e-4),       # alpha h = 4.6e63: the step spans many Airy widths
        (1e-200, 1e-150, 5e-4),    # alpha h = 1e230: the residual was nan
        (1e300, 1.0, 5e-4),        # alpha h = 1e-203: the difference is rounding noise
        (2.0, 1.0, 5e-5),          # alpha h = 6.3e-5
        (2.0, 1.0, 0.1),           # alpha h = 0.126
        (2.0, 1.0, 0.0),
        (2.0, 1.0, math.nan),
    ])
    def test_step_outside_window_rejected(self, g, hbar, h):
        state = GQWState(1, SystemParams(kind=SystemKind.GQW_BALLISTIC, g=g, hbar=hbar))
        with pytest.raises(ValueError, match="alpha h"):
            stargen_residual(state, state.energy, h=h)

    @pytest.mark.parametrize("g", [0.5, 4.0])
    def test_default_step_inside_window_over_benchmark_gravities(self, g):
        # the gravity-tables levels job draws g from [0.5, 4]: alpha h from 4.0e-4 to 1.6e-3
        state = GQWState(1, gqw_params(g))
        assert 3.9e-4 <= state.alpha * 5e-4 <= 1.6e-3
        assert stargen_residual(state, state.energy) <= 1e-6

    def test_peak_is_norm_times_ai_at_first_critical_point(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        a1 = mpmath.airyaizero(1, derivative=1)
        peak = mpmath.airyai(a1)
        assert abs(wigner._AI_PEAK - peak) <= 1e-15 * peak
        for n in range(1, 13):
            state = GQWState(n, gqw_params())
            # a'_1 lies in the domain's Airy range [-alpha E, 12], so the
            # peak of |W_y| is reached there
            assert -state.alpha * state.energy < a1 < 12.0
            w_peak = state.sector_y.value_xi(state.energy + float(a1) / state.alpha)
            assert w_peak == pytest.approx(state.norm * float(peak), rel=1e-10)
            # the residual divides by that peak: two wrong energies differ
            # by (e2 - e1) W_y(xi) / peak
            xi = state.energy + float(a1) / state.alpha
            e1, e2 = state.energy - 2.0, state.energy - 1.0
            got = (stargen_residual(state, xi, energy=e1)
                   - stargen_residual(state, xi, energy=e2))
            assert got == pytest.approx(w_peak / (state.norm * float(peak)), rel=1e-12)
            # the 2001-point scan it replaces fell short by up to 3.2e-5
            # (n = 10), by 1.6e-8 at n = 3
            scan = np.max(np.abs(state.sector_y.value_xi(np.linspace(0.0, state.xi_max, 2001))))
            assert 0.0 <= 1.0 - scan / (state.norm * float(peak)) < 3.2e-5

    def test_field_variant_same_y_sector(self):
        # the y sector is set by (m, g, hbar); the field only moves the x part
        ballistic = GQWState(1, gqw_params())
        infield = GQWState(1, SystemParams(kind=SystemKind.GQW_FIELD, b0=0.5, g=2.0))
        assert infield.energy == pytest.approx(ballistic.energy, rel=1e-14)
        assert infield.norm == pytest.approx(ballistic.norm, rel=1e-12)
