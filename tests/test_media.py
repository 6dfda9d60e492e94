"""Refractive-medium transit relations, printed vs rederived first order."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq

import locpv.field
from locpv.errors import (
    DegenerateDenominator,
    DegenerateInterval,
    NonpositiveLogArgument,
    PoleOnPath,
    QuadratureLimit,
)
from locpv.media import (
    ConstantIndex,
    LinearIndex,
    ModeSpec,
    TabulatedIndex,
    TanhRampIndex,
    dynamic_separation,
    integrate,
    save_separation_csv,
    sign_audit,
    transit_time,
    v0_global,
    v0_local,
    vI_global,
    vI_global_rederived,
    vI_local,
    vI_local_rederived,
)
from locpv.tracker import Attribute, track


class TestProfiles:
    @pytest.mark.parametrize(
        "medium",
        [
            TanhRampIndex(1.0, 0.5, center=0.3, width=0.8),
            TabulatedIndex(np.linspace(-3, 3, 40), 1.0 + 0.3 / (1 + np.linspace(-3, 3, 40) ** 2)),
            LinearIndex(1.2, 0.07),
        ],
    )
    def test_n_prime_consistent_with_n(self, medium):
        rng = np.random.default_rng(1)
        h = 1e-5
        for x in rng.uniform(-2, 2, 100):
            fd = (medium.n(x + h) - medium.n(x - h)) / (2 * h)
            assert medium.n_prime(x) == pytest.approx(fd, rel=1e-8, abs=1e-8)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            ConstantIndex(-1.0)
        with pytest.raises(ValueError):
            TanhRampIndex(1.0, 0.5, width=0.0)
        with pytest.raises(ValueError):
            TabulatedIndex([0, 1, 2], [1.0, -0.5, 1.0])
        # one point, unequal lengths, a repeated x, x not increasing, a nan
        for xs, ns in [([0.0], [1.0]), ([0, 1, 2], [1.0, 1.1]), ([0, 1, 1], [1.0, 1.1, 1.2]),
                       ([0, 2, 1], [1.0, 1.1, 1.2]), ([0, 1, 2], [1.0, np.nan, 1.2])]:
            with pytest.raises(ValueError):
                TabulatedIndex(xs, ns)

    def test_mode_spec_requires_nonzero_xi(self):
        with pytest.raises(ValueError):
            ModeSpec(0.0, ConstantIndex(1.0))


_RNG = np.random.default_rng(3)


class TestTabulatedPchip:
    """TabulatedIndex against scipy's PchipInterpolator, its reference."""

    @pytest.mark.parametrize(
        "xs, ns",
        [
            ([0.0, 1.0], [1.0, 1.5]),
            ([0.0, 1.0, 2.0], [1.0, 1.5, 1.2]),
            ([0.0, 1.0, 3.0], [1.0, 1.0, 2.0]),
            ([0.0, 2.0, 2.5], [2.0, 1.8, 4.3]),
            ([0.0, 1.0, 2.0], [1.0, 1.1, 3.1]),
            (np.linspace(-3, 3, 40), 1.0 + 0.3 / (1 + np.linspace(-3, 3, 40) ** 2)),
            # uneven steps, flat runs and a secant slope that changes sign often
            (np.cumsum(_RNG.uniform(0.05, 1.0, 40)), np.round(_RNG.uniform(1.0, 2.0, 40), 1)),
        ],
        ids=["2-point", "3-point-turn", "3-point-flat", "end-slope-clamped", "end-slope-zeroed",
             "40-point-smooth", "40-point-rough"],
    )
    def test_series_matches_scipy_pchip(self, xs, ns):
        ref, medium = PchipInterpolator(xs, ns), TabulatedIndex(xs, ns)
        # inside the table, at its knots and extrapolated on both sides
        q = np.concatenate([np.linspace(xs[0] - 1.5, xs[-1] + 1.5, 301), xs])
        got = medium.series(q, 5)
        for k in range(4):
            want = ref.derivative(k)(q) / math.factorial(k)
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-13 * (1 + abs(want).max()))
        assert not np.any(got[4]) and not np.any(got[5])
        for i in range(0, len(q), 37):
            assert [float(c) for c in medium.series(q[i], 5)] == [c[i] for c in got]


def _slowness(mode):
    return lambda x: 1.0 / vI_local_rederived(mode, x)


class TestQuadrature:
    """media.integrate against scipy.integrate.quad, its reference."""

    @pytest.mark.parametrize(
        "medium",
        [
            ConstantIndex(1.5),
            LinearIndex(1.0, 0.1),
            LinearIndex(1.3, -0.05),
            TanhRampIndex(1.0, 0.5, center=1.0, width=0.8),
            TabulatedIndex(np.linspace(-2, 6, 5), 1.2 + 0.1 * np.sin(np.linspace(-2, 6, 5))),
        ],
        ids=["constant", "linear", "linear-falling", "tanh", "tabulated"],
    )
    def test_first_interval_matches_quad_bitwise(self, medium):
        for dx in (-1.0, 0.25, 1.0, 2.0):
            for xi in np.geomspace(0.5, 400.0, 8):
                mode = ModeSpec(float(xi), medium)
                value, err, info = quad(_slowness(mode), 0.0, dx, limit=200, full_output=1)
                assert info["last"] == 1
                assert integrate(_slowness(mode), 0.0, dx) == (value, err)
                assert vI_global_rederived(mode, dx) == dx / value

    @pytest.mark.parametrize("xi", [1.0, 10.0, 100.0])
    def test_bisection_agrees_with_quad_within_its_error(self, xi):
        # a ramp 100 times narrower than the path: quad splits it into 10-12
        # intervals and extrapolates; the port bisects without extrapolation
        mode = ModeSpec(xi, TanhRampIndex(1.0, 0.5, center=0.7, width=0.01))
        value, err, info = quad(_slowness(mode), 0.0, 2.0, limit=200, full_output=1)
        assert info["last"] > 1
        got, got_err = integrate(_slowness(mode), 0.0, 2.0)
        assert abs(got - value) <= err
        assert got_err <= 1.49e-8 * abs(got)

    def test_interval_limit_raises(self):
        # PCHIP's second derivative jumps at each of the 41 knots and the
        # rederived PV with it; each jump takes about 27 bisections
        xs = np.linspace(0.0, 2.0, 41)
        mode = ModeSpec(3.0, TabulatedIndex(xs, 1.2 + 0.02 * np.sin(7.0 * xs)))
        with pytest.raises(QuadratureLimit) as exc:
            vI_global_rederived(mode, 2.0)
        assert exc.value.token == "QuadratureLimit"

    def test_vanishing_local_velocity_is_a_pole_on_path(self):
        # (x*n)' = 1 - x vanishes at x = 1, and the rederived PV with it, so
        # the integrand 1/v has a pole there
        with pytest.raises(PoleOnPath):
            vI_global_rederived(ModeSpec(10.0, LinearIndex(1.0, -0.5)), 2.1)


class TestZeroOrder:
    def test_v0_local_homogeneous(self):
        m = ConstantIndex(1.5)
        for x in (-2.0, 0.0, 3.7):
            assert v0_local(m, x) == pytest.approx(1.0 / 1.5, abs=1e-14)

    def test_v0_local_linear_example(self):
        m = LinearIndex(1.0, 0.1)
        assert v0_local(m, 2.0) == pytest.approx(1.0 / 1.4, abs=1e-12)

    def test_v0_local_pole(self):
        # n = 1 - 0.5x gives n'x + n = 1 - x, vanishing at x = 1
        with pytest.raises(DegenerateDenominator):
            v0_local(LinearIndex(1.0, -0.5), 1.0)

    def test_v0_local_near_pole(self):
        # |n'x + n| ~ 1e-15 is below 1e-12 * c
        with pytest.raises(DegenerateDenominator):
            v0_local(LinearIndex(1.0, -0.5), 1.0 + 1e-15)

    def test_transit_time_linear_example(self):
        assert transit_time(LinearIndex(1.0, 0.1), 0.0, 2.0) == pytest.approx(2.4, abs=1e-12)

    def test_transit_time_homogeneous(self):
        assert transit_time(ConstantIndex(2.0), 0.5, 1.75) == pytest.approx(2.5, abs=1e-12)

    def test_transit_time_pole_on_path(self):
        with pytest.raises(PoleOnPath):
            transit_time(LinearIndex(1.0, -0.5), 0.0, 2.0)

    def test_transit_time_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            transit_time(ConstantIndex(1.0), 1.0, 1.0)

    def test_v0_global_examples(self):
        m = LinearIndex(1.0, 0.1)
        assert v0_global(m, 2.0) == pytest.approx(1.0 / 1.2, abs=1e-12)
        assert v0_global(m, 2.0) == pytest.approx(2.0 / 2.4, abs=1e-12)
        assert v0_global(ConstantIndex(1.3), 5.0) == pytest.approx(1.0 / 1.3)
        assert v0_global(m, 1e-12) == pytest.approx(v0_local(m, 0.0), rel=1e-9)

    def test_quadrature_of_local_matches_transit(self):
        m = TanhRampIndex(1.0, 0.4, center=1.0, width=0.5)
        t_closed = transit_time(m, 0.0, 2.0)
        t_quad, _ = quad(lambda x: 1.0 / v0_local(m, x), 0.0, 2.0, limit=200)
        assert t_quad == pytest.approx(t_closed, rel=1e-8)

    def test_tracker_reproduces_transit_time(self):
        # track the mode's level attribute across [0, 2] and interpolate the
        # arrival time at x = 2
        m = LinearIndex(1.0, 0.1)
        t_closed = transit_time(m, 0.0, 2.0)
        fld = ModeSpec(1.0, m, "exp").field()
        traj = track(fld, Attribute(0, 1.0, 0.0, 0.0), t_end=3.0, step=0.002)
        spline = CubicHermiteSpline(traj.t, traj.x, traj.v_local)
        t_arr = brentq(lambda t: spline(t) - 2.0, traj.t[0], traj.t[-1])
        assert t_arr == pytest.approx(t_closed, abs=1e-6)


class TestFirstOrderPrinted:
    def test_local_homogeneous_sign(self):
        mode = ModeSpec(3.0, ConstantIndex(1.5))
        assert vI_local(mode, 0.7) == pytest.approx(-1.0 / 1.5, abs=1e-12)

    def test_local_linear_example(self):
        mode = ModeSpec(10.0, LinearIndex(1.0, 0.1))
        expected = 1.0 / ((1.0 / 10.0) * (0.2 / 1.2) - 1.2)
        assert vI_local(mode, 1.0) == pytest.approx(expected, abs=1e-12)
        assert 1.0 / vI_local(mode, 1.0) == pytest.approx(-1.1833333333333333, abs=1e-12)

    def test_local_large_xi_limit(self):
        m = LinearIndex(1.0, 0.1)
        mode = ModeSpec(1e12, m)
        gp = m.n(1.0) + 1.0 * m.n_prime(1.0)
        assert vI_local(mode, 1.0) == pytest.approx(-1.0 / gp, rel=1e-9)

    def test_global_vacuum(self):
        mode = ModeSpec(7.0, ConstantIndex(1.0))
        assert vI_global(mode, 3.0) == pytest.approx(1.0, abs=1e-14)

    def test_global_linear_example(self):
        mode = ModeSpec(10.0, LinearIndex(1.0, 0.1))
        expected = 1.0 / (1.2 - (1.0 / 20.0) * np.log(1.4))
        assert vI_global(mode, 2.0) == pytest.approx(expected, abs=1e-12)
        assert 1.0 / vI_global(mode, 2.0) == pytest.approx(1.1831764, abs=1e-7)

    def test_global_large_xi_merges_with_v0(self):
        m = LinearIndex(1.0, 0.1)
        assert vI_global(ModeSpec(1e12, m), 2.0) == pytest.approx(
            v0_global(m, 2.0), rel=1e-9
        )

    def test_global_nonpositive_log_argument(self):
        with pytest.raises(NonpositiveLogArgument):
            vI_global(ModeSpec(1.0, LinearIndex(1.0, -0.6)), 2.0)

    def test_global_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            vI_global(ModeSpec(1.0, ConstantIndex(1.0)), 0.0)

    def test_global_subnormal_interval_is_degenerate(self):
        # c/(xi*dx) overflows to inf, and inf * log(n(dx)) = inf * 0 is nan
        with pytest.raises(DegenerateDenominator):
            vI_global(ModeSpec(1.0, LinearIndex(1.0, 0.1)), 1e-310)


class TestRederivation:
    def test_local_homogeneous_positive_sign(self):
        mode = ModeSpec(3.0, ConstantIndex(1.5))
        assert vI_local_rederived(mode, 0.7) == pytest.approx(1.0 / 1.5, abs=1e-10)

    def test_local_printed_is_sign_flipped(self):
        mode = ModeSpec(10.0, LinearIndex(1.0, 0.1))
        for x in (0.5, 1.0, 1.8):
            assert vI_local(mode, x) == pytest.approx(
                -vI_local_rederived(mode, x), abs=1e-10
            )

    @pytest.mark.parametrize("xi", [300.0, 400.0, 1000.0])
    def test_local_rederived_does_not_underflow(self, xi):
        # at t = 0 the jet of exp(-xi*n*x/c) underflows for xi*n(x)*x/c > ~690
        mode = ModeSpec(xi, LinearIndex(1.0, 0.1))
        for x in (0.5, 1.0, 2.0):
            assert vI_local_rederived(mode, x) == pytest.approx(-vI_local(mode, x), abs=1e-12)
        (row,) = dynamic_separation(mode.medium, 2.0, [xi])
        assert row.vI_rederived == pytest.approx(row.vI_global, rel=1e-9)

    def test_global_over_a_subnormal_interval_is_degenerate(self):
        # the quadrature over [0, 5e-324] is 0
        with pytest.raises(DegenerateDenominator):
            vI_global_rederived(ModeSpec(1.0, LinearIndex(1.0, 0.1)), 5e-324)

    def test_global_printed_matches_rederived(self):
        mode = ModeSpec(10.0, LinearIndex(1.0, 0.1))
        assert vI_global(mode, 2.0) == pytest.approx(
            vI_global_rederived(mode, 2.0), rel=1e-9
        )

    def test_one_quadrature_records_one_jet(self, monkeypatch):
        # quad evaluates the local velocity at 21 nodes per interval; the
        # mode's one field records its order-2 jet, at dt-degree 1, at the first of them
        recorded, record = [], locpv.field.straight_line
        monkeypatch.setattr(locpv.field, "straight_line", lambda expr, order, tdeg:
                            recorded.append((order, tdeg)) or record(expr, order, tdeg))
        mode = ModeSpec(10.0, LinearIndex(1.0, 0.1))
        vI_global_rederived(mode, 2.0)
        assert recorded == [(2, 1)]
        vI_global_rederived(mode, 1.0)
        assert recorded == [(2, 1)]

    def test_sign_audit_report(self):
        mode = ModeSpec(10.0, LinearIndex(1.0, 0.1))
        rep = sign_audit(mode, x=1.0, dx=2.0)
        assert rep["local_discrepancy"] > 1e-8
        assert rep["global_discrepancy"] < 1e-8
        assert rep["vI_local_printed"] == pytest.approx(-rep["vI_local_rederived"], abs=1e-10)
        for key in ("x", "dx", "xi"):
            assert key in rep


class TestDynamicSeparation:
    def test_homogeneous_no_separation(self):
        rows = dynamic_separation(ConstantIndex(1.0), 2.0, [1.0, 10.0, 100.0])
        v0s = {r.v0_global for r in rows}
        vIs = {r.vI_global for r in rows}
        assert len(v0s) == 1
        assert len(vIs) == 1
        assert rows[0].vI_global == pytest.approx(1.0)

    def test_linear_medium_separates_first_order_only(self):
        rows = dynamic_separation(LinearIndex(1.0, 0.1), 2.0, [1.0, 10.0, 100.0])
        v0s = [r.v0_global for r in rows]
        vIs = [r.vI_global for r in rows]
        assert v0s[0] == v0s[1] == v0s[2]  # exactly xi-independent
        assert len(set(vIs)) == 3
        diffs = np.diff(vIs)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_separation_decays_like_inverse_xi(self):
        m = LinearIndex(1.0, 0.1)
        v0 = v0_global(m, 2.0)
        d10 = abs(vI_global(ModeSpec(10.0, m), 2.0) - v0)
        d100 = abs(vI_global(ModeSpec(100.0, m), 2.0) - v0)
        assert d10 / d100 == pytest.approx(10.0, rel=0.2)

    def test_bad_xi_lists_rejected(self):
        with pytest.raises(ValueError):
            dynamic_separation(ConstantIndex(1.0), 2.0, [])
        with pytest.raises(ValueError):
            dynamic_separation(ConstantIndex(1.0), 2.0, [1.0, 0.0])

    def test_csv_emission(self, tmp_path):
        rows = dynamic_separation(LinearIndex(1.0, 0.1), 2.0, [1.0, 10.0])
        path = tmp_path / "sep.csv"
        save_separation_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "xi,v0_global,vI_global,vI_rederived"
        assert len(lines) == 3
