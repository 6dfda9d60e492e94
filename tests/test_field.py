"""Field construction, evaluation, sampling, FD stencils, and CSV round trips."""

import numpy as np
import pytest

from locpv.errors import OutOfDomain, StencilClipped
from locpv.field import (
    CustomField,
    DampedTranslational,
    Grid1x1,
    Harmonic,
    KinkDamped,
    SampledField,
    Translational,
    load_grid_csv,
    sample,
    save_grid_csv,
)
from locpv.field import _diff_axis


class TestGrid:
    def test_point_mapping_exact(self):
        g = Grid1x1(-1.0, 0.25, 9, 2.0, 0.5, 5)
        assert g.xs[3] == -1.0 + 3 * 0.25
        assert g.ts[4] == 2.0 + 4 * 0.5
        assert g.contains(-1.0, 4.0)
        assert not g.contains(1.1, 2.0)

    def test_contains_broadcasts_with_closed_bounds(self):
        g = Grid1x1(-1.0, 0.25, 9, 2.0, 0.5, 5)
        x = np.array([-1.0 - 1e-12, -1.0, 0.0, 1.0, 1.0 + 1e-12])
        inside = g.contains(x[None, :], np.array([2.0, 4.0, 4.5])[:, None])
        assert inside.shape == (3, 5)
        np.testing.assert_array_equal(inside[0], [False, True, True, True, False])
        assert not inside[2].any()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(x0=0, dx=0.1, nx=1, t0=0, dt=0.1, nt=5),
            dict(x0=0, dx=-0.1, nx=5, t0=0, dt=0.1, nt=5),
            dict(x0=0, dx=0.1, nx=5, t0=0, dt=0.0, nt=5),
        ],
    )
    def test_invalid_grids_rejected(self, kw):
        with pytest.raises(ValueError):
            Grid1x1(**kw)


class TestAnalyticEval:
    def test_unit_gaussian_peak(self):
        assert Translational(1.0).eval(0.0, 0.0) == pytest.approx(1.0)

    def test_kink_zero_at_front(self):
        assert KinkDamped(1.0, 0.3).eval(0.0, 0.0) == pytest.approx(0.0)

    def test_translational_derivative_ratio(self):
        fld = Translational(2.0)
        jet = fld.jet(0.7, 0.3, 1)
        assert -jet.deriv(1, 0) / jet.deriv(0, 1) == pytest.approx(2.0)

    def test_harmonic_first_derivatives(self):
        jet = Harmonic(3.0, 1.5).jet(0.0, 0.0, 1)
        assert jet.deriv(1, 0) == pytest.approx(3.0)
        assert jet.deriv(0, 1) == pytest.approx(-1.5)

    def test_custom_call_on_a_constant(self):
        fld = CustomField("exp(1)*sin(t-x)")
        assert fld.eval(0.3, 1.0) == pytest.approx(np.e * np.sin(0.7), rel=1e-15)

    def test_custom_power_of_constants(self):
        jet = CustomField("2**3*x").jet(0.5, 0.0, 1)
        assert jet.value == 4.0
        assert jet.deriv(0, 1) == 8.0

    @pytest.mark.parametrize("expression", ["1/0*x", "x/0", "sin(t)/(1-1)", "x/sin(0)"])
    def test_custom_division_by_a_constant_zero(self, expression):
        with pytest.raises(ValueError, match="division by a constant zero"):
            CustomField(expression).eval(0.5, 0.0)


class TestSampling:
    def test_sample_matches_direct_eval(self):
        g = Grid1x1(0.0, 0.1, 11, 0.0, 0.1, 11)
        fld = Harmonic(3.0, 1.5)
        s = sample(fld, g)
        assert s.values.shape == (11, 11)
        for j, i in [(0, 0), (0, 10), (10, 0), (10, 10)]:
            assert s.values[j, i] == pytest.approx(fld.eval(g.xs[i], g.ts[j]))

    def test_shape_mismatch_rejected(self):
        g = Grid1x1(0.0, 0.1, 4, 0.0, 0.1, 4)
        with pytest.raises(ValueError):
            SampledField(g, np.zeros((4, 5)))

    def test_nonfinite_rejected(self):
        g = Grid1x1(0.0, 0.1, 3, 0.0, 0.1, 3)
        vals = np.zeros((3, 3))
        vals[1, 1] = np.nan
        with pytest.raises(ValueError):
            SampledField(g, vals)


class TestFiniteDifferences:
    def test_first_derivatives_within_1e4(self):
        g = Grid1x1(-2.0, 0.01, 401, -1.0, 0.01, 201)
        fld = Translational(1.0)
        s = sample(fld, g)
        jf = s.jet(0.25, 0.1, 1)
        ja = fld.jet(0.25, 0.1, 1)
        assert abs(jf.deriv(1, 0) - ja.deriv(1, 0)) < 1e-4
        assert abs(jf.deriv(0, 1) - ja.deriv(0, 1)) < 1e-4

    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (0, 2), (2, 0), (0, 3)])
    def test_richardson_convergence_order(self, p, q):
        fld = Translational(1.0)
        exact = fld.jet(0.15, 0.05, 3).deriv(p, q)
        errs = []
        for h in (0.04, 0.02, 0.01):
            n = int(round(2.0 / h)) + 1
            g = Grid1x1(-1.0, h, n, -1.0, h, n)
            s = sample(fld, g)
            errs.append(abs(s.jet(0.15, 0.05, 3).deriv(p, q) - exact))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) >= 1.8

    def test_mixed_orderings_commute_within_truncation(self):
        g = Grid1x1(-2.0, 0.02, 201, -2.0, 0.02, 201)
        s = sample(DampedTranslational(1.0, 0.2), g)
        tx = _diff_axis(_diff_axis(s.values, g.dt, 1, 0), g.dx, 1, 1)
        xt = _diff_axis(_diff_axis(s.values, g.dx, 1, 1), g.dt, 1, 0)
        assert np.max(np.abs(tx - xt)) < 1e-10

    def test_out_of_domain_and_clipped(self):
        g = Grid1x1(0.0, 0.1, 21, 0.0, 0.1, 21)
        s = sample(Translational(1.0), g)
        with pytest.raises(OutOfDomain):
            s.eval(5.0, 0.5)
        with pytest.raises(OutOfDomain):
            s.jet(-0.5, 0.5, 1)
        # the whole grid, edges included, is the domain of every derivative
        s.jet(0.0, 2.0, 3)
        s.jet(2.0, 0.0, 3)
        # a 2-row grid is too short for any t-stencil
        two_rows = sample(Translational(1.0), Grid1x1(0.0, 0.1, 21, 0.0, 0.1, 2))
        with pytest.raises(StencilClipped):
            two_rows.jet(1.0, 0.05, 1)
        with pytest.raises(OutOfDomain) as info:
            two_rows.jet(1.0, 0.5, 1)
        assert type(info.value) is OutOfDomain
        # a batch raises StencilClipped only if a point is inside, as jet does
        with pytest.raises(StencilClipped):
            two_rows.jet_batch([5.0, 1.0], 0.05, 1)
        assert np.isnan(two_rows.jet_batch([5.0, -1.0], 0.05, 1)).all()

    def test_jet_batch_broadcasts(self):
        s = sample(Translational(1.0), Grid1x1(0.0, 0.1, 21, 0.0, 0.1, 21))
        table = s.jet_batch(np.array([0.5, 3.0]), np.array([[0.2], [0.4], [0.6]]), 2)
        assert table.shape == (3, 3, 3, 2)
        np.testing.assert_array_equal(table[..., 1, 0], s.jet(0.5, 0.4, 2).table)
        assert np.isnan(table[..., 1]).all()
        np.testing.assert_array_equal(s.jet_batch(0.5, 0.4, 2), s.jet(0.5, 0.4, 2).table)

    def test_stencil_clipped_is_out_of_domain(self):
        # a derivative whose stencil does not fit the grid has no domain at all
        assert issubclass(StencilClipped, OutOfDomain)
        g = Grid1x1(0.0, 0.1, 21, 0.0, 0.1, 2)
        two_rows = sample(Translational(1.0), g)
        with pytest.raises(StencilClipped):
            two_rows.derivatives_on(g, 1, 0)
        # order 0 needs no stencil: the whole grid is its domain
        assert two_rows.eval(0.0, 0.0) == pytest.approx(two_rows.values[0, 0], abs=1e-12)
        assert np.isfinite(two_rows.derivatives_on(g, 0, 1)).all()


class TestDerivativesOn:
    def test_own_grid_returns_the_fd_grid(self):
        g = Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 11)
        s = sample(DampedTranslational(1.0, 0.2), g)
        same = Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 11)  # equal to g, not the same object
        assert s.derivatives_on(same, 1, 1) is s.derivative_grid(1, 1)

    def test_nan_outside_the_grid(self):
        g = Grid1x1(0.0, 0.1, 21, 0.0, 0.1, 21)
        s = sample(Translational(1.0), g)
        q = Grid1x1(-0.25, 0.05, 51, 0.02, 0.05, 41)  # overhangs both x edges and t_max
        d = s.derivatives_on(q, 0, 2)
        inside = g.contains(q.xs, q.ts[:, None])
        assert np.all(np.isfinite(d[inside]))
        assert np.all(np.isnan(d[~inside]))
        exact = Translational(1.0).jet_batch(q.xs[None, 10:30], q.ts[:10, None], 2)[0, 2]
        np.testing.assert_allclose(d[:10, 10:30], exact, atol=0.05)


class TestCsv:
    def test_round_trip(self, tmp_path):
        g = Grid1x1(-1.0, 0.125, 9, 0.5, 0.25, 7)
        s = sample(Harmonic(2.0, 1.0), g)
        path = tmp_path / "field.csv"
        save_grid_csv(path, g, s.values)
        g2, vals, name = load_grid_csv(path)
        assert g2 == g
        assert name == "psi"
        np.testing.assert_allclose(vals, s.values, rtol=1e-12)

    def test_emission_is_deterministic(self, tmp_path):
        g = Grid1x1(0.0, 0.1, 5, 0.0, 0.1, 5)
        s = sample(Translational(1.5), g)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_grid_csv(p1, g, s.values)
        save_grid_csv(p2, g, s.values)
        assert p1.read_bytes() == p2.read_bytes()

    def test_body_is_fifteen_significant_digits(self, tmp_path):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((6, 7)) * 10.0 ** rng.integers(-300, 300, (6, 7))
        vals[0, :4] = [np.nan, np.inf, -0.0, 5e-324]
        g = Grid1x1(0.0, 0.1, 7, 0.0, 0.1, 6)
        path = tmp_path / "f.csv"
        save_grid_csv(path, g, vals)
        body = path.read_text().splitlines()[4:]
        assert body == [",".join(f"{v:.15g}" for v in row) for row in vals]

    def test_round_trip_at_the_float_extremes(self, tmp_path):
        # 15 digits of the largest doubles would round past them and read back as inf
        big = np.finfo(float).max
        vals = np.array([[big, -big, np.nextafter(big, 0)], [np.nan, np.inf, 5e-324]])
        g = Grid1x1(0.0, 0.1, 3, 0.0, 0.1, 2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_grid_csv(p1, g, vals)
        _, loaded, _ = load_grid_csv(p1)
        np.testing.assert_array_equal(loaded, vals)
        save_grid_csv(p2, g, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        g = Grid1x1(0.0, 0.1, 3, 0.0, 0.2, 2)
        path = tmp_path / "f.csv"
        save_grid_csv(path, g, np.zeros((2, 3)))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# x0=") and "nx=3" in lines[0]
        assert lines[1].startswith("# t0=") and "nt=2" in lines[1]
        assert lines[2] == "# field=psi"
        assert lines[3] == "# layout=row-per-time"
        assert len(lines) == 4 + 2
