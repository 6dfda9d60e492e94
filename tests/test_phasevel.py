"""Phase-velocity formulas, masks, spectra, and the classical diagnostics."""

import numpy as np
import pytest

from locpv.errors import NotOscillatory, OrderTooHigh
from locpv.field import (
    CustomField,
    DampedTranslational,
    Grid1x1,
    Harmonic,
    KinkDamped,
    Translational,
    sample,
)
from locpv.phasevel import (
    classical_diagnostics,
    damped_spectrum,
    is_pole,
    kink_spectrum,
    pv_field,
    pv_point,
)


class TestPvPoint:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_translational_all_orders_equal_a(self, order):
        fld = Translational(2.0)
        assert pv_point(fld, 0.4, -0.3, order) == pytest.approx(2.0, abs=1e-12)

    def test_translational_all_orders_sampled(self):
        g = Grid1x1(-2.0, 1e-2, 401, -1.0, 1e-2, 201)
        s = sample(Translational(2.0), g)
        for order in (0, 1, 2):
            assert pv_point(s, 0.1, -0.2, order) == pytest.approx(2.0, abs=1e-3)

    def test_damped_peak_is_singular(self):
        fld = DampedTranslational(1.0, 0.3)
        assert pv_point(fld, 0.0, 0.0, 0) is None

    def test_damped_off_peak_value(self):
        fld = DampedTranslational(1.0, 0.1)
        assert pv_point(fld, 0.0, 0.5, 0) == pytest.approx(1.1, abs=1e-12)

    def test_order_too_high(self):
        with pytest.raises(OrderTooHigh):
            pv_point(Translational(1.0), 0.0, 0.1, 9)

    def test_harmonic_identity(self):
        fld = Harmonic(3.0, 1.5)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, t = rng.uniform(-2, 2, 2)
            v = pv_point(fld, x, t, 0)
            if v is not None:
                assert v == pytest.approx(3.0 / 1.5, abs=1e-12)


class TestPvField:
    def test_harmonic_uniform_two(self):
        g = Grid1x1(0.0, 0.07, 40, 0.0, 0.05, 30)
        pvf = pv_field(Harmonic(3.0, 1.5), g, 0)
        assert np.all(np.abs(pvf.values[pvf.mask] - 2.0) < 1e-10)
        assert pvf.mask.mean() > 0.9  # only cos zeros masked

    def test_constant_field_fully_masked(self):
        g = Grid1x1(0.0, 0.1, 10, 0.0, 0.1, 10)
        pvf = pv_field(CustomField("1 + 0*x + 0*t"), g, 0)
        assert not pvf.mask.any()

    def test_kink_singularities_localized(self):
        # v_II poles sit at phi = +-1/sqrt(3); with a=1 and t ~ 0, x = -phi
        g = Grid1x1(-1.0, 1e-3, 2001, -0.5e-3, 1e-3, 2)
        pvf = pv_field(KinkDamped(1.0, 0.2), g, 2, eps_den=3e-3)
        pole = 1.0 / np.sqrt(3.0)
        for j in range(2):
            t = g.ts[j]
            masked_x = g.xs[~pvf.mask[j]]
            assert masked_x.size > 0
            for x_pole in (t - pole, t + pole):
                near = masked_x[np.abs(masked_x - x_pole) < 10 * g.dx]
                assert near.size > 0
                assert abs(near.mean() - x_pole) <= g.dx

    def test_kink_first_order_masked_at_front(self):
        g = Grid1x1(-0.2, 1e-3, 401, -0.5e-3, 1e-3, 2)
        pvf = pv_field(KinkDamped(1.0, 0.2), g, 1, eps_den=3e-3)
        for j in range(2):
            masked_x = g.xs[~pvf.mask[j]]
            assert np.min(np.abs(masked_x - g.ts[j])) <= g.dx

    def test_mask_correctness_invariant(self):
        g = Grid1x1(0.0, 0.05, 60, 0.0, 0.05, 40)
        s = sample(Harmonic(3.0, 1.5), g)
        pvf = pv_field(s, g, 0)
        den = s.derivative_grid(0, 1)
        assert np.all(np.abs(den[pvf.mask]) >= pvf.eps_den)
        assert np.all(np.abs(den[~pvf.mask]) < pvf.eps_den)
        assert np.all(np.isfinite(pvf.values[pvf.mask]))

    def test_sampled_overhanging_grid_masks_outside(self):
        g = Grid1x1(-2.0, 0.05, 81, 0.0, 0.05, 41)
        s = sample(DampedTranslational(1.0, 0.1), g)
        q = Grid1x1(-2.6, 0.07, 75, -0.4, 0.06, 45)  # past both x edges and both t edges
        in_x = (q.xs >= g.x0) & (q.xs <= g.x_max)
        in_t = (q.ts >= g.t0) & (q.ts <= g.t_max)
        inside = in_t[:, None] & in_x[None, :]
        assert inside.any() and not inside.all()
        for order in range(3):
            pvf = pv_field(s, q, order)
            assert not np.any(pvf.mask & ~inside)
            for j, i in zip(*np.nonzero(pvf.mask)):
                v = pv_point(s, q.xs[i], q.ts[j], order)
                if v is not None:
                    assert v == pytest.approx(pvf.values[j, i], rel=1e-12, abs=1e-12)

    def test_sweep_masks_the_point_poles(self):
        # den = 1e-13 * exp(t) is below 1e-12 * |num| at every node, and
        # above the default grid floor
        fld = CustomField("exp(t)*(1 + 1e-13*x)")
        g = Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 11)
        assert not pv_field(fld, g, 0).mask.any()
        assert pv_point(fld, g.xs[3], g.ts[2], 0) is None

    def test_amplified_pulse_backward_propagation(self):
        # gain (lam < 0) makes v0 on the leading ascending flank negative
        g = Grid1x1(-0.9, 0.01, 80, 0.0, 0.01, 5)
        pvf = pv_field(DampedTranslational(1.0, -2.0), g, 0)
        assert np.nanmin(pvf.values[pvf.mask]) < 0.0


class TestIsPole:
    EDGES = [0.0, -0.0, 1e-320, 1e-300, -1e-300, 1e-12, 1.0, -3.0, 1e12, 1e300,
             np.inf, -np.inf, np.nan, 5e-324]

    def test_arrays_equal_scalars(self):
        num, den = np.meshgrid(self.EDGES, self.EDGES)
        scalar = [[is_pole(float(n), float(d)) for n, d in zip(rn, rd)]
                  for rn, rd in zip(num, den)]
        assert np.array_equal(is_pole(num, den), scalar)

    def test_non_poles_have_bounded_ratios(self):
        num, den = np.meshgrid(self.EDGES, self.EDGES)
        ok = ~is_pole(num, den) & np.isfinite(num) & np.isfinite(den)
        assert np.all(np.abs(num[ok] / den[ok]) <= 1e12)
        assert is_pole(1.0, 0.0) and is_pole(0.0, 0.0) and is_pole(np.inf, 1.0)
        assert not is_pole(np.nan, 1.0) and not is_pole(1.0, np.nan)


class TestSpectra:
    def test_damped_spectrum_peak_and_limits(self):
        assert damped_spectrum(1.3, 0.4, "gauss", 0.0, 1) == pytest.approx(1.3, abs=1e-12)
        for order in range(3):
            assert damped_spectrum(2.0, 0.0, "gauss", 0.37, order) == pytest.approx(2.0)
        assert damped_spectrum(1.0, 0.1, "gauss", -0.5, 0) == pytest.approx(0.9)

    def test_kink_spectrum_examples(self):
        v0, vI, vII = kink_spectrum(1.0, 0.2, 0.0)
        assert v0 == pytest.approx(1.0)
        assert vI is None
        assert vII == pytest.approx(1.0)
        v0, vI, vII = kink_spectrum(1.0, 0.2, 1.0)
        assert v0 == pytest.approx(1.0 + 0.2 * 2.0 * np.pi / 4.0)
        assert vI == pytest.approx(0.8)
        assert vII == pytest.approx(0.8)
        for v in kink_spectrum(1.0, 0.0, 0.7):
            assert v == pytest.approx(1.0)

    def test_kink_poles_use_is_pole(self):
        pole = 1.0 / np.sqrt(3.0)
        assert kink_spectrum(1.0, 0.2, pole)[2] is None
        assert kink_spectrum(1.0, 0.2, 1e-14)[1] is None  # |2 phi| < 1e-12 * 0.2
        assert kink_spectrum(1.0, 0.2, 1e-12)[1] is not None
        assert kink_spectrum(1.0, 0.2, pole + 1e-9)[2] is not None
        # the floor 1e-300, then 1e-12 * |num|
        assert is_pole(0.0, np.nextafter(1e-300, 0.0)) and not is_pole(0.0, 1e-300)
        assert is_pole(-3.0, 2.99e-12) and not is_pole(-3.0, 3.01e-12)

    def test_unknown_envelope_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown envelope"):
            damped_spectrum(1.0, 0.1, "lorentz", 0.0, 1)

    def test_pv_point_agrees_with_damped_spectrum(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            a = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
            lam = rng.uniform(-0.5, 0.5)
            phi = rng.uniform(-1.5, 1.5)
            order = rng.integers(0, 3)
            closed = damped_spectrum(a, lam, "gauss", phi, int(order))
            if closed is None or abs(closed) > 50:
                continue
            fld = DampedTranslational(a, lam)
            # phi = t - x/a: place the probe at x=0, t=phi
            v = pv_point(fld, 0.0, phi, int(order))
            assert v == pytest.approx(closed, abs=1e-10)
            checked += 1

    def test_pv_point_agrees_with_kink_spectrum(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            a = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
            lam = rng.uniform(-0.4, 0.4)
            phi = rng.uniform(-1.2, 1.2)
            closed = kink_spectrum(a, lam, phi)
            fld = KinkDamped(a, lam)
            for order, ref in enumerate(closed):
                if ref is None or abs(ref) > 50:
                    continue
                v = pv_point(fld, 0.0, phi, order)
                assert v == pytest.approx(ref, abs=1e-10)
            checked += 1


class TestClassicalDiagnostics:
    def test_harmonic_wavelength_and_ratio(self):
        g = Grid1x1(0.0, 0.05, 400, 0.0, 0.05, 9)
        diag = classical_diagnostics(Harmonic(3.0, 1.5), g)
        assert diag.omega_over_k == pytest.approx(2.0)
        lam = diag.local_wavelength
        valid = np.isfinite(lam)
        assert valid.mean() > 0.5
        # zero crossings come from linear interpolation between grid nodes
        assert np.nanmax(np.abs(lam[valid] - 2 * np.pi / 1.5)) < 1e-4
        # uniform wavelength: both derivatives ~0, U masked everywhere
        assert not np.any(np.isfinite(diag.classical_group_velocity))

    def test_kink_not_oscillatory(self):
        g = Grid1x1(-2.0, 0.05, 81, 0.0, 0.05, 5)
        with pytest.raises(NotOscillatory):
            classical_diagnostics(KinkDamped(1.0, 0.2), g)

    def test_sampled_slices_outside_the_samples_stay_nan(self):
        g = Grid1x1(-6.0, 0.05, 241, 0.0, 0.05, 41)
        s = sample(Harmonic(3.0, 1.5), g)
        q = Grid1x1(-6.0, 0.05, 241, -0.5, 0.05, 61)  # overhangs t by 0.5 on each side
        lam = classical_diagnostics(s, q).local_wavelength
        inside_t = (q.ts >= 0.0) & (q.ts <= 2.0 + 1e-12)
        assert not np.isfinite(lam[~inside_t]).any()
        good = np.isfinite(lam[inside_t])
        assert good.mean() > 0.5
        assert np.max(np.abs(lam[inside_t][good] - 2 * np.pi / 1.5)) < 1e-4

    def test_sampled_own_grid_reads_the_samples(self):
        g = Grid1x1(-6.0, 0.05, 241, 0.0, 0.05, 41)
        s = sample(Harmonic(3.0, 1.5), g)
        lam_s = classical_diagnostics(s, g).local_wavelength
        lam_a = classical_diagnostics(Harmonic(3.0, 1.5), g).local_wavelength
        np.testing.assert_array_equal(lam_s, lam_a)

    def test_chirped_transport_velocity_approximates_pv(self):
        # slowly chirped translational wave: U should approximate v0 = 1
        fld = CustomField("sin((6 + 0.3*(t - x)) * (t - x))")
        g = Grid1x1(0.0, 0.01, 600, 0.0, 0.01, 21)
        diag = classical_diagnostics(fld, g)
        U = diag.classical_group_velocity
        good = np.isfinite(U)
        assert good.sum() > 100
        assert abs(np.median(U[good]) - 1.0) < 0.1
