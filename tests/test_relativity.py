"""Lorentz boosts, velocity-addition rules, and subluminality sweeps."""

import json

import numpy as np
import pytest

import locpv.relativity
from conftest import engine_table
from locpv.errors import DegenerateDenominator
from locpv.field import DampedTranslational, Harmonic, Translational
from locpv.phasevel import pv_point, pv_ratio
from locpv.relativity import (
    BoostFrame,
    add_v0,
    add_vI_freewave,
    boost_event,
    boost_field,
    boost_vI_general,
    subluminality_audit,
)


class TestBoostEvent:
    def test_zero_boost_identity(self):
        assert boost_event(BoostFrame(0.0), 0.7, -0.2) == (0.7, -0.2)

    def test_standard_example(self):
        xp, tp = boost_event(BoostFrame(0.6), 1.0, 0.0)
        assert xp == pytest.approx(1.25, abs=1e-12)
        assert tp == pytest.approx(-0.75, abs=1e-12)

    def test_inverse_boost_recovers_event(self):
        f = BoostFrame(0.37, c=2.0)
        finv = BoostFrame(-0.37, c=2.0)
        xp, tp = boost_event(f, 1.3, -0.4)
        x, t = boost_event(finv, xp, tp)
        assert x == pytest.approx(1.3, rel=1e-12)
        assert t == pytest.approx(-0.4, rel=1e-12)

    def test_interval_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = rng.uniform(0.5, 3.0)
            frame = BoostFrame(rng.uniform(-0.99, 0.99) * c, c)
            x, t = rng.uniform(-5, 5, 2)
            xp, tp = boost_event(frame, x, t)
            s = c ** 2 * t ** 2 - x ** 2
            sp = c ** 2 * tp ** 2 - xp ** 2
            assert sp == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_invalid_frames_rejected(self):
        with pytest.raises(ValueError):
            BoostFrame(1.0, 1.0)
        with pytest.raises(ValueError):
            BoostFrame(0.5, -1.0)
        # the rules divide by c**2, which underflows or overflows here
        for c in (1e-320, 1e-200, 1e200):
            with pytest.raises(ValueError, match="squared"):
                BoostFrame(0.0, c)
        assert add_v0(BoostFrame(0.5, np.inf), 0.25) == 0.75  # the Galilean limit


class TestAddV0:
    def test_examples(self):
        assert add_v0(BoostFrame(0.5), 0.5) == pytest.approx(0.8, abs=1e-15)
        assert add_v0(BoostFrame(0.3), 0.0) == pytest.approx(0.3, abs=1e-15)
        assert add_v0(BoostFrame(0.0), 0.42) == pytest.approx(0.42, abs=1e-15)

    @pytest.mark.parametrize("V", [-0.9, -0.2, 0.4, 0.8])
    def test_light_speed_fixed_point(self, V):
        assert add_v0(BoostFrame(V), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v, V1, V2 = rng.uniform(-0.95, 0.95, 3)
            chained = add_v0(BoostFrame(V2), add_v0(BoostFrame(V1), v))
            composed = add_v0(BoostFrame(add_v0(BoostFrame(V2), V1)), v)
            assert chained == pytest.approx(composed, abs=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            # v0 may exceed c (it is not a signal velocity); v0*V = -c^2
            add_v0(BoostFrame(0.5), -2.0)

    def test_near_pole_denominator(self):
        with pytest.raises(DegenerateDenominator):
            # |1 + v0*V| ~ 5e-16 is below 1e-12 * |v0 + V|
            add_v0(BoostFrame(0.5), -2.0 + 1e-15)

    @pytest.mark.parametrize("c", [1e-100, 1e14, 1e150])
    def test_pole_test_does_not_depend_on_the_unit_of_speed(self, c):
        # the numerator is read in units of c: v0 = c/10 is no pole in any unit
        assert add_v0(BoostFrame(0.0, c), 0.1 * c) == 0.1 * c
        assert add_vI_freewave(BoostFrame(0.0, c), 0.1 * c) == -0.1 * c
        with pytest.raises(DegenerateDenominator):
            add_v0(BoostFrame(0.5 * c, c), -2.0 * c)


class TestAddVIFreewave:
    def test_zero_boost_flips_sign_as_printed(self):
        assert add_vI_freewave(BoostFrame(0.0), 0.7) == pytest.approx(-0.7)
        assert add_vI_freewave(BoostFrame(0.0), 0.7, "continuous") == pytest.approx(0.7)

    @pytest.mark.parametrize("V", [-0.8, 0.0, 0.3, 0.9])
    def test_light_speed_magnitude_fixed(self, V):
        assert abs(add_vI_freewave(BoostFrame(V), 1.0)) == pytest.approx(1.0)
        assert abs(add_vI_freewave(BoostFrame(V), -1.0)) == pytest.approx(1.0)

    def test_sweep_stays_subluminal(self):
        vs = np.linspace(-1.0, 1.0, 100)
        for V in np.linspace(-0.99, 0.99, 100):
            vp = add_vI_freewave(BoostFrame(V), vs)
            assert np.max(np.abs(vp)) <= 1.0 + 1e-12

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            add_vI_freewave(BoostFrame(0.1), 0.5, "fixed")


class TestBoostVIGeneral:
    def test_zero_boost_reduces_to_first_order_pv(self):
        fld = DampedTranslational(1.0, 0.2)
        got = boost_vI_general(BoostFrame(0.0), fld, 0.3, -0.2)
        assert got == pytest.approx(pv_point(fld, 0.3, -0.2, 1), abs=1e-12)

    def test_free_wave_agrees_with_addition_rule(self):
        # undamped translational fields satisfy the free wave equation with a=1
        fld = Translational(1.0, "sin")
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 50:
            x, t = rng.uniform(-1, 1, 2)
            V = rng.uniform(-0.9, 0.9)
            vI = pv_point(fld, x, t, 1)
            if vI is None:
                continue
            general = boost_vI_general(BoostFrame(V), fld, x, t)
            if general is None:
                continue
            shortcut = add_vI_freewave(BoostFrame(V), vI, "continuous")
            assert general == pytest.approx(shortcut, abs=1e-10)
            checked += 1

    @pytest.mark.parametrize("c", [1e100, 1e-100])
    def test_extreme_light_speeds_give_a_float_or_none(self, c):
        # V^2/c^4 neither overflows nor underflows to a zero divisor. At V = 0 a
        # wave at 2c reads 2c; one at 2 is 2e100 c when c = 1e-100, a pole of v'/c
        # (|v'/c| > 1e12) as in the addition rules
        fast, slow = Harmonic(3.0 * c, 1.5), Harmonic(3.0, 1.5)
        got = boost_vI_general(BoostFrame(0.0, c), fast, 0.1, 0.2)
        assert got == pytest.approx(2.0 * c, rel=1e-12)
        at_rest = boost_vI_general(BoostFrame(0.0, c), slow, 0.1, 0.2)
        assert at_rest is None if c < 1 else (
            at_rest == boost_vI_general(BoostFrame(0.0), slow, 0.1, 0.2))
        for V in (0.5 * c, -0.9 * c):
            for fld in (fast, slow):
                got = boost_vI_general(BoostFrame(V, c), fld, 0.1, 0.2)
                assert got is None or isinstance(got, float)

    def test_a_pole_is_tested_in_units_of_c(self):
        # num = 4.89e99, den = -0.979: v' = 5e99 = 0.5c, far from a pole of v'/c
        got = boost_vI_general(BoostFrame(5e99, 1e100), Harmonic(3.0, 1.5), 0.1, 0.2)
        assert got == pytest.approx(5e99, rel=1e-12)

    def test_bits_at_unit_light_speed_are_the_unscaled_ratios(self):
        # at the points of this class's tests, and a 0/0 pole of sin(t - x) at t = x;
        # the second derivatives from the Taylor2 engine
        rng = np.random.default_rng(2)
        wave = Translational(1.0, "sin")
        points = [(DampedTranslational(1.0, 0.2), 0.3, -0.2), (Harmonic(3.0, 1.5), 0.1, 0.2),
                  (DampedTranslational(1.0, 0.5), 0.4, 0.0), (wave, 0.3, 0.3)]
        points += [(wave, *rng.uniform(-1, 1, 2)) for _ in range(50)]
        for V in [0.0, 0.5, *np.linspace(-0.99, 0.99, 23)]:
            frame = BoostFrame(V)
            for fld, x, t in points:
                table = engine_table(fld, x, t, 2)
                ptt, pxx, pxt = table[2, 0], table[0, 2], table[1, 1]
                num = (1.0 + V ** 2) * pxt - V * (ptt + pxx)  # the formula's bits at c = 1
                den = V ** 2 * ptt + pxx - 2.0 * V * pxt
                want, got = pv_ratio(num, den), boost_vI_general(frame, fld, x, t)
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)

    def test_non_free_wave_field_disagrees(self):
        fld = DampedTranslational(1.0, 0.5)
        V = 0.5
        vI = pv_point(fld, 0.4, 0.0, 1)
        general = boost_vI_general(BoostFrame(V), fld, 0.4, 0.0)
        shortcut = add_vI_freewave(BoostFrame(V), vI, "continuous")
        assert abs(general - shortcut) > 1e-6


class TestFormInvariance:
    def test_zero_order_chain_matches_addition(self):
        rng = np.random.default_rng(9)
        fld = DampedTranslational(0.7, 0.2)
        checked = 0
        while checked < 100:
            x, t = rng.uniform(-1.5, 1.5, 2)
            V = rng.uniform(-0.9, 0.9)
            v0 = pv_point(fld, x, t, 0)
            if v0 is None:
                continue
            frame = BoostFrame(V)
            boosted = boost_field(fld, frame)
            xb = frame.gamma * (x + V * t)
            tb = frame.gamma * (t + V * x / frame.c ** 2)
            v0b = pv_point(boosted, xb, tb, 0)
            if v0b is None:
                continue
            assert v0b == pytest.approx(add_v0(frame, v0), abs=1e-10)
            checked += 1

    def test_first_order_chain_not_given_by_freewave_rule(self):
        # generic damped field: the boosted-derivative chain must deviate from
        # the free-wave shortcut (which assumes the undamped wave equation)
        fld = DampedTranslational(1.0, 0.5)
        frame = BoostFrame(0.4)
        x, t = 0.4, 0.0
        vI = pv_point(fld, x, t, 1)
        boosted = boost_field(fld, frame)
        xb = frame.gamma * (x + frame.V * t)
        tb = frame.gamma * (t + frame.V * x)
        vIb = pv_point(boosted, xb, tb, 1)
        assert abs(vIb - add_vI_freewave(frame, vI, "continuous")) > 1e-6


class TestAudit:
    @pytest.mark.parametrize("rule", ["order0", "order1"])
    def test_resolution_200_clean(self, rule):
        rep = subluminality_audit(rule, 200)
        assert rep.violations == []
        assert rep.max_abs_vprime_over_c <= 1.0 + 1e-12

    def test_resolution_2_degenerate_but_valid(self):
        rep = subluminality_audit("order0", 2)
        assert rep.resolution == 2
        assert rep.violations == []

    def test_json_shape(self):
        rep = subluminality_audit("order1", 4)
        data = json.loads(rep.to_json())
        assert sorted(data) == [
            "max_abs_vprime_over_c",
            "resolution",
            "rule",
            "violations",
        ]
        assert data["rule"] == "order1"

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            subluminality_audit("order2", 10)
        with pytest.raises(ValueError):
            subluminality_audit("order0", 1)

    @pytest.mark.parametrize("rule", ["order0", "order1"])
    @pytest.mark.parametrize("resolution, c", [(2, 1.0), (17, 1.3), (60, 2.0)])
    def test_report_equals_the_row_loop(self, rule, resolution, c, monkeypatch):
        # a negative slack makes many cells violations, so their order shows
        monkeypatch.setattr(locpv.relativity, "SUBLUMINAL_TOL", -0.7)
        pts = np.linspace(-c, c, resolution + 2)[1:-1]
        add = add_v0 if rule == "order0" else add_vI_freewave
        max_ratio, violations = 0.0, []
        for i in range(resolution):  # the per-row loop the audit once ran
            ratio = np.abs(add(BoostFrame(pts[i], c), pts)) / c
            max_ratio = max(max_ratio, float(ratio.max()))
            violations += [[float(pts[j]), float(pts[i])] for j in np.nonzero(ratio > 0.3)[0]]
        rep = subluminality_audit(rule, resolution, c=c)
        assert violations and rep.violations == violations
        assert rep.max_abs_vprime_over_c == max_ratio
