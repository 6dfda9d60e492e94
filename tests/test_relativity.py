"""Lorentz boosts, velocity-addition rules, and subluminality sweeps."""

import json

import numpy as np
import pytest

from locpv.errors import DegenerateDenominator
from locpv.field import DampedTranslational, Harmonic, Translational
from locpv.phasevel import pv_point
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
        jet = fld.jet(0.3, -0.2, 2)
        got = boost_vI_general(BoostFrame(0.0), jet)
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
            jet = fld.jet(x, t, 2)
            general = boost_vI_general(BoostFrame(V), jet)
            if general is None:
                continue
            shortcut = add_vI_freewave(BoostFrame(V), vI, "continuous")
            assert general == pytest.approx(shortcut, abs=1e-10)
            checked += 1

    def test_non_free_wave_field_disagrees(self):
        fld = DampedTranslational(1.0, 0.5)
        jet = fld.jet(0.4, 0.0, 2)
        V = 0.5
        vI = pv_point(fld, 0.4, 0.0, 1)
        general = boost_vI_general(BoostFrame(V), jet)
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
