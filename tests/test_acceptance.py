"""Acceptance gate: one pass/fail line per criterion (run with pytest -s -v).

Each test prints a single summary line before asserting, so the acceptance
status of every criterion is visible even in a partially failing run.
"""

import json

import numpy as np
import pytest

from locpv.field import (
    DampedTranslational,
    Grid1x1,
    KinkDamped,
    Translational,
    sample,
)
from locpv.media import (
    LinearIndex,
    ModeSpec,
    dynamic_separation,
    sign_audit,
    transit_time,
    v0_global,
    v0_local,
    vI_global,
)
from locpv.phasevel import damped_spectrum, pv_field, pv_point
from locpv.relativity import BoostFrame, add_v0, boost_field, subluminality_audit
from locpv.simulate import SimSpec, run
from locpv.tracker import Attribute, find_seed, track

from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq


def _verdict(num, label, ok):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_criterion_1_all_orders_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        a = 0.0
        while abs(a) < 0.1:
            a = rng.uniform(-5.0, 5.0)
        env = rng.choice(["gauss", "sin"])
        fld = Translational(a, env)
        x, t = rng.uniform(-1.0, 1.0, 2)
        for order in (0, 1, 2):
            v = pv_point(fld, x, t, order)
            if v is None:
                continue
            worst = max(worst, abs(v - a))
    _verdict(1, "all-orders identity, tol 1e-12", worst <= 1e-12)


def test_criterion_2_damped_spectrum():
    rng = np.random.default_rng(202)
    worst = 0.0
    checked = 0
    while checked < 100:
        a = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        lam = rng.uniform(-0.5, 0.5)
        phi = rng.uniform(-1.5, 1.5)
        order = int(rng.integers(0, 3))
        closed = damped_spectrum(a, lam, "gauss", phi, order)
        if closed is None or abs(closed) > 50:
            continue
        v = pv_point(DampedTranslational(a, lam), 0.0, phi, order)
        worst = max(worst, abs(v - closed))
        checked += 1
    # peak of the damped pulse: first-order PV is exactly the rigid speed
    peak_err = max(
        abs(pv_point(DampedTranslational(a, lam), 0.0, 0.0, 1) - a)
        for a, lam in [(1.0, 0.3), (-2.0, 0.1), (0.7, -0.4)]
    )
    _verdict(
        2,
        "damped spectrum 1e-10, peak v_I exact 1e-12",
        worst <= 1e-10 and peak_err <= 1e-12,
    )


def test_criterion_3_kink_singularities():
    pole = 1.0 / np.sqrt(3.0)
    g = Grid1x1(-1.0, 1e-3, 2001, -0.5e-3, 1e-3, 2)
    pvf = pv_field(KinkDamped(1.0, 0.2), g, 2, eps_den=3e-3)
    ok = True
    for j in range(g.nt):
        t = g.ts[j]
        masked_x = g.xs[~pvf.mask[j]]
        for x_pole in (t - pole, t + pole):
            near = masked_x[np.abs(masked_x - x_pole) < 10 * g.dx]
            ok &= near.size > 0 and abs(near.mean() - x_pole) <= g.dx
    g1 = Grid1x1(-0.2, 1e-3, 401, -0.5e-3, 1e-3, 2)
    pv1 = pv_field(KinkDamped(1.0, 0.2), g1, 1, eps_den=3e-3)
    for j in range(g1.nt):
        masked_x = g1.xs[~pv1.mask[j]]
        ok &= masked_x.size > 0 and np.min(np.abs(masked_x - g1.ts[j])) <= g1.dx
    _verdict(3, "kink poles localized within one cell", ok)


def test_criterion_4_tracking_consistency():
    traj = track(
        DampedTranslational(1.0, 0.1),
        Attribute(1, 0.0, 0.0, 0.0),
        t_end=5.0,
        step=0.005,
    )
    analytic_err = abs(traj.global_velocity - 1.0)

    w, xc, gamma = 0.7, -2.5, 0.1
    pulse = lambda x: np.exp(-(((x - xc) / w) ** 2))
    pulse_dx = lambda x: -2.0 * (x - xc) / w ** 2 * pulse(x)
    g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 400)
    s = run(
        SimSpec(g, 1.0, gamma, pulse, lambda x: -gamma * pulse(x) - pulse_dx(x))
    )
    x0, t0 = find_seed(s, 1, 0.0, near=(xc + 0.5, 0.5))
    straj = track(s, Attribute(1, 0.0, x0, t0), t_end=6.5, step=0.02)
    sim_err = abs(straj.global_velocity - 1.0)
    _verdict(
        4,
        "peak tracking 1e-6 analytic / 2e-2 simulated",
        analytic_err <= 1e-6 and sim_err <= 2e-2,
    )


def test_criterion_5_lorentz_covariance():
    rng = np.random.default_rng(505)
    fld = DampedTranslational(0.7, 0.2)
    worst = 0.0
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
        tb = frame.gamma * (t + V * x)
        v0b = pv_point(boosted, xb, tb, 0)
        if v0b is None:
            continue
        worst = max(worst, abs(v0b - add_v0(frame, v0)))
        checked += 1
    rep0 = subluminality_audit("order0", 200)
    rep1 = subluminality_audit("order1", 200)
    ok = (
        worst <= 1e-10
        and rep0.violations == []
        and rep1.violations == []
        and rep0.max_abs_vprime_over_c <= 1.0 + 1e-12
        and rep1.max_abs_vprime_over_c <= 1.0 + 1e-12
    )
    _verdict(5, "zero-order covariance 1e-10, sweeps clean", ok)


def test_criterion_6_media_relations():
    m = LinearIndex(1.0, 0.1)
    t_closed = transit_time(m, 0.0, 2.0)

    fld = ModeSpec(1.0, m, "exp").field()
    traj = track(fld, Attribute(0, 1.0, 0.0, 0.0), t_end=3.0, step=0.002)
    spline = CubicHermiteSpline(traj.t, traj.x, traj.v_local)
    t_tracked = brentq(lambda t: spline(t) - 2.0, traj.t[0], traj.t[-1])

    t_quad, _ = quad(lambda x: 1.0 / v0_local(m, x), 0.0, 2.0, limit=200)

    ok = (
        abs(t_tracked - t_closed) <= 1e-6
        and abs(v0_global(m, 2.0) - 1.0 / m.n(2.0)) <= 1e-12
        and abs(t_quad - t_closed) <= 1e-8 * abs(t_closed)
    )
    _verdict(6, "transit time ODE 1e-6 / quadrature 1e-8", ok)


def test_criterion_7_dynamic_separation():
    m = LinearIndex(1.0, 0.1)
    rows = dynamic_separation(m, 2.0, [1.0, 10.0, 100.0])
    v0s = [r.v0_global for r in rows]
    vIs = [r.vI_global for r in rows]
    spread_v0 = max(v0s) - min(v0s)
    spread_vI = max(vIs) - min(vIs)
    v0 = v0_global(m, 2.0)
    d10 = abs(vI_global(ModeSpec(10.0, m), 2.0) - v0)
    d100 = abs(vI_global(ModeSpec(100.0, m), 2.0) - v0)
    ok = (
        spread_v0 == 0.0
        and spread_vI > 0.0
        and abs(d10 / d100 - 10.0) <= 2.0  # 1/xi decay of the correction
    )
    _verdict(7, "zero v0 spread, 1/xi-decaying vI spread", ok)


def test_criterion_8_numerical_hygiene():
    # (a) FD derivative convergence order >= 2 over three grid levels
    fld = Translational(1.0)
    exact = fld.derivs(0.3, -0.2, [(1, 1)])[0]
    errs = []
    for h in (0.04, 0.02, 0.01):
        n = int(round(2.0 / h)) + 1
        g = Grid1x1(-1.0, h, n, -1.0, h, n)
        errs.append(abs(sample(fld, g).derivs(0.3, -0.2, [(1, 1)])[0] - exact))
    fd_order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))

    # (b) RK4 step-halving >= 8x on rigid translation (or at the FP floor:
    # the projected rigid trajectory is integrated exactly)
    x0 = np.sqrt(np.log(2.0))
    rk_errs = []
    for step in (0.2, 0.1, 0.05):
        traj = track(fld, Attribute(0, 0.5, x0, 0.0), t_end=2.0, step=step)
        rk_errs.append(abs(traj.x[-1] - (x0 + 2.0)))
    rk_ok = all(
        e2 <= 1e-12 or e1 / max(e2, 1e-300) >= 8.0
        for e1, e2 in zip(rk_errs, rk_errs[1:])
    )
    # genuine order measurement on a non-trivial right-hand side
    lam = 0.1
    dfld = DampedTranslational(1.0, lam)
    dex = 2.0 + np.sqrt(x0 ** 2 - lam * 2.0)
    derr = []
    for step in (0.2, 0.1, 0.05):
        traj = track(
            dfld, Attribute(0, 0.5, x0, 0.0), t_end=2.0, step=step,
            project=False, seed_tol=1e-9,
        )
        derr.append(abs(traj.x[-1] - dex))
    rk_ok &= derr[0] / derr[1] >= 8.0 and derr[1] / derr[2] >= 8.0

    # (c) simulator refinement >= 3.5x against the rigid-translation oracle
    w, xc = 0.7, -2.5
    pulse = lambda x: np.exp(-(((x - xc) / w) ** 2))
    pulse_dx = lambda x: -2.0 * (x - xc) / w ** 2 * pulse(x)
    sim_errs = []
    for n in (200, 400, 800):
        g = Grid1x1(-5.0, 10.0 / n, n, 0.0, 8.0 / n, n)
        s = run(SimSpec(g, 1.0, 0.0, pulse, lambda x: -pulse_dx(x)))
        tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
        length = g.nx * g.dx
        exact = pulse(np.mod(xx - tt - g.x0, length) + g.x0)
        sim_errs.append(np.max(np.abs(s.values - exact)))
    sim_ok = sim_errs[0] / sim_errs[1] >= 3.5 and sim_errs[1] / sim_errs[2] >= 3.5

    _verdict(
        8,
        "FD order >= 2, RK4 >= 8x, simulator >= 3.5x",
        fd_order >= 2.0 and rk_ok and sim_ok,
    )


def test_criterion_9_printed_sign_audit():
    mode = ModeSpec(10.0, LinearIndex(1.0, 0.1))
    rep = sign_audit(mode, x=1.0, dx=2.0)
    print("ACCEPTANCE 9 discrepancy report: " + json.dumps(rep, sort_keys=True))
    ok = (
        rep["local_discrepancy"] > 1e-8  # printed local relation != rederived
        and rep["global_discrepancy"] <= 1e-8  # printed global relation agrees
        and all(
            key in rep
            for key in (
                "vI_local_printed",
                "vI_local_rederived",
                "vI_global_printed",
                "vI_global_rederived",
            )
        )
    )
    _verdict(9, "sign discrepancy surfaced, not reconciled", ok)
