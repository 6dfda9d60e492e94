"""Leapfrog simulator: stability, accuracy, energy, reversibility, kernel."""

import numpy as np
import pytest

from locpv.errors import CFLViolation, NonfiniteBlowup
from locpv.field import Grid1x1
from locpv.phasevel import pv_field
from locpv.simulate import BLOWUP_GUARD, SimSpec, discrete_energy, run, run_from_levels

W = 0.7          # pulse width
X_C = -2.5       # pulse center


def gauss_pulse(x):
    return np.exp(-(((x - X_C) / W) ** 2))


def gauss_pulse_dx(x):
    return -2.0 * (x - X_C) / W ** 2 * gauss_pulse(x)


def right_mover_spec(grid, a=1.0, gamma=0.0, boundary="Periodic"):
    # psi(x - a t) exactly solves the undamped equation; for gamma != 0 the
    # damped translational mode has rate -gamma*psi - a*psi_x
    return SimSpec(
        domain=grid,
        speed=a,
        gamma=gamma,
        initial_profile=gauss_pulse,
        initial_rate=lambda x: -gamma * gauss_pulse(x) - a * gauss_pulse_dx(x),
        boundary=boundary,
    )


def dalembert_periodic(grid, a, x, t):
    # rigid right translation with periodic wrap
    length = grid.nx * grid.dx
    arg = np.mod(x - a * t - grid.x0, length) + grid.x0
    return gauss_pulse(arg)


class TestContracts:
    def test_cfl_violation(self):
        g = Grid1x1(-5.0, 0.02, 100, 0.0, 0.03, 10)
        with pytest.raises(CFLViolation):
            run(right_mover_spec(g))

    def test_bad_boundary_rejected(self):
        g = Grid1x1(-5.0, 0.05, 100, 0.0, 0.04, 10)
        with pytest.raises(ValueError):
            SimSpec(g, 1.0, 0.0, gauss_pulse, gauss_pulse_dx, boundary="Absorbing")

    def test_nonfinite_initial_rejected(self):
        g = Grid1x1(-5.0, 0.05, 100, 0.0, 0.04, 10)
        spec = SimSpec(g, 1.0, 0.0, lambda x: np.full_like(x, np.nan), gauss_pulse_dx)
        with pytest.raises(ValueError):
            run(spec)

    def test_gain_runaway_guarded(self):
        g = Grid1x1(0.0, 0.05, 64, 0.0, 0.04, 900)
        spec = SimSpec(g, 1.0, -2.0, gauss_pulse, gauss_pulse_dx)
        with pytest.raises(NonfiniteBlowup):
            run(spec)

    def test_nan_rows_end_the_run_without_warnings(self):
        # 2 * gamma * psi_t overflows, so the first step holds inf and nan; a
        # nan row stops at the guard, which max(|row|) > guard alone misses
        g = Grid1x1(-5.0, 0.05, 100, 0.0, 0.04, 10)
        with pytest.raises(NonfiniteBlowup, match="at step 2"):
            run(SimSpec(g, 1.0, 1e308, gauss_pulse, gauss_pulse_dx))


class TestAccuracy:
    def test_rigid_translation_matches_dalembert(self):
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 400)
        s = run(right_mover_spec(g))
        tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
        exact = dalembert_periodic(g, 1.0, xx, tt)
        assert np.max(np.abs(s.values - exact)) < 5e-3

    def test_pv_on_simulated_rigid_translation(self):
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 400)
        s = run(right_mover_spec(g))
        pvf = pv_field(s, g, 0)
        # judge only where the pulse carries signal
        strong = np.abs(s.derivative_grid(0, 1)) > 0.05 * np.max(
            np.abs(s.derivative_grid(0, 1))
        )
        sel = pvf.mask & strong
        assert sel.sum() > 1000
        assert np.max(np.abs(pvf.values[sel] - 1.0)) < 2e-2

    def test_damped_amplitude_decay(self):
        gamma = 0.1
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 400)
        s = run(right_mover_spec(g, gamma=gamma))
        T = g.ts[-1]
        ratio = np.max(np.abs(s.values[-1])) / np.max(np.abs(s.values[0]))
        assert ratio == pytest.approx(np.exp(-gamma * T), rel=5e-2)

    def test_second_order_convergence(self):
        errs = []
        for n in (200, 400, 800):
            g = Grid1x1(-5.0, 10.0 / n, n, 0.0, 8.0 / n, n)
            s = run(right_mover_spec(g))
            tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
            errs.append(np.max(np.abs(s.values - dalembert_periodic(g, 1.0, xx, tt))))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


class TestEnergyAndReversibility:
    def test_undamped_energy_conserved(self):
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 200)
        s = run(right_mover_spec(g, boundary="Reflecting"))
        e = discrete_energy(s, 1.0)
        assert np.max(np.abs(e - e[0])) <= 1e-10 * e[0]

    def test_damped_energy_monotone(self):
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 200)
        s = run(right_mover_spec(g, gamma=0.2, boundary="Reflecting"))
        e = discrete_energy(s, 1.0)
        assert np.all(np.diff(e) <= 1e-10 * e[0])

    @pytest.mark.parametrize("boundary", ["Periodic", "Reflecting"])
    def test_energy_equals_the_row_loop_bitwise(self, boundary):
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 200)
        a = 0.9 + 0.05 * np.sin(g.xs)
        s = run(SimSpec(g, a, 0.1, gauss_pulse, gauss_pulse_dx, boundary))
        # the per-row loop discrete_energy once ran
        a2m = 0.5 * (a[1:] ** 2 + a[:-1] ** 2)
        loop = np.empty(g.nt - 1)
        for n in range(g.nt - 1):
            vt = (s.values[n + 1] - s.values[n]) / g.dt
            dxp1, dxp0 = np.diff(s.values[n + 1]) / g.dx, np.diff(s.values[n]) / g.dx
            loop[n] = (np.sum(vt ** 2) + np.sum(a2m * dxp1 * dxp0)) * g.dx
        assert np.array_equal(discrete_energy(s, a), loop)

    def test_undamped_run_is_time_reversible(self):
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 300)
        spec = right_mover_spec(g)
        fwd = run(spec)
        # restart from the last two levels in reverse order
        back = run_from_levels(spec, fwd.values[-1], fwd.values[-2])
        scale = np.max(np.abs(fwd.values[0]))
        assert np.max(np.abs(back.values[-1] - fwd.values[0])) <= 1e-8 * scale
        assert np.max(np.abs(back.values[-2] - fwd.values[1])) <= 1e-8 * scale


class TestVariableSpeed:
    def test_callable_speed_accepted_and_cfl_uses_max(self):
        g = Grid1x1(-5.0, 0.025, 400, 0.0, 0.02, 50)
        spec = SimSpec(
            g, lambda x: 1.0 + 0.2 * np.tanh(x), 0.0, gauss_pulse,
            lambda x: -gauss_pulse_dx(x),
        )
        assert spec.check_cfl() == pytest.approx(1.2 * 0.02 / 0.025, rel=1e-3)
        s = run(spec)
        assert np.all(np.isfinite(s.values))


def plain_leapfrog(spec):
    """Reference leapfrog written point by point, in the kernel's operation order."""
    g = spec.domain
    dt, dx, gamma = g.dt, g.dx, spec.gamma
    periodic = spec.boundary == "Periodic"
    a2 = spec.speed_array() ** 2
    psi0 = np.asarray(spec.initial_profile(g.xs), float)
    v0 = np.asarray(spec.initial_rate(g.xs), float)
    nx = g.nx

    def lap(u, i):
        if 0 < i < nx - 1:
            return u[i + 1] - 2.0 * u[i] + u[i - 1]
        if not periodic:
            return 0.0
        if i == 0:
            return u[1] - 2.0 * u[0] + u[-1]
        return u[0] - 2.0 * u[-1] + u[-2]

    psi = np.zeros((g.nt, nx))
    psi[0] = psi0
    for i in range(nx):
        acc = a2[i] * (lap(psi0, i) / dx ** 2) - 2.0 * gamma * v0[i]
        psi[1, i] = psi0[i] + dt * v0[i] + 0.5 * dt * dt * acc
    if not periodic:
        psi[0, [0, -1]] = psi[1, [0, -1]] = 0.0
    r = (dt * dt) / (dx * dx)
    cp, cm = 1.0 + gamma * dt, 1.0 - gamma * dt
    for n in range(1, g.nt - 1):
        for i in range(nx):
            if periodic or 0 < i < nx - 1:
                psi[n + 1, i] = (
                    2.0 * psi[n, i] - cm * psi[n - 1, i] + r * a2[i] * lap(psi[n], i)
                ) / cp
    return psi


class TestKernel:
    @pytest.mark.parametrize("boundary", ["Periodic", "Reflecting"])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, -0.05])
    @pytest.mark.parametrize("speed", [1.0, lambda x: 1.0 + 0.2 * np.tanh(x)],
                             ids=["constant", "callable"])
    def test_matches_plain_loop_bitwise(self, boundary, gamma, speed):
        g = Grid1x1(-5.0, 0.3, 40, 0.0, 0.24, 30)
        spec = SimSpec(g, speed, gamma, gauss_pulse, lambda x: 0.3 * np.sin(x), boundary)
        assert np.array_equal(run(spec).values, plain_leapfrog(spec))

    @pytest.mark.parametrize(
        "profile, rate, gamma, kind",
        [
            # gamma * dt = -1 makes the update's divisor 0: rows of 0/0 and of x/0
            (np.ones_like, np.zeros_like, -25.0, "nan"),
            (np.zeros_like, np.ones_like, -25.0, "+inf"),
            (np.zeros_like, lambda x: -np.ones_like(x), -25.0, "-inf"),
            (gauss_pulse, gauss_pulse_dx, -10.0, "finite"),
        ],
        ids=["nan", "plus-inf", "minus-inf", "finite-runaway"],
    )
    def test_blowup_guard_stops_at_the_plain_loops_row(self, profile, rate, gamma, kind):
        g = Grid1x1(-1.0, 0.05, 40, 0.0, 0.04, 90)
        spec = SimSpec(g, 1.0, gamma, profile, rate)
        with np.errstate(all="ignore"):
            ref = plain_leapfrog(spec)
        bad = [n for n in range(2, g.nt) if not np.max(np.abs(ref[n])) <= BLOWUP_GUARD]
        row = ref[bad[0]]
        assert {"nan": np.isnan(row).all(), "+inf": (row == np.inf).all(),
                "-inf": (row == -np.inf).all(), "finite": np.isfinite(row).all()}[kind]
        with pytest.raises(NonfiniteBlowup, match=f"at step {bad[0]}$"):
            run(spec)
