"""Attribute tracking: seeding, RK4 integration, termination, convergence."""

import numpy as np
import pytest

from locpv.errors import (
    DegenerateTrajectory,
    NoBracket,
    OrderTooHigh,
    OutOfDomain,
    SeedOffAttribute,
    SingularSeed,
    StencilClipped,
)
from locpv.field import (
    DampedTranslational,
    Grid1x1,
    KinkDamped,
    SampledField,
    Translational,
    sample,
)
from locpv.phasevel import pv_point
from locpv.tracker import (
    SEED_BRACKET,
    Attribute,
    Termination,
    TrackedTrajectory,
    find_seed,
    global_velocity,
    track,
)

SQRT_LN2 = np.sqrt(np.log(2.0))


class TestFindSeed:
    def test_gaussian_half_level(self):
        x0, t0 = find_seed(Translational(1.0), 0, 0.5, near=(1.0, 0.0))
        assert t0 == 0.0
        assert x0 == pytest.approx(SQRT_LN2, abs=1e-9)

    def test_gaussian_peak(self):
        x0, _ = find_seed(Translational(1.0), 1, 0.0, near=(0.3, 0.0))
        assert x0 == pytest.approx(0.0, abs=1e-9)

    def test_unattainable_level(self):
        with pytest.raises(NoBracket):
            find_seed(Translational(1.0), 0, 2.0, near=(0.0, 0.0))

    def test_sampled_seed(self):
        g = Grid1x1(-3.0, 1e-2, 601, -0.1, 1e-2, 21)
        s = sample(Translational(1.0), g)
        x0, _ = find_seed(s, 0, 0.5, near=(1.0, 0.0))
        assert x0 == pytest.approx(SQRT_LN2, abs=1e-3)

    @pytest.mark.parametrize("k", [20, 40])
    def test_exact_zero_at_a_scan_point_is_the_seed(self, k):
        # the first scan around 0.9 has half-width 8/64; the chosen bracket
        # starts (k = 20) or ends (k = 40) at the scan point on the target
        fld = Translational(1.0)
        xs = np.linspace(0.9 - 0.125, 0.9 + 0.125, 65)
        target = fld.jet(xs[k], 0.0, 1).value
        x0, t0 = find_seed(fld, 0, target, near=(0.9, 0.0))
        assert x0 == xs[k]
        traj = track(fld, Attribute(0, target, x0, t0), t_end=0.5, step=0.05)
        assert traj.terminated_by is Termination.TimeLimit

    def test_no_scan_point_in_the_domain_raises_the_fields_error(self):
        g = Grid1x1(-2.0, 0.02, 201, 0.0, 0.02, 201)
        with pytest.raises(OutOfDomain) as info:
            find_seed(sample(Translational(1.0), g), 0, 0.5, near=(9.0, 1.0))
        assert type(info.value) is OutOfDomain
        # a 2-row grid is too short for the t-stencil of every seed's jet
        two_rows = Grid1x1(-2.0, 0.02, 201, 0.0, 0.02, 2)
        with pytest.raises(StencilClipped):
            find_seed(sample(Translational(1.0), two_rows), 0, 0.5, near=(0.8, 0.0))

    def test_stencil_clipped_stops_the_scan_at_once(self, monkeypatch):
        # no point of a 2-row grid has the t-stencil, so the first scan
        # width's one batched jet tells
        fld = sample(Translational(1.0), Grid1x1(-2.0, 0.02, 201, 0.0, 0.02, 2))
        calls = []
        for name in ("jet", "jet_batch"):
            method = getattr(SampledField, name)

            def counted(self, *args, name=name, method=method):
                calls.append(name)
                return method(self, *args)

            monkeypatch.setattr(SampledField, name, counted)
        with pytest.raises(StencilClipped):
            find_seed(fld, 0, 0.5, near=(0.8, 0.0))
        assert calls == ["jet_batch"]


def _reference_find_seed(field, order, target, near):
    """find_seed with a scan of scalar jets, one per point: a point whose jet
    raises OutOfDomain is skipped, and if every one does, the first error is
    raised."""
    x_near, t0 = near
    if isinstance(field, SampledField):
        g = field.grid
        bracket, xtol = g.x_max - g.x0, 1e-3 * g.dx
    else:
        bracket, xtol = SEED_BRACKET, 1e-10 * SEED_BRACKET
    misses = []

    def f(x):
        try:
            return field.jet(x, t0, order + 1).deriv(0, order) - target
        except StencilClipped:
            raise
        except OutOfDomain as exc:
            misses.append(exc)
            return np.nan

    lo = hi = None
    scanned = 0
    w = bracket / 64.0
    while w <= bracket + 1e-300:
        xs = np.linspace(x_near - w, x_near + w, 65)
        vals = np.array([f(x) for x in xs])
        scanned += xs.size
        sign_flip = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
        hit = [k for k in sign_flip if vals[k] != 0 or vals[k + 1] != 0]
        if hit:
            k = min(hit, key=lambda k: abs(0.5 * (xs[k] + xs[k + 1]) - x_near))
            (lo, hi), (flo, fhi) = xs[k : k + 2], vals[k : k + 2]
            break
        w *= 2.0
    if lo is None:
        if len(misses) == scanned:
            raise misses[0]
        raise NoBracket(
            f"no sign change of order-{order} derivative minus {target} near x={x_near}"
        )
    if flo == 0.0:
        return lo, t0
    if fhi == 0.0:
        return hi, t0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, t0
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi), t0


def _outcome(fn, *args):
    """A call's result, or the type and message of its error."""
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


_PULSE_GRID = Grid1x1(-2.0, 0.02, 201, 0.0, 0.02, 201)
_TRANS_ZERO = Translational(1.0)
_SCAN = np.linspace(0.9 - SEED_BRACKET / 64, 0.9 + SEED_BRACKET / 64, 65)

# (label, field, order, target, near)
_SEED_CASES = [
    (f"{name}.o{order}.{target}", fld, order, target, (near, t0))
    for name, fld in [
        ("trans", Translational(1.2)),
        ("sin", Translational(-0.8, "sin")),
        ("damped", DampedTranslational(0.9, 0.1)),
        ("kink", KinkDamped(1.1, 0.1)),
    ]
    for order in range(3)
    for target, near, t0 in [(0.5, 0.6, 0.0), (-0.3, -0.4, 0.3), (0.0, 0.7, -0.2)]
] + [
    (f"sampled.o{order}.{near}", sample(DampedTranslational(1.0, 0.1), _PULSE_GRID),
     order, target, (near, 1.0))
    for order, target in [(0, 0.4), (1, 0.0), (2, 0.1)]
    # the last two scans overhang the grid edge x = 2 or start outside it
    for near in (-0.5, 1.9, 2.5)
] + [
    (f"exact-zero.{k}", _TRANS_ZERO, 0, _TRANS_ZERO.jet(_SCAN[k], 0.0, 1).value, (0.9, 0.0))
    for k in (20, 40)
] + [
    ("no-point-inside", sample(Translational(1.0), _PULSE_GRID), 0, 0.5, (9.0, 1.0)),
    ("two-rows", sample(Translational(1.0), Grid1x1(-2.0, 0.02, 201, 0.0, 0.02, 2)),
     0, 0.5, (0.8, 0.0)),
    ("no-bracket", Translational(1.0), 0, 2.0, (0.0, 0.0)),
    ("no-bracket-sampled", sample(Translational(1.0), _PULSE_GRID), 0, 2.0, (0.0, 0.5)),
]


class TestSeedReference:
    @pytest.mark.parametrize(
        "label, fld, order, target, near", _SEED_CASES, ids=[c[0] for c in _SEED_CASES]
    )
    def test_same_seed_or_error_as_the_scalar_scan(self, label, fld, order, target, near):
        got = _outcome(find_seed, fld, order, target, near)
        assert got == _outcome(_reference_find_seed, fld, order, target, near)
        if label in ("no-point-inside", "two-rows", "no-bracket"):
            assert got[0] is {"no-point-inside": OutOfDomain, "two-rows": StencilClipped,
                              "no-bracket": NoBracket}[label]


class TestTrack:
    def test_rigid_translation_level(self):
        fld = Translational(1.0)
        x0, t0 = find_seed(fld, 0, 0.5, near=(1.0, 0.0))
        traj = track(fld, Attribute(0, 0.5, x0, t0), t_end=3.0, step=0.01)
        assert traj.terminated_by is Termination.TimeLimit
        np.testing.assert_allclose(traj.x, x0 + traj.t, atol=1e-10)
        assert traj.global_velocity == pytest.approx(1.0, abs=1e-10)

    def test_damped_peak_global_velocity(self):
        fld = DampedTranslational(1.0, 0.1)
        traj = track(fld, Attribute(1, 0.0, 0.0, 0.0), t_end=5.0, step=0.005)
        assert traj.terminated_by is Termination.TimeLimit
        assert traj.global_velocity == pytest.approx(1.0, abs=1e-6)

    def test_singular_seed_at_peak(self):
        fld = DampedTranslational(1.0, 0.3)
        with pytest.raises(SingularSeed):
            track(fld, Attribute(0, 1.0, 0.0, 0.0), t_end=1.0, step=0.01)

    def test_seed_off_attribute(self):
        with pytest.raises(SeedOffAttribute):
            track(Translational(1.0), Attribute(0, 0.5, 3.0, 0.0), t_end=1.0)

    def test_attribute_conserved_along_trajectory(self):
        fld = DampedTranslational(1.0, 0.1)
        x0, t0 = find_seed(fld, 0, 0.5, near=(-1.0, 0.0))
        traj = track(fld, Attribute(0, 0.5, x0, t0), t_end=2.0, step=0.01)
        drift = [
            abs(fld.jet(x, t, 0).deriv(0, 0) - 0.5) for t, x, _ in traj.samples
        ]
        assert max(drift) <= 1e-6

    def test_v_local_matches_pv_point(self):
        fld = DampedTranslational(1.0, 0.1)
        x0, t0 = find_seed(fld, 0, 0.5, near=(-1.0, 0.0))
        traj = track(fld, Attribute(0, 0.5, x0, t0), t_end=1.0, step=0.05)
        for t, x, v in traj.samples[:: 4]:
            assert v == pytest.approx(pv_point(fld, x, t, 0), abs=1e-12)

    def test_central_difference_consistency(self):
        fld = DampedTranslational(1.0, 0.1)
        x0, t0 = find_seed(fld, 0, 0.5, near=(-1.0, 0.0))
        step = 0.01
        traj = track(fld, Attribute(0, 0.5, x0, t0), t_end=2.0, step=step)
        dxdt = (traj.x[2:] - traj.x[:-2]) / (traj.t[2:] - traj.t[:-2])
        err = np.max(np.abs(dxdt - traj.v_local[1:-1]))
        assert err < 10.0 * step ** 2

    def test_annihilating_level_terminates_singular(self):
        # damping lowers the peak below the tracked level at t = ln2/lambda
        fld = DampedTranslational(1.0, 0.5)
        x0, t0 = find_seed(fld, 0, 0.5, near=(-1.0, 0.0))
        traj = track(fld, Attribute(0, 0.5, x0, t0), t_end=3.0, step=0.01)
        assert traj.terminated_by is Termination.SingularityHit
        assert traj.t[-1] < 3.0

    def test_sampled_domain_exit(self):
        g = Grid1x1(-2.0, 1e-2, 401, 0.0, 1e-2, 51)
        s = sample(Translational(1.0), g)
        x0, t0 = find_seed(s, 0, 0.5, near=(1.0, 0.0))
        traj = track(s, Attribute(0, 0.5, x0, t0), t_end=5.0, step=0.01)
        assert traj.terminated_by is Termination.DomainExit
        assert traj.t[-1] < 5.0

    def test_peak_at_the_grid_edge_is_a_domain_exit(self):
        g = Grid1x1(-2.0, 0.02, 201, 0.0, 0.02, 201)
        s = sample(Translational(1.0), g)
        x0, t0 = find_seed(s, 1, 0.0, near=(0.0, 0.5))
        traj = track(s, Attribute(1, 0.0, x0, t0), t_end=3.9, step=0.01)
        assert traj.terminated_by is Termination.DomainExit
        assert 1.9 < traj.x[-1] <= 2.0


class TestConvergence:
    def test_rigid_translation_step_halving(self):
        fld = Translational(1.0)
        x0 = SQRT_LN2  # exact root of e^{-x^2} = 1/2
        errs = []
        for step in (0.2, 0.1, 0.05):
            traj = track(fld, Attribute(0, 0.5, x0, 0.0), t_end=2.0, step=step)
            errs.append(abs(traj.x[-1] - (x0 + 2.0)))
        floor = 1e-12
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= floor or e1 / max(e2, 1e-300) >= 8.0

    def test_rk4_order_without_projection(self):
        # dx/dt = 1 + lam/(2*(t-x)) has the closed solution
        # x(t) = t + sqrt(phi0^2 - lam*t) for phi0 = t0 - x0 < 0
        lam = 0.1
        fld = DampedTranslational(1.0, lam)
        x0 = SQRT_LN2
        exact = 2.0 + np.sqrt(x0 ** 2 - lam * 2.0)
        errs = []
        for step in (0.2, 0.1, 0.05):
            traj = track(
                fld,
                Attribute(0, 0.5, x0, 0.0),
                t_end=2.0,
                step=step,
                project=False,
                seed_tol=1e-9,
            )
            errs.append(abs(traj.x[-1] - exact))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0


class TestIsoclines:
    @pytest.mark.parametrize("a", [2.0, -0.7])
    def test_translational_trajectories_parallel(self, a):
        fld = Translational(a, "sin")
        trajs = []
        for order, target, near in [(0, 0.3, 0.4), (1, 0.2, 0.1), (2, -0.1, 0.8)]:
            x0, t0 = find_seed(fld, order, target, near=(near, 0.0))
            trajs.append(
                track(fld, Attribute(order, target, x0, t0), t_end=2.0, step=0.02)
            )
        for traj in trajs:
            line = traj.x[0] + a * (traj.t - traj.t[0])
            assert np.max(np.abs(traj.x - line)) < 1e-9
            assert traj.global_velocity == pytest.approx(a, abs=1e-9)


class TestGlobalVelocity:
    def test_single_sample_degenerate(self):
        traj = TrackedTrajectory(np.array([[0.0, 1.0, 1.0]]), Termination.TimeLimit)
        with pytest.raises(DegenerateTrajectory):
            global_velocity(traj)

    def test_zero_span_degenerate(self):
        traj = TrackedTrajectory(
            np.array([[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]]), Termination.TimeLimit
        )
        with pytest.raises(DegenerateTrajectory):
            global_velocity(traj)


class TestCsv:
    def test_trajectory_csv(self, tmp_path):
        fld = Translational(1.0)
        x0, t0 = find_seed(fld, 0, 0.5, near=(1.0, 0.0))
        traj = track(fld, Attribute(0, 0.5, x0, t0), t_end=1.0, step=0.1)
        path = tmp_path / "traj.csv"
        traj.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,v_local"
        assert lines[-2] == "# terminated_by=TimeLimit"
        assert lines[-1].startswith("# global_velocity=")
        assert len(lines) == 3 + len(traj.samples)


def _reference_track(field, attr, t_end, step, project):
    """The tracker written out plainly: RK4 with one pv_point per stage, then
    up to 3 Newton steps, each on a fresh jet, and a pv_point at the result."""
    order, target = attr.order, attr.target
    x, t = attr.x0, attr.t0
    samples = [(t, x, pv_point(field, x, t, order))]
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(step, t_end - t)
        try:
            k1 = pv_point(field, x, t, order)
            k2 = pv_point(field, x + 0.5 * h * k1, t + 0.5 * h, order) if k1 is not None else None
            k3 = pv_point(field, x + 0.5 * h * k2, t + 0.5 * h, order) if k2 is not None else None
            k4 = pv_point(field, x + h * k3, t + h, order) if k3 is not None else None
        except OutOfDomain:
            return samples, Termination.DomainExit
        if k4 is None:
            return samples, Termination.SingularityHit
        x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_new = t + h
        try:
            for _ in range(3 if project else 0):
                jet = field.jet(x_new, t_new, order + 1)
                g, gp = jet.deriv(0, order), jet.deriv(0, order + 1)
                if abs(gp) < 1e-300:
                    return samples, Termination.SingularityHit
                dx = (g - target) / gp
                x_new = x_new - dx
                if abs(dx) < 1e-14 * max(1.0, abs(x_new)):
                    break
            v = pv_point(field, x_new, t_new, order)
        except OutOfDomain:
            return samples, Termination.DomainExit
        if v is None or (abs(x_new - x) < 1e-14 and h < 1e-14):
            return samples, Termination.SingularityHit
        x, t = x_new, t_new
        samples.append((t, x, v))
    return samples, Termination.TimeLimit


_SAMPLED_PULSE = sample(
    DampedTranslational(1.0, 0.1), Grid1x1(-3.0, 0.02, 301, 0.0, 0.02, 101)
)

# (label, field, order, target, x_near, t0, t_end, steps)
_REFERENCE_CASES = [
    (f"{name}.o{order}", fld, order, target, near, 0.0, 1.0, 40)
    for name, fld, targets in [
        ("trans", Translational(1.2), (0.5, 0.2, 0.0)),
        ("damped", DampedTranslational(0.9, 0.1), (0.5, 0.2, 0.0)),
        ("kink", KinkDamped(1.1, 0.1), (0.5, -0.5, 0.0)),
    ]
    for order, target, near in zip(range(3), targets, (0.6, -0.4, 0.7))
] + [
    ("sampled.o0", _SAMPLED_PULSE, 0, 0.4, -0.5, 0.2, 1.0, 40),
    ("sampled.o1", _SAMPLED_PULSE, 1, 0.0, 0.2, 0.2, 1.0, 40),
    ("sampled.exit", _SAMPLED_PULSE, 0, 0.4, 1.3, 0.2, 5.0, 250),
    ("damped.annihilated", DampedTranslational(1.0, 0.5), 0, 0.5, -1.0, 0.0, 3.0, 150),
]

# the level leaves the grid; damping sinks the peak below the level
_ENDS = {
    "sampled.exit": Termination.DomainExit,
    "damped.annihilated": Termination.SingularityHit,
}


class TestReferenceLoop:
    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize(
        "label, fld, order, target, near, t0, t_end, steps",
        _REFERENCE_CASES,
        ids=[c[0] for c in _REFERENCE_CASES],
    )
    def test_bitwise_equal_to_reference(
        self, label, fld, order, target, near, t0, t_end, steps, project
    ):
        x0, t0 = find_seed(fld, order, target, near=(near, t0))
        attr = Attribute(order, target, x0, t0)
        step = (t_end - t0) / steps
        traj = track(fld, attr, t_end, step=step, project=project)
        samples, terminated = _reference_track(fld, attr, t_end, step, project)
        assert traj.terminated_by is terminated
        assert np.array_equal(traj.samples, np.array(samples, float))
        if project and label in _ENDS:
            assert terminated is _ENDS[label]


class TestJetBudget:
    def test_five_jets_per_step_on_a_level(self, monkeypatch):
        # k1 reuses the last step's velocity; projection probes the RK4 point
        # and the corrected one, whose jet also gives the new velocity
        calls = []
        jet = Translational.jet

        def counting_jet(self, x, t, order):
            calls.append((x, t))
            return jet(self, x, t, order)

        monkeypatch.setattr(Translational, "jet", counting_jet)
        traj = track(Translational(1.0), Attribute(0, 0.5, SQRT_LN2, 0.0), t_end=1.0, step=0.01)
        steps = len(traj.samples) - 1
        assert steps == 100
        assert len(calls) <= 1 + 5 * steps


class TestJetDeriv:
    @pytest.mark.parametrize("p, q", [(0, -1), (-1, 1)])
    def test_negative_order_is_rejected(self, p, q):
        with pytest.raises(OrderTooHigh):
            Translational(1.0).jet(0.3, 0.0, 1).deriv(p, q)
