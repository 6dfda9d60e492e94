"""Field construction, evaluation, sampling, FD stencils, and CSV round trips."""

import pickle

import numpy as np
import pytest

import locpv.field
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
from locpv.field import SAMPLED_NMAX, _diff_axis
from locpv.phasevel import pv_field


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

    def test_kept_bounds_change_no_identity_of_a_grid(self):
        # x_max and t_max are computed once, at first use; equality, hash,
        # repr and the pickled bytes stay those of the six fields
        fresh, used = Grid1x1(-1.0, 0.1, 7, 0.3, 0.2, 4), Grid1x1(-1.0, 0.1, 7, 0.3, 0.2, 4)
        before = pickle.dumps(fresh)
        assert used.contains(-0.4, 0.9)
        assert (used.x_max, used.t_max) == (-1.0 + 0.1 * 6, 0.3 + 0.2 * 3)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert pickle.dumps(used) == before
        copy = pickle.loads(before)
        assert copy == used and (copy.x_max, copy.t_max) == (used.x_max, used.t_max)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(x0=0, dx=0.1, nx=1, t0=0, dt=0.1, nt=5),
            dict(x0=0, dx=-0.1, nx=5, t0=0, dt=0.1, nt=5),
            dict(x0=0, dx=0.1, nx=5, t0=0, dt=0.0, nt=5),
            dict(x0=0, dx=np.inf, nx=5, t0=0, dt=0.1, nt=5),
            dict(x0=0, dx=0.1, nx=5, t0=0, dt=np.nan, nt=5),
            dict(x0=np.nan, dx=0.1, nx=5, t0=0, dt=0.1, nt=5),
            dict(x0=0, dx=0.1, nx=5, t0=-np.inf, dt=0.1, nt=5),
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


    def test_a_field_pickles_after_its_jets(self):
        # the recorded code stays behind; the copy records its own
        fld = DampedTranslational(1.2, 0.1, "arctan")
        jet = fld.jet(0.3, 0.4, 2)
        copy = pickle.loads(pickle.dumps(fld))
        assert copy == fld and copy.jet(0.3, 0.4, 2) == jet


    def test_a_custom_field_pickles_by_its_expression(self):
        fld = CustomField("sin(x)*t + sqrt(x*x + 1)")
        jet = fld.jet(0.3, 0.4, 3)
        copy = pickle.loads(pickle.dumps(fld))
        assert repr(copy) == repr(fld)
        assert np.array_equal(np.array(copy.jet(0.3, 0.4, 3).flat).view(np.uint64),
                              np.array(jet.flat).view(np.uint64))

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


def _moveaxis_diff(values, h, m, axis):
    """The FD loop over the moved axis in 16-slice blocks, with tensordot edges: a
    reference that runs _diff_axis's sums in their order."""
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    offs = np.arange(-((m + 1) // 2), (m + 1) // 2 + 1)
    half, width = offs[-1], m + 2
    out = np.empty_like(v, dtype=float)
    wc = locpv.field.fd_weights(0.0, offs, m) / h ** m
    inner = out[half : n - half]
    for b in range(0, inner.shape[axis], 16):
        block = (slice(None),) * axis + (slice(b, b + 16),)
        acc = np.multiply(wc[0], v[: n - 2 * half][block], out=inner[block])
        acc += 0.0
        for w, o in zip(wc[1:], offs[1:]):
            acc += w * v[half + o : n - half + o][block]
    for i in range(half):
        wf = locpv.field.fd_weights(float(i), np.arange(width), m) / h ** m
        out[i] = np.tensordot(wf, v[:width], axes=(0, 0))
        wb = locpv.field.fd_weights(float(n - 1 - i), np.arange(n - width, n), m) / h ** m
        out[n - 1 - i] = np.tensordot(wb, v[n - width :], axes=(0, 0))
    return np.moveaxis(out, 0, axis)


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_interior_equals_the_sum_of_its_terms_bitwise(self, m, axis):
        # in blocks of rows and more than one block; the central m = 1 and m = 3
        # stencils weigh a node by 0.0, so [+0.0, -1.0, -0.0] makes every term
        # -0.0, whose sum from 0 is +0.0
        rng = np.random.default_rng(m)
        values = rng.normal(size=(40, 37))
        values[rng.random(values.shape) < 0.3] = 0.0
        values[5:, 7:] *= np.sign(rng.normal(size=(35, 30)))
        values[10, :3] = values[:3, 10] = [0.0, -1.0, -0.0]
        values[20:23, 20:23] = [[0.0, -1.0, -0.0]] * 3
        half = (m + 1) // 2
        offsets = np.arange(-half, half + 1)
        w = locpv.field.fd_weights(0.0, offsets, m) / 0.1 ** m
        v = np.moveaxis(values, axis, 0)
        n = v.shape[0]
        expected = sum(wk * v[half + o : n - half + o] for wk, o in zip(w, offsets))
        got = np.moveaxis(_diff_axis(values, 0.1, m, axis), axis, 0)[half : n - half]
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("m", range(1, SAMPLED_NMAX + 2))
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shape", [(7, 9), (37, 11), (40, None), (None, 33), (16, 5)],
                             ids=["nt<16", "nt=37", "nx=width", "nt=width", "nt=16"])
    def test_whole_output_equals_the_moveaxis_loop_bitwise(self, m, axis, shape):
        # edges included; the x-sums over the flat index cross each row end,
        # where signed zeros sit, before the one-sided edges overwrite them
        shape = tuple(m + 2 if n is None else n for n in shape)
        rng = np.random.default_rng(10 * m + axis)
        values = rng.normal(size=shape)
        values[rng.random(shape) < 0.2] = 0.0
        values[::2, 0], values[1::2, 0] = -0.0, 0.0
        values[::3, -1], values[1::3, -1] = -0.0, 0.0
        values[::2, :2] *= -1.0
        expected = _moveaxis_diff(values, 0.3, m, axis)
        got = _diff_axis(values, 0.3, m, axis)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_fd_grids_do_not_depend_on_memory_layout(self):
        # the one-sided edges' tensordot sums in an order that follows the layout
        g = Grid1x1(-1.0, 0.25, 5, 0.0, 0.05, 40)
        v = np.random.default_rng(4).normal(size=(g.nt, g.nx))
        wide = np.zeros((g.nt, 2 * g.nx))
        wide[:, ::2] = v
        fields = [SampledField(g, a) for a in (v, np.asfortranarray(v), wide[:, ::2])]
        for p in range(SAMPLED_NMAX + 2):
            for q in range(SAMPLED_NMAX + 2 - p):
                grids = [f.derivative_grid(p, q).view(np.uint64) for f in fields]
                np.testing.assert_array_equal(grids[1], grids[0])
                np.testing.assert_array_equal(grids[2], grids[0])
        for order in range(SAMPLED_NMAX + 1):
            pvs = [pv_field(f, g, order) for f in fields]
            for pv in pvs[1:]:
                np.testing.assert_array_equal(pv.mask, pvs[0].mask)
                np.testing.assert_array_equal(pv.values[pv.mask].view(np.uint64),
                                              pvs[0].values[pv.mask].view(np.uint64))

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
            two_rows.sweep(g, [(1, 0)])
        # order 0 needs no stencil: the whole grid is its domain
        assert two_rows.eval(0.0, 0.0) == pytest.approx(two_rows.values[0, 0], abs=1e-12)
        assert np.isfinite(two_rows.sweep(g, [(0, 1)])[0]).all()


class TestSweep:
    """Both kinds of field answer ``sweep(grid, pairs)`` and ``domain(grid)``."""

    def test_own_grid_returns_the_fd_grid(self):
        g = Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 11)
        s = sample(DampedTranslational(1.0, 0.2), g)
        same = Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 11)  # equal to g, not the same object
        assert s.sweep(same, [(1, 1)])[0] is s.derivative_grid(1, 1)
        assert s.domain(same).all() and s.grid is g and s.omega_over_k is None

    def test_nan_outside_the_grid(self):
        g = Grid1x1(0.0, 0.1, 21, 0.0, 0.1, 21)
        s = sample(Translational(1.0), g)
        q = Grid1x1(-0.25, 0.05, 51, 0.02, 0.05, 41)  # overhangs both x edges and t_max
        d = s.sweep(q, [(0, 2)])[0]
        inside = s.domain(q)
        np.testing.assert_array_equal(inside, g.contains(q.xs, q.ts[:, None]))
        assert inside.any() and not inside.all()
        assert np.all(np.isfinite(d[inside]))
        assert np.all(np.isnan(d[~inside]))
        exact = Translational(1.0).jet_batch(q.xs[None, 10:30], q.ts[:10, None], 2)[0, 2]
        np.testing.assert_allclose(d[:10, 10:30], exact, atol=0.05)

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("fld", [DampedTranslational(1.0, 0.1),
                                     CustomField("log(x)*sin(3*t-2*x)")],
                             ids=["damped", "custom-nan-region"])
    def test_analytic_sweep_is_the_jet_batch_entries_bit_for_bit(self, fld, order):
        q = Grid1x1(-1.0, 0.05, 41, -0.5, 0.1, 11)  # x <= 0 lies outside log(x)'s domain
        table = fld.jet_batch(q.xs, q.ts[:, None], order)
        pairs = [(p, k) for p in range(order + 1) for k in range(order + 1 - p)]
        for (p, k), got in zip(pairs, fld.sweep(q, pairs)):
            assert got.shape == (q.nt, q.nx)
            assert np.array_equal(got.view(np.uint64), table[p, k].view(np.uint64))
        assert fld.domain(q).shape == (q.nt, q.nx) and fld.domain(q).all()
        assert fld.grid is None and fld.omega_over_k is None

    def test_a_harmonic_knows_omega_over_k(self):
        assert Harmonic(3.0, 1.5).omega_over_k == 2.0



def _poly(x, t, degree_t):
    """A polynomial of degree 3 in x and degree_t in t."""
    px = [0.3 - 1.1 * x + 0.7 * x**2 - 0.4 * x**3, 0.5 + 0.2 * x - 0.9 * x**3,
          1.3 - x**2 + 0.8 * x**3, -0.6 * x**3 + 0.1 * x]
    return sum(c * t**b for b, c in enumerate(px[: degree_t + 1]))


class TestInterpolant:
    """Off its nodes a sampled field reads each FD grid through one local
    tensor-product Lagrange cubic, of lower degree on an axis under 4 nodes."""

    @pytest.mark.parametrize("nt", [2, 3, 4, 11])
    def test_reproduces_polynomials_of_its_degree(self, nt):
        g = Grid1x1(-1.0, 0.2, 11, 0.5, 0.3, nt)
        degree_t = min(3, nt - 1)
        s = SampledField(g, _poly(g.xs, g.ts[:, None], degree_t))
        # the first, a middle and the last cell of each axis
        xs = [g.x0 + 0.3 * g.dx, g.x0 + 5.6 * g.dx, g.x_max - 0.3 * g.dx, g.x_max]
        ts = [g.t0 + 0.4 * g.dt, 0.5 * (g.t0 + g.t_max), g.t_max - 0.4 * g.dt, g.t0]
        for x in xs:
            for t in ts:
                value = s.jet(x, t, 0).value
                assert value == pytest.approx(_poly(x, t, degree_t), abs=1e-13)
                assert s.jet_batch(x, t, 0)[0, 0] == value
        q = Grid1x1(g.x0 + 0.05, 0.17, 12, g.t0 + 0.01, 0.7 * g.dt, nt)
        np.testing.assert_allclose(s.sweep(q, [(0, 0)])[0],
                                   _poly(q.xs, q.ts[:, None], degree_t), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nt, expected", [(2, 0.5), (3, -0.25), (4, 0.125)])
    def test_lower_degree_on_a_short_axis(self, nt, expected):
        # t^3 sampled at t = 0, 1, ...: on 2 nodes the line t, on 3 the
        # parabola 3t^2 - 2t, from 4 on t^3 itself; at t = 0.5
        g = Grid1x1(0.0, 1.0, 5, 0.0, 1.0, nt)
        s = SampledField(g, np.repeat(g.ts[:, None] ** 3, 5, axis=1))
        assert s.eval(2.0, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_sweeps_on_another_grid_equal_point_jets_bit_for_bit(self):
        g = Grid1x1(-2.0, 0.05, 81, 0.0, 0.05, 41)
        s = sample(DampedTranslational(1.0, 0.1), g)
        q = Grid1x1(-2.6, 0.07, 75, -0.4, 0.06, 45)  # past every edge of g
        # the (p, q) of an order-2 jet, in its flat order, in one sweep
        sweeps = np.array(s.sweep(q, [(p, k) for p in range(3) for k in range(3 - p)]))
        for j in range(0, q.nt, 3):
            for i in range(0, q.nx, 3):
                if g.contains(q.xs[i], q.ts[j]):
                    flat = np.array(s.jet(q.xs[i], q.ts[j], 2).flat)
                    assert np.array_equal(sweeps[:, j, i].view(np.uint64), flat.view(np.uint64))

    def test_far_query_grids_are_nan_without_warnings(self):
        s = sample(Harmonic(3.0, 1.5), Grid1x1(0.0, 0.1, 21, 0.0, 0.1, 21))
        q = Grid1x1(1e300, 1e299, 3, -1e300, 1e299, 3)
        assert np.isnan(s.sweep(q, [(1, 0)])[0]).all()

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
