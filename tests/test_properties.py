"""Property tests: the sampled domain, the point-query domain, batched sampled
jets, CSV round trips, seeds on their attribute, point poles in sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpv.errors import NoBracket, OutOfDomain
from locpv.field import (
    CustomField,
    DampedTranslational,
    Grid1x1,
    Harmonic,
    KinkDamped,
    Translational,
    load_grid_csv,
    sample,
    save_grid_csv,
)
from locpv.phasevel import pv_field, pv_point
from locpv.tracker import find_seed

FIELDS = [Harmonic(3.0, 1.5), DampedTranslational(1.0, 0.2), DampedTranslational(-0.7, -0.1)]


@st.composite
def sampled_fields(draw):
    grid = Grid1x1(
        draw(st.floats(-2.0, 0.0)),
        draw(st.floats(0.05, 0.3)),
        draw(st.integers(8, 24)),
        draw(st.floats(-1.0, 1.0)),
        draw(st.floats(0.05, 0.3)),
        draw(st.integers(8, 24)),
    )
    return sample(draw(st.sampled_from(FIELDS)), grid)


@st.composite
def query_grids(draw, g):
    """g itself, a window on g's own nodes, or a free grid; often past g's edges."""
    kind = draw(st.sampled_from(["same", "nodes", "free"]))
    if kind == "same":
        return g
    if kind == "nodes":
        i, j = draw(st.integers(0, g.nx - 2)), draw(st.integers(0, g.nt - 2))
        return Grid1x1(g.xs[i], g.dx, draw(st.integers(2, g.nx + 4)),
                       g.ts[j], g.dt, draw(st.integers(2, g.nt + 4)))
    wx, wt = g.x_max - g.x0, g.t_max - g.t0
    return Grid1x1(
        g.x0 + draw(st.floats(-0.5, 0.5)) * wx,
        draw(st.floats(0.3, 2.0)) * g.dx,
        draw(st.integers(2, 30)),
        g.t0 + draw(st.floats(-0.5, 0.5)) * wt,
        draw(st.floats(0.3, 2.0)) * g.dt,
        draw(st.integers(2, 30)),
    )


@given(st.data())
def test_no_valid_cell_outside_the_support(data):
    # a sampled field's support is its grid
    s = data.draw(sampled_fields())
    q = data.draw(query_grids(s.grid))
    order = data.draw(st.integers(0, 2))
    pvf = pv_field(s, q, order)
    assert not np.any(pvf.mask & ~s.grid.contains(q.xs, q.ts[:, None]))
    assert np.all(np.isfinite(pvf.values[pvf.mask]))


def _edges(lo, hi):
    """The bounds of [lo, hi] and their neighbouring doubles on either side."""
    return [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
            np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)]


@given(st.data())
def test_pv_point_out_of_domain_exactly_outside_the_grid(data):
    s = data.draw(sampled_fields())
    g = s.grid
    order = data.draw(st.integers(0, 2))
    x_far = data.draw(st.floats(g.x0 - 3 * g.dx, g.x_max + 3 * g.dx))
    t_far = data.draw(st.floats(g.t0 - 3 * g.dt, g.t_max + 3 * g.dt))
    for x in _edges(g.x0, g.x_max) + [x_far]:
        for t in _edges(g.t0, g.t_max) + [t_far]:
            if g.contains(x, t):
                pv_point(s, x, t, order)
            else:
                with pytest.raises(OutOfDomain) as exc:
                    pv_point(s, x, t, order)
                assert type(exc.value) is OutOfDomain


@given(st.data())
def test_sampled_jet_batch_is_the_scalar_jet_inside_and_nan_outside(data):
    s = data.draw(sampled_fields())
    g = s.grid
    order = data.draw(st.integers(0, 3))
    far = st.tuples(st.floats(g.x0 - 3 * g.dx, g.x_max + 3 * g.dx),
                    st.floats(g.t0 - 3 * g.dt, g.t_max + 3 * g.dt))
    points = [(x, t) for x in _edges(g.x0, g.x_max) for t in _edges(g.t0, g.t_max)]
    points += data.draw(st.lists(far, min_size=1, max_size=20))
    xs, ts = (np.array(v) for v in zip(*points))
    table = s.jet_batch(xs, ts, order)
    assert table.shape == (order + 1, order + 1, len(points))
    for k, (x, t) in enumerate(points):
        if g.contains(x, t):
            expected = s.jet(x, t, order).table
            assert np.array_equal(table[..., k].view(np.uint64), expected.view(np.uint64))
        else:
            assert np.isnan(table[..., k]).all()
            with pytest.raises(OutOfDomain):
                s.jet(x, t, order)


@given(
    st.floats(-1e6, 1e6),
    st.floats(1e-9, 1e3),
    st.integers(2, 6),
    st.floats(-1e6, 1e6),
    st.floats(1e-9, 1e3),
    st.integers(2, 6),
    st.data(),
)
def test_csv_save_load_save_is_byte_identical(tmp_path_factory, x0, dx, nx, t0, dt, nt, data):
    grid = Grid1x1(x0, dx, nx, t0, dt, nt)
    # any double, nan and the infinities included
    values = np.array(data.draw(st.lists(st.floats(), min_size=nx * nt, max_size=nx * nt)))
    name = data.draw(st.sampled_from(["psi", "v0", "v2", "lambda_w", "U"]))
    d = tmp_path_factory.mktemp("csv")
    save_grid_csv(d / "a.csv", grid, values.reshape(nt, nx), field_name=name)
    g2, v2, name2 = load_grid_csv(d / "a.csv")
    assert (g2, name2) == (grid, name)
    save_grid_csv(d / "b.csv", g2, v2, field_name=name2)
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()


def _assert_seed_on_attribute(field, order, target, near, xtol):
    """find_seed gives up with NoBracket or OutOfDomain, or returns a point
    inside the domain of its jet that brackets the target within xtol."""
    try:
        x0, t0 = find_seed(field, order, target, near)
    except (NoBracket, OutOfDomain):
        return
    assert t0 == near[1]
    field.jet(x0, t0, order + 1)
    lo, hi = (field.jet(x, t0, order + 1).deriv(0, order) - target for x in (x0 - xtol, x0 + xtol))
    assert lo * hi <= 0


ANALYTIC = [
    Translational(1.2),
    Translational(-0.8, "sin"),
    DampedTranslational(0.9, 0.1),
    KinkDamped(1.1, 0.1),
    Harmonic(3.0, 1.5),
]


@settings(max_examples=25)  # each bisection costs ~40 scalar jets
@given(
    st.sampled_from(ANALYTIC),
    st.integers(0, 2),
    st.floats(-1.0, 1.0),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
)
def test_analytic_seed_lies_on_the_attribute(field, order, target, x_near, t0):
    _assert_seed_on_attribute(field, order, target, (x_near, t0), xtol=1e-10 * 8.0)


@given(st.data())
def test_sampled_seed_lies_on_the_attribute(data):
    s = data.draw(sampled_fields())
    g = s.grid
    wx = g.x_max - g.x0
    near = (data.draw(st.floats(g.x0 - 0.5 * wx, g.x_max + 0.5 * wx)),
            data.draw(st.floats(g.t0, g.t_max)))
    order = data.draw(st.integers(0, 2))
    _assert_seed_on_attribute(s, order, data.draw(st.floats(-1.0, 1.0)), near, xtol=1e-3 * g.dx)


def test_seed_root_inside_a_clipped_grid():
    # the scan windows overhang the grid edge x = 2; the root x = 1 + sqrt(ln 2)
    # lies inside
    g = Grid1x1(-2.0, 0.02, 201, 0.0, 0.02, 201)
    s = sample(Translational(1.0), g)
    x0, t0 = find_seed(s, 0, 0.5, near=(1.9, 1.0))
    assert abs(x0 - 1.8326) < 1e-3
    _assert_seed_on_attribute(s, 0, 0.5, (1.9, 1.0), xtol=1e-3 * g.dx)


@st.composite
def analytic_sweeps(draw):
    """An analytic field, an order 0..4 and a small grid. The grid often has a
    node at x = 0 or t = 0, where the pulses have exact poles. The custom
    field exp(t + eps*x) has v_N = -1/eps at every order and node, a pole for
    eps below about 1e-12 that the default grid floor does not mask."""
    custom = st.floats(-16.0, -8.0).map(lambda e: CustomField(f"exp(t + {10.0 ** e!r}*x)"))
    field = draw(st.one_of(st.sampled_from(ANALYTIC), custom))
    axes = []
    for _ in range(2):
        step = draw(st.floats(0.05, 0.5))
        n = draw(st.integers(2, 4))
        # start = -step * i puts the node i at exactly 0
        start = draw(st.one_of(st.floats(-1.0, 1.0),
                               st.integers(0, n - 1).map(lambda i, h=step: -(h * i))))
        axes += [start, step, n]
    return field, draw(st.integers(0, 4)), Grid1x1(*axes)


@given(analytic_sweeps())
def test_sweep_masks_every_point_pole_and_keeps_point_values(sweep):
    field, order, g = sweep
    pvf = pv_field(field, g, order)
    for j, t in enumerate(g.ts):
        for i, x in enumerate(g.xs):
            v = pv_point(field, x, t, order)
            if v is None:
                assert not pvf.mask[j, i]
            elif pvf.mask[j, i]:
                assert np.float64(v).view(np.uint64) == pvf.values[j, i].view(np.uint64)
