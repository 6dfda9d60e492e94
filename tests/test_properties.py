"""Property tests: the sampled domain, the point-query domain, derivative
queries on arrays against those at floats, CSV round trips, seeds on their
attribute, point poles in sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_bits
from locpv.errors import NoBracket, OutOfDomain, StencilClipped
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
from locpv.phasevel import pv_field, pv_point
from locpv.tracker import find_seed

FIELDS = [Harmonic(3.0, 1.5), DampedTranslational(1.0, 0.2), DampedTranslational(-0.7, -0.1)]


@st.composite
def sampled_fields(draw, sizes=st.integers(8, 24)):
    grid = Grid1x1(
        draw(st.floats(-2.0, 0.0)),
        draw(st.floats(0.05, 0.3)),
        draw(sizes),
        draw(st.floats(-1.0, 1.0)),
        draw(st.floats(0.05, 0.3)),
        draw(sizes),
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


# analytic fields with poles and branch cuts at x = 0 and x = t, whose
# derivatives there are nan or inf
_POLES = [CustomField("log(x)*sin(3*t-2*x)"), CustomField("sqrt(x - t) + 1/x")]


@st.composite
def derivative_queries(draw, sizes=st.integers(8, 24), kinds=(*FIELDS, *_POLES)):
    """A field of either kind (a sampled field or one of kinds), the axes of an
    outer product around a sampled grid (its edges and their neighbours, +-0 and
    points outside) and the (p, q) of one query, p + q up to the field's nmax + 1."""
    s = draw(sampled_fields(sizes))
    field = draw(st.sampled_from([s, *kinds]))
    g = s.grid

    def axis(lo, hi, h):
        one = st.one_of(st.sampled_from(_edges(lo, hi) + [0.0, -0.0]),
                        st.floats(lo - 3 * h, hi + 3 * h))
        return np.array(draw(st.lists(one, min_size=1, max_size=6)))

    order = draw(st.integers(0, field.nmax + 1))
    pair = st.tuples(st.integers(0, order), st.integers(0, order)).filter(lambda pq: sum(pq) <= order)
    pairs = draw(st.lists(pair, min_size=1, max_size=4))
    return field, axis(g.x0, g.x_max, g.dx), axis(g.t0, g.t_max, g.dt), pairs


@given(derivative_queries())
def test_derivs_on_arrays_are_the_queries_at_floats(query):
    _assert_arrays_are_floats(*query)


@given(derivative_queries(st.integers(2, 4), kinds=()))
def test_derivs_on_axes_of_2_to_4_nodes_are_the_queries_at_floats(query):
    # blocks padded by their last node, and stencils longer than an axis
    _assert_arrays_are_floats(*query)


def _assert_arrays_are_floats(field, xs, ts, pairs):
    """Batch = point, nan compared as a class (its sign is not reproducible); a
    sampled field gives nan outside its grid on arrays and raises at floats, and
    a stencil longer than an axis raises StencilClipped on both if a point is inside."""
    sampled = isinstance(field, SampledField)
    try:
        got = field.derivs(xs, ts, pairs)
    except StencilClipped:
        inside = [(x, t) for t in ts for x in xs if field.grid.contains(x, t)]
        assert sampled and inside
        for x, t in inside:
            with pytest.raises(StencilClipped):
                field.derivs(x, t, pairs)
        return
    assert all(a.shape == (ts.size, xs.size) for a in got)
    for j, t in enumerate(ts):
        for i, x in enumerate(xs):
            cell = [a[j, i] for a in got]
            if sampled and not field.grid.contains(x, t):
                assert np.isnan(cell).all()
                with pytest.raises(OutOfDomain):
                    field.derivs(x, t, pairs)
                continue
            point = field.derivs(x, t, pairs)
            assert all(type(v) is float for v in point)
            assert_same_bits(cell, point)


@given(derivative_queries())
def test_partials_are_derivs_at_a_one_point_array(query):
    field, xs, ts, _ = query
    for order in range(field.nmax + 1):
        pairs = [(0, order), (0, order + 1), (1, order)]
        got = [a[0, 0] for a in field.derivs(xs[:1], ts[:1], pairs)]
        if isinstance(field, SampledField) and not field.grid.contains(xs[0], ts[0]):
            assert np.isnan(got).all()
            with pytest.raises(OutOfDomain):
                field.partials(xs[0], ts[0], order)
            continue
        with np.errstate(all="ignore"):  # partials leaves numpy's warnings to its caller
            assert_same_bits(field.partials(xs[0], ts[0], order), got)


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
    inside the domain of its derivatives that brackets the target within xtol."""
    try:
        x0, t0 = find_seed(field, order, target, near)
    except (NoBracket, OutOfDomain):
        return
    assert t0 == near[1]
    pairs = [(0, order), (0, order + 1), (1, order)]
    field.derivs(x0, t0, pairs)
    probes = [x0 - xtol, x0 + xtol]
    if isinstance(field, SampledField):
        # a root within xtol of the grid's edge is bracketed from inside
        probes = np.clip(probes, field.grid.x0, field.grid.x_max)
    lo, hi = (field.derivs(x, t0, pairs)[0] - target for x in probes)
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
