"""``partials``: the three partials that a phase velocity reads, bit for bit
those of a one-point array ``derivs`` query of their pairs, with its errors, on
every field kind; and tracked fields, whose point queries keep state, pickle and
track alike."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from locpv.errors import OrderTooHigh, OutOfDomain
from locpv.field import (
    CustomField,
    DampedTranslational,
    Grid1x1,
    Harmonic,
    InhomogeneousMode,
    KinkDamped,
    SampledField,
    Translational,
    sample,
)
from locpv.media import ConstantIndex, LinearIndex, TabulatedIndex, TanhRampIndex
from locpv.relativity import BoostFrame, boost_field
from locpv.tracker import Attribute, find_seed, track

_XS = np.linspace(-5, 5, 21)
ANALYTIC = [
    Harmonic(3.0, 1.5),
    *(Translational(1.3, env) for env in ("gauss", "arctan", "sin", "exp")),
    DampedTranslational(-0.7, 0.2),
    KinkDamped(1.0, 0.3),
    *(InhomogeneousMode(2.0, medium) for medium in (
        ConstantIndex(1.5), LinearIndex(1.0, 0.1), TanhRampIndex(1.0, 0.5, 0.3, 0.8),
        TabulatedIndex(_XS, 1.0 + 0.3 / (1 + _XS ** 2)))),
    boost_field(DampedTranslational(1.0, 0.1), BoostFrame(0.4)),
    # poles and branch cuts: nan and inf entries at and past x = 0 or x = t
    CustomField("log(x) * exp(-t*t)"),
    CustomField("sqrt(x - t) + sin(x)"),
    CustomField("(x*x - t)**-1.5"),
]


def _outcome(fn, *args):
    """A call's result as the bits of its floats, every nan as one (CPython and numpy
    each pick the sign and payload of a nan sum in their own way), or its error's class."""
    try:
        with np.errstate(all="ignore"):
            got = np.array(fn(*args), float)
            return np.where(np.isnan(got), np.nan, got).view(np.uint64).tolist()
    except Exception as exc:  # the error class is the outcome compared
        return type(exc)


def _from_jet(field, x, t, order):
    """The three partials from a one-point array ``derivs`` of their pairs, which is
    nan outside a sampled grid, where a float point raises OutOfDomain."""
    pairs = [(0, order), (0, order + 1), (1, order)]
    got = field.derivs(np.array([x]), np.array([t]), pairs)
    if isinstance(field, SampledField) and not field.grid.contains(x, t):
        raise OutOfDomain(f"point ({x}, {t}) outside the sampling grid")
    return [a[0, 0] for a in got]


# a pole of each custom field, its neighbours and ordinary points
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -1.0, 0.5, 1e-8])
_COORD = st.one_of(_SPECIAL, st.floats(-3.0, 3.0))


@given(st.sampled_from(ANALYTIC),
       st.lists(st.tuples(_COORD, _COORD, st.integers(0, 5)), min_size=1, max_size=12))
def test_analytic_partials_are_the_jets_entries(field, queries):
    # order 5 asks for a jet of order 6, beyond every analytic field's nmax + 1
    for x, t, order in queries:
        got = _outcome(field.partials, x, t, order)
        assert got == _outcome(_from_jet, field, x, t, order)
        assert got != OrderTooHigh or order > field.nmax


def _edges(lo, hi):
    """The bounds of [lo, hi] and their neighbouring doubles on either side."""
    return [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
            np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)]


@st.composite
def sampled_queries(draw):
    """A sampled field with axes of 2, 3 or more nodes and interleaved queries
    (x, t, order): a few edge, nearby and far coordinates, so that points
    recur and share one axis's block, and orders 0..nmax+1."""
    nx, nt = (draw(st.sampled_from([2, 3, 4, 9, 16])) for _ in "xt")
    g = Grid1x1(draw(st.floats(-2.0, 0.0)), draw(st.floats(0.05, 0.5)), nx,
                draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 0.5)), nt)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).standard_normal((nt, nx))

    def coords(lo, hi, h, n):
        one = st.one_of(st.sampled_from(_edges(lo, hi)), st.floats(lo - h / 2, hi + h / 2))
        return st.sampled_from(draw(st.lists(one, min_size=n, max_size=n)))

    query = st.tuples(coords(g.x0, g.x_max, g.dx, 3), coords(g.t0, g.t_max, g.dt, 3),
                      st.integers(0, SampledField.nmax + 1))
    return g, values, draw(st.lists(query, min_size=4, max_size=16))


@given(sampled_queries())
def test_sampled_partials_are_the_jets_entries(case):
    # one field answers every query, in the drawn order, so that a block kept
    # from an earlier query at another point or order would show; each
    # reference is an array query of a fresh copy, which has kept nothing
    g, values, queries = case
    field = SampledField(g, values)
    for x, t, order in queries:
        want = _outcome(_from_jet, SampledField(g, values), x, t, order)
        assert _outcome(field.partials, x, t, order) == want
        assert _outcome(_from_jet, field, x, t, order) == want


_ZERO_T0 = Grid1x1(-1.0, 0.25, 9, 0.0, 0.25, 6)


def _zero_row_values():
    # the row at t = 0 is -0.0: the t-weights' zeros then decide the sign of a sum
    values = np.random.default_rng(0).standard_normal((_ZERO_T0.nt, _ZERO_T0.nx))
    values[0] = -0.0
    return values


def test_a_point_query_at_t_0_and_minus_0_reads_each_its_own_sums():
    # the t-sums a field keeps at one time must not answer the other zero
    values = _zero_row_values()
    field, differ = SampledField(_ZERO_T0, values), 0
    for x in np.linspace(-1.0, 1.0, 17).tolist():
        for order in range(SampledField.nmax + 1):
            got = {}
            for t in (0.0, -0.0, 0.0, -0.0):
                want = _outcome(SampledField(_ZERO_T0, values).partials, x, t, order)
                assert _outcome(field.partials, x, t, order) == want
                got[str(t)] = want
            differ += got["0.0"] != got["-0.0"]
    assert differ  # the two zeros give other bits somewhere


def test_kept_sums_answer_only_their_time_and_pairs():
    # t, t', t at one first x-node: a miss after a hit after a miss; then other
    # pairs at one time and x-node; each as a fresh copy answers it
    values = _zero_row_values()
    field = SampledField(_ZERO_T0, values)
    queries = [(0.3, 0.4, [(0, 0), (0, 1)]), (0.31, 0.62, [(0, 0), (0, 1)]),
               (0.32, 0.4, [(0, 0), (0, 1)]), (0.33, 0.4, [(1, 0), (0, 2)]),
               (0.3, 0.4, [(0, 0), (0, 1)]), (0.3, 0.4, [(0, 0)])]
    for x, t, pairs in queries:
        want = _outcome(SampledField(_ZERO_T0, values).derivs, x, t, pairs)
        assert _outcome(field.derivs, x, t, pairs) == want


@pytest.mark.parametrize("pairs", [[(0, 0), (0, 1)], [[0, 0], [0, 1]]], ids=["tuples", "lists"])
def test_a_float_query_reads_the_pairs_asked_even_if_the_caller_changed_them(pairs):
    # the blocks a point query keeps are keyed on a copy of its pairs: a list that
    # the caller changes between two queries at one point reads its new pairs
    s = sample(DampedTranslational(1.0, 0.1), Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 21))
    first = s.derivs(0.33, 0.44, pairs)
    if isinstance(pairs[1], list):
        pairs[1][0], pairs[1][1] = 1, 0
    else:
        pairs[1] = (1, 0)
    second = s.derivs(0.33, 0.44, pairs)
    fresh = SampledField(s.grid, s.values).derivs(0.33, 0.44, [(0, 0), (1, 0)])
    assert second == fresh and second[0] == first[0] and second[1] != first[1]


@pytest.mark.parametrize("field", [
    Translational(1.0), CustomField("log(x)"),
    sample(Translational(1.0), Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 21)),
], ids=["analytic", "custom", "sampled"])
def test_negative_order_is_rejected(field):
    with pytest.raises(OrderTooHigh):
        field.partials(0.5, 0.5, -1)


@pytest.mark.parametrize("field", [
    Translational(1.0), CustomField("log(x)"),
    sample(Translational(1.0), Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 21)),
], ids=["analytic", "custom", "sampled"])
@pytest.mark.parametrize("pairs", [[(0, 3), (-1, 1)], [(0, -1)], [(0, 0), (1, 7)]],
                         ids=["negative-p", "negative-q", "above-nmax"])
def test_a_sweep_rejects_orders_outside_0_to_nmax_plus_1(field, pairs):
    # on the sampled field's own grid and on another
    for g in (Grid1x1(-1.0, 0.1, 21, 0.0, 0.1, 21), Grid1x1(0.0, 0.3, 3, 0.0, 0.3, 3)):
        with pytest.raises(OrderTooHigh):
            field.sweep(g, pairs)


_GRID = Grid1x1(-3.0, 0.02, 301, 0.0, 0.02, 101)


@pytest.mark.parametrize("field, order, target, near", [
    (DampedTranslational(1.0, 0.1), 1, 0.0, (0.05, 0.2)),
    (CustomField("exp(-(t - x)*(t - x))"), 0, 0.5, (-0.8, 0.1)),
    (sample(DampedTranslational(1.0, 0.1), _GRID), 0, 0.4, (-0.5, 0.2)),
], ids=["analytic", "custom", "sampled"])
def test_a_tracked_field_pickles_and_its_copy_tracks_alike(field, order, target, near):
    fresh = pickle.dumps(field)
    attr = Attribute(order, target, *find_seed(field, order, target, near))
    first = track(field, attr, 1.2, step=0.01)
    field.partials(attr.x0, attr.t0, order)  # a point probe leaves its t-sums kept
    # its caches, recorded jets or FD grids, blocks and t-sums, do not pickle
    assert pickle.dumps(field) == fresh
    copy = pickle.loads(pickle.dumps(field))
    again = track(copy, attr, 1.2, step=0.01)
    assert again.terminated_by is first.terminated_by
    assert np.array_equal(again.samples.view(np.uint64), first.samples.view(np.uint64))
