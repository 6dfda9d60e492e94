"""Shared pytest set-up: a deterministic Hypothesis profile.

Property tests draw the same examples on every run (derandomize), keep no
example database, and have no per-example deadline, so the suite stays
reproducible and does not flake on slow or loaded machines.  The helpers
below lay derivatives out as tables, from the Taylor2 engine (the reference
for analytic fields) or from a field's ``derivs``, and compare them bit for bit.
"""

import numpy as np
from hypothesis import settings

from locpv.taylor import Taylor2

settings.register_profile(
    "locpv", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("locpv")



def assert_same_bits(a, b):
    """Equal bit for bit, except that any nan matches any nan: CPython and
    numpy each pick the sign and payload of a nan sum in their own way."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    np.testing.assert_array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def all_pairs(order):
    """Every (p, q) with p + q <= order, in ascending (p, q)."""
    return [(p, q) for p in range(order + 1) for q in range(order + 1 - p)]


def jet_table(jet):
    """D[p, q] = ``jet.deriv(p, q)`` over the jet's batch, 0 outside its set of powers:
    shape (order + 1, order + 1, *batch)."""
    r = range(jet.order + 1)
    return np.array([[np.broadcast_to(jet.deriv(p, q) if p <= jet.tdeg and p + q <= jet.order
                                      else 0.0, jet.shape) for q in r] for p in r])


def engine_table(field, x, t, order):
    """The derivatives of an analytic field up to an order at broadcast points, laid
    out by ``jet_table``: the reference, from one whole jet of the Taylor2 engine."""
    with np.errstate(all="ignore"):
        return jet_table(field.expr(*Taylor2.variables(x, t, order)))


def derivs_table(field, x, t, order):
    """``field.derivs`` of ``all_pairs(order)`` laid out as ``engine_table``, over the
    outer product of x and t: shape (order + 1, order + 1) + np.shape(t) + np.shape(x)."""
    pairs = all_pairs(order)
    table = np.zeros((order + 1, order + 1) + np.shape(t) + np.shape(x))
    for (p, q), values in zip(pairs, field.derivs(x, t, pairs)):
        table[p, q] = values
    return table
