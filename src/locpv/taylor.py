"""Truncated bivariate Taylor (jet) arithmetic.

A ``Taylor2`` holds the coefficients of a polynomial in the two displacement
variables (dt, dx), truncated at a fixed total degree.  Propagating these
objects through the closed-form expression of a wave family yields every mixed
partial derivative at the expansion point to machine precision, with no
symbolic algebra involved.

The coefficients c[p, q] with p + q <= order are kept in a flat list, in
ascending (p, q).  Each one is a Python float or a numpy array in its own
broadcast shape, so a jet can stand for a whole batch of expansion points: at
x of shape (nx,) and t of shape (nt, 1), a coefficient that depends on t alone
keeps the shape (nt, 1), and one that is the same everywhere (the 0 and 1 of
the coordinate jets, -1/a) stays a float.  The jet records the shape of its
batch, and ``deriv_table`` builds the square table once, at that shape.

Every operation works coefficient by coefficient.  The product is the Cauchy
product, run as one loop over a table of terms laid out once per order
(Griewank & Walther, *Evaluating Derivatives*, ch. 13), for floats and arrays
alike.  Each output coefficient starts from +0.0 and adds its terms in a fixed
order, so it rounds the same way on every path: Python floats multiply and
add as the IEEE doubles numpy uses.  A coefficient of the left factor that is
zero (at every point of a batch) adds no terms, so 0 * inf or 0 * nan never
enters a sum.  Python's / and ** raise where numpy gives inf or nan, so
divisions by constants and the series of the elementary functions stay in
numpy, and an unbatched jet turns their results into floats.
"""

from __future__ import annotations

import operator
from functools import cache
from math import factorial

import numpy as np

__all__ = [
    "Taylor2",
    "t2_exp",
    "t2_sin",
    "t2_cos",
    "t2_atan",
    "t2_log",
    "t2_sqrt",
    "t2_pow",
    "t2_compose",
]


@cache
def _indices(m):
    """(p, q) of each flat coefficient of an order-m jet: p + q <= m, ascending."""
    return tuple((p, q) for p in range(m + 1) for q in range(m + 1 - p))


@cache
def _product_terms(m):
    """The terms of a product of order-m jets, per flat coefficient of the a factor.

    Entry i holds a (j, k) pair for each output k that gets a[i]*b[j].  Run
    over ascending i, this adds the terms of every output in ascending (p, q)
    of the a factor, the order that fixes the rounding of its sum.
    """
    index = {pq: k for k, pq in enumerate(_indices(m))}
    return tuple(tuple((j, index[p1 + p2, q1 + q2]) for (p2, q2), j in index.items()
                       if p1 + q1 + p2 + q2 <= m) for p1, q1 in index)


@cache
def _factorials(m):
    """p! q! as a float, per flat coefficient."""
    return tuple(float(factorial(p) * factorial(q)) for p, q in _indices(m))


def _entry(v):
    """A coefficient from numpy: a 0-d result as a Python float."""
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def _shape(v):
    return () if isinstance(v, float) else np.shape(v)


def _broadcast(s1, s2):
    return s1 if s1 == s2 else np.broadcast_shapes(s1, s2)


class Taylor2:
    """Polynomial sum_{p+q<=order} c[p,q] * dt^p * dx^q over a batch of shape ``shape``."""

    __slots__ = ("flat", "order", "shape")

    def __init__(self, coef):
        """A jet from its square array of coefficients, coef[p, q, *batch]."""
        coef = np.asarray(coef, dtype=float)
        self.order, self.shape = coef.shape[0] - 1, coef.shape[2:]
        rows = coef.tolist() if coef.ndim == 2 else coef
        self.flat = [rows[p][q] for p, q in _indices(self.order)]

    @classmethod
    def _of(cls, flat, order, shape):
        jet = cls.__new__(cls)
        jet.flat, jet.order, jet.shape = flat, order, shape
        return jet

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, order, shape=()):
        """The jet of a constant, over a batch of the given shape."""
        flat = [0.0] * len(_indices(order))
        flat[0] = value
        return cls._of(flat, order, _broadcast(_shape(value), shape))

    @classmethod
    def variables(cls, x, t, order):
        """Jets of the coordinate functions x and t at the points (x, t); each
        keeps its own shape, and both stand for their broadcast batch."""
        x, t = _entry(np.asarray(x, float)), _entry(np.asarray(t, float))
        shape = _broadcast(_shape(x), _shape(t))
        xs, ts = [0.0] * len(_indices(order)), [0.0] * len(_indices(order))
        xs[0], ts[0] = x, t
        if order >= 1:
            xs[1] = ts[order + 1] = 1.0  # the coefficients of dx, (0, 1), and dt, (1, 0)
        return cls._of(xs, order, shape), cls._of(ts, order, shape)

    # -- inspection ---------------------------------------------------------

    @property
    def value(self):
        return self.flat[0]

    @property
    def coef(self):
        """The coefficients as a square array, coef[p, q, *shape] (0 where p+q > order)."""
        m = self.order
        table = np.zeros((m + 1, m + 1) + self.shape)
        for (p, q), v in zip(_indices(m), self.flat):
            table[p, q] = v
        return table

    def deriv_table(self):
        """Array D with D[p, q] = d^{p+q} f / dt^p dx^q (entries p+q<=order)."""
        scaled = [v * f for v, f in zip(self.flat, _factorials(self.order))]
        return Taylor2._of(scaled, self.order, self.shape).coef

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if other.order != self.order:
            raise ValueError("mixed jet orders")

    def _elementwise(self, op, other):
        a = self.flat
        if isinstance(other, Taylor2):
            self._check(other)
            return Taylor2._of(list(map(op, a, other.flat)), self.order,
                               _broadcast(self.shape, other.shape))
        # a constant is a jet whose other coefficients are +0.0
        flat = [op(a[0], other)] + [op(v, 0.0) for v in a[1:]]
        return Taylor2._of(flat, self.order, _broadcast(self.shape, _shape(other)))

    def __add__(self, other):
        return self._elementwise(operator.add, other)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2._of([-v for v in self.flat], self.order, self.shape)

    def __sub__(self, other):
        return self._elementwise(operator.sub, other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Taylor2):
            shape = _broadcast(self.shape, _shape(other))
            return Taylor2._of([v * other for v in self.flat], self.order, shape)
        self._check(other)
        a, b = self.flat, other.flat
        out = [0.0] * len(a)
        for ai, terms in zip(a, _product_terms(self.order)):
            # a zero adds nothing, even where b is inf or nan
            if not (ai.any() if type(ai) is np.ndarray else ai != 0.0):
                continue
            for j, k in terms:
                out[k] = out[k] + ai * b[j]
        return Taylor2._of(out, self.order, _broadcast(self.shape, other.shape))

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if not isinstance(other, Taylor2):
            flat = [_entry(np.true_divide(v, other)) for v in self.flat]
            return Taylor2._of(flat, self.order, _broadcast(self.shape, _shape(other)))
        return self * t2_pow(other, -1)

    def __rtruediv__(self, other):
        return t2_pow(self, -1) * other

    def __pow__(self, p):
        return t2_pow(self, p)


# -- composition with elementary functions ---------------------------------


def t2_compose(u, series_fn):
    """f(u) for a Taylor2 u, where series_fn(u0, m) returns the univariate
    Taylor coefficients c_k of f at u0 (f(u0+s) = sum c_k s^k, k<=m)."""
    m = u.order
    c = [_entry(v) for v in series_fn(u.value, m)]
    uhat = Taylor2._of([0.0] + u.flat[1:], m, u.shape)
    out = Taylor2._of([c[m]] + [0.0] * (len(u.flat) - 1), m, u.shape)
    for k in range(m - 1, -1, -1):
        out = out * uhat
        # the other coefficients are sums from +0.0, never -0.0, so adding
        # the +0.0 of a constant jet to them would change no bit
        out.flat[0] = out.flat[0] + c[k]
    return out


def exp_series(u0, m):
    e = np.exp(u0)
    return [e / factorial(k) for k in range(m + 1)]


def sin_series(u0, m):
    s, c = np.sin(u0), np.cos(u0)
    cycle = [s, c, -s, -c]
    return [cycle[k % 4] / factorial(k) for k in range(m + 1)]


def cos_series(u0, m):
    s, c = np.sin(u0), np.cos(u0)
    cycle = [c, -s, -c, s]
    return [cycle[k % 4] / factorial(k) for k in range(m + 1)]


def _recip_series(q, m):
    """Coefficients of 1/q(s) for a univariate polynomial series q, up to s^m."""
    r = [1.0 / q[0]]
    for k in range(1, m + 1):
        acc = 0.0
        for j in range(1, min(k, len(q) - 1) + 1):
            acc = acc + q[j] * r[k - j]
        r.append(-acc / q[0])
    return r


def atan_series(u0, m):
    c0 = np.arctan(u0)
    if m == 0:
        return [c0]
    # d/ds atan(u0+s) = 1 / (1 + u0^2 + 2*u0*s + s^2); integrate term-wise
    q = [1.0 + u0 * u0, 2.0 * u0, np.broadcast_to(1.0, np.shape(u0))]
    d = _recip_series(q, m - 1)
    return [c0] + [d[k - 1] / k for k in range(1, m + 1)]


def log_series(u0, m):
    # np.power rounds scalars as arrays; ** on a numpy scalar calls libm pow
    c = [np.log(u0)]
    for k in range(1, m + 1):
        c.append(((-1.0) ** (k + 1)) / (k * np.power(u0, k)))
    return c


def pow_series(p, u0, m):
    # generalized binomial: c_k = C(p, k) * u0^(p-k); 0 where C(p, k) = 0, even at u0 = 0
    c = []
    binom = 1.0
    for k in range(m + 1):
        c.append(binom * np.power(u0, p - k) if binom != 0.0 else 0.0)
        binom = binom * (p - k) / (k + 1)
    return c


def t2_exp(u):
    return t2_compose(u, exp_series)


def t2_sin(u):
    return t2_compose(u, sin_series)


def t2_cos(u):
    return t2_compose(u, cos_series)


def t2_atan(u):
    return t2_compose(u, atan_series)


def t2_log(u):
    return t2_compose(u, log_series)


def t2_sqrt(u):
    return t2_compose(u, lambda u0, m: pow_series(0.5, u0, m))


def t2_pow(u, p):
    if isinstance(p, (int, np.integer)) and p >= 0:
        out = Taylor2.constant(1.0, u.order)
        base = u
        k = int(p)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out
    return t2_compose(u, lambda u0, m: pow_series(float(p), u0, m))
