"""Truncated bivariate Taylor (jet) arithmetic.

A ``Taylor2`` holds the coefficients of a polynomial in the two displacement
variables (dt, dx), truncated at a fixed total degree.  Propagating these
objects through the closed-form expression of a wave family yields every mixed
partial derivative at the expansion point to machine precision, with no
symbolic algebra involved.

Coefficients may be plain floats or numpy arrays of identical shape, in which
case the whole jet is evaluated at a batch of expansion points at once.

The product is the Cauchy product, run as one loop over a table of terms laid
out once per order (Griewank & Walther, *Evaluating Derivatives*, ch. 13).
Each output coefficient starts from +0.0 and adds its terms in a fixed order,
so it rounds the same way on every path.  An unbatched product runs the loop
on Python floats, whose products and sums are the IEEE operations numpy
would do, without numpy's per-element overhead; a batched one runs it over
the rows of the coefficient arrays.  A coefficient of the left factor that
is zero (at every point of a batch) adds no terms, so 0 * inf or 0 * nan
never enters a sum.
"""

from __future__ import annotations

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
def _product_terms(m):
    """The terms of a product of order-m jets, per output coefficient.

    Coefficients are indexed flat, i = p*(m+1) + q.  Each entry is (k, terms):
    output k gets a[i]*b[j] for each (i, j) in terms, added in ascending
    (p, q) of the a factor.  That order fixes the rounding of every sum.
    """
    w = m + 1
    terms = {}
    for p1 in range(w):
        for q1 in range(w - p1):
            for p2 in range(w - p1 - q1):
                for q2 in range(w - p1 - q1 - p2):
                    k = (p1 + p2) * w + q1 + q2
                    terms.setdefault(k, []).append((p1 * w + q1, p2 * w + q2))
    return tuple((k, tuple(t)) for k, t in terms.items())


@cache
def _factorial_table(m):
    """F[p, q] = p! q! for p + q <= m, else 1."""
    f = np.ones((m + 1, m + 1))
    for p in range(m + 1):
        for q in range(m + 1 - p):
            f[p, q] = factorial(p) * factorial(q)
    f.flags.writeable = False  # one table serves every caller
    return f


class Taylor2:
    """Polynomial sum_{p+q<=order} coef[p,q] * dt^p * dx^q."""

    __slots__ = ("coef", "order")

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)
        self.order = self.coef.shape[0] - 1

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, order, batch_shape=()):
        shape = np.shape(value)
        if batch_shape:
            shape = np.broadcast_shapes(shape, batch_shape)
        coef = np.zeros((order + 1, order + 1) + shape)
        coef[0, 0] = value
        return cls(coef)

    @classmethod
    def variables(cls, x, t, order):
        """Jets of the coordinate functions x and t at the point (x, t)."""
        shape = ()
        if np.ndim(x) or np.ndim(t):
            shape = np.broadcast_shapes(np.shape(x), np.shape(t))
        cx = np.zeros((order + 1, order + 1) + shape)
        ct = np.zeros((order + 1, order + 1) + shape)
        cx[0, 0] = x
        ct[0, 0] = t
        if order >= 1:
            cx[0, 1] = 1.0
            ct[1, 0] = 1.0
        return cls(cx), cls(ct)

    # -- inspection ---------------------------------------------------------

    @property
    def value(self):
        return self.coef[0, 0]

    def deriv_table(self):
        """Array D with D[p, q] = d^{p+q} f / dt^p dx^q (entries p+q<=order)."""
        f = _factorial_table(self.order)
        return self.coef * f.reshape(f.shape + (1,) * (self.coef.ndim - 2))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Taylor2):
            if other.order != self.order:
                raise ValueError("mixed jet orders")
            return other
        return Taylor2.constant(other, self.order)

    @staticmethod
    def _aligned(a, b):
        # pad trailing batch dims so (m+1, m+1, *batch) arrays broadcast
        if a.ndim < b.ndim:
            a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
        elif b.ndim < a.ndim:
            b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
        return a, b

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self._aligned(self.coef, other.coef)
        return Taylor2(a + b)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2(-self.coef)

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self._aligned(self.coef, other.coef)
        return Taylor2(a - b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Taylor2):
            return Taylor2(self.coef * other)
        if other.order != self.order:
            raise ValueError("mixed jet orders")
        m = self.order
        a, b = self.coef, other.coef
        n = (m + 1) * (m + 1)
        # nz[i]: whether a[i] enters the sums (a zero adds nothing, even
        # where b is inf or nan)
        if a.ndim == b.ndim == 2:
            af, bf = a.ravel().tolist(), b.ravel().tolist()
            nz = [v != 0.0 for v in af]
            batch, out = (), [0.0] * n
        else:
            af, bf = list(a.reshape((n,) + a.shape[2:])), list(b.reshape((n,) + b.shape[2:]))
            nz = (a != 0.0).reshape(n, -1).any(-1).tolist()
            batch = np.broadcast_shapes(a.shape[2:], b.shape[2:])
            out = np.zeros((n,) + batch)
        for k, terms in _product_terms(m):
            s = out[k]
            for i, j in terms:
                if nz[i]:
                    s += af[i] * bf[j]
            out[k] = s
        return Taylor2(np.asarray(out).reshape((m + 1, m + 1) + batch))

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if not isinstance(other, Taylor2):
            return Taylor2(self.coef / other)
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
    c = series_fn(u.value, m)
    uhat = Taylor2(np.array(u.coef, copy=True))
    uhat.coef[0, 0] = 0.0
    out = Taylor2.constant(c[m], m)
    for k in range(m - 1, -1, -1):
        out = out * uhat
        # the other coefficients are sums from +0.0, never -0.0, so adding
        # the +0.0 of a constant jet to them would change no bit
        out.coef[0, 0] += c[k]
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
    c = [np.log(u0)]
    for k in range(1, m + 1):
        c.append(((-1.0) ** (k + 1)) / (k * u0 ** k))
    return c


def pow_series(p, u0, m):
    # generalized binomial: c_k = C(p, k) * u0^(p-k)
    c = []
    binom = 1.0
    for k in range(m + 1):
        c.append(binom * u0 ** (p - k))
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
