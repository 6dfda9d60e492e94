"""Truncated bivariate Taylor (jet) arithmetic.

A ``Taylor2`` holds the coefficients of a polynomial in the two displacement
variables (dt, dx), truncated to the set {(p, q): p <= tdeg, p + q <= order}
of powers dt^p dx^q, with tdeg <= order; tdeg = order, the default, is the
whole triangle.  Propagating these objects through the closed-form expression
of a wave family yields every mixed partial derivative in the set at the
expansion point to machine precision.  The coefficients c[p, q] form a flat
list in ascending (p, q), so the blocks p = 0, 1, ... sit where they sit in
the whole triangle; each is a Python float or a numpy array in its own
broadcast shape, so a jet can stand for a batch of points (a coefficient that
depends on t alone keeps t's shape, one that is the same everywhere stays a
float).  A coefficient of dt-degree p gets terms of dt-degree <= p only, so a
truncated jet holds each coefficient it keeps with the bits of the whole one;
a phase velocity reads p <= 1 only.

The product is the Cauchy product, one loop over a table of terms laid out
once per order (Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Each
output coefficient starts from +0.0 and adds its terms in a fixed order, so it
rounds the same on every path, and a zero coefficient of the left factor adds
no terms, so 0 * inf never enters a sum.  Python's / and ** raise where numpy
gives inf or nan, so divisions by constants and series stay in numpy.

``straight_line`` records the engine once per expression and order, on
coefficients known only at run time, and returns the same float operations
as one Python function of (x, t): a scalar jet then costs a function call,
not an interpreted product loop (Jorba & Zou, *Exp. Math.* 14 (2005)
generate Taylor recurrences once per system the same way).  It runs the
engine's own series functions, and a product is the engine's loop written out:
one statement out[k] + a[i] * b[j] per term, the terms of a coefficient known
only at run time under its zero test, and a term folded only where all its
operands are constants.  So its bits are the engine's, which stays the
reference and computes every batch.  The code takes its constants as
arguments, and each text is compiled once per process: fields of one family
share it, except where a parameter folds (a = 1) or two constants coincide
(-lam*0.0 is the constant 0.0 for lam < 0, not -0.0).
"""

from __future__ import annotations

import operator
from functools import cache, lru_cache
from math import factorial

import numpy as np

__all__ = [
    "Taylor2",
    "straight_line",
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
def _indices(m, tdeg):
    """(p, q) of each flat coefficient: p <= tdeg, p + q <= m, ascending."""
    return tuple((p, q) for p in range(tdeg + 1) for q in range(m + 1 - p))


@cache
def _product_terms(m, tdeg):
    """The terms of a product of two jets, per flat coefficient of the a factor.

    Entry i holds a (j, k) pair for each output k that gets a[i]*b[j].  Run
    over ascending i, this adds the terms of every output in ascending (p, q)
    of the a factor, the order that fixes the rounding of its sum; a kept
    output gets the terms it gets in the whole triangle, in their order.
    """
    index = {pq: k for k, pq in enumerate(_indices(m, tdeg))}
    return tuple(tuple((j, index[p1 + p2, q1 + q2]) for (p2, q2), j in index.items()
                       if p1 + q1 + p2 + q2 <= m and p1 + p2 <= tdeg) for p1, q1 in index)


@cache
def _factorials(m, tdeg):
    """p! q! as a float, per flat coefficient."""
    return tuple(float(factorial(p) * factorial(q)) for p, q in _indices(m, tdeg))


def _entry(v):
    """A coefficient from numpy: a 0-d result as a Python float."""
    return v if isinstance(v, np.ndarray) and v.ndim or type(v) is _Var else float(v)


def _shape(v):
    return () if isinstance(v, float) else np.shape(v)


def _broadcast(s1, s2):
    return s1 if s1 == s2 else np.broadcast_shapes(s1, s2)


class Taylor2:
    """Polynomial sum c[p,q] * dt^p * dx^q over p <= tdeg and p+q <= order, on a
    batch of shape ``shape``."""

    __slots__ = ("flat", "order", "tdeg", "shape")

    def __init__(self, flat, order, tdeg, shape):
        """A jet from its flat coefficients, in ascending (p, q)."""
        self.flat, self.order, self.tdeg, self.shape = flat, order, tdeg, shape

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, order, shape=(), tdeg=None):
        """The jet of a constant, over a batch of the given shape."""
        tdeg = order if tdeg is None else tdeg
        flat = [0.0] * len(_indices(order, tdeg))
        flat[0] = value
        return cls(flat, order, tdeg, _broadcast(_shape(value), shape))

    @classmethod
    def variables(cls, x, t, order, tdeg=None):
        """Jets of the coordinate functions x and t at the points (x, t); each
        keeps its own shape, and both stand for their broadcast batch."""
        x, t = (v if type(v) is _Var else _entry(np.asarray(v, float)) for v in (x, t))
        tdeg, shape = order if tdeg is None else tdeg, _broadcast(_shape(x), _shape(t))
        xs, ts = [0.0] * len(_indices(order, tdeg)), [0.0] * len(_indices(order, tdeg))
        xs[0], ts[0] = x, t
        if order >= 1:
            xs[1] = 1.0  # the coefficient of dx, (0, 1)
        if tdeg >= 1:
            ts[order + 1] = 1.0  # and of dt, (1, 0)
        return cls(xs, order, tdeg, shape), cls(ts, order, tdeg, shape)

    # -- inspection ---------------------------------------------------------

    @property
    def value(self):
        return self.flat[0]

    @property
    def coef(self):
        """The coefficients as a square array, coef[p, q, *shape] (0 outside the set)."""
        m = self.order
        recorded = any(type(v) is _Var for v in self.flat)  # no float value yet
        table = np.zeros((m + 1, m + 1) + self.shape, object if recorded else float)
        for (p, q), v in zip(_indices(m, self.tdeg), self.flat):
            table[p, q] = v
        return table

    def deriv(self, p, q, out=None):
        """d^{p+q} f / dt^p dx^q, the coefficient of dt^p dx^q times p! q!, into ``out``
        if given."""
        k = _indices(self.order, self.tdeg).index((p, q))
        return np.multiply(self.flat[k], _factorials(self.order, self.tdeg)[k], out=out)

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if (other.order, other.tdeg) != (self.order, self.tdeg):
            raise ValueError("mixed jet orders")

    def _elementwise(self, op, other):
        a = self.flat
        if isinstance(other, Taylor2):
            self._check(other)
            return Taylor2(list(map(op, a, other.flat)), self.order, self.tdeg,
                           _broadcast(self.shape, other.shape))
        # a constant is a jet whose other coefficients are +0.0
        flat = [op(a[0], other)] + [op(v, 0.0) for v in a[1:]]
        return Taylor2(flat, self.order, self.tdeg, _broadcast(self.shape, _shape(other)))

    def __add__(self, other):
        return self._elementwise(operator.add, other)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2([-v for v in self.flat], self.order, self.tdeg, self.shape)

    def __sub__(self, other):
        return self._elementwise(operator.sub, other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Taylor2):
            shape = _broadcast(self.shape, _shape(other))
            return Taylor2([v * other for v in self.flat], self.order, self.tdeg, shape)
        self._check(other)
        a, b = self.flat, other.flat
        if (tape := next((v.tape for v in a + b if type(v) is _Var), None)) is not None:
            m, tdeg = self.order, self.tdeg  # a recording
            return Taylor2(tape.product(a, b, m, tdeg), m, tdeg, ())
        out = [0.0] * len(a)
        zeros = {j for j, bj in enumerate(b) if type(bj) is float and bj == 0.0}
        for ai, terms in zip(a, _product_terms(self.order, self.tdeg)):
            # a zero adds nothing, even where b is inf or nan
            if not (ai.any() if type(ai) is np.ndarray else ai != 0.0):
                continue
            # nor does an array ai finite everywhere times a float zero: the
            # term is +-0.0, which a sum from +0.0 absorbs, and out[k] stays a
            # float for later products to skip
            skip = zeros if zeros and type(ai) is np.ndarray and np.isfinite(ai).all() else ()
            for j, k in terms:
                if j not in skip:
                    out[k] = out[k] + ai * b[j]
        return Taylor2(out, self.order, self.tdeg, _broadcast(self.shape, other.shape))

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if not isinstance(other, Taylor2):
            flat = [_entry(np.true_divide(v, other)) for v in self.flat]
            return Taylor2(flat, self.order, self.tdeg, _broadcast(self.shape, _shape(other)))
        return self * t2_pow(other, -1)

    def __rtruediv__(self, other):
        return t2_pow(self, -1) * other

    def __pow__(self, p):
        return t2_pow(self, p)


# -- composition with elementary functions ---------------------------------


def t2_compose(u, series_fn, inline=False):
    """f(u) for a Taylor2 u, where series_fn(u0, m) returns the univariate
    Taylor coefficients c_k of f at u0 (f(u0+s) = sum c_k s^k, k<=m).

    A recording calls series_fn when the jet runs, or, with ``inline`` (for
    arithmetic and numpy ufuncs only), records its operations."""
    m, tdeg = u.order, u.tdeg
    if type(u.value) is _Var and not inline:
        c = u.value.tape.call(series_fn, u.value, m)
    else:
        c = [_entry(v) for v in series_fn(u.value, m)]
    uhat = Taylor2([0.0] + u.flat[1:], m, tdeg, u.shape)
    out = Taylor2([c[m]] + [0.0] * (len(u.flat) - 1), m, tdeg, u.shape)
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
    return t2_compose(u, exp_series, inline=True)


def t2_sin(u):
    return t2_compose(u, sin_series, inline=True)


def t2_cos(u):
    return t2_compose(u, cos_series, inline=True)


def t2_atan(u):
    return t2_compose(u, atan_series, inline=True)


def t2_log(u):
    return t2_compose(u, log_series, inline=True)


def t2_sqrt(u):
    return t2_compose(u, lambda u0, m: pow_series(0.5, u0, m), inline=True)


def t2_pow(u, p):
    if isinstance(p, (int, np.integer)) and p >= 0:
        out = Taylor2.constant(1.0, u.order, tdeg=u.tdeg)
        base = u
        k = int(p)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out
    return t2_compose(u, lambda u0, m: pow_series(float(p), u0, m), inline=True)


# -- recorded jets -----------------------------------------------------------


_OPERATORS = {"add": "+", "subtract": "-", "multiply": "*", "divide": "/"}


def _op(symbol, reflected=False):
    fmt = "{} %s {}" % symbol
    return lambda self, b: self.tape.emit(fmt, *((b, self) if reflected else (self, b)))


class _Var:
    """A coefficient known when a recorded jet runs: a variable of its code."""

    __slots__ = ("tape", "name")

    def __init__(self, tape, name):
        self.tape, self.name = tape, name

    __add__, __radd__ = _op("+"), _op("+", True)
    __sub__, __rsub__ = _op("-"), _op("-", True)
    __mul__, __rmul__ = _op("*"), _op("*", True)
    __truediv__, __rtruediv__ = _op("/"), _op("/", True)
    __neg__ = lambda self: self.tape.emit("-{}", self)

    def __array_ufunc__(self, ufunc, method, *args):
        # numpy scalar results become Python floats: +, -, * and / round alike
        if ufunc.__name__ in _OPERATORS:
            return self.tape.emit("{} %s {}" % _OPERATORS[ufunc.__name__], *args)
        return self.tape.emit("float({}(%s))" % ", ".join(["{}"] * len(args)), ufunc, *args)

    def __bool__(self):
        raise TypeError("a recorded coefficient has no value until the jet runs")


class _Tape:
    """The code of one recorded jet, whose constants are arguments, not literals."""

    def __init__(self):
        self.lines, self.consts, self.names = [], [], {}

    def ref(self, v):
        if type(v) is _Var:
            return v.name
        if isinstance(v, (np.floating, np.ndarray)):
            v = float(v)  # a numpy scalar operand rounds as a Python float
        key = (type(v), v.hex() if type(v) is float else id(v))
        if key not in self.names:
            self.names[key] = f"k{len(self.consts)}"
            self.consts.append(v)
        return self.names[key]

    def emit(self, fmt, *args):
        if fmt == "{} / {}" and (type(args[1]) is _Var or args[1] == 0):
            # Python's / raises at a zero divisor, where numpy gives inf or nan
            fmt = "{0} / {1} if {1} != 0.0 else float({2}({0}, {1}))"
            args = (*args, np.true_divide)
        return self.assign(fmt.format(*map(self.ref, args)))

    def assign(self, code):
        var = _Var(self, f"v{len(self.lines)}")
        self.lines.append(f"{var.name} = {code}")
        return var

    def product(self, a, b, m, tdeg):
        """The coefficients of a * b as the engine adds its terms, out[k] + a[i]
        * b[j] from +0.0, one line each: a constant zero a[i] adds none, a term
        of constants folds, and the terms of a run-time a[i] go under ``if a[i]
        != 0.0``, each out[k] bound before it."""
        out, first = [0.0] * len(a), len(self.lines)
        for ai, terms in zip(a, _product_terms(m, tdeg)):
            var = type(ai) is _Var
            if not (var or ai != 0.0):
                continue
            block = []
            for j, k in terms:
                if var or type(b[j]) is _Var:
                    term = f"{self.ref(ai)} * {self.ref(b[j])}"
                elif type(out[k]) is _Var:
                    term = self.ref(ai * b[j])
                else:
                    out[k] = out[k] + ai * b[j]
                    continue
                o = _Var(self, f"v{first}_{k}")
                if var and type(out[k]) is not _Var:
                    self.lines.append(f"{o.name} = {self.ref(out[k])}")
                    out[k] = o
                block.append(f"{o.name} = {self.ref(out[k])} + {term}")
                out[k] = o
            if var:
                block = [f"if {ai.name} != 0.0:", *(f"    {line}" for line in block)]
            self.lines += block
        return out

    def call(self, fn, u0, m):
        """fn(u0, m) as Python floats, called when the jet runs."""
        out = [_Var(self, f"c{len(self.lines)}_{k}") for k in range(m + 1)]
        names, call = ", ".join(v.name for v in out), f"{self.ref(fn)}({u0.name}, {self.ref(m)})"
        self.lines.append(f"{names}, = map(float, {call})")
        return out


def straight_line(expr, order, tdeg):
    """expr recorded once at the given order and dt-degree as f(x, t) of two
    floats, which returns the p!q!-scaled flat coefficients: the engine's float
    operations in its order, with its zero skips and series values, folding
    only constants, so f agrees bit for bit with expr on ``Taylor2.variables``."""
    tape = _Tape()
    jet = expr(*Taylor2.variables(_Var(tape, "x"), _Var(tape, "t"), order, tdeg))
    # deriv's scaling; a product with 1.0 changes no bit
    out = [tape.ref(v if f == 1.0 else v * f) for v, f in zip(jet.flat, _factorials(order, tdeg))]
    body = "".join(f"        {line}\n" for line in tape.lines)
    source = (f"def make({', '.join(tape.names.values())}):\n    def jet(x, t):\n"
              f"{body}        return [{', '.join(out)}]\n    return jet\n")
    return _compiled(source)(*tape.consts)


@lru_cache(maxsize=128)
def _compiled(source):
    """The ``make`` of a recorded jet's text, compiled once per process."""
    namespace = {"__name__": __name__}  # numpy warnings name this module
    exec(compile(source, "<recorded jet>", "exec"), namespace)
    return namespace["make"]
