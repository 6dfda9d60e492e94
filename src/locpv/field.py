"""Wave fields on the 1+1 dimensional (x, t) plane.

Two kinds of field are supported: closed-form analytic families, whose jets
(truncated Taylor series) are recorded once per order as float code, and
uniformly sampled grids differentiated by central finite-difference stencils
and read off the grid through a local 4x4 Lagrange cubic.  Both answer one
derivative query, ``derivs(x, t, pairs)``, over the outer product of x and t
(nan outside the domain, where a float point raises OutOfDomain), with
``eval`` and ``sweep`` on top of it, the tracker's three-partial fast path
``partials``, ``domain``, ``grid`` (None if analytic), ``omega_over_k`` (a
harmonic's, else None) and the tracker's policy.
"""

from __future__ import annotations

import ast
import functools
import io
import operator
from dataclasses import dataclass
from math import copysign

import numpy as np

from .errors import OrderTooHigh, OutOfDomain, StencilClipped
from .taylor import (
    Taylor2,
    straight_line,
    t2_atan,
    t2_compose,
    t2_cos,
    t2_exp,
    t2_log,
    t2_pow,
    t2_sin,
    t2_sqrt,
)

__all__ = [
    "Grid1x1",
    "AnalyticField",
    "Harmonic",
    "Translational",
    "DampedTranslational",
    "KinkDamped",
    "InhomogeneousMode",
    "CustomField",
    "SampledField",
    "sample",
    "ENVELOPES",
    "envelope_derivs",
    "fd_weights",
    "save_grid_csv",
    "load_grid_csv",
]

ANALYTIC_NMAX = 4   # highest PV order for closed-form fields
SAMPLED_NMAX = 2    # FD noise makes mixed partials beyond 3rd order unreliable
SEED_BRACKET = 8.0  # largest half-width of find_seed's scan on analytic fields
# CSV values keep 15 significant digits, which round-trip through a double
# except this close to the largest one: they would round past it, to inf
_G15_MAX = 1.79769313486231e308


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid1x1:
    """Uniform space-time grid; node (i, j) sits at (x0 + i*dx, t0 + j*dt)."""

    x0: float
    dx: float
    nx: int
    t0: float
    dt: float
    nt: int

    def __post_init__(self):
        if not (0 < self.dx < np.inf and 0 < self.dt < np.inf):
            raise ValueError("grid spacings must be positive and finite")
        _check_finite(x0=self.x0, t0=self.t0)
        if not all(isinstance(n, (int, np.integer)) for n in (self.nx, self.nt)):
            raise ValueError("grid sizes must be integers")
        if self.nx < 2 or self.nt < 2:
            raise ValueError("grid needs at least 2 points per axis")
        with np.errstate(over="ignore"):  # numpy scalars warn where the last node overflows
            _check_finite(x_max=self.x_max, t_max=self.t_max)

    @property
    def xs(self):
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def ts(self):
        return self.t0 + self.dt * np.arange(self.nt)

    # computed once per grid, at first use, and never pickled: the state is the fields
    @functools.cached_property
    def x_max(self):
        return self.x0 + self.dx * (self.nx - 1)

    @functools.cached_property
    def t_max(self):
        return self.t0 + self.dt * (self.nt - 1)

    def __getstate__(self):
        return {f: self.__dict__[f] for f in ("x0", "dx", "nx", "t0", "dt", "nt")}

    def contains(self, x, t):
        """Whether (x, t) lies in the closed grid rectangle; broadcasts."""
        return (self.x0 <= x) & (x <= self.x_max) & (self.t0 <= t) & (t <= self.t_max)


def _extent(pairs, nmax):
    """(highest p + q, highest p) of the (p, q) pairs of a derivative query; OrderTooHigh
    unless every p + q lies in 0..nmax + 1."""
    order = max(p + q for p, q in pairs)
    if order > nmax + 1 or any(p < 0 or q < 0 for p, q in pairs):
        raise OrderTooHigh(f"derivative orders run over 0..{nmax + 1} here, not {pairs}")
    return order, max(p for p, _ in pairs)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

ENVELOPES = {
    "gauss": lambda u: t2_exp(-(u * u)),
    "arctan": t2_atan,
    "sin": t2_sin,
    "exp": t2_exp,
}


def envelope_derivs(envelope, phi, order):
    """Derivatives d^k env / d phi^k, k = 0..order, of a named envelope at the scalar phi."""
    _check_envelope(envelope)
    _, u = Taylor2.variables(0.0, phi, order)
    jet = ENVELOPES[envelope](u)
    return np.array([jet.deriv(p, 0) for p in range(order + 1)])


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------


class AnalyticField:
    """Base class: subclasses define expr() over Taylor2 coordinate jets, which
    point queries record once per order and dt-degree (``taylor.straight_line``)."""

    nmax = ANALYTIC_NMAX
    grid = omega_over_k = None  # no sampling grid; no single omega/k
    seed_scan = SEED_BRACKET, 1e-10 * SEED_BRACKET  # find_seed's largest half-width, xtol
    seed_rtol = 1e-6  # ``track``'s seed tolerance, relative to max(1, |target|)

    def expr(self, xs: Taylor2, ts: Taylor2) -> Taylor2:
        raise NotImplementedError

    def eval(self, x, t):
        return self.derivs(x, t, [(0, 0)])[0]

    def _recorded(self, order, tdeg):
        """The jet of an order and dt-degree as recorded code, recorded at its first use."""
        try:
            return self._jets[order, tdeg]
        except (AttributeError, KeyError):
            if order > self.nmax + 1:  # a cached jet has passed this check
                raise OrderTooHigh(f"analytic fields support jets of order 0..{self.nmax + 1}")
            fn = straight_line(self.expr, order, tdeg)
            self.__dict__.setdefault("_jets", {})[order, tdeg] = fn
            return fn

    def derivs(self, x, t, pairs):
        """d^{p+q} psi / dt^p dx^q for each (p, q) of pairs at every (x, t) of the outer
        product of x and t, floats or 1-D arrays: an array of shape np.shape(t) +
        np.shape(x) per pair, a float at a float point.  One jet of the highest p + q and
        p asked, recorded code at a float point; nan or inf where the field is undefined,
        without numpy warnings."""
        order, tdeg = _extent(pairs, self.nmax)
        with np.errstate(all="ignore"):
            if np.ndim(x) == np.ndim(t) == 0:
                flat = self._recorded(order, tdeg)(float(x), float(t))
                # the blocks p = 0, 1, ... sit where they sit in the whole triangle
                return [flat[p * (2 * order + 3 - p) // 2 + q] for p, q in pairs]
            # the arrays that outlive the jet first: its temporaries then free the top of
            # the heap, for the next allocations to reuse, rather than a hole below them
            out = [np.empty(np.shape(t) + np.shape(x)) for _ in pairs]
            t = np.reshape(t, np.shape(t) + (1,) * np.ndim(x)) if np.ndim(t) else t
            jet = self.expr(*Taylor2.variables(x, t, order, tdeg))
            return [jet.deriv(p, q, out=o) for (p, q), o in zip(pairs, out)]

    def partials(self, x, t, order):
        """(d^N psi/dx^N, d^{N+1} psi/dx^{N+1}, d^{N+1} psi/dt dx^N) at one point, N =
        order: ``derivs(x, t, [(0, N), (0, N+1), (1, N)])``, bit for bit, from the same
        recorded code, without its errstate."""
        if order < 0:
            raise OrderTooHigh(f"phase velocity orders start at 0, not {order}")
        flat = self._recorded(order + 1, 1)(float(x), float(t))
        return flat[order], flat[order + 1], flat[2 * order + 2]

    def default_step(self, span):
        """``track``'s step over a time span, when none is given."""
        return span / 1e4

    def sweep(self, grid: Grid1x1, pairs):
        """``derivs`` at the nodes of grid, an (nt, nx) array per (p, q)."""
        return self.derivs(grid.xs, grid.ts, pairs)

    def domain(self, grid):  # the cells of grid in the domain: all
        return np.ones((grid.nt, grid.nx), bool)

    def __getstate__(self):
        # recorded jets are code, which does not pickle; a copy records its own
        return {k: v for k, v in self.__dict__.items() if k != "_jets"}


@dataclass(frozen=True)
class Harmonic(AnalyticField):
    """psi = sin(omega*t - k*x)."""

    omega: float
    k: float
    omega_over_k = property(lambda self: self.omega / self.k)

    def __post_init__(self):
        _check_finite(omega=self.omega, k=self.k)

    def expr(self, xs, ts):
        return t2_sin(self.omega * ts - self.k * xs)


def _check_finite(**params):
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_a(a, **params):
    _check_finite(a=a, **params)
    if a == 0:
        raise ValueError("propagation constant a must be nonzero")


def _check_envelope(envelope):
    if envelope not in ENVELOPES:
        raise ValueError(f"unknown envelope {envelope!r}; one of {', '.join(ENVELOPES)}")


@dataclass(frozen=True)
class Translational(AnalyticField):
    """Rigidly moving profile psi(t - x/a)."""

    a: float
    envelope: str = "gauss"

    def __post_init__(self):
        _check_a(self.a)
        _check_envelope(self.envelope)

    def expr(self, xs, ts):
        return ENVELOPES[self.envelope](ts - xs * (1.0 / self.a))


@dataclass(frozen=True)
class DampedTranslational(AnalyticField):
    """psi(t - x/a) * exp(-lam*t); negative lam models an amplified signal."""

    a: float
    lam: float
    envelope: str = "gauss"

    def __post_init__(self):
        _check_a(self.a, lam=self.lam)
        _check_envelope(self.envelope)

    def expr(self, xs, ts):
        phi = ts - xs * (1.0 / self.a)
        return ENVELOPES[self.envelope](phi) * t2_exp(-self.lam * ts)


@dataclass(frozen=True)
class KinkDamped(AnalyticField):
    """Growing arctan front ("tsunami"): arctan(t - x/a) * exp(+lam*t).

    The amplified orientation (positive exponent) is the one whose phase
    velocities match the closed forms returned by ``kink_spectrum``.
    """

    a: float
    lam: float

    def __post_init__(self):
        _check_a(self.a, lam=self.lam)

    def expr(self, xs, ts):
        phi = ts - xs * (1.0 / self.a)
        return t2_atan(phi) * t2_exp(self.lam * ts)


@dataclass(frozen=True)
class InhomogeneousMode(AnalyticField):
    """psi(xi*t - k(x)*x) with k(x) = xi*n(x)/c.  The medium is any object with
    ``series(x, m)``, the Taylor coefficients of n at x up to s^m, and ``c``."""

    xi: float
    medium: object  # media.MediumProfile
    envelope: str = "gauss"

    def __post_init__(self):
        if not np.isfinite(self.xi) or self.xi == 0:
            raise ValueError("xi must be finite and nonzero")
        _check_envelope(self.envelope)

    def expr(self, xs, ts):
        n = t2_compose(xs, self.medium.series)
        phi = self.xi * (ts - n * xs * (1.0 / self.medium.c))
        return ENVELOPES[self.envelope](phi)


# -- custom expression fields ------------------------------------------------

_CUSTOM_FUNCS = {
    "sin": t2_sin,
    "cos": t2_cos,
    "exp": t2_exp,
    "atan": t2_atan,
    "arctan": t2_atan,
    "log": t2_log,
    "sqrt": t2_sqrt,
}

_CUSTOM_CONSTS = {"pi": np.pi, "e": np.e}


class CustomField(AnalyticField):
    """Analytic field from an elementary-expression string in x and t.

    Grammar: numbers, names x/t/pi/e, + - * / ** and unary minus, parentheses,
    calls to sin, cos, exp, atan/arctan, log, sqrt.  Evaluated under jet
    arithmetic, so all derivatives are machine precision.  The expression is
    checked and compiled into nested closures once, at construction.
    """

    def __init__(self, expression: str):
        self.expression = expression
        self._fn = _compile(ast.parse(expression, mode="eval").body)

    def __repr__(self):
        return f"CustomField({self.expression!r})"

    def __reduce__(self):  # a copy compiles the expression again
        return type(self), (self.expression,)

    def expr(self, xs, ts):
        out = self._fn(xs, ts)
        if not isinstance(out, Taylor2):
            out = Taylor2.constant(out, xs.order, xs.shape, xs.tdeg)
        return out


_CUSTOM_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _compile(node):
    """Check one node of a custom expression; returns f(xs, ts) evaluating it
    (a Taylor2 where it depends on x or t, else a constant)."""
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
    ):
        left, right = _compile(node.left), _compile(node.right)
        if isinstance(node.op, ast.Div):

            def divide(xs, ts):
                a, b = left(xs, ts), right(xs, ts)
                if not isinstance(b, Taylor2) and b == 0:
                    raise ValueError("division by a constant zero in expression")
                return a / b

            return divide
        if isinstance(node.op, ast.Pow):
            if any(isinstance(n, ast.Name) and n.id in ("x", "t") for n in ast.walk(node.right)):
                raise ValueError("exponent must not depend on x or t")

            def power(xs, ts):
                a, b = left(xs, ts), right(xs, ts)
                return t2_pow(a, b) if isinstance(a, Taylor2) else np.power(a, b)

            return power
        op = _CUSTOM_BINOPS[type(node.op)]
        return lambda xs, ts: op(left(xs, ts), right(xs, ts))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        return lambda xs, ts: -operand(xs, ts)
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _CUSTOM_FUNCS):
            raise ValueError(f"unknown function in expression: {ast.dump(node.func)}")
        if len(node.args) != 1 or node.keywords:
            raise ValueError("expression functions take exactly one argument")
        arg, fn = _compile(node.args[0]), _CUSTOM_FUNCS[node.func.id]

        def call(xs, ts):
            a = arg(xs, ts)
            # a constant argument gives a constant: the value of an order-0 jet
            return fn(a) if isinstance(a, Taylor2) else fn(Taylor2.constant(a, 0)).value

        return call
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda xs, ts: xs
        if node.id == "t":
            return lambda xs, ts: ts
        if node.id not in _CUSTOM_CONSTS:
            raise ValueError(f"unknown name in expression: {node.id}")
        value = _CUSTOM_CONSTS[node.id]
        return lambda xs, ts: value
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError("only numeric constants allowed")
        value = float(node.value)
        return lambda xs, ts: value
    raise ValueError(f"unsupported syntax: {type(node).__name__}")


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def fd_weights(z, nodes, m):
    """Fornberg weights for the m-th derivative at z from the given nodes."""
    nodes = np.asarray(nodes, float)
    n = len(nodes)
    w = np.zeros((m + 1, n))
    w[0, 0] = 1.0
    c1, c4 = 1.0, nodes[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((nodes[i] - z) * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = (nodes[i] - z) * w[0, j] / c3
        c1 = c2
    return w[m]


def _central_offsets(m):
    half = (m + 1) // 2
    return np.arange(-half, half + 1)


@np.errstate(all="ignore")  # samples near the largest double overflow to inf: masked later
def _diff_axis(values, h, m, axis):
    """m-th derivative along axis, central interior, one-sided near edges."""
    if m == 0:
        return values
    n = values.shape[axis]
    offs = _central_offsets(m)
    half = offs[-1]
    width = m + 2  # one-sided stencil size, never below the central one
    if n < width:
        raise StencilClipped(f"axis too short for order-{m} stencil")
    out = np.empty(values.shape)
    wc = fd_weights(0.0, offs, m) / h ** m
    # the terms' sum in place over the flat index, where axis neighbours lie s
    # apart, 16 rows at a time so that it stays in cache; it starts from the
    # first term + 0.0, as sum() does from 0
    flat, res, row = values.reshape(-1), out.reshape(-1), values.shape[1]
    s = row if axis == 0 else 1
    lo, hi = half * s, flat.size - half * s
    for b in range(lo, hi, 16 * row):
        e = min(b + 16 * row, hi)
        acc = np.multiply(wc[0], flat[b - lo : e - lo], out=res[b:e])
        acc += 0.0
        for w, o in zip(wc[1:], offs[1:]):
            acc += w * flat[b + o * s : e + o * s]
    # the one-sided edges, which also overwrite the x-sums that crossed a row end
    v, out_v = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    for i in range(half):
        wf = fd_weights(float(i), np.arange(width), m) / h ** m
        out_v[i] = np.tensordot(wf, v[:width], axes=(0, 0))
        wb = fd_weights(float(n - 1 - i), np.arange(n - width, n), m) / h ** m
        out_v[n - 1 - i] = np.tensordot(wb, v[n - width :], axes=(0, 0))
    return out


# ---------------------------------------------------------------------------
# sampled fields
# ---------------------------------------------------------------------------


class SampledField:
    """Uniformly sampled field; values[j, i] = psi(x_i, t_j), shape (nt, nx).

    Its domain is the closed grid rectangle, for every derivative (a
    derivative whose stencil is longer than a grid axis exists nowhere).
    """

    nmax = SAMPLED_NMAX
    omega_over_k = None
    seed_rtol = 1e-3  # seeds are only located to ~1e-3*dx, so allow matching slack

    def __init__(self, grid: Grid1x1, values):
        values = np.ascontiguousarray(values, float)  # FD sums in one memory order
        if values.shape != (grid.nt, grid.nx):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({grid.nt}, {grid.nx})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled field contains non-finite values")
        self.grid = grid
        self.values = values
        self._deriv_grids = {}
        self._block = None, None  # the last 4x4 blocks a point query read: key, floats
        self._sums = None, None  # a point query's time, and its t-sums by first x-node

    # -- derivative grids ----------------------------------------------------

    def derivative_grid(self, p, q):
        """FD grid of d^{p+q} psi / dt^p dx^q over the whole sampling grid."""
        if p < 0 or q < 0 or p + q > self.nmax + 1:
            raise OrderTooHigh(f"sampled fields support derivatives of order 0..{self.nmax + 1}")
        key = (p, q)
        if key not in self._deriv_grids:
            g = self._deriv_grids.get((p, 0))  # the same t-differences, if cached
            g = _diff_axis(self.values, self.grid.dt, p, 0) if g is None else g
            self._deriv_grids[key] = _diff_axis(g, self.grid.dx, q, 1)
        return self._deriv_grids[key]

    def derivs(self, x, t, pairs):
        """As ``AnalyticField.derivs``, from the ``derivative_grid`` of each (p, q) through
        the Lagrange cubic, along t and then along x: nan at the points outside the grid
        (no extrapolation), where a float point raises OutOfDomain, and StencilClipped
        only if a point is inside."""
        _extent(pairs, self.nmax)
        if np.ndim(x) == np.ndim(t) == 0:  # a copy of pairs: the caller may change its own
            return self._point(float(x), float(t), tuple(map(tuple, pairs)))
        g, shape = self.grid, np.shape(t) + np.shape(x)
        xs, ts = np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(t, float))
        inside = g.contains(xs, ts[:, None])
        if not inside.any():
            return [np.full(shape, np.nan) for _ in pairs]
        # the stencils of the nearest nodes inside, nan ones too (fmax drops a nan)
        jt, wt = _stencil(np.fmin(np.fmax(ts, g.t0), g.t_max), g.t0, g.dt, g.nt)
        ix, wx = _stencil(np.fmin(np.fmax(xs, g.x0), g.x_max), g.x0, g.dx, g.nx)
        # along t onto the query times, on the columns the x-stencils read, then
        # along x: a point's sums in their order
        lo, hi, wt, out = ix.min(), min(ix.max() + 4, g.nx), [w[:, None] for w in wt], []
        for p, q in pairs:
            d = self.derivative_grid(p, q)[:, lo:hi]
            rows = _wsum([d[np.minimum(jt + k, g.nt - 1)] for k in range(4)], wt)
            v = _wsum([rows[:, np.minimum(ix - lo + k, hi - lo - 1)] for k in range(4)], wx)
            v[~inside] = np.nan
            out.append(v.reshape(shape))
        return out

    def sweep(self, grid: Grid1x1, pairs):
        """``derivs`` at the nodes of grid; on the sampling grid, the cached
        ``derivative_grid``, which also raises StencilClipped where no node is inside."""
        own = [self.derivative_grid(p, q) for p, q in pairs]
        return own if grid == self.grid else self.derivs(grid.xs, grid.ts, pairs)

    def domain(self, grid):
        """Which cells of grid lie in the closed sampling rectangle."""
        return self.grid.contains(grid.xs, grid.ts[:, None])

    # -- queries -------------------------------------------------------------

    def eval(self, x, t):
        return self.derivs(x, t, [(0, 0)])[0]

    @property
    def seed_scan(self):  # the grid width and 1e-3*dx
        return self.grid.x_max - self.grid.x0, 1e-3 * self.grid.dx

    def default_step(self, span):
        return min(self.grid.dt, span / 1000.0)

    def _point(self, x, t, pairs):
        """``derivs`` of a tuple of pairs at the float point (x, t): its sums in their
        order, on the Python floats of one 4x4 block of each pair's ``derivative_grid``,
        an axis of fewer nodes padded by its last.  The sums along t of each block's
        columns are kept for the last time asked, per first x-node, and the last
        blocks under them."""
        g = self.grid
        if not g.contains(x, t):
            raise OutOfDomain(f"point ({x}, {t}) outside the sampling grid")
        i0, (wx0, wx1, wx2, wx3) = _stencil(x, g.x0, g.dx, g.nx)
        # RK4's k2 and k3 share a time, and k4 and the projection's probes; the
        # t-weights' zeros take the sign of a zero t, so the key keeps it
        tkey = pairs, t, copysign(1.0, t)
        if self._sums[0] == tkey:
            sums = self._sums[1]
        else:
            sums = {}
            self._sums = tkey, sums
        cols = sums.get(i0)
        if cols is None:
            j0, (wt0, wt1, wt2, wt3) = _stencil(t, g.t0, g.dt, g.nt)
            key, blocks = self._block
            if key != (pairs, j0, i0):  # consecutive probes mostly read the same blocks
                blocks = [self.derivative_grid(p, q)[j0 : j0 + 4, i0 : i0 + 4].tolist()
                          for p, q in pairs]
                if g.nt < 4 or g.nx < 4:
                    blocks = [[r + r[-1:] * (4 - len(r)) for r in b + b[-1:] * (4 - len(b))]
                              for b in blocks]
                self._block = (pairs, j0, i0), blocks
            cols = sums[i0] = [(a0 * wt0 + a1 * wt1 + a2 * wt2 + a3 * wt3,
                                b0 * wt0 + b1 * wt1 + b2 * wt2 + b3 * wt3,
                                c0 * wt0 + c1 * wt1 + c2 * wt2 + c3 * wt3,
                                d0 * wt0 + d1 * wt1 + d2 * wt2 + d3 * wt3)
                               for (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2),
                               (a3, b3, c3, d3) in blocks]
        return [a * wx0 + b * wx1 + c * wx2 + d * wx3 for a, b, c, d in cols]

    def partials(self, x, t, order):
        """As ``AnalyticField.partials``, from the FD grids of its three pairs, so that a
        grid tracks at every order whose three stencils fit its axes."""
        if not 0 <= order <= self.nmax:
            raise OrderTooHigh(f"sampled fields support phase velocity orders 0..{self.nmax}")
        return tuple(self._point(float(x), float(t), _PARTIAL_PAIRS[order]))

    def __getstate__(self):
        # the FD grids, the last blocks and the t-sums are caches: a copy builds its own
        return {**self.__dict__, "_deriv_grids": {}, "_block": (None, None),
                "_sums": (None, None)}


# the (p, q) that ``partials`` reads at each order N: (0, N), (0, N+1) and (1, N)
_PARTIAL_PAIRS = tuple(((0, n), (0, n + 1), (1, n)) for n in range(SAMPLED_NMAX + 1))


def _stencil(c, c0, h, n):
    """(first node, 4 weights) of the Lagrange cubic through the 4 nodes around c
    (a float or an array in [c0, c0 + (n-1)h]), shifted inward at the edges; on
    an axis of n < 4 nodes, of the polynomial through all, with zero weights after."""
    u = (c - c0) / h
    if isinstance(u, float):
        first = max(0, min(int(u) - 1, n - 4))
    else:
        first = np.maximum(0, np.minimum(u.astype(np.intp) - 1, n - 4))
    s = u - first
    d1, d2, d3 = s - 1.0, s - 2.0, s - 3.0
    if n >= 4:
        a, b = s * d1, d2 * d3
        return first, [d1 * b / -6.0, s * b / 2.0, a * d3 / -2.0, a * d2 / 6.0]
    zero = s * 0.0
    return first, [d1 * d2 / 2.0, -(s * d2), s * d1 / 2.0, zero] if n == 3 else [-d1, s, zero, zero]


def _wsum(terms, weights):
    """terms[0]*weights[0] + terms[1]*weights[1] + ..., added left to right."""
    return functools.reduce(operator.add, map(operator.mul, terms, weights))


def sample(field: AnalyticField, grid: Grid1x1) -> SampledField:
    """Evaluate an analytic field exactly on every grid node."""
    return SampledField(grid, field.derivs(grid.xs, grid.ts, [(0, 0)])[0])


# ---------------------------------------------------------------------------
# CSV grid format (shared by sampled fields and PV fields)
# ---------------------------------------------------------------------------


def save_grid_csv(path, grid: Grid1x1, values, field_name="psi"):
    values = np.asarray(values, float)
    buf = io.StringIO()
    buf.write(f"# x0={grid.x0!r} dx={grid.dx!r} nx={grid.nx}\n")
    buf.write(f"# t0={grid.t0!r} dt={grid.dt!r} nt={grid.nt}\n")
    buf.write(f"# field={field_name}\n")
    buf.write("# layout=row-per-time\n")
    line = ",".join(["%.15g"] * values.shape[-1]) + "\n"
    for row in values:
        if np.any(np.isfinite(row) & (np.abs(row) >= _G15_MAX)):
            buf.write(",".join(map("{:.17g}".format, row.tolist())) + "\n")
        else:
            buf.write(line % tuple(row.tolist()))
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_grid_csv(path):
    """Returns (grid, values, field_name)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    body_start = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    for line in lines[:body_start]:
        for tokenpair in line[1:].split():
            if "=" in tokenpair:
                k, v = tokenpair.split("=", 1)
                header[k] = v
    try:
        grid = Grid1x1(
            x0=float(header["x0"]),
            dx=float(header["dx"]),
            nx=int(header["nx"]),
            t0=float(header["t0"]),
            dt=float(header["dt"]),
            nt=int(header["nt"]),
        )
    except KeyError as exc:
        raise ValueError(f"grid CSV header missing key: {exc}") from exc
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in lines[body_start:]
        if line.strip()
    ]
    values = np.array(rows, float)
    if values.shape != (grid.nt, grid.nx):
        raise ValueError("CSV body shape does not match header grid")
    return grid, values, header.get("field", "psi")
