"""Wave fields on the 1+1 dimensional (x, t) plane.

Two kinds of field are supported: closed-form analytic families evaluated by
jet (truncated-Taylor) arithmetic, and uniformly sampled grids differentiated
by central finite-difference stencils with bicubic interpolation for off-grid
queries.  Both answer ``eval``, ``jet`` and ``jet_batch`` (nan outside the
domain, where ``jet`` raises OutOfDomain), so analysis code takes either kind.
"""

from __future__ import annotations

import ast
import io
import operator
from dataclasses import dataclass

import numpy as np

from .errors import OrderTooHigh, OutOfDomain, StencilClipped
from .taylor import (
    Taylor2,
    t2_atan,
    t2_cos,
    t2_exp,
    t2_log,
    t2_pow,
    t2_sin,
    t2_sqrt,
)

__all__ = [
    "Grid1x1",
    "Jet",
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
# CSV values keep 15 significant digits, which round-trip through a double
# except this close to the largest one: they would round past it, to inf
_G15_MAX = 1.79769313486231e308


# ---------------------------------------------------------------------------
# grids and jets
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
        if not (self.dx > 0 and self.dt > 0):
            raise ValueError("grid spacings must be positive")
        if self.nx < 2 or self.nt < 2:
            raise ValueError("grid needs at least 2 points per axis")

    @property
    def xs(self):
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def ts(self):
        return self.t0 + self.dt * np.arange(self.nt)

    @property
    def x_max(self):
        return self.x0 + self.dx * (self.nx - 1)

    @property
    def t_max(self):
        return self.t0 + self.dt * (self.nt - 1)

    def contains(self, x, t):
        """Whether (x, t) lies in the closed grid rectangle; broadcasts."""
        return (self.x0 <= x) & (x <= self.x_max) & (self.t0 <= t) & (t <= self.t_max)


@dataclass(frozen=True)
class Jet:
    """All mixed partials of a field at one point, up to a total order.

    ``table[p, q]`` is d^{p+q} psi / dt^p dx^q; entries with p+q > order are
    meaningless.
    """

    x: float
    t: float
    order: int
    table: np.ndarray

    def deriv(self, p, q):
        if p < 0 or q < 0 or p + q > self.order:
            raise OrderTooHigh(f"jet holds orders 0..{self.order}, not ({p}, {q})")
        return self.table[p, q]

    @property
    def value(self):
        return self.table[0, 0]


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
    return ENVELOPES[envelope](u).deriv_table()[:, 0]


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------


class AnalyticField:
    """Base class: subclasses define expr() over Taylor2 coordinate jets."""

    nmax = ANALYTIC_NMAX

    def expr(self, xs: Taylor2, ts: Taylor2) -> Taylor2:
        raise NotImplementedError

    def eval(self, x, t):
        out = self.jet_batch(x, t, 0)[0, 0]
        return out if np.ndim(out) else float(out)

    def jet(self, x, t, order) -> Jet:
        return Jet(float(x), float(t), order, self.jet_batch(x, t, order))

    def jet_batch(self, x, t, order):
        """Jet tables, shape (order+1, order+1, *batch), at broadcast points."""
        if not 0 <= order <= self.nmax + 1:
            raise OrderTooHigh(f"analytic fields support jets of order 0..{self.nmax + 1}")
        return self.expr(*Taylor2.variables(x, t, order)).deriv_table()


@dataclass(frozen=True)
class Harmonic(AnalyticField):
    """psi = sin(omega*t - k*x)."""

    omega: float
    k: float

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
    """psi(xi*t - k(x)*x) with k(x) = xi*n(x)/c, for a medium profile n."""

    xi: float
    medium: object  # media.MediumProfile
    envelope: str = "gauss"

    def __post_init__(self):
        if not np.isfinite(self.xi) or self.xi == 0:
            raise ValueError("xi must be finite and nonzero")
        _check_envelope(self.envelope)

    def expr(self, xs, ts):
        n = self.medium.taylor2(xs)
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

    def expr(self, xs, ts):
        out = self._fn(xs, ts)
        if not isinstance(out, Taylor2):
            out = Taylor2.constant(out, xs.order, xs.shape)
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


def _diff_axis(values, h, m, axis):
    """m-th derivative along axis, central interior, one-sided near edges."""
    if m == 0:
        return values
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    offs = _central_offsets(m)
    half = offs[-1]
    width = m + 2  # one-sided stencil size, never below the central one
    if n < width:
        raise StencilClipped(f"axis too short for order-{m} stencil")
    out = np.empty_like(v, dtype=float)
    wc = fd_weights(0.0, offs, m) / h ** m
    out[half : n - half] = sum(w * v[half + o : n - half + o] for w, o in zip(wc, offs))
    for i in range(half):
        wf = fd_weights(float(i), np.arange(width), m) / h ** m
        out[i] = np.tensordot(wf, v[:width], axes=(0, 0))
        wb = fd_weights(float(n - 1 - i), np.arange(n - width, n), m) / h ** m
        out[n - 1 - i] = np.tensordot(wb, v[n - width :], axes=(0, 0))
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# sampled fields
# ---------------------------------------------------------------------------


class SampledField:
    """Uniformly sampled field; values[j, i] = psi(x_i, t_j), shape (nt, nx).

    Its domain is the closed grid rectangle, for every derivative (a
    derivative whose stencil is longer than a grid axis exists nowhere).
    """

    nmax = SAMPLED_NMAX

    def __init__(self, grid: Grid1x1, values):
        values = np.asarray(values, float)
        if values.shape != (grid.nt, grid.nx):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({grid.nt}, {grid.nx})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled field contains non-finite values")
        self.grid = grid
        self.values = values
        self._deriv_grids = {}
        self._splines = {}

    # -- derivative grids ----------------------------------------------------

    def derivative_grid(self, p, q):
        """FD grid of d^{p+q} psi / dt^p dx^q over the whole sampling grid."""
        if p + q > self.nmax + 1:
            raise OrderTooHigh(f"sampled fields support derivatives up to order {self.nmax + 1}")
        key = (p, q)
        if key not in self._deriv_grids:
            g = _diff_axis(self.values, self.grid.dt, p, 0)
            g = _diff_axis(g, self.grid.dx, q, 1)
            self._deriv_grids[key] = g
        return self._deriv_grids[key]

    def _spline(self, p, q):
        """Bicubic spline of the (p, q) FD grid (of lower degree on an axis of
        under 4 nodes)."""
        key = (p, q)
        if key not in self._splines:
            # scipy.interpolate takes most of a second to import; only spline
            # queries pay for it
            from scipy.interpolate import RectBivariateSpline

            g = self.grid
            kx, ky = min(3, g.nt - 1), min(3, g.nx - 1)
            self._splines[key] = RectBivariateSpline(
                g.ts, g.xs, self.derivative_grid(p, q), kx=kx, ky=ky
            )
        return self._splines[key]

    def derivatives_on(self, grid: Grid1x1, p, q):
        """d^{p+q} psi / dt^p dx^q on grid: ``derivative_grid`` on the sampling
        grid, elsewhere its spline with nan outside the samples (no extrapolation)."""
        if grid == self.grid:
            return self.derivative_grid(p, q)
        values = self._spline(p, q)(grid.ts, grid.xs)
        return np.where(self.grid.contains(grid.xs, grid.ts[:, None]), values, np.nan)

    # -- queries -------------------------------------------------------------

    def eval(self, x, t):
        return float(self.jet(x, t, 0).value)

    def jet(self, x, t, order) -> Jet:
        # at one point, direct spline calls beat jet_batch's array path
        if not 0 <= order <= self.nmax + 1:
            raise OrderTooHigh(f"sampled fields support jets of order 0..{self.nmax + 1}")
        x, t = float(x), float(t)
        if not self.grid.contains(x, t):
            raise OutOfDomain(f"point ({x}, {t}) outside the sampling grid")
        table = np.zeros((order + 1, order + 1))
        for p in range(order + 1):
            for q in range(order + 1 - p):
                table[p, q] = self._spline(p, q)(t, x)[0, 0]
        return Jet(x, t, order, table)

    def jet_batch(self, x, t, order):
        """The tables of ``jet`` at broadcast points, as from an analytic field;
        nan at points outside the grid, and StencilClipped only if one is inside."""
        if not 0 <= order <= self.nmax + 1:
            raise OrderTooHigh(f"sampled fields support jets of order 0..{self.nmax + 1}")
        x, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
        inside = self.grid.contains(x, t)
        table = np.full((order + 1, order + 1) + x.shape, np.nan)
        if inside.any():
            table[:, :, inside] = 0.0
            for p in range(order + 1):
                for q in range(order + 1 - p):
                    table[p, q, inside] = self._spline(p, q)(t[inside], x[inside], grid=False)
        return table


def sample(field: AnalyticField, grid: Grid1x1) -> SampledField:
    """Evaluate an analytic field exactly on every grid node."""
    return SampledField(grid, field.eval(grid.xs, grid.ts[:, None]))


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
    for row in values:
        wide = np.any(np.isfinite(row) & (np.abs(row) >= _G15_MAX))
        buf.write(",".join(map(("{:.17g}" if wide else "{:.15g}").format, row.tolist())))
        buf.write("\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_grid_csv(path):
    """Returns (grid, values, field_name)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
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
