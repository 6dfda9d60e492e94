"""Jet arithmetic against closed-form and numerical derivatives, and the
product and custom-expression engines against their reference loops."""

import ast

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpv.field import (
    CustomField,
    DampedTranslational,
    Harmonic,
    InhomogeneousMode,
    KinkDamped,
    Translational,
    envelope_derivs,
)
from locpv.media import ConstantIndex, LinearIndex, TabulatedIndex, TanhRampIndex
from locpv.taylor import (
    Taylor2,
    atan_series,
    exp_series,
    log_series,
    pow_series,
    sin_series,
    t2_atan,
    t2_cos,
    t2_exp,
    t2_log,
    t2_pow,
    t2_sin,
    t2_sqrt,
)


def numdiff(f, x, k, h=1e-2):
    """k-th derivative by central differences with Richardson refinement."""
    if k == 0:
        return f(x)
    offs = np.arange(-k, k + 1)
    from locpv.field import fd_weights

    w = fd_weights(0.0, offs, k)
    d1 = sum(wi * f(x + o * h) for wi, o in zip(w, offs)) / h ** k
    d2 = sum(wi * f(x + o * h / 2) for wi, o in zip(w, offs)) / (h / 2) ** k
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize(
    "series_fn,f,x0",
    [
        (exp_series, np.exp, 0.3),
        (sin_series, np.sin, 1.1),
        (atan_series, np.arctan, 0.7),
        (log_series, np.log, 2.3),
        (lambda u, m: pow_series(1.5, u, m), lambda x: x ** 1.5, 1.7),
    ],
)
def test_univariate_series_match_numeric_derivatives(series_fn, f, x0):
    from math import factorial

    cs = series_fn(x0, 5)
    for k in range(5):
        expected = numdiff(f, x0, k) / factorial(k)
        assert cs[k] == pytest.approx(expected, rel=1e-4, abs=1e-6)


def test_harmonic_jet_matches_closed_form():
    omega, k = 3.0, 1.5
    fld = Harmonic(omega, k)
    x, t = 0.4, 0.2
    jet = fld.jet(x, t, 3)
    phase = omega * t - k * x
    # d^{p+q} sin(phase) / dt^p dx^q = omega^p * (-k)^q * sin^{(p+q)}(phase)
    ders = [np.sin(phase), np.cos(phase), -np.sin(phase), -np.cos(phase)]
    for p in range(4):
        for q in range(4 - p):
            expected = omega ** p * (-k) ** q * ders[(p + q) % 4]
            assert jet.deriv(p, q) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("a", [2.0, -0.7, 5.0])
@pytest.mark.parametrize("envelope", ["gauss", "sin", "arctan"])
def test_translational_identity(a, envelope):
    # d^{p+q} psi / dt^p dx^q = (-1/a)^q * psi^(p+q)(phi)
    fld = Translational(a, envelope)
    x, t = 0.3, -0.1
    phi = t - x / a
    jet = fld.jet(x, t, 4)
    env = envelope_derivs(envelope, phi, 4)
    for p in range(5):
        for q in range(5 - p):
            expected = (-1.0 / a) ** q * env[p + q]
            assert jet.deriv(p, q) == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_custom_field_matches_builtin_harmonic():
    fld = CustomField("sin(3*t - 1.5*x)")
    ref = Harmonic(3.0, 1.5)
    j1 = fld.jet(0.2, 0.5, 3)
    j2 = ref.jet(0.2, 0.5, 3)
    np.testing.assert_allclose(j1.table, j2.table, atol=1e-13)


def test_custom_field_grammar_rejections():
    with pytest.raises(ValueError):
        CustomField("__import__('os')")
    with pytest.raises(ValueError):
        CustomField("y + 1")
    with pytest.raises(ValueError):
        CustomField("sin(x, t)")


def test_taylor_division_and_pow():
    xs, ts = Taylor2.variables(0.5, 0.25, 4)
    u = (1.0 + xs * ts) / (2.0 - xs)
    # value check
    assert u.value == pytest.approx((1 + 0.5 * 0.25) / 1.5)
    v = (xs ** 3) * (xs ** -2)
    assert v.value == pytest.approx(0.5)
    assert v.deriv_table()[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_batch_matches_scalar():
    fld = Harmonic(2.0, 0.8)
    xv = np.array([0.0, 0.3, -1.2])
    tv = np.array([0.5, 0.5, 0.5])
    batch = fld.jet_batch(xv, tv, 2)
    for i in range(3):
        single = fld.jet(xv[i], tv[i], 2)
        for p in range(3):
            for q in range(3 - p):
                assert batch[p, q, i] == pytest.approx(single.table[p, q], abs=1e-14)


# -- the product and custom-expression engines ------------------------------


def assert_same_bits(a, b):
    """Equal bit for bit, except that any nan matches any nan: CPython and
    numpy each pick the sign and payload of a nan sum in their own way."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    np.testing.assert_array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def quadruple_loop_product(a, b):
    """The jet product as one loop over both factors' coefficients."""
    m = a.shape[0] - 1
    out = np.zeros((m + 1, m + 1) + np.broadcast_shapes(a.shape[2:], b.shape[2:]))
    for p1 in range(m + 1):
        for q1 in range(m + 1 - p1):
            apq = a[p1, q1]
            if np.all(apq == 0.0):
                continue
            for p2 in range(m + 1 - p1 - q1):
                for q2 in range(m + 1 - p1 - q1 - p2):
                    out[p1 + p2, q1 + q2] += apq * b[p2, q2]
    return out


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300])


def _operand(rng, shape):
    c = rng.normal(size=shape)
    hit = rng.random(shape) < 0.3
    c[hit] = rng.choice(_SPECIAL, size=hit.sum())
    return c


@pytest.mark.parametrize("m", range(6))
def test_product_matches_the_quadruple_loop(m):
    rng = np.random.default_rng(m)
    w = (m + 1, m + 1)
    with np.errstate(all="ignore"):
        for _ in range(40):
            a, b = _operand(rng, w), _operand(rng, w)
            ab, bb = _operand(rng, w + (3,)), _operand(rng, w + (2, 1))
            ab[m, 0] = 0.0  # a coefficient that is zero at every point
            for x, y in [(a, b), (ab, b), (a, ab), (ab, ab[..., ::-1]), (ab, bb)]:
                assert_same_bits((Taylor2(x) * Taylor2(y)).coef, quadruple_loop_product(x, y))


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize(
    "fn", [t2_log, t2_sqrt, lambda u: t2_pow(u, -1.5)], ids=["log", "sqrt", "pow"]
)
@pytest.mark.parametrize("batch", [(), (3,)])
def test_a_zero_coefficient_adds_nothing(m, fn, batch):
    # at x = 0 the dx coefficients of fn(x) are infinite, so 0 * them would be
    # nan; t - 0.5 has one nonzero coefficient, that of dt
    xs, ts = Taylor2.variables(np.zeros(batch), np.full(batch, 0.5), m)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = fn(xs)
    assert not np.isfinite(f.coef[0, 1:]).any()
    prod = (ts - 0.5) * f
    np.testing.assert_array_equal(prod.coef[0], 0.0)
    for p in range(1, m + 1):
        for q in range(m + 1 - p):
            assert_same_bits(prod.coef[p, q], f.coef[p - 1, q])


_MEDIA = [
    ConstantIndex(1.5),
    LinearIndex(1.0, 0.1),
    TanhRampIndex(1.0, 0.5, center=0.3, width=0.8),
    TabulatedIndex(np.linspace(-5, 5, 21), 1.0 + 0.3 / (1 + np.linspace(-5, 5, 21) ** 2)),
]
FAMILIES = [
    Harmonic(3.0, 1.5),
    *(Translational(1.3, env) for env in ("gauss", "arctan", "sin", "exp")),
    DampedTranslational(-0.7, 0.2),
    DampedTranslational(1.0, -0.1, "arctan"),
    KinkDamped(1.0, 0.3),
    *(InhomogeneousMode(2.0, medium) for medium in _MEDIA),
    CustomField("exp(-x*x) * cos(3*t - x) - atan(t) * sin(x*t)"),
    CustomField("(2 + atan(t))**2 / (2 + sin(x*t))"),
    CustomField("sqrt(x*x + 1) * log(2 + t*t)"),
    CustomField("(x*x + 1)**1.5 * 2**-1.5 + x / (1.5 + cos(x - t))**0.5"),
    CustomField("t**2 * x**3"),
]


@settings(max_examples=300)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 5),
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=6),
)
def test_batched_jets_equal_scalar_jets_bitwise(fld, order, points):
    xs, ts = (np.array(v) for v in zip(*points))
    w, n = order + 1, len(points)
    scalar = {}

    def jet(x, t):
        key = float(x).hex(), float(t).hex()  # -0.0 and 0.0 are distinct points
        if key not in scalar:
            scalar[key] = fld.jet(x, t, order).table
        return scalar[key]

    table = fld.jet_batch(xs, ts, order)
    assert table.shape == (w, w, n)
    for k, (x, t) in enumerate(points):
        assert_same_bits(table[..., k], jet(x, t))
    # broadcast layouts: each coordinate keeps its own shape inside the jet
    grid = fld.jet_batch(xs, ts[:, None], order)
    assert grid.shape == (w, w, n, n)
    for j, t in enumerate(ts):
        for k, x in enumerate(xs):
            assert_same_bits(grid[..., j, k], jet(x, t))
    column = fld.jet_batch(xs[0], ts, order)
    assert column.shape == (w, w, n)
    for j, t in enumerate(ts):
        assert_same_bits(column[..., j], jet(xs[0], t))


def test_coordinate_jets_keep_their_own_shapes():
    xs, ts = Taylor2.variables(np.zeros(3), np.zeros((2, 1)), 2)
    assert xs.shape == ts.shape == (2, 3)
    assert xs.flat[0].shape == (3,) and ts.flat[0].shape == (2, 1)
    assert all(type(v) is float for v in xs.flat[1:] + ts.flat[1:])
    decay = t2_exp(-0.3 * ts)
    assert decay.shape == (2, 3) and decay.coef.shape == (3, 3, 2, 3)
    assert {np.shape(v) for v in decay.flat} <= {(), (2, 1)}


@pytest.mark.parametrize("expression,x", [("1/x", 0.0), ("x**-1.5", 0.0), ("exp(x)", 800.0)])
def test_unbatched_jets_keep_numpys_ieee_results(expression, x):
    # a division by zero or an overflow gives inf or nan, as in a batch,
    # never a ZeroDivisionError or OverflowError
    fld = CustomField(expression)
    with np.errstate(all="ignore"):
        assert fld.eval(x, 0.5) == np.inf
        for order in range(6):
            table = fld.jet(x, 0.5, order).table
            assert_same_bits(table, fld.jet_batch([x, 1.0], 0.5, order)[..., 0])


@pytest.mark.parametrize("t", [0.0, -0.0, 0.3, -1.2])
def test_integer_power_is_finite_at_zero(t):
    # C(2, k) = 0 for k > 2: those terms are 0, not 0 * 0**(2 - k) = 0 * inf
    power, product = CustomField("t**2"), CustomField("t*t")
    for order in range(6):
        table = power.jet(0.3, t, order).table
        assert np.isfinite(table).all()
        assert_same_bits(table, product.jet(0.3, t, order).table)
        assert_same_bits(power.jet_batch([0.3, 1.0], t, order),
                         product.jet_batch([0.3, 1.0], t, order))


def tree_walk(expression, xs, ts):
    """A custom expression evaluated by walking its syntax tree."""
    funcs = {"sin": t2_sin, "cos": t2_cos, "exp": t2_exp, "atan": t2_atan, "arctan": t2_atan,
             "log": t2_log, "sqrt": t2_sqrt}
    env = {"x": xs, "t": ts}

    def ev(node):
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                if not isinstance(b, Taylor2) and b == 0:
                    raise ValueError("division by a constant zero in expression")
                return a / b
            return t2_pow(a, b) if isinstance(a, Taylor2) else np.power(a, b)
        if isinstance(node, ast.UnaryOp):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Call):
            a, fn = ev(node.args[0]), funcs[node.func.id]
            return fn(a) if isinstance(a, Taylor2) else fn(Taylor2.constant(a, 0)).value
        if isinstance(node, ast.Name):
            return env[node.id] if node.id in env else {"pi": np.pi, "e": np.e}[node.id]
        return float(node.value)

    out = ev(ast.parse(expression, mode="eval").body)
    if not isinstance(out, Taylor2):
        out = Taylor2.constant(out, xs.order, xs.coef.shape[2:])
    return out


@pytest.mark.parametrize(
    "expression",
    [
        "sin(3*t - 1.5*x)",
        "1 + 0*x + 0*t",
        "sin((6 + 0.3*(t - x)) * (t - x))",
        "exp(1)*sin(t-x)",
        "2**3*x",
        "-e * +pi",
        "exp(-x*x) * cos(3*t - x) + (2 + atan(t))**2 / (2 + sin(x*t))",
        "sqrt(x*x + 1) * log(2 + t*t) - (x*x + 1)**1.5 * 2**-1.5 + arctan(x/3)",
    ],
)
def test_compiled_custom_field_matches_the_tree_walk(expression):
    fld = CustomField(expression)
    pts = np.array([[0.3, -0.2], [-1.7, 0.9], [0.0, 0.0], [2.5, 1.5]])
    for order in range(6):
        for x, t in pts:
            ref = tree_walk(expression, *Taylor2.variables(x, t, order))
            assert_same_bits(fld.jet(x, t, order).table, ref.deriv_table())
        ref = tree_walk(expression, *Taylor2.variables(pts[:, 0], pts[:, 1], order))
        assert_same_bits(fld.jet_batch(pts[:, 0], pts[:, 1], order), ref.deriv_table())
