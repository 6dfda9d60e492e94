"""Jet arithmetic against closed-form and numerical derivatives, and the
product and custom-expression engines against their reference loops."""

import ast
import io
import operator
import re
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locpv.field
import locpv.taylor
from conftest import all_pairs, assert_same_bits, derivs_table, engine_table, jet_table
from locpv.field import (
    CustomField,
    DampedTranslational,
    Grid1x1,
    Harmonic,
    InhomogeneousMode,
    KinkDamped,
    Translational,
    envelope_derivs,
)
from locpv.media import ConstantIndex, LinearIndex, TabulatedIndex, TanhRampIndex
from locpv.taylor import (
    Taylor2,
    straight_line,
    atan_series,
    exp_series,
    log_series,
    pow_series,
    sin_series,
    t2_atan,
    t2_compose,
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
    table = derivs_table(fld, x, t, 3)
    phase = omega * t - k * x
    # d^{p+q} sin(phase) / dt^p dx^q = omega^p * (-k)^q * sin^{(p+q)}(phase)
    ders = [np.sin(phase), np.cos(phase), -np.sin(phase), -np.cos(phase)]
    for p in range(4):
        for q in range(4 - p):
            expected = omega ** p * (-k) ** q * ders[(p + q) % 4]
            assert table[p, q] == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("a", [2.0, -0.7, 5.0])
@pytest.mark.parametrize("envelope", ["gauss", "sin", "arctan"])
def test_translational_identity(a, envelope):
    # d^{p+q} psi / dt^p dx^q = (-1/a)^q * psi^(p+q)(phi)
    fld = Translational(a, envelope)
    x, t = 0.3, -0.1
    phi = t - x / a
    table = derivs_table(fld, x, t, 4)
    env = envelope_derivs(envelope, phi, 4)
    for p in range(5):
        for q in range(5 - p):
            expected = (-1.0 / a) ** q * env[p + q]
            assert table[p, q] == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_custom_field_matches_builtin_harmonic():
    fld = CustomField("sin(3*t - 1.5*x)")
    ref = Harmonic(3.0, 1.5)
    np.testing.assert_allclose(derivs_table(fld, 0.2, 0.5, 3), derivs_table(ref, 0.2, 0.5, 3),
                               atol=1e-13)


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
    assert v.deriv(0, 1) == pytest.approx(1.0, abs=1e-12)


def test_batch_matches_scalar():
    fld = Harmonic(2.0, 0.8)
    xv = np.array([0.0, 0.3, -1.2])
    batch = derivs_table(fld, xv, 0.5, 2)
    for i in range(3):
        single = derivs_table(fld, xv[i], 0.5, 2)
        for p in range(3):
            for q in range(3 - p):
                assert batch[p, q, i] == pytest.approx(single[p, q], abs=1e-14)


# -- the product and custom-expression engines ------------------------------


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


def _square(coef):
    """The jet of a square array of coefficients, coef[p, q, *batch]."""
    m, batch = coef.shape[0] - 1, coef.shape[2:]
    flat = [coef[p, q] if batch else float(coef[p, q])
            for p in range(m + 1) for q in range(m + 1 - p)]
    return Taylor2(flat, m, m, batch)


def _float_zero_operand(rng, m, shape):
    """A batched jet whose coefficients are Python float zeros of either sign,
    arrays finite everywhere, and arrays that hold special values."""
    kinds = rng.integers(0, 3, (m + 1) * (m + 2) // 2)
    flat = [(0.0, -0.0)[rng.integers(2)] if k == 0 else
            rng.normal(size=shape) if k == 1 else _operand(rng, shape) for k in kinds]
    return Taylor2(flat, m, m, shape)


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
                assert_same_bits((_square(x) * _square(y)).coef, quadruple_loop_product(x, y))
            # float zeros on the right, against batched left coefficients that
            # are finite everywhere (the term is skipped) or hold an inf or a nan
            x, y = _float_zero_operand(rng, m, (3,)), _float_zero_operand(rng, m, (2, 1))
            xs, ts = Taylor2.variables(_operand(rng, (3,)), rng.normal(size=(2, 1)), m)
            zeros = Taylor2.constant(0.0, m, (3,))
            for u, v in [(x, y), (y, x), (x, x), (xs, ts), (ts * xs, xs), (x, zeros), (xs, y)]:
                assert_same_bits((u * v).coef, quadruple_loop_product(u.coef, v.coef))


def test_batched_structural_zeros_stay_floats(monkeypatch):
    # in the gauss envelope's u * u, with u = t - x/a, only the value and the
    # coefficients of dx and dt vary over the grid: those of order 2 are
    # constants and those of order 3 to 5 are zero
    squares, multiply = [], Taylor2.__mul__

    def recording(a, b):
        out = multiply(a, b)
        if a is b:
            squares.append(out)
        return out

    monkeypatch.setattr(Taylor2, "__mul__", recording)
    xs, ts = np.linspace(-2.0, 2.0, 40), np.linspace(0.0, 1.0, 20)
    Translational(1.3, "gauss").derivs(xs, ts, [(0, 5), (5, 0)])
    (square,) = squares
    arrays = [k for k, v in enumerate(square.flat) if type(v) is np.ndarray]
    assert arrays == [0, 1, 6]  # (0, 0), (0, 1) and (1, 0)
    assert all(type(v) is float for k, v in enumerate(square.flat) if k not in arrays)


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
            scalar[key] = derivs_table(fld, x, t, order)
        return scalar[key]

    # the outer product and its row and column: each coordinate keeps its own
    # shape inside the jet
    grid = derivs_table(fld, xs, ts, order)
    assert grid.shape == (w, w, n, n)
    for j, t in enumerate(ts):
        for k, x in enumerate(xs):
            assert_same_bits(grid[..., j, k], jet(x, t))
    column = derivs_table(fld, xs[0], ts, order)
    assert column.shape == (w, w, n)
    for j, t in enumerate(ts):
        assert_same_bits(column[..., j], jet(xs[0], t))
    row = derivs_table(fld, xs, ts[0], order)
    assert row.shape == (w, w, n)
    for k, x in enumerate(xs):
        assert_same_bits(row[..., k], jet(x, ts[0]))


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
            table = derivs_table(fld, x, 0.5, order)
            assert_same_bits(table, derivs_table(fld, np.array([x, 1.0]), 0.5, order)[..., 0])


@pytest.mark.parametrize("t", [0.0, -0.0, 0.3, -1.2])
def test_integer_power_is_finite_at_zero(t):
    # C(2, k) = 0 for k > 2: those terms are 0, not 0 * 0**(2 - k) = 0 * inf
    power, product = CustomField("t**2"), CustomField("t*t")
    for order in range(6):
        table = derivs_table(power, 0.3, t, order)
        assert np.isfinite(table).all()
        assert_same_bits(table, derivs_table(product, 0.3, t, order))
        xs = np.array([0.3, 1.0])
        assert_same_bits(derivs_table(power, xs, t, order), derivs_table(product, xs, t, order))


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
            assert_same_bits(derivs_table(fld, x, t, order), jet_table(ref))
        ref = tree_walk(expression, *Taylor2.variables(pts[:, 0], pts[:, 1, None], order))
        assert_same_bits(derivs_table(fld, pts[:, 0], pts[:, 1], order), jet_table(ref))


# -- recorded jets ------------------------------------------------------------

_SPECIAL_COORDS = [0.0, -0.0, np.inf, -np.inf, np.nan]
_FAMILY_IDS = [f"{i}-{type(fld).__name__}" for i, fld in enumerate(FAMILIES)]


@pytest.mark.parametrize("fld", FAMILIES, ids=_FAMILY_IDS)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0) | st.sampled_from(_SPECIAL_COORDS),
                          st.floats(-3.0, 3.0) | st.sampled_from(_SPECIAL_COORDS)),
                min_size=1, max_size=3))
def test_recorded_jets_equal_the_engine_bitwise(fld, points):
    # nan matches nan; the sign of a zero is compared
    with np.errstate(all="ignore"):
        for order in range(6):
            for x, t in points:
                assert_same_bits(derivs_table(fld, x, t, order), engine_table(fld, x, t, order))


@pytest.mark.parametrize("fld", FAMILIES, ids=_FAMILY_IDS)
def test_recorded_jets_equal_the_engine_at_special_points(fld):
    with np.errstate(all="ignore"):
        for order in range(6):
            for x in _SPECIAL_COORDS + [0.7]:
                for t in _SPECIAL_COORDS + [-0.4]:
                    assert_same_bits(derivs_table(fld, x, t, order), engine_table(fld, x, t, order))


def test_a_fields_second_jet_of_an_order_records_nothing(monkeypatch):
    fld, recorded, products = DampedTranslational(0.8, 0.2), [], []
    record, multiply = locpv.field.straight_line, Taylor2.__mul__
    monkeypatch.setattr(locpv.field, "straight_line", lambda expr, order, tdeg:
                        recorded.append((order, tdeg)) or record(expr, order, tdeg))
    monkeypatch.setattr(Taylor2, "__mul__", lambda a, b: products.append(1) or multiply(a, b))
    first = fld.derivs(0.3, -0.1, all_pairs(2))
    assert recorded == [(2, 2)] and products
    products.clear()
    assert fld.derivs(0.3, -0.1, all_pairs(2)) == first
    fld.derivs(-1.2, 0.4, [(2, 0), (0, 1)])
    assert recorded == [(2, 2)] and products == []
    fld.derivs(0.3, -0.1, all_pairs(3))
    assert recorded == [(2, 2), (3, 3)]
    # point partials read p <= 1 only: one recording of their own per order,
    # which a float query of the same order and dt-degree shares
    fld.partials(0.3, -0.1, 1)
    products.clear()
    fld.partials(-1.2, 0.4, 1)
    fld.derivs(-1.2, 0.4, [(0, 1), (0, 2), (1, 1)])
    assert recorded == [(2, 2), (3, 3), (2, 1)] and products == []


@pytest.mark.parametrize("first, second, shared", [
    ((0.8, 0.2), (0.7, 0.12), True),
    ((0.7, 0.12), (0.8, 0.2), True),
    # a = 1 folds the product with 1/a: a text of its own at orders 1 and up
    ((0.8, 0.2), (1.0, 0.2), False),
    ((1.0, 0.2), (0.8, 0.2), False),
], ids=["one-text", "one-text-reversed", "special-a-second", "special-a-first"])
def test_fields_of_one_family_each_equal_the_engine_whichever_records_first(
        first, second, shared):
    # each text is compiled once per process and made with each field's constants
    locpv.taylor._compiled.cache_clear()
    points = [(0.3, -0.2), (-1.1, 0.7), (0.0, 0.0)]
    with np.errstate(all="ignore"):
        for params in (first, second):
            fld = DampedTranslational(*params)
            for order in range(6):
                for x, t in points:
                    assert_same_bits(derivs_table(fld, x, t, order),
                                     engine_table(fld, x, t, order))
            if params == first:
                compiled = locpv.taylor._compiled.cache_info().misses
    assert compiled == 6
    assert (locpv.taylor._compiled.cache_info().misses == 6) is shared


_CODE_NAME = re.compile(r"[vkc]\d+(_\d+)?|x|t|make|jet|def|return|if|else|float|map")


def test_recorded_code_holds_no_user_text(monkeypatch):
    # constants, inf and nan among them, reach the code as arguments of the
    # function that makes it, so its text holds none of the expression's
    sources = []
    locpv.taylor._compiled.cache_clear()  # texts compiled before are not compiled again
    monkeypatch.setattr(locpv.taylor, "compile",
                        lambda source, *args: sources.append(source) or compile(source, *args),
                        raising=False)
    fld = CustomField("1e400 * x + (1e400 - 1e400) * t + 2.5e-3 * sin(x / 7) - pi")
    with np.errstate(all="ignore"):
        for order in range(4):
            for x, t in [(0.3, -0.2), (0.0, 1.5)]:
                assert_same_bits(derivs_table(fld, x, t, order), engine_table(fld, x, t, order))
    assert len(sources) == 4
    for source in sources:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert {tok.string for tok in tokens if tok.type == tokenize.NUMBER} <= {"0.0"}
        names = {tok.string for tok in tokens if tok.type == tokenize.NAME}
        assert all(_CODE_NAME.fullmatch(name) for name in names), names


def test_straight_line_returns_the_scaled_flat_coefficients():
    fld = KinkDamped(1.3, 0.2)
    for order in range(6):
        table = engine_table(fld, 0.4, -0.3, order)
        flat = straight_line(fld.expr, order, order)(0.4, -0.3)
        assert flat == [table[p, q] for p in range(order + 1) for q in range(order + 1 - p)]
        assert all(type(v) is float for v in flat)
        for tdeg in range(order + 1):  # a truncated recording: the first tdeg + 1 blocks
            assert straight_line(fld.expr, order, tdeg)(0.4, -0.3) == flat[:_kept(order, tdeg)]


# -- jets truncated in their dt-degree ---------------------------------------


def _kept(m, tdeg):
    """How many flat coefficients, the first ones, a jet of dt-degree tdeg keeps."""
    return sum(m + 1 - p for p in range(tdeg + 1))


def assert_same_coefficients(truncated, full):
    """The truncated jet's coefficients are the full one's first, of the same
    type and bit for bit.  A nan matches any nan: CPython's sum of two nan
    floats keeps one or the other operand's sign, depending on whether the
    interpreter has specialized that addition yet, so even one jet computed
    twice can differ there."""
    kept = full.flat[:_kept(full.order, truncated.tdeg)]
    assert len(truncated.flat) == len(kept) and truncated.shape == full.shape
    for u, v in zip(truncated.flat, kept):
        assert type(u) is type(v) and np.shape(u) == np.shape(v)
        assert_same_bits(u, v)


def _truncate(jet, tdeg):
    return Taylor2(jet.flat[:_kept(jet.order, tdeg)], jet.order, tdeg, jet.shape)


_EXTREMES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300]


def _extreme_operand(rng, m, batch):
    """A jet whose coefficients are drawn from the extremes, normal draws and,
    if batched, arrays that mix both, with Python float zeros among them."""
    flat = []
    for _ in range(_kept(m, m)):
        kind = rng.integers(0, 3 if batch else 2)
        if kind == 0:
            flat.append(float(rng.choice(_EXTREMES)))
        elif kind == 1:
            flat.append(float(rng.normal()) if not batch else rng.normal(size=batch))
        else:
            flat.append(np.where(rng.random(batch) < 0.4, rng.choice(_EXTREMES, batch),
                                 rng.normal(size=batch)))
    return Taylor2(flat, m, m, batch)


_COMPOSITIONS = [t2_exp, t2_sin, t2_cos, t2_atan, t2_log, t2_sqrt,
                 lambda u: t2_pow(u, -1.5), lambda u: t2_pow(u, 3), lambda u: 1.0 / u,
                 lambda u: u / (u * u + 0.5), lambda u: t2_compose(u, _MEDIA[2].series),
                 lambda u: t2_compose(u, _MEDIA[3].series)]


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("batch", [(), (4,)], ids=["scalar", "batched"])
def test_truncated_jets_keep_the_full_jets_bits(m, batch):
    # every kept coefficient gets the terms it gets in the whole triangle, in
    # their order, with the same zero skips
    rng = np.random.default_rng(100 * m + len(batch))
    with np.errstate(all="ignore"):
        for _ in range(6):
            a, b = _extreme_operand(rng, m, batch), _extreme_operand(rng, m, batch)
            full = [a * b, b * a, a * a, a + b, a - 2.0, a * 0.5, -a, a / 3.0]
            full += [fn(a) for fn in _COMPOSITIONS]
            for tdeg in range(m + 1):
                ta, tb = _truncate(a, tdeg), _truncate(b, tdeg)
                truncated = [ta * tb, tb * ta, ta * ta, ta + tb, ta - 2.0, ta * 0.5, -ta, ta / 3.0]
                truncated += [fn(ta) for fn in _COMPOSITIONS]
                for u, v in zip(truncated, full):
                    assert_same_coefficients(u, v)


@pytest.mark.parametrize("m", range(6))
def test_truncated_coordinate_jets_keep_the_full_jets_bits(m):
    x, t = np.array([0.0, -0.0, 1e-300, 0.7]), np.array([[-1e300], [0.25]])
    for fld in [*FAMILIES, *_POLE_FIELDS]:
        with np.errstate(all="ignore"):
            full = fld.expr(*Taylor2.variables(x, t, m))
            for tdeg in range(m + 1):
                truncated = fld.expr(*Taylor2.variables(x, t, m, tdeg))
                assert (truncated.order, truncated.tdeg) == (m, tdeg)
                assert_same_coefficients(truncated, full)
                kept = slice(0, tdeg + 1)
                assert_same_bits(jet_table(truncated)[kept], jet_table(full)[kept])
                np.testing.assert_array_equal(truncated.coef[tdeg + 1 :], 0.0)


def test_jets_of_two_dt_degrees_do_not_mix():
    a, _ = Taylor2.variables(0.3, 0.2, 3)
    b, _ = Taylor2.variables(0.3, 0.2, 3, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="mixed jet orders"):
            op(a, b)


# custom fields whose division, power, sqrt and log meet their poles on grid nodes
_POLE_FIELDS = [
    CustomField("1 / x + t / (x - t)"),
    CustomField("x**-1.5 * cos(t) + (x*x - t)**0.5"),
    CustomField("sqrt(x) * sin(3*t - 2*x) - sqrt(t - x)"),
    CustomField("log(x) * exp(-t*t) + log(x*x + t)"),
    CustomField("(1 + x)**2 / (x * t) - x**3"),
]
_PAIR = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda pq: sum(pq) <= 5)


@settings(max_examples=150)
@given(
    st.sampled_from(FAMILIES + _POLE_FIELDS),
    st.lists(_PAIR, min_size=1, max_size=4),
    st.sampled_from([-0.04, -0.02, 0.0, -0.0, 0.5]) | st.floats(-2.0, 2.0),
    st.sampled_from([-0.02, 0.0, 0.3]) | st.floats(-2.0, 2.0),
    st.integers(2, 7), st.integers(2, 5),
)
def test_a_sweep_is_the_engines_whole_jet_bit_for_bit(fld, pairs, x0, t0, nx, nt):
    grid = Grid1x1(x0, 0.01, nx, t0, 0.01, nt)
    swept = fld.sweep(grid, pairs)
    table = engine_table(fld, grid.xs, grid.ts[:, None], max(p + q for p, q in pairs))
    assert len(swept) == len(pairs)
    for (p, q), values in zip(pairs, swept):
        assert values.shape == (nt, nx) and values.dtype == float and values.flags.writeable
        assert_same_bits(values, table[p, q])
    assert len({id(v) for v in swept}) == len(swept)
