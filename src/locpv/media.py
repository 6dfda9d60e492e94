"""Inhomogeneous-medium transit analysis for modes psi(xi*t - k(x)*x).

Implements the local and global zero-order velocities, the printed local and
global first-order relations, and a from-scratch rederivation oracle that
applies the first-order phase-velocity definition to the mode by jet
arithmetic.  The printed local relation and the rederived one disagree by an
overall sign (their homogeneous limits are -n0 and +n0 respectively); both are
computed and reported, never silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    DegenerateInterval,
    NonpositiveLogArgument,
    PoleOnPath,
    QuadratureLimit,
)
from .field import InhomogeneousMode
from .phasevel import is_pole, pv_point
from .taylor import Taylor2, t2_compose

__all__ = [
    "MediumProfile",
    "ConstantIndex",
    "LinearIndex",
    "TanhRampIndex",
    "TabulatedIndex",
    "ModeSpec",
    "v0_local",
    "transit_time",
    "v0_global",
    "vI_local",
    "vI_global",
    "vI_local_rederived",
    "vI_global_rederived",
    "sign_audit",
    "dynamic_separation",
    "SeparationRow",
]


class MediumProfile:
    """Refractive index profile n(x) > 0 with analytic spatial derivatives."""

    def __init__(self, c=1.0, params=()):
        """``params``: the profile's own parameters, which must be finite."""
        if not 0 < c < np.inf:
            raise ValueError("light speed must be positive and finite")
        if not np.isfinite(params).all():
            raise ValueError(f"medium parameters must be finite, got {params}")
        self.c = c

    def series(self, x, m):
        """Taylor coefficients of n at x: n(x+s) = sum series[k] * s^k."""
        raise NotImplementedError

    def n(self, x):
        return self.series(x, 0)[0]

    def n_prime(self, x):
        return self.series(x, 1)[1]

    def n_second(self, x):
        return 2.0 * self.series(x, 2)[2]

    def taylor2(self, xs: Taylor2) -> Taylor2:
        """n applied to a coordinate jet (used by InhomogeneousMode)."""
        return t2_compose(xs, self.series)


class ConstantIndex(MediumProfile):
    def __init__(self, n0, c=1.0):
        super().__init__(c, (n0,))
        if not n0 > 0:
            raise ValueError("refractive index must be positive")
        self.n0 = float(n0)

    def series(self, x, m):
        # [()] turns the 0-d arrays of a scalar x into numpy scalars
        shape = np.shape(x)
        return [np.full(shape, self.n0)[()]] + [np.zeros(shape)[()]] * m


class LinearIndex(MediumProfile):
    """n(x) = n0 + slope * x."""

    def __init__(self, n0, slope, c=1.0):
        super().__init__(c, (n0, slope))
        self.n0 = float(n0)
        self.slope = float(slope)

    def series(self, x, m):
        shape = np.shape(x)
        with np.errstate(over="ignore"):  # n overflows to inf; the velocities reject it
            out = [self.n0 + self.slope * np.asarray(x, float), np.full(shape, self.slope)[()]]
        return out[: m + 1] + [np.zeros(shape)[()]] * max(0, m - 1)


class TanhRampIndex(MediumProfile):
    """Smooth ramp n(x) = n0 + dn * (1 + tanh((x-center)/width)) / 2."""

    def __init__(self, n0, dn, center=0.0, width=1.0, c=1.0):
        super().__init__(c, (n0, dn, center, width))
        if width <= 0:
            raise ValueError("ramp width must be positive")
        self.n0, self.dn = float(n0), float(dn)
        self.center, self.width = float(center), float(width)

    def series(self, x, m):
        # Taylor of tanh at u0 via y' = 1 - y^2: (k)th coefficient from the
        # Cauchy product of the lower ones; a tiny width leaves inf or nan ones
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u0 = (np.asarray(x, float) - self.center) / self.width
            y = [np.tanh(u0)]
            for k in range(1, m + 1):
                sq = sum(y[i] * y[k - 1 - i] for i in range(k))
                y.append(((1.0 - sq) if k == 1 else -sq) / k)
            out = []
            for k in range(m + 1):
                const = (self.n0 + 0.5 * self.dn) if k == 0 else 0.0
                try:
                    scale = self.width ** k
                except OverflowError:  # a float power raises where numpy gives inf
                    scale = np.inf
                out.append(const + 0.5 * self.dn * y[k] / scale)
        return out


class TabulatedIndex(MediumProfile):
    """Monotone cubic (PCHIP) through tabulated (x, n), extrapolated by its end
    cubics: Fritsch & Carlson's slopes (SIAM J. Numer. Anal. 17, 1980) inside,
    Moler's three-point rule (Numerical Computing with MATLAB, 3.6) at the ends."""

    def __init__(self, xs, ns, c=1.0):
        xs, ns = np.asarray(xs, float), np.asarray(ns, float)
        if xs.ndim != 1 or xs.shape != ns.shape or len(xs) < 2 or np.any(np.diff(xs) <= 0):
            raise ValueError("tabulated x must be 2 or more increasing values, one per n")
        super().__init__(c, (*xs, *ns))
        if np.any(ns <= 0):
            raise ValueError("tabulated refractive index must be positive")
        h, m = np.diff(xs), np.diff(ns) / np.diff(xs)
        d = np.full(len(xs), m[0])  # a 2-point table is linear
        if len(xs) > 2:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                harmonic = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
            d[1:-1] = np.where(np.sign(m[1:]) * np.sign(m[:-1]) <= 0, 0.0, harmonic)
            # the ends: the three-point estimate, 0 against the end secant's
            # sign, 3x that secant where the secants turn and it exceeds that
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            turn = (np.sign(m0) != np.sign(m1)) & (abs(e) > abs(3 * m0))
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(turn, 3 * m0, e))
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._xs, self._cubics = xs, np.array([ns[:-1], d[:-1], (m - d[:-1]) / h - t, t / h])

    def series(self, x, m):
        x = np.asarray(x, float)
        i = np.clip(np.searchsorted(self._xs, x, side="right") - 1, 0, len(self._xs) - 2)
        s = x - self._xs[i]
        c0, c1, c2, c3 = self._cubics[:, i]
        out = [((c3 * s + c2) * s + c1) * s + c0, (3 * c3 * s + 2 * c2) * s + c1,
               3 * c3 * s + c2, c3]
        return out[: m + 1] + [np.zeros(np.shape(x))[()]] * max(0, m - 3)


@dataclass(frozen=True)
class ModeSpec:
    """Translational mode psi(xi*t - k(x)*x) in the given medium."""

    xi: float
    medium: MediumProfile
    envelope: str = "gauss"

    def __post_init__(self):
        if not np.isfinite(self.xi) or self.xi == 0:
            raise ValueError("xi must be finite and nonzero")

    def field(self, envelope=None) -> InhomogeneousMode:
        # one field per envelope, so that its recorded jets serve every call
        fields, envelope = self.__dict__.setdefault("_fields", {}), envelope or self.envelope
        if envelope not in fields:
            fields[envelope] = InhomogeneousMode(self.xi, self.medium, envelope)
        return fields[envelope]


# ---------------------------------------------------------------------------
# zero order
# ---------------------------------------------------------------------------


def v0_local(medium: MediumProfile, x):
    """c / (n'(x)*x + n(x)); independent of xi and of the envelope."""
    den = medium.n_prime(x) * x + medium.n(x)
    if is_pole(medium.c, den):
        raise DegenerateDenominator("n'(x)*x + n(x) vanished")
    return medium.c / den


def transit_time(medium: MediumProfile, x0, x1):
    """Zero-order transit time: (x1*n(x1) - x0*n(x0)) / c."""
    if x1 == x0:
        raise DegenerateInterval("x1 must differ from x0")
    probes = np.linspace(x0, x1, 257)
    n, n_prime = medium.series(probes, 1)
    dens = n_prime * probes + n
    if np.any(is_pole(medium.c, dens)) or np.any(np.sign(dens[:-1]) != np.sign(dens[1:])):
        raise PoleOnPath("v0_local has a pole inside the interval")
    return (x1 * medium.n(x1) - x0 * medium.n(x0)) / medium.c


def v0_global(medium: MediumProfile, dx):
    """Global transit velocity from the origin: c / n(dx)."""
    n = medium.n(dx)
    if is_pole(medium.c, n):
        raise DegenerateDenominator("n(dx) vanished")
    return medium.c / n


# ---------------------------------------------------------------------------
# first order, printed relations
# ---------------------------------------------------------------------------


def _g_derivs(medium, x):
    """(x*n)' and (x*n)'' at x."""
    n, npr, nsec = medium.n(x), medium.n_prime(x), medium.n_second(x)
    return n + x * npr, 2.0 * npr + x * nsec


def vI_local(mode: ModeSpec, x):
    """Printed local relation: c/v_I = (c/xi)*(xn)''/(xn)' - (xn)'."""
    gp, gpp = _g_derivs(mode.medium, x)
    if is_pole(gpp, gp):
        raise DegenerateDenominator("(x*n)' vanished")
    rhs = (mode.medium.c / mode.xi) * (gpp / gp) - gp
    if is_pole(mode.medium.c, rhs):
        raise DegenerateDenominator("printed local relation right side vanished")
    return mode.medium.c / rhs


def vI_global(mode: ModeSpec, dx):
    """Printed global relation: c/v_I = n(dx) - (c/(xi*dx))*log(n'(dx)*dx + n(dx))."""
    if dx == 0:
        raise DegenerateInterval("dx must be nonzero")
    m = mode.medium
    with np.errstate(all="ignore"):  # arg or c/(xi*dx) may overflow: the checks below report it
        arg = m.n_prime(dx) * dx + m.n(dx)
        rhs = m.n(dx) - (m.c / (mode.xi * dx)) * np.log(arg)
    if arg <= 0:
        raise NonpositiveLogArgument("log argument n'(dx)*dx + n(dx) not positive")
    if not math.isfinite(rhs) or is_pole(m.c, rhs):
        raise DegenerateDenominator("printed global relation right side vanished or not finite")
    return m.c / rhs


# ---------------------------------------------------------------------------
# rederivation oracle (jet arithmetic, no use of the printed formulas)
# ---------------------------------------------------------------------------


def vI_local_rederived(mode: ModeSpec, x):
    """First-order PV of the mode computed from its jet.

    Uses an exponential envelope, for which psi'/psi'' = 1 and the local
    first-order PV is independent of t, making the closed-form comparison
    well posed.  The jet is taken at t = n(x)*x/c, where the phase is 0, so
    psi = 1 there and no derivative underflows however large xi*n*x/c is.
    """
    with np.errstate(all="ignore"):  # an inf t has no PV: reported as undefined below
        t = mode.medium.n(x) * x / mode.medium.c
    v = pv_point(mode.field(envelope="exp"), x, t, order=1)
    if v is None:
        raise DegenerateDenominator("rederived first-order PV undefined")
    return v


def vI_global_rederived(mode: ModeSpec, dx):
    """Global first-order velocity by quadrature of the rederived local PV."""
    if dx == 0:
        raise DegenerateInterval("dx must be nonzero")

    def slowness(x):
        v = vI_local_rederived(mode, x)
        if is_pole(1.0, v):
            raise PoleOnPath("the rederived local PV vanishes inside the interval")
        return 1.0 / float(v)

    total = integrate(slowness, 0.0, dx)[0]
    if not 0 < abs(total) < math.inf:
        raise DegenerateDenominator("the slowness integral is 0 or not finite")
    return dx / total


# QUADPACK's dqk21 (Piessens et al., QUADPACK, Springer 1983) in doubles: the
# Kronrod nodes on [0, 1] (odd entries: the 10 Gauss nodes), their weights and
# the Gauss weights; DBL_EPSILON, DBL_MIN; quad's epsabs = epsrel and limit
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
        0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
        0.2943928627014602, 0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
        0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
        0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_EPMACH, _UFLOW, QUAD_TOL, QUAD_LIMIT = 2.0**-52, 2.0**-1022, 1.49e-8, 200


def _qk21(f, a, b):
    """dqk21 on [a, b]: (result, abserr, resasc), summed in its order."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc, fv = f(centr), [(f(centr - hlgth * x), f(centr + hlgth * x)) for x in _XGK[:10]]
    resg, resk, resabs = 0.0, _WGK[10] * fc, abs(_WGK[10] * fc)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
        (f1, f2), w = fv[j], _WGK[j]
        resg = resg + _WG[j // 2] * (f1 + f2) if j % 2 else resg
        resk, resabs = resk + w * (f1 + f2), resabs + w * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for (f1, f2), w in zip(fv, _WGK):
        resasc = resasc + w * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs, resasc, abserr = resabs * abs(hlgth), resasc * abs(hlgth), abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resasc


def integrate(f, a, b):
    """(integral of a float function f over [a, b], error estimate): where dqagse
    accepts the first interval, ``scipy.integrate.quad(f, a, b, limit=200)[:2]``
    bit for bit; else bisection without dqagse's extrapolation, largest error first."""
    result, abserr, resasc = _qk21(f, a, b)
    # dqagse's first test (its resabs is dqk21's resasc)
    if abserr == 0.0 or abserr <= max(QUAD_TOL, QUAD_TOL * abs(result)) and abserr != resasc:
        return result, abserr
    parts = [(abserr, a, b, result)]
    while len(parts) < QUAD_LIMIT:
        _, lo, hi, _ = parts.pop(parts.index(max(parts)))
        for u, v in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)):
            r, e, _ = _qk21(f, u, v)
            parts.append((e, u, v, r))
        result, abserr = math.fsum(p[3] for p in parts), math.fsum(p[0] for p in parts)
        if abserr <= max(QUAD_TOL, QUAD_TOL * abs(result)):
            return result, abserr
    raise QuadratureLimit(f"no {QUAD_TOL:g} error bound in {QUAD_LIMIT} intervals")


def sign_audit(mode: ModeSpec, x, dx):
    """Printed-vs-rederived discrepancy report for the first-order relations."""
    local_printed = vI_local(mode, x)
    local_rederived = vI_local_rederived(mode, x)
    global_printed = vI_global(mode, dx)
    global_rederived = vI_global_rederived(mode, dx)
    return {
        "x": float(x),
        "dx": float(dx),
        "xi": float(mode.xi),
        "vI_local_printed": float(local_printed),
        "vI_local_rederived": float(local_rederived),
        "vI_global_printed": float(global_printed),
        "vI_global_rederived": float(global_rederived),
        "local_discrepancy": float(abs(local_printed - local_rederived)),
        "global_discrepancy": float(abs(global_printed - global_rederived)),
    }


# ---------------------------------------------------------------------------
# dynamic separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationRow:
    xi: float
    v0_global: float
    vI_global: float
    vI_rederived: float


def dynamic_separation(medium: MediumProfile, dx, xi_list):
    """Table of global velocities across xi.

    The zero-order column is xi-independent by construction; the first-order
    column carries the O(1/xi) inhomogeneity correction ("dynamic
    separation").
    """
    xi_list = list(xi_list)
    if not xi_list:
        raise ValueError("xi_list must be nonempty")
    if any(xi == 0 for xi in xi_list):
        raise ValueError("xi values must be nonzero")
    if not all(np.isfinite([dx, *xi_list])):
        raise ValueError("dx and the xi values must be finite")
    rows = []
    for xi in xi_list:
        mode = ModeSpec(xi, medium)
        rows.append(
            SeparationRow(
                xi=float(xi),
                v0_global=float(v0_global(medium, dx)),
                vI_global=float(vI_global(mode, dx)),
                vI_rederived=float(vI_global_rederived(mode, dx)),
            )
        )
    return rows


def save_separation_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("xi,v0_global,vI_global,vI_rederived\n")
        for r in rows:
            fh.write(
                f"{r.xi:.15g},{r.v0_global:.15g},{r.vI_global:.15g},{r.vI_rederived:.15g}\n"
            )
