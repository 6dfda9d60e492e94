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
        # Cauchy product of the lower ones
        u0 = (np.asarray(x, float) - self.center) / self.width
        y = [np.tanh(u0)]
        for k in range(1, m + 1):
            sq = sum(y[i] * y[k - 1 - i] for i in range(k))
            y.append(((1.0 - sq) if k == 1 else -sq) / k)
        out = []
        for k in range(m + 1):
            const = (self.n0 + 0.5 * self.dn) if k == 0 else 0.0
            out.append(const + 0.5 * self.dn * y[k] / self.width ** k)
        return out


class TabulatedIndex(MediumProfile):
    """Monotone cubic (PCHIP) interpolation of tabulated (x, n) samples."""

    def __init__(self, xs, ns, c=1.0):
        from scipy.interpolate import PchipInterpolator

        super().__init__(c)
        xs = np.asarray(xs, float)
        ns = np.asarray(ns, float)
        if np.any(ns <= 0):
            raise ValueError("tabulated refractive index must be positive")
        self._interp = PchipInterpolator(xs, ns)

    def series(self, x, m):
        out = [self._interp(x)]
        for k in range(1, m + 1):
            out.append(self._interp.derivative(k)(x) / math.factorial(k))
        return out


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
    arg = m.n_prime(dx) * dx + m.n(dx)
    if arg <= 0:
        raise NonpositiveLogArgument("log argument n'(dx)*dx + n(dx) not positive")
    rhs = m.n(dx) - (m.c / (mode.xi * dx)) * np.log(arg)
    if is_pole(m.c, rhs):
        raise DegenerateDenominator("printed global relation right side vanished")
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
    t = mode.medium.n(x) * x / mode.medium.c
    v = pv_point(mode.field(envelope="exp"), x, t, order=1)
    if v is None:
        raise DegenerateDenominator("rederived first-order PV undefined")
    return v


def vI_global_rederived(mode: ModeSpec, dx):
    """Global first-order velocity by quadrature of the rederived local PV."""
    from scipy.integrate import quad

    if dx == 0:
        raise DegenerateInterval("dx must be nonzero")
    dt, _ = quad(lambda x: np.divide(1.0, vI_local_rederived(mode, x)), 0.0, dx, limit=200)
    return dx / dt


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
