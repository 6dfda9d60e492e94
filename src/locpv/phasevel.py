"""Local N-th order phase velocities and the classical comparison diagnostics.

The core quantity is the ratio -(d^{N+1}psi/dt dx^N) / (d^{N+1}psi/dx^{N+1}).
Points where the denominator (nearly) vanishes are genuine poles of the
definition, not numerical accidents, so they are reported as ``None`` from
point queries and as masked entries from grid sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotOscillatory, OrderTooHigh
from .field import Grid1x1, envelope_derivs, save_grid_csv

__all__ = [
    "PhaseVelocityField",
    "ClassicalDiagnostics",
    "is_pole",
    "pv_point",
    "pv_ratio",
    "pv_from_jet",
    "pv_field",
    "kink_spectrum",
    "damped_spectrum",
    "classical_diagnostics",
]

# relative denominator tolerance; poles are flagged, never extrapolated over
EPS_DEN_REL = 1e-9
EPS_DEN_FLOOR = 1e-300
# a ratio num/den is a pole where |den| < EPS_POLE_REL * |num|
EPS_POLE_REL = 1e-12
# minimum relative wavelength change across a stencil for the transport
# velocity U to count as defined
WAVELENGTH_GRAD_REL = 1e-4


@dataclass(frozen=True)
class PhaseVelocityField:
    order: int
    grid: Grid1x1
    values: np.ndarray      # (nt, nx); nan where masked
    mask: np.ndarray        # True = valid
    eps_den: float

    def save_csv(self, path):
        save_grid_csv(path, self.grid, self.values, field_name=f"v{self.order}")


@dataclass(frozen=True)
class ClassicalDiagnostics:
    grid: Grid1x1
    local_wavelength: np.ndarray          # (nt, nx); nan where undefined
    classical_group_velocity: np.ndarray  # (nt, nx); nan where undefined
    omega_over_k: float | None


def is_pole(num, den):
    """Whether num/den is a pole (elementwise): |den| below EPS_DEN_FLOOR or
    EPS_POLE_REL * |num|. A non-pole ratio with a finite num has |ratio| <= 1e12."""
    return (abs(den) < EPS_DEN_FLOOR) | (abs(den) < EPS_POLE_REL * abs(num))


def pv_ratio(num, den):
    """The phase velocity -num/den of two floats; None at a pole or a non-finite ratio."""
    if not (math.isfinite(num) and math.isfinite(den)) or is_pole(num, den):
        return None
    return -num / den


def pv_from_jet(jet, order):
    """Phase velocity of the given order from a jet; None at a pole or a non-finite ratio."""
    return pv_ratio(jet.deriv(1, order), jet.deriv(0, order + 1))


def pv_point(field, x, t, order):
    """Local N-th order phase velocity at one point; None where undefined,
    outside a custom field's domain too, without numpy warnings."""
    with np.errstate(all="ignore"):
        _, den, num = field.partials(x, t, order)
    return pv_ratio(num, den)


def pv_field(field, grid: Grid1x1, order: int, eps_den=None) -> PhaseVelocityField:
    """The phase velocity of the given order at every node of grid.

    The mask is False where the velocity is undefined: at a pole (``is_pole``),
    where |den| is below eps_den (by default EPS_DEN_REL times the largest
    finite |den| on the grid) and where a derivative is not finite, which
    includes every node outside ``field.domain(grid)``.
    """
    if order < 0 or order > field.nmax:
        raise OrderTooHigh(f"field supports phase velocities up to order {field.nmax}")
    if eps_den is not None and not 0 <= eps_den < np.inf:
        raise ValueError("eps_den must be finite and >= 0")
    num, den = field.sweep(grid, [(1, order), (0, order + 1)])
    a = np.abs(den)
    if eps_den is None:
        scale = np.max(a, initial=0.0)
        if not scale < np.inf:  # an inf or a nan: the largest finite |den|
            scale = np.max(a, where=a < np.inf, initial=0.0)
        eps_den = max(EPS_DEN_FLOOR, EPS_DEN_REL * scale)
    # finite num and den, |den| >= eps_den and not is_pole, then -num / den or nan
    # into a's buffer, 16 rows at a time
    values, mask, thr = a, np.empty(a.shape, bool), np.empty(a[:16].shape)
    with np.errstate(all="ignore"):
        for b in range(0, len(a), 16):
            rows = slice(b, b + 16)
            d, m = a[rows], mask[rows]
            t = np.abs(num[rows], out=thr[: len(d)])
            t *= EPS_POLE_REL
            np.greater_equal(d, t, out=m)
            m &= d >= max(eps_den, EPS_DEN_FLOOR)
            m &= d < np.inf  # and so thr < inf, as d >= thr
            np.negative(np.divide(num[rows], den[rows], out=d), out=d)
            np.copyto(d, np.nan, where=~m)
    return PhaseVelocityField(order, grid, values, mask, float(eps_den))


# ---------------------------------------------------------------------------
# closed-form spectra for the damped families
# ---------------------------------------------------------------------------


def damped_spectrum(a, lam, envelope, phi, order):
    """v_N = a*(1 - lam * env^(N)(phi) / env^(N+1)(phi)); None at a pole."""
    d = envelope_derivs(envelope, phi, order + 1)
    num, den = d[order], d[order + 1]
    if is_pole(num, den):
        return None
    return a * (1.0 - lam * num / den)


def kink_spectrum(a, lam, phi):
    """(v0, vI, vII) for the damped arctan kink; None entries at the poles."""
    v0 = a * (1.0 + lam * (1.0 + phi * phi) * np.arctan(phi))
    num, den = lam * (1.0 + phi * phi), 2.0 * phi
    vI = None if is_pole(num, den) else a * (1.0 - num / den)
    num, den = lam * (phi ** 3 + phi), 3.0 * phi * phi - 1.0
    vII = None if is_pole(num, den) else a * (1.0 - num / den)
    return float(v0), vI, vII


# ---------------------------------------------------------------------------
# classical (wavelength-based) diagnostics
# ---------------------------------------------------------------------------


def _zero_crossings(xs, row):
    """Linearly interpolated zero crossings of one time slice."""
    s = np.sign(row)
    idx = np.nonzero((s[:-1] * s[1:]) < 0)[0]
    crossings = xs[idx] - row[idx] * (xs[idx + 1] - xs[idx]) / (row[idx + 1] - row[idx])
    exact = np.nonzero(row == 0.0)[0]
    if exact.size:
        crossings = np.sort(np.concatenate([crossings, xs[exact]]))
    return crossings


def classical_diagnostics(field, grid: Grid1x1) -> ClassicalDiagnostics:
    """Local wavelength field and the historical transport-equation velocity.

    lambda_w(x, t) is twice the distance between the adjacent zero crossings
    bracketing x at fixed t; U = -(d lambda/dt)/(d lambda/dx) wherever both
    derivatives exist and the spatial one is not degenerate.
    """
    (values,), inside = field.sweep(grid, [(0, 0)]), field.domain(grid)
    if not np.all(np.isfinite(values), where=inside):
        raise ValueError("field values on the grid contain non-finite values")
    xs = grid.xs
    lam = np.full((grid.nt, grid.nx), np.nan)
    for j in range(grid.nt):
        if not inside[j].any():
            continue  # no node of this slice lies inside the domain
        z = _zero_crossings(xs, values[j])
        if z.size < 3:
            raise NotOscillatory(
                f"time slice {j} has {z.size} zero crossings (need >= 3)"
            )
        k = np.searchsorted(z, xs)
        ok = (k >= 1) & (k < z.size)
        kk = np.clip(k, 1, z.size - 1)
        lam[j, ok] = 2.0 * (z[kk] - z[kk - 1])[ok]
    dldt = np.full_like(lam, np.nan)
    dldx = np.full_like(lam, np.nan)
    dldt[1:-1] = (lam[2:] - lam[:-2]) / (2.0 * grid.dt)
    dldx[:, 1:-1] = (lam[:, 2:] - lam[:, :-2]) / (2.0 * grid.dx)
    with np.errstate(invalid="ignore", divide="ignore"):
        finite = np.isfinite(dldt) & np.isfinite(dldx)
        # degenerate denominator: the wavelength change across the stencil is
        # negligible compared with the wavelength itself (0/0 for a uniform
        # field; also swallows zero-crossing interpolation noise)
        significant = np.abs(dldx) * (2.0 * grid.dx) > WAVELENGTH_GRAD_REL * np.abs(lam)
        good = finite & significant
        U = np.where(good, -dldt / np.where(good, dldx, 1.0), np.nan)
    return ClassicalDiagnostics(grid, lam, U, field.omega_over_k)
