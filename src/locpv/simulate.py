"""Explicit leapfrog solver for the 1+1D wave equation with damping or gain.

Solves psi_tt = a(x)^2 psi_xx - 2*gamma*psi_t on a uniform grid, producing
sampled fields beyond the closed-form families.  The damping term is
time-centered to keep the scheme second order; gamma < 0 (gain) is allowed
but guarded against runaway amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CFLViolation, NonfiniteBlowup
from .field import Grid1x1, SampledField

__all__ = ["SimSpec", "run", "run_from_levels", "discrete_energy"]

BLOWUP_GUARD = 1e12

_BOUNDARIES = ("Periodic", "Reflecting")


@dataclass(frozen=True)
class SimSpec:
    domain: Grid1x1
    speed: object                    # float, (nx,) array, or callable a(x)
    gamma: float
    initial_profile: Callable        # psi(x) at t0, vectorized over x
    initial_rate: Callable           # d psi/dt (x) at t0, vectorized over x
    boundary: str = "Periodic"

    def __post_init__(self):
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {list(_BOUNDARIES)}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")

    def speed_array(self):
        xs = self.domain.xs
        a = self.speed(xs) if callable(self.speed) else self.speed
        return np.broadcast_to(np.asarray(a, float), xs.shape).astype(float)

    def check_cfl(self):
        return _checked_speed(self)[1]


def _checked_speed(spec: SimSpec):
    """(a at the grid nodes, max|a|*dt/dx) from one evaluation of the speed;
    ValueError or CFLViolation unless a is finite and the ratio at most 1."""
    a = spec.speed_array()
    if not np.isfinite(a).all():
        raise ValueError("wave speed must be finite at every grid node")
    ratio = np.max(np.abs(a)) * spec.domain.dt / spec.domain.dx
    if ratio > 1.0 + 1e-12:
        raise CFLViolation(f"max(a)*dt/dx = {ratio:.6g} exceeds 1")
    return a, ratio


def _laplacian(u, periodic, out):
    """Three-point Laplacian of u without the 1/dx^2 factor, written into out.

    Periodic ends wrap around; reflecting ends get 0.
    """
    mid = np.multiply(2.0, u[1:-1], out=out[1:-1])  # u[2:] - 2.0 * u[1:-1] + u[:-2]
    np.subtract(u[2:], mid, out=mid)
    mid += u[:-2]
    if periodic:
        out[0] = u[1] - 2.0 * u[0] + u[-1]
        out[-1] = u[0] - 2.0 * u[-1] + u[-2]
    else:
        out[0] = 0.0
        out[-1] = 0.0
    return out


def _first_step(spec: SimSpec, psi0, v0, a2, periodic):
    # Taylor start: psi(dt) = psi0 + dt*v0 + dt^2/2*(a^2 lap - 2*gamma*v0)
    # without warnings: the leapfrog's guard stops a row that a non-finite psi(dt) spoils
    dt = spec.domain.dt
    with np.errstate(all="ignore"):
        lap = _laplacian(psi0, periodic, np.empty_like(psi0)) / spec.domain.dx ** 2
        acc = a2 * lap - 2.0 * spec.gamma * v0
        return psi0 + dt * v0 + 0.5 * dt * dt * acc


def _leapfrog(psi, a2, dt, dx, gamma, periodic):
    """Fill rows 2..nt-1 of psi in place from rows 0 and 1.

    Update: (1+g*dt)*psi^{n+1} = 2*psi^n - (1-g*dt)*psi^{n-1} + dt^2*a^2*lap.
    Returns the index of the first row past BLOWUP_GUARD or not finite, or -1.
    """
    nt, nx = psi.shape
    r = (dt * dt) / (dx * dx)
    cp = 1.0 + gamma * dt
    cm = 1.0 - gamma * dt
    ra2 = r * a2
    lap, tmp = np.empty(nx), np.empty(nx)
    with np.errstate(all="ignore"):  # the guard below stops at an inf or a nan
        for n in range(1, nt - 1):
            # (2.0 * psi[n] - cm * psi[n - 1] + ra2 * lap) / cp, in place
            nxt = np.multiply(2.0, psi[n], out=psi[n + 1])
            nxt -= np.multiply(cm, psi[n - 1], out=tmp)
            nxt += np.multiply(ra2, _laplacian(psi[n], periodic, lap), out=tmp)
            nxt /= cp
            if not periodic:
                nxt[0] = nxt[-1] = 0.0
            if not (nxt.max() <= BLOWUP_GUARD and nxt.min() >= -BLOWUP_GUARD):
                return n + 1
    return -1


def run(spec: SimSpec) -> SampledField:
    """Integrate the spec over its full grid and return the space-time field."""
    a2 = _checked_speed(spec)[0] ** 2
    xs = spec.domain.xs
    psi0 = np.asarray(spec.initial_profile(xs), float)
    v0 = np.asarray(spec.initial_rate(xs), float)
    if not (np.all(np.isfinite(psi0)) and np.all(np.isfinite(v0))):
        raise ValueError("initial data must be finite")
    periodic = spec.boundary == "Periodic"
    psi1 = _first_step(spec, psi0, v0, a2, periodic)
    if not periodic:
        psi0 = psi0.copy()
        psi0[0] = psi0[-1] = 0.0
        psi1[0] = psi1[-1] = 0.0
    return _integrate(spec, psi0, psi1, a2)


def run_from_levels(spec: SimSpec, psi0, psi1) -> SampledField:
    """Integrate from two explicit starting levels (exposes leapfrog symmetry:
    restarting from the last two levels in reverse order retraces an undamped
    run exactly)."""
    return _integrate(spec, psi0, psi1, _checked_speed(spec)[0] ** 2)


def _integrate(spec: SimSpec, psi0, psi1, a2) -> SampledField:
    """The leapfrog from two starting levels, with the checked a^2 at the nodes."""
    g = spec.domain
    psi = np.zeros((g.nt, g.nx))
    psi[0] = psi0
    psi[1] = psi1
    bad = _leapfrog(
        psi,
        a2,
        float(g.dt),
        float(g.dx),
        float(spec.gamma),
        spec.boundary == "Periodic",
    )
    if bad >= 0:
        raise NonfiniteBlowup(f"amplitude exceeded {BLOWUP_GUARD:g} at step {bad}")
    return SampledField(g, psi)


def discrete_energy(field: SampledField, speed):
    """Leapfrog-compatible discrete energy per time interval (length nt-1).

    E^{n+1/2} = sum_i [ ((psi^{n+1}-psi^n)/dt)^2
                        + a^2 * D+psi^{n+1} * D+psi^n ] * dx,
    exactly conserved by the undamped scheme with reflecting ends.
    """
    g = field.grid
    psi = field.values
    a = np.broadcast_to(np.asarray(speed, float), g.xs.shape)
    a2m = 0.5 * (a[1:] ** 2 + a[:-1] ** 2)
    vt = np.diff(psi, axis=0) / g.dt
    dxp = np.diff(psi, axis=1) / g.dx
    return (np.sum(vt ** 2, axis=1) + np.sum(a2m * dxp[1:] * dxp[:-1], axis=1)) * g.dx
