"""Attribute tracking: integrate dx/dt = v_N(x, t) and average the result.

An "attribute" is a labelled feature of the wave shape: a level value of the
field (order 0), of its slope (order 1, e.g. a peak), or of a higher spatial
derivative.  The trajectory solver is classical fixed-step RK4 with a Newton
re-projection onto the attribute set after every step, which suppresses the
drift that otherwise dominates the error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTrajectory,
    NoBracket,
    OutOfDomain,
    SeedOffAttribute,
    SingularSeed,
)
from .phasevel import pv_ratio

__all__ = [
    "Attribute",
    "Termination",
    "TrackedTrajectory",
    "track",
    "find_seed",
    "global_velocity",
]

NEWTON_ITERS = 3    # Newton corrections of each projection onto the attribute


class Termination(enum.Enum):
    TimeLimit = "TimeLimit"
    DomainExit = "DomainExit"
    SingularityHit = "SingularityHit"


@dataclass(frozen=True)
class Attribute:
    """Level `target` of the order-th x-derivative, seeded at (x0, t0)."""

    order: int
    target: float
    x0: float
    t0: float


@dataclass(frozen=True)
class TrackedTrajectory:
    samples: np.ndarray         # (n, 3) rows of (t, x, v_local)
    terminated_by: Termination

    @property
    def t(self):
        return self.samples[:, 0]

    @property
    def x(self):
        return self.samples[:, 1]

    @property
    def v_local(self):
        return self.samples[:, 2]

    @property
    def global_velocity(self):
        return global_velocity(self)

    def save_csv(self, path):
        gv = self.global_velocity  # raises before the file is opened
        with open(path, "w") as fh:
            fh.write("t,x,v_local\n")
            for t, x, v in self.samples:
                fh.write(f"{t:.15g},{x:.15g},{v:.15g}\n")
            fh.write(f"# terminated_by={self.terminated_by.value}\n")
            fh.write(f"# global_velocity={gv:.15g}\n")


def global_velocity(traj: TrackedTrajectory):
    """Averaged (total) velocity: net displacement over net elapsed time."""
    if len(traj.samples) < 2:
        raise DegenerateTrajectory("trajectory has fewer than 2 samples")
    with np.errstate(all="ignore"):  # a zero or subnormal time span
        v = (traj.x[-1] - traj.x[0]) / (traj.t[-1] - traj.t[0])
    if not np.isfinite(v):
        raise DegenerateTrajectory("net displacement over net time is not finite")
    return v


def _probe(field, x, t, order):
    """(g, g', v) at (x, t) from one ``field.partials``: the order-th
    x-derivative g, its x-derivative and the phase velocity (None at a pole)."""
    g, gp, num = field.partials(x, t, order)
    return g, gp, pv_ratio(num, gp)


def _project(field, x, t, order, target):
    """Newton-correct x so the order-th x-derivative returns to target; returns
    (x, v), v the phase velocity at the corrected x (None at a pole or g' = 0)."""
    g, gp, v = _probe(field, x, t, order)
    for _ in range(NEWTON_ITERS):
        if abs(gp) < 1e-300:
            return x, None
        step = (g - target) / gp
        x = x - step
        g, gp, v = _probe(field, x, t, order)
        if abs(step) < 1e-14 * max(1.0, abs(x)):
            break
    return x, v


@np.errstate(all="ignore")  # a jet off the field's domain is nan and brackets nothing
def find_seed(field, order, target, near):
    """Locate x0 with (d/dx)^order psi(x0, t0) = target at fixed t0 = near[1].

    Searches for a sign change around near[0] (expanding geometrically up to
    the half-width of ``field.seed_scan``: 8, or a sampled field's grid width),
    then refines it by bisection to that scan's tolerance.  Each scan width is
    one ``derivs`` call of the three partials ``_probe`` reads; its nan entries
    (outside the domain) never bracket, and its errors (a sampled grid too short
    for a stencil) are find_seed's.  If no scan value is finite, find_seed raises
    the probe's error at the first scan point, if it has one, before NoBracket.
    """
    x_near, t0 = near
    if not np.isfinite([target, x_near, t0]).all():
        raise ValueError("target and seed point must be finite")
    bracket, xtol = field.seed_scan

    # expanding scan for a sign change; nan (outside) pairs never qualify
    lo = hi = None
    w = bracket / 64.0
    while w <= bracket + 1e-300:
        xs = np.linspace(x_near - w, x_near + w, 65)
        vals = field.derivs(xs, t0, [(0, order), (0, order + 1), (1, order)])[0] - target
        sign_flip = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
        hit = [k for k in sign_flip if vals[k] != 0 or vals[k + 1] != 0]
        if hit:
            k = min(hit, key=lambda k: abs(0.5 * (xs[k] + xs[k + 1]) - x_near))
            (lo, hi), (flo, fhi) = xs[k : k + 2], vals[k : k + 2]
            break
        w *= 2.0
    if lo is None:
        if not np.isfinite(vals).any():  # the field's error at the first point, if any
            _probe(field, x_near - bracket / 64.0, t0, order)
        raise NoBracket(
            f"no sign change of order-{order} derivative minus {target} near x={x_near}"
        )
    if flo == 0.0 or fhi == 0.0:
        return (lo if flo == 0.0 else hi), t0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fm = _probe(field, mid, t0, order)[0] - target
        if fm == 0.0:
            return mid, t0
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi), t0


@np.errstate(all="ignore")  # a nan jet ends the track in SingularityHit
def track(
    field,
    attr: Attribute,
    t_end,
    step=None,
    project=True,
    seed_tol=None,
) -> TrackedTrajectory:
    """Follow the attribute from its seed to t_end (or an earlier obstruction)."""
    if step is None:
        step = field.default_step(t_end - attr.t0)
    # written so that a nan fails every comparison
    if not (0 < step < np.inf and -np.inf < attr.t0 < t_end < np.inf
            and abs(attr.x0) < np.inf and abs(attr.target) < np.inf):
        raise ValueError("need a finite step > 0, t_end > t0, target and seed")
    if seed_tol is None:
        seed_tol = field.seed_rtol * max(1.0, abs(attr.target))

    x, t = float(attr.x0), float(attr.t0)
    g0, _, v = _probe(field, x, t, attr.order)
    if not abs(g0 - attr.target) <= seed_tol:  # a nan g0 fails it
        raise SeedOffAttribute(
            f"derivative at seed is {g0!r}, target {attr.target!r}"
        )
    if v is None:
        raise SingularSeed("phase velocity undefined at the seed point")

    samples = [(t, x, v)]
    terminated = Termination.TimeLimit

    def rhs(xq, tq):
        return _probe(field, xq, tq, attr.order)[2]

    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(step, t_end - t)
        try:
            k1 = v  # the velocity at (x, t), from the seed or the last step
            k2 = rhs(x + 0.5 * h * k1, t + 0.5 * h)
            k3 = rhs(x + 0.5 * h * k2, t + 0.5 * h) if k2 is not None else None
            k4 = rhs(x + h * k3, t + h) if k3 is not None else None
            if k4 is None:
                terminated = Termination.SingularityHit
                break
            x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_new = t + h
            if project:
                x_new, v = _project(field, x_new, t_new, attr.order, attr.target)
            else:
                v = rhs(x_new, t_new)
        except OutOfDomain:
            terminated = Termination.DomainExit
            break
        if v is None:
            terminated = Termination.SingularityHit
            break
        if abs(x_new - x) < 1e-14 and h < 1e-14:
            # failure to advance: knot-type critical point
            terminated = Termination.SingularityHit
            break
        x, t = x_new, t_new
        samples.append((t, x, v))

    return TrackedTrajectory(np.array(samples, float), terminated)
