"""Lorentz boosts of events, fields, and phase velocities.

Conventions.  ``boost_event`` maps lab coordinates into a frame moving at +V:
x' = gamma*(x - V*t), t' = gamma*(t - V*x/c^2).  The printed zero-order
addition rule v' = (v + V)/(1 + vV/c^2), by contrast, gives the velocity seen
from a frame moving at -V; ``boost_field`` is oriented to match it, so that
the derivative chain on the boosted field reproduces ``add_v0`` with the same
V (see the form-invariance test).

The first-order addition rule is implemented exactly as printed, including
its overall leading minus sign, which makes the V=0 limit -v_I rather than
v_I.  ``sign_convention="continuous"`` drops that sign and then agrees with
the general second-derivative transform ``boost_vI_general``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .field import AnalyticField
from .phasevel import is_pole

__all__ = [
    "BoostFrame",
    "boost_event",
    "boost_field",
    "BoostedField",
    "add_v0",
    "add_vI_freewave",
    "boost_vI_general",
    "subluminality_audit",
    "AuditReport",
]

# relative slack of the subluminality audit: |v'| may exceed c by this much
SUBLUMINAL_TOL = 1e-12


@dataclass(frozen=True)
class BoostFrame:
    V: float
    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("light speed must be positive")
        if not abs(self.V) < self.c:
            raise ValueError("frame speed must satisfy |V| < c")

    @property
    def gamma(self):
        return 1.0 / np.sqrt(1.0 - (self.V / self.c) ** 2)


def boost_event(frame: BoostFrame, x, t):
    """(x', t') of a lab event in the frame moving at +V."""
    g, V, c = frame.gamma, frame.V, frame.c
    return g * (x - V * t), g * (t - V * x / c ** 2)


class BoostedField(AnalyticField):
    """Analytic field re-expressed in boosted coordinates.

    Oriented so an attribute moving at v in the base field moves at
    add_v0(frame, v) in this one.
    """

    def __init__(self, base: AnalyticField, frame: BoostFrame):
        self.base = base
        self.frame = frame
        self.nmax = base.nmax

    def expr(self, xs, ts):
        g, V, c = self.frame.gamma, self.frame.V, self.frame.c
        x_lab = (xs - V * ts) * g
        t_lab = (ts - (V / c ** 2) * xs) * g
        return self.base.expr(x_lab, t_lab)


def boost_field(base: AnalyticField, frame: BoostFrame) -> BoostedField:
    return BoostedField(base, frame)


def add_v0(frame: BoostFrame, v0):
    """Relativistic zero-order velocity addition, (v0 + V)/(1 + v0*V/c^2)."""
    if not np.all(np.isfinite(v0)):
        raise ValueError("v0 must be finite")
    num = v0 + frame.V
    den = 1.0 + v0 * frame.V / frame.c ** 2
    if np.any(is_pole(num, den)):
        raise DegenerateDenominator("1 + v0*V/c^2 vanished")
    return num / den


def add_vI_freewave(frame: BoostFrame, vI, sign_convention="as_printed"):
    """First-order velocity addition for fields obeying the free wave equation.

    as_printed: -((1+V^2/c^2)*vI + 2V) / ((1+V^2/c^2) + 2*V*vI/c^2)
    continuous: same ratio without the leading minus (V=0 limit is then vI,
    matching the general transform).
    """
    if sign_convention not in ("as_printed", "continuous"):
        raise ValueError("sign_convention must be 'as_printed' or 'continuous'")
    if not np.all(np.isfinite(vI)):
        raise ValueError("vI must be finite")
    b2 = (frame.V / frame.c) ** 2
    num = (1.0 + b2) * vI + 2.0 * frame.V
    den = (1.0 + b2) + 2.0 * frame.V * vI / frame.c ** 2
    if np.any(is_pole(num, den)):
        raise DegenerateDenominator("first-order addition denominator vanished")
    out = num / den
    return -out if sign_convention == "as_printed" else out


def boost_vI_general(frame: BoostFrame, jet):
    """First-order PV in the boosted frame from second derivatives in the lab.

    v'_I = -[(1+V^2/c^2) psi_xt - V (psi_tt/c^2 + psi_xx)]
           / [(V^2/c^4) psi_tt + psi_xx - (2V/c^2) psi_xt]

    Returns None at a pole (``is_pole(num, den)``).
    """
    V, c = frame.V, frame.c
    ptt = jet.deriv(2, 0)
    pxx = jet.deriv(0, 2)
    pxt = jet.deriv(1, 1)
    num = (1.0 + (V / c) ** 2) * pxt - V * (ptt / c ** 2 + pxx)
    den = (V ** 2 / c ** 4) * ptt + pxx - (2.0 * V / c ** 2) * pxt
    if is_pole(num, den):
        return None
    return -num / den


@dataclass(frozen=True)
class AuditReport:
    rule: str
    resolution: int
    max_abs_vprime_over_c: float
    violations: list

    def to_json(self):
        return json.dumps(
            {
                "rule": self.rule,
                "resolution": self.resolution,
                "max_abs_vprime_over_c": self.max_abs_vprime_over_c,
                "violations": self.violations,
            },
            indent=2,
            sort_keys=True,
        )


def subluminality_audit(add_rule, grid_resolution, c=1.0) -> AuditReport:
    """Sweep v, V over the open interval (-c, c) and report any |v'| > c.

    add_rule: "order0" or "order1".
    """
    if add_rule not in ("order0", "order1"):
        raise ValueError("add_rule must be 'order0' or 'order1'")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    pts = np.linspace(-c, c, grid_resolution + 2)[1:-1]
    max_ratio = 0.0
    violations = []
    for i in range(grid_resolution):
        frame = BoostFrame(pts[i], c)
        if add_rule == "order0":
            vp = add_v0(frame, pts)
        else:
            vp = add_vI_freewave(frame, pts)
        ratio = np.abs(vp) / c
        max_ratio = max(max_ratio, float(ratio.max()))
        for j in np.nonzero(ratio > 1.0 + SUBLUMINAL_TOL)[0]:
            violations.append([float(pts[j]), float(pts[i])])
    return AuditReport(add_rule, int(grid_resolution), max_ratio, violations)
