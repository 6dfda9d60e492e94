"""Batch command-line surface.

Subcommands: pv, track, boost, medium, simulate, wavelength.  Field input is
either a grid CSV (--in) or an inline analytic spec (--analytic, grammar
``family:envelope,key=value,...``).  Exit codes: 0 success, 1 domain error
(one machine-parseable ``error: <Token>`` line on stderr), 2 usage, 3 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import media as media_mod
from .errors import LocpvError
from .field import (
    ANALYTIC_NMAX,
    SAMPLED_NMAX,
    CustomField,
    DampedTranslational,
    Grid1x1,
    Harmonic,
    KinkDamped,
    SampledField,
    Translational,
    load_grid_csv,
    save_grid_csv,
)
from .phasevel import classical_diagnostics, pv_field
from .relativity import BoostFrame, add_v0, add_vI_freewave, subluminality_audit
from .simulate import SimSpec, run as sim_run
from .tracker import Attribute, find_seed, track

__all__ = ["parse_args", "main"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# inline grammars
# ---------------------------------------------------------------------------


def parse_grid(text) -> Grid1x1:
    parts = text.split("x")
    if len(parts) != 2:
        raise UsageError(f"grid must be 'x0,dx,nx'x't0,dt,nt', got {text!r}")
    try:
        x0, dx, nx = parts[0].split(",")
        t0, dt, nt = parts[1].split(",")
        return Grid1x1(float(x0), float(dx), int(nx), float(t0), float(dt), int(nt))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad grid spec {text!r}: {exc}") from exc


_FAMILY_KEYS = {
    "trans": {"a"},
    "damped": {"a", "lambda"},
    "kink": {"a", "lambda"},
    "harmonic": {"omega", "k"},
}


def parse_analytic(text):
    if ":" not in text:
        raise UsageError("analytic spec must be family:envelope,key=value,...")
    family, rest = text.split(":", 1)
    family = {"translational": "trans"}.get(family, family)
    if family == "custom":
        try:
            return CustomField(rest)
        except (ValueError, SyntaxError) as exc:
            raise UsageError(f"bad custom expression: {exc}") from exc
    envelope = None
    params = {}
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" in tok:
            k, v = tok.split("=", 1)
            try:
                params[k.strip()] = float(v)
            except ValueError as exc:
                raise UsageError(f"bad parameter {tok!r}") from exc
        else:
            envelope = tok
    if family not in _FAMILY_KEYS:
        raise UsageError(f"unknown analytic family {family!r}")
    unknown = set(params) - _FAMILY_KEYS[family]
    if unknown:
        raise UsageError(f"unknown keys for {family}: {sorted(unknown)}")
    if envelope is not None and family not in ("trans", "damped"):
        raise UsageError(f"{family} takes no envelope, got {envelope!r}")
    envelope = envelope or "gauss"
    try:
        if family == "trans":
            return Translational(a=params.get("a", 1.0), envelope=envelope)
        if family == "damped":
            return DampedTranslational(
                a=params.get("a", 1.0), lam=params.get("lambda", 0.0), envelope=envelope
            )
        if family == "kink":
            return KinkDamped(a=params.get("a", 1.0), lam=params.get("lambda", 0.0))
        return Harmonic(omega=params.get("omega", 1.0), k=params.get("k", 1.0))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


_MEDIA_FAMILIES = {
    "const": (media_mod.ConstantIndex, 1),
    "linear": (media_mod.LinearIndex, 2),
    "tanh": (media_mod.TanhRampIndex, 4),
}


def parse_medium(text, c):
    if ":" not in text:
        raise UsageError("medium spec must be family:params, e.g. linear:1,0.1")
    family, rest = text.split(":", 1)
    if family not in _MEDIA_FAMILIES:
        raise UsageError(f"unknown medium family {family!r}")
    cls, nargs = _MEDIA_FAMILIES[family]
    try:
        vals = [float(v) for v in rest.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad medium parameters {rest!r}") from exc
    if len(vals) > nargs or not vals:
        raise UsageError(f"{family} medium takes 1..{nargs} parameters")
    try:
        return cls(*vals, c=c)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def parse_speed(text):
    if ":" not in text:
        try:
            return float(text)
        except ValueError as exc:
            raise UsageError(f"bad speed spec {text!r}") from exc
    family, rest = text.split(":", 1)
    vals = [float(v) for v in rest.split(",") if v.strip()]
    if family == "const" and len(vals) == 1:
        return vals[0]
    if family == "tanh" and 2 <= len(vals) <= 4:
        a0, da = vals[0], vals[1]
        center = vals[2] if len(vals) > 2 else 0.0
        width = vals[3] if len(vals) > 3 else 1.0
        return lambda x: a0 + 0.5 * da * (1.0 + np.tanh((x - center) / width))
    raise UsageError(f"bad speed spec {text!r}")


def parse_initial(text):
    if ":" not in text:
        raise UsageError("initial spec must be gauss:center,width[,amp]")
    family, rest = text.split(":", 1)
    vals = [float(v) for v in rest.split(",") if v.strip()]
    if family != "gauss" or not 1 <= len(vals) <= 3:
        raise UsageError(f"bad initial spec {text!r}")
    center = vals[0]
    width = vals[1] if len(vals) > 1 else 1.0
    amp = vals[2] if len(vals) > 2 else 1.0
    if width == 0 or not np.isfinite(vals).all():
        raise UsageError(f"initial width must be nonzero and values finite in {text!r}")

    def profile(x):
        # far out, (x - center) / width overflows to inf, where the float Gaussian is 0
        with np.errstate(over="ignore"):
            return amp * np.exp(-(((x - center) / width) ** 2))

    return profile


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_source(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--analytic", help="inline analytic family spec")
    grp.add_argument("--in", dest="infile", help="grid CSV input path")


def build_parser():
    parser = argparse.ArgumentParser(prog="locpv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pv", help="phase-velocity field over a grid")
    _add_source(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--grid", help="x0,dx,nx x t0,dt,nt (required with --analytic)")
    p.add_argument("--eps-den", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("track", help="follow a labelled attribute through time")
    _add_source(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--level", type=float, required=True, help="target derivative value")
    p.add_argument("--seed-near", required=True, help="x,t to start the seed search")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("boost", help="relativistic additions and audits")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--audit", choices=["order0", "order1"])
    grp.add_argument("--add", choices=["order0", "order1"])
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--v", type=float, help="velocity to transform (with --add)")
    p.add_argument("--V", type=float, help="frame speed (with --add)")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--out")

    p = sub.add_parser("medium", help="inhomogeneous-medium separation table")
    p.add_argument("--n", required=True, help="e.g. const:1.5 | linear:1,0.1 | tanh:1,0.5,0,1")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--xi", required=True, help="comma-separated xi values")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="leapfrog wave-equation run")
    p.add_argument("--config", help="flat key=value file overriding flags")
    p.add_argument("--grid")
    p.add_argument("--speed", default="const:1")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--initial", default="gauss:0,1")
    p.add_argument("--moving", choices=["right", "left", "standing"], default="right")
    p.add_argument("--boundary", choices=["Periodic", "Reflecting"], default="Periodic")
    p.add_argument("--out", required=True)

    p = sub.add_parser("wavelength", help="local-wavelength diagnostics")
    _add_source(p)
    p.add_argument("--grid")
    p.add_argument("--out", required=True)
    p.add_argument("--group-out", help="optional output for the transport velocity U")
    return parser


def parse_args(argv) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    nmax = ANALYTIC_NMAX if getattr(args, "analytic", None) else SAMPLED_NMAX
    if getattr(args, "order", None) is not None and not 0 <= args.order <= nmax:
        raise UsageError(f"--order must be in 0..{nmax}")
    if getattr(args, "infile", None) and not os.path.exists(args.infile):
        raise FileNotFoundError(args.infile)
    if args.command == "simulate" and args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(args.config)
        _apply_config(args)
    if args.command == "simulate" and not args.grid:
        raise UsageError("simulate requires --grid (flag or config)")
    return args


def _apply_config(args):
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            k, v = (s.strip() for s in line.split("=", 1))
            if k == "gamma":
                args.gamma = float(v)
            elif k in ("grid", "speed", "initial", "moving", "boundary", "out"):
                setattr(args, k, v)
            else:
                raise UsageError(f"unknown config key {k!r}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _load_field(args):
    if args.analytic:
        return parse_analytic(args.analytic)
    grid, values, _ = load_grid_csv(args.infile)
    return SampledField(grid, values)


def _resolve_grid(args, fld):
    grid = parse_grid(args.grid) if args.grid else fld.grid
    if grid is None:
        raise UsageError("--grid is required with --analytic")
    return grid


def _cmd_pv(args):
    fld = _load_field(args)
    grid = _resolve_grid(args, fld)
    pvf = pv_field(fld, grid, args.order, eps_den=args.eps_den)
    pvf.save_csv(args.out)
    return 0


def _cmd_track(args):
    fld = _load_field(args)
    try:
        x_near, t0 = (float(v) for v in args.seed_near.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --seed-near {args.seed_near!r}") from exc
    x0, t0 = find_seed(fld, args.order, args.level, (x_near, t0))
    traj = track(
        fld, Attribute(args.order, args.level, x0, t0), args.t_end, step=args.step
    )
    traj.save_csv(args.out)
    return 0


def _cmd_boost(args):
    if args.audit:
        report = subluminality_audit(args.audit, args.resolution, c=args.c)
        text = report.to_json()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
    if args.v is None or args.V is None:
        raise UsageError("--add requires --v and --V")
    frame = BoostFrame(args.V, args.c)
    if args.add == "order0":
        out = add_v0(frame, args.v)
    else:
        out = add_vI_freewave(frame, args.v)
    print(f"{out:.15g}")
    return 0


def _cmd_medium(args):
    medium = parse_medium(args.n, args.c)
    try:
        xi_list = [float(v) for v in args.xi.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --xi list {args.xi!r}") from exc
    if any(xi == 0 for xi in xi_list) or not xi_list:
        raise UsageError("--xi values must be nonzero")
    rows = media_mod.dynamic_separation(medium, args.dx, xi_list)
    media_mod.save_separation_csv(args.out, rows)
    return 0


def _cmd_simulate(args):
    grid = parse_grid(args.grid)
    speed = parse_speed(args.speed)
    profile = parse_initial(args.initial)

    h = 1e-6 * grid.dx

    def d_profile(x):  # h may underflow to 0: run() then reports non-finite data
        with np.errstate(all="ignore"):
            return (profile(x + h) - profile(x - h)) / (2.0 * h)

    if args.moving == "standing":
        rate = lambda x: np.zeros_like(np.asarray(x, float))
    else:
        sgn = -1.0 if args.moving == "right" else 1.0

        def rate(x, _sgn=sgn):
            a = speed(x) if callable(speed) else speed
            return _sgn * a * d_profile(x)

    spec = SimSpec(grid, speed, args.gamma, profile, rate, args.boundary)
    fld = sim_run(spec)
    save_grid_csv(args.out, grid, fld.values, field_name="psi")
    return 0


def _cmd_wavelength(args):
    fld = _load_field(args)
    grid = _resolve_grid(args, fld)
    diag = classical_diagnostics(fld, grid)
    save_grid_csv(args.out, grid, diag.local_wavelength, field_name="lambda_w")
    if args.group_out:
        save_grid_csv(args.group_out, grid, diag.classical_group_velocity, field_name="U")
    if diag.omega_over_k is not None:
        print(f"omega_over_k={diag.omega_over_k:.15g}")
    return 0


_COMMANDS = {
    "pv": _cmd_pv,
    "track": _cmd_track,
    "boost": _cmd_boost,
    "medium": _cmd_medium,
    "simulate": _cmd_simulate,
    "wavelength": _cmd_wavelength,
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:  # every ValueError in locpv validates input
        print(f"error: UsageError: {exc}", file=sys.stderr)
        return 2
    except LocpvError as exc:
        print(f"error: {exc.token}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: FileNotFound: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
