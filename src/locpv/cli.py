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


# option -> family -> (fewest numbers, most numbers, keys, whether it takes an envelope);
# a tanh ramp's numbers are its value, step, center and width
SPECS = {
    "--analytic": {
        "trans": (0, 0, ("a",), True),
        "translational": (0, 0, ("a",), True),
        "damped": (0, 0, ("a", "lambda"), True),
        "kink": (0, 0, ("a", "lambda"), False),
        "harmonic": (0, 0, ("omega", "k"), False),
    },
    "--n": {"const": (1, 1, (), False), "linear": (2, 2, (), False), "tanh": (2, 4, (), False)},
    "--speed": {"const": (1, 1, (), False), "tanh": (2, 4, (), False)},
    "--initial": {"gauss": (1, 3, (), False)},
}


def parse_spec(option, text):
    """Split the inline spec ``family:tok,tok,...`` of an option by its families.

    A token is a number, ``key=number`` or a bare envelope word; empty tokens are
    skipped.  Returns the family, its numbers in order, its keys' numbers and its
    envelope (None if not given).
    """
    families = SPECS[option]
    family, colon, rest = text.partition(":")
    if not colon or family not in families:
        raise UsageError(f"{option} spec must be family:values with a family in "
                         f"{', '.join(families)}, got {text!r}")
    lo, hi, keys, takes_envelope = families[family]
    takes = (f"{family} takes {lo}..{hi} numbers, keys {list(keys)} and "
             f"{'at most one' if takes_envelope else 'no'} envelope")
    nums, params, envelope = [], {}, None
    for tok in filter(None, (t.strip() for t in rest.split(","))):
        key, eq, value = (s.strip() for s in tok.partition("="))
        try:
            num = float(value if eq else tok)
        except ValueError:
            num = None
        if num is not None and not eq:
            nums.append(num)
        elif num is not None and key in keys and key not in params:
            params[key] = num
        elif not eq and takes_envelope and envelope is None:
            envelope = tok
        else:
            raise UsageError(f"bad token {tok!r} in {text!r}: {takes}")
    if not lo <= len(nums) <= hi:
        raise UsageError(f"{takes}, got {text!r}")
    return family, nums, params, envelope


def parse_analytic(text):
    if text.startswith("custom:"):
        try:
            return CustomField(text[len("custom:"):])
        except (ValueError, SyntaxError) as exc:
            raise UsageError(f"bad custom expression: {exc}") from exc
    family, _, params, envelope = parse_spec("--analytic", text)
    a, lam = params.get("a", 1.0), params.get("lambda", 0.0)
    envelope = envelope or "gauss"
    if family == "damped":
        return DampedTranslational(a=a, lam=lam, envelope=envelope)
    if family == "kink":
        return KinkDamped(a=a, lam=lam)
    if family == "harmonic":
        return Harmonic(omega=params.get("omega", 1.0), k=params.get("k", 1.0))
    return Translational(a=a, envelope=envelope)


def parse_medium(text, c):
    family, nums, _, _ = parse_spec("--n", text)
    cls = {"const": media_mod.ConstantIndex, "linear": media_mod.LinearIndex,
           "tanh": media_mod.TanhRampIndex}[family]
    return cls(*nums, c=c)


def parse_speed(text):
    # a bare number is a constant speed
    family, vals, _, _ = parse_spec("--speed", text if ":" in text else "const:" + text)
    if family == "const":
        return vals[0]
    a0, da, center, width = vals + [0.0, 1.0][len(vals) - 2:]
    if width == 0 or not np.isfinite(vals).all():
        raise UsageError(f"speed ramp width must be nonzero and values finite in {text!r}")

    def speed(x):
        # a0 + ... may overflow to inf, which SimSpec rejects
        with np.errstate(over="ignore"):
            return a0 + 0.5 * da * (1.0 + np.tanh((x - center) / width))

    return speed


def parse_initial(text):
    _, vals, _, _ = parse_spec("--initial", text)
    center, width, amp = vals + [1.0, 1.0][len(vals) - 1:]
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


def _add_simulate_flags(p, out_required):
    """The simulate flags, which --config lines set as well."""
    p.add_argument("--grid")
    p.add_argument("--speed", default="const:1")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--initial", default="gauss:0,1")
    p.add_argument("--moving", choices=["right", "left", "standing"], default="right")
    p.add_argument("--boundary", choices=["Periodic", "Reflecting"], default="Periodic")
    p.add_argument("--out", required=out_required)


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
    _add_simulate_flags(p, out_required=True)

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


class _ConfigParser(argparse.ArgumentParser):
    """Reads --config lines as simulate flags; a bad line is a usage error."""

    def error(self, message):
        raise UsageError(f"bad config: {message}")


def _apply_config(args):
    flags = []
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            k, v = (s.strip() for s in line.split("=", 1))
            flags.append(f"--{k}={v}")
    parser = _ConfigParser(add_help=False, allow_abbrev=False)
    _add_simulate_flags(parser, out_required=False)
    parser.parse_args(flags, namespace=args)  # only the flags given override


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
    rows = media_mod.dynamic_separation(medium, args.dx, xi_list)
    media_mod.save_separation_csv(args.out, rows)
    return 0


def _cmd_simulate(args):
    grid = parse_grid(args.grid)
    speed = parse_speed(args.speed)
    profile = parse_initial(args.initial)

    h = 1e-6 * grid.dx
    sgn = -1.0 if args.moving == "right" else 1.0

    def rate(x):  # h may underflow to 0, or a * dpsi/dx overflow: run() reports it
        if args.moving == "standing":
            return np.zeros_like(np.asarray(x, float))
        a = speed(x) if callable(speed) else speed
        with np.errstate(all="ignore"):
            return sgn * a * ((profile(x + h) - profile(x - h)) / (2.0 * h))

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
