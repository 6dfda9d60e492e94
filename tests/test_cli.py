"""Command-line surface: grammars, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locpv
from locpv.cli import UsageError, main, parse_analytic, parse_grid, parse_medium
from locpv.field import (
    DampedTranslational,
    Grid1x1,
    Harmonic,
    load_grid_csv,
    sample,
    save_grid_csv,
)
from locpv.simulate import SimSpec, run as simulate_run


def run_cli(argv):
    return main(argv)


def run_python(*args):
    """Run a child interpreter that imports the same locpv as this process,
    installed or not."""
    src = str(Path(locpv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_child(argv):
    """Run the CLI in a child interpreter."""
    return run_python("-m", "locpv.cli", *argv)


class TestGrammars:
    def test_grid_grammar(self):
        g = parse_grid("0,0.01,200x0,0.01,200")
        assert (g.x0, g.dx, g.nx, g.t0, g.dt, g.nt) == (0.0, 0.01, 200, 0.0, 0.01, 200)

    def test_grid_grammar_rejects(self):
        with pytest.raises(UsageError):
            parse_grid("0,0.01,200")
        with pytest.raises(UsageError):
            parse_grid("0,0.01x0,0.01,5")

    def test_analytic_grammar(self):
        fld = parse_analytic("damped:gauss,a=1,lambda=0.1")
        assert isinstance(fld, DampedTranslational)
        assert (fld.a, fld.lam, fld.envelope) == (1.0, 0.1, "gauss")
        assert isinstance(parse_analytic("harmonic:omega=3,k=1.5"), Harmonic)

    def test_analytic_grammar_rejects(self):
        with pytest.raises(UsageError):
            parse_analytic("vortex:gauss,a=1")
        with pytest.raises(UsageError):
            parse_analytic("trans:gauss,omega=3")

    def test_custom_expression_passthrough(self):
        fld = parse_analytic("custom:sin(3*t - 1.5*x)")
        assert fld.eval(0.0, 0.0) == pytest.approx(0.0)

    def test_custom_exponent_in_x_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_analytic("custom:x**x")

    def test_medium_grammar(self):
        m = parse_medium("linear:1,0.1", c=1.0)
        assert m.n(2.0) == pytest.approx(1.2)
        with pytest.raises(UsageError):
            parse_medium("grin:1,2,3", c=1.0)


class TestExitCodes:
    def test_order_out_of_bounds_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            ["pv", "--analytic", "trans:gauss,a=1", "--order", "9",
             "--grid", "0,0.1,10x0,0.1,10", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "error: UsageError" in capsys.readouterr().err

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = run_cli(
            ["pv", "--in", str(tmp_path / "absent.csv"), "--order", "0",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 3
        assert "error: FileNotFound" in capsys.readouterr().err

    def test_cfl_violation_is_domain_error(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--grid", "0,0.01,100x0,0.015,50",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines()[0] == "error: CFLViolation"

    def test_no_bracket_is_domain_error(self, tmp_path, capsys):
        code = run_cli(
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0",
             "--level", "2.0", "--seed-near", "0,0", "--t-end", "1",
             "--out", str(tmp_path / "t.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines()[0] == "error: NoBracket"

    @pytest.mark.parametrize(
        "argv",
        [
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
             "--seed-near", "1,0", "--t-end", "-1", "--out", "OUT"],
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
             "--seed-near", "1,0", "--t-end", "1", "--step", "-0.1", "--out", "OUT"],
            ["boost", "--add", "order0", "--v", "0.5", "--V", "1.5"],
            ["boost", "--add", "order0", "--v", "0.5", "--V", "0.5", "--c", "-1"],
            ["boost", "--audit", "order0", "--resolution", "1"],
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--initial", "gauss:-2.5,0",
             "--out", "OUT"],
            ["pv", "--analytic", "custom:1/0*x", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "trans:foo,a=1", "--order", "0",
             "--grid=-2,0.01,40x0,0.01,20", "--out", "OUT"],
            ["track", "--analytic", "damped:lorentz", "--order", "0", "--level", "0.5",
             "--seed-near", "1,0", "--t-end", "1", "--out", "OUT"],
            # kink and harmonic have no envelope to name
            ["pv", "--analytic", "harmonic:foo,omega=3,k=1.5", "--order", "0",
             "--grid=-2,0.01,40x0,0.01,20", "--out", "OUT"],
            ["pv", "--analytic", "kink:lorentz,a=1,lambda=0.1", "--order", "0",
             "--grid=-2,0.01,40x0,0.01,20", "--out", "OUT"],
            # non-finite values fail every comparison a range check makes
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
             "--seed-near", "1,0", "--t-end", "nan", "--out", "OUT"],
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
             "--seed-near", "1,0", "--t-end", "1", "--step", "nan", "--out", "OUT"],
            ["pv", "--analytic", "trans:gauss,a=1", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--eps-den", "nan", "--out", "OUT"],
            ["medium", "--n", "linear:1,0.1", "--dx", "nan", "--xi", "1", "--out", "OUT"],
            ["medium", "--n", "linear:1,0.1", "--dx", "inf", "--xi", "1", "--out", "OUT"],
            ["medium", "--n", "linear:1,0.1", "--dx", "2", "--xi", "1,inf", "--out", "OUT"],
            ["boost", "--add", "order0", "--v=0.5", "--V=nan"],
            ["boost", "--add", "order0", "--v=inf", "--V=0.5"],
            ["boost", "--add", "order1", "--v=nan", "--V=0.5"],
            ["pv", "--analytic", "trans:gauss,a=nan", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "harmonic:omega=nan,k=1.5", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "harmonic:omega=3,k=inf", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "damped:gauss,a=1,lambda=inf", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "kink:a=1,lambda=nan", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
            ["medium", "--n", "linear:nan,0.1", "--dx", "2", "--xi", "1", "--out", "OUT"],
            ["medium", "--n", "tanh:1,0.5,0,inf", "--dx", "2", "--xi", "1", "--out", "OUT"],
            ["medium", "--n", "const:inf", "--dx", "2", "--xi", "1", "--out", "OUT"],
            ["medium", "--n", "linear:1,0.1", "--c", "inf", "--dx", "2", "--xi", "1",
             "--out", "OUT"],
            # a nan target or seed point never brackets a sign change
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "nan",
             "--seed-near", "1,0", "--t-end", "1", "--out", "OUT"],
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
             "--seed-near", "nan,0", "--t-end", "1", "--out", "OUT"],
            ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
             "--seed-near", "1,-inf", "--t-end", "1", "--out", "OUT"],
            ["pv", "--analytic", "trans:gauss,a=1", "--order", "1",
             "--grid=0,inf,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "trans:gauss,a=1", "--order", "1",
             "--grid=nan,0.1,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "trans:gauss,a=1", "--order", "1",
             "--grid=0,0.1,10x-inf,0.1,10", "--out", "OUT"],
            # a non-finite damping or wave speed, from a flag or a config line
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--gamma=nan", "--out", "OUT"],
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--gamma=inf", "--out", "OUT"],
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--config", "CFG", "--out", "OUT"],
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--speed=inf", "--out", "OUT"],
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--speed=tanh:1,inf", "--out", "OUT"],
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--speed=nan", "--out", "OUT"],
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--speed=tanh:1,0.5,0,0",
             "--out", "OUT"],
            # at most one envelope, and each key once
            ["pv", "--analytic", "trans:gauss,exp", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
            ["pv", "--analytic", "trans:a=1,a=2", "--order", "0",
             "--grid", "0,0.1,10x0,0.1,10", "--out", "OUT"],
        ],
        ids=["t-end", "step", "frame-speed", "light-speed", "resolution", "initial",
             "zero-division", "envelope", "damped-envelope", "harmonic-envelope",
             "kink-envelope", "nan-t-end", "nan-step", "nan-eps-den", "nan-dx", "inf-dx",
             "inf-xi", "nan-frame-speed", "inf-speed-order0", "nan-speed-order1",
             "nan-a", "nan-omega", "inf-k", "inf-lambda", "nan-kink-lambda",
             "nan-medium-index", "inf-ramp-width", "inf-constant-index", "inf-light-speed",
             "nan-level", "nan-seed-x", "inf-seed-t", "inf-grid-dx", "nan-grid-x0",
             "inf-grid-t0", "nan-gamma", "inf-gamma", "nan-gamma-config", "inf-wave-speed",
             "inf-ramp-step", "nan-wave-speed", "zero-ramp-width", "two-envelopes",
             "repeated-key"],
    )
    def test_invalid_value_is_usage_error(self, argv, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("gamma=nan\n")
        paths = {"OUT": str(tmp_path / "o.csv"), "CFG": str(tmp_path / "c.cfg")}
        argv = [paths.get(a, a) for a in argv]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [err[-1]]
        assert err[-1].startswith("error: UsageError: ")

    def test_two_row_csv_is_stencil_clipped(self, tmp_path, capsys):
        # a 2-row grid is too short for the t-stencil of every velocity
        field_csv = tmp_path / "field.csv"
        g = Grid1x1(-2.0, 0.05, 81, 0.0, 0.05, 2)
        save_grid_csv(field_csv, g, sample(Harmonic(3.0, 1.5), g).values)
        code = run_cli(
            ["pv", "--in", str(field_csv), "--order", "0", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: StencilClipped"]

    def test_math_domain_cells_are_masked_without_warnings(self, tmp_path):
        # log(x) is nan for x < 0 and -inf at 0; in a child, so that numpy
        # warnings would reach its stderr
        out = tmp_path / "c.csv"
        proc = run_child(["pv", "--analytic", "custom:log(x)*t", "--order", "0",
                          "--grid=-1,0.5,5x0,0.1,5", "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, b"")
        _, values, _ = load_grid_csv(out)
        assert np.isnan(values[:, :3]).all() and np.isfinite(values[1:, 3:]).all()

    def test_wavelength_of_a_field_nan_in_its_grid_prints_one_error_line(self, tmp_path):
        # log(x) is nan for x < 0; in a child, so that numpy warnings would
        # reach its stderr
        proc = run_child(["wavelength", "--analytic", "custom:log(x)*sin(3*t-2*x)",
                          "--grid=-1,0.01,300x0,0.01,50", "--out", str(tmp_path / "w.csv")])
        assert (proc.returncode, proc.stderr) == (
            2, b"error: UsageError: field values on the grid contain non-finite values\n")

    def test_track_past_a_custom_domain_stops_at_the_singularity(self, tmp_path):
        # the level sqrt(x) + t = 1 reaches x = 0 at t = 1, where the field's
        # jet turns nan; in a child, so that numpy warnings would reach its stderr
        out = tmp_path / "tr.csv"
        proc = run_child(["track", "--analytic", "custom:sqrt(x)+t", "--order", "0",
                          "--level", "1", "--seed-near", "1,0", "--t-end", "2",
                          "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, b"")
        lines = out.read_text().splitlines()
        assert lines[-2] == "# terminated_by=SingularityHit"
        assert np.isfinite(np.array([row.split(",") for row in lines[1:-2]], float)).all()

    def test_medium_with_a_zero_index_prints_one_error_line(self, tmp_path):
        # n(2) = 1 - 0.5 * 2 = 0; in a child, so that numpy warnings would
        # reach its stderr
        proc = run_child(["medium", "--n", "linear:1,-0.5", "--c", "1", "--dx", "2",
                          "--xi", "1", "--out", str(tmp_path / "m.csv")])
        assert (proc.returncode, proc.stderr) == (1, b"error: DegenerateDenominator\n")

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            # a subnormal ramp width overflows (x - center) / width
            (["medium", "--n", "tanh:1,0.5,0,1e-320", "--c", "1", "--dx", "2", "--xi", "1",
              "--out", "OUT"], 1, "error: DegenerateDenominator"),
            (["boost", "--audit", "order1", "--resolution", "20", "--c", "inf", "--out", "OUT"],
             2, "error: UsageError: light speed must be positive and finite"),
            # the step is so short that displacement over time overflows
            (["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
              "--seed-near", "1.0,0.0", "--t-end", "3", "--step", "1e-320", "--out", "OUT"],
             1, "error: DegenerateTrajectory"),
            # c**2 underflows to 0, and overflows, where the addition rules divide by it
            (["boost", "--audit", "order0", "--resolution", "20", "--c", "1e-320", "--out", "OUT"],
             2, "error: UsageError: light speed squared must be a positive finite float"),
            (["boost", "--add", "order1", "--v", "0.5", "--V", "0.2", "--c", "1e200"],
             2, "error: UsageError: light speed squared must be a positive finite float"),
            # the Gaussian's float value is 0 wherever (x - center) / width
            # overflows: the run goes on, silently
            (["simulate", "--grid=-5,0.025,400x0,0.02,400", "--initial", "gauss:-2.5,1e-320",
              "--out", "OUT"], 0, None),
            (["simulate", "--grid=-5,0.025,400x0,0.02,400", "--initial", "gauss:1e308,0.7",
              "--out", "OUT"], 0, None),
            (["simulate", "--grid=-5,0.025,400x0,0.02,400", "--initial", "gauss:0,1,inf",
              "--out", "OUT"],
             2, "error: UsageError: initial width must be nonzero and values finite in "
                "'gauss:0,1,inf'"),
            # 2 * gamma * psi_t overflows: the first step is inf and nan
            (["simulate", "--grid=-5,0.025,400x0,0.02,400", "--initial", "gauss:-2.5,0.5",
              "--gamma=1e308", "--out", "OUT"], 1, "error: NonfiniteBlowup"),
            # the initial rate's difference step 1e-6 * dx underflows to 0
            (["simulate", "--grid=-5,1e-320,40x0,1e-320,40", "--initial", "gauss:-2.5,0.7",
              "--out", "OUT"], 2, "error: UsageError: initial data must be finite"),
            # c/(xi*dx) overflows in the printed relation, and the slowness integral
            # over [0, 5e-324] is 0
            (["medium", "--n", "linear:1,0.1", "--c", "1", "--dx=5e-324", "--xi", "1",
              "--out", "OUT"], 1, "error: DegenerateDenominator"),
            (["medium", "--n", "linear:1,0.1", "--c", "1", "--dx=1e-310", "--xi", "1",
              "--out", "OUT"], 1, "error: DegenerateDenominator"),
            # n(x) * x / c overflows where the rederived PV is taken
            (["medium", "--n", "linear:1,0.1", "--c", "1e-320", "--dx", "2", "--xi", "1",
              "--out", "OUT"], 1, "error: DegenerateDenominator"),
            (["medium", "--n", "linear:1,0.1", "--c", "1", "--dx=1e308", "--xi", "1",
              "--out", "OUT"], 1, "error: DegenerateDenominator"),
            # width ** k overflows a float power; a ramp this wide is flat to double
            # precision, so the run writes the constant medium's table
            (["medium", "--n", "tanh:1,0.5,0,1e308", "--c", "1", "--dx", "2", "--xi", "1",
              "--out", "OUT"], 0, None),
            # samples near the largest double overflow in the FD sums and between
            # zero crossings: inf or nan cells, no warning
            (["pv", "--in", "IN", "--order", "0", "--out", "OUT"], 0, None),
            (["wavelength", "--in", "IN", "--out", "OUT"], 0, None),
            # n0 + slope * dx overflows to inf, which no velocity has
            (["medium", "--n=linear:1e308,1e308", "--c=1", "--dx=2", "--xi=1", "--out", "OUT"],
             1, "error: DegenerateDenominator"),
            # (x - center) / width overflows, where the ramp is flat
            (["simulate", "--grid=-5,0.5,20x0,0.25,20", "--speed=tanh:1,0.5,0,1e-320",
              "--out", "OUT"], 0, None),
            # the speed, not the initial rate built from it, is the bad value
            (["simulate", "--grid=-5,0.5,20x0,0.25,20", "--speed=nan", "--out", "OUT"],
             2, "error: UsageError: wave speed must be finite at every grid node"),
            # the profile's difference quotient overflows, and 0 * inf is nan
            (["simulate", "--grid=-5,0.5,20x0,0.25,20", "--speed=0",
              "--initial=gauss:1e-6,1e-6,1e308", "--out", "OUT"],
             2, "error: UsageError: initial data must be finite"),
        ],
        ids=["subnormal-ramp-width", "audit-infinite-light-speed", "subnormal-track-step",
             "audit-subnormal-light-speed", "add-huge-light-speed", "subnormal-initial-width",
             "far-initial-center", "infinite-initial-amplitude", "huge-gamma",
             "subnormal-grid-steps", "subnormal-medium-dx", "tiny-medium-dx",
             "subnormal-light-speed", "huge-medium-dx", "huge-ramp-width", "huge-samples-pv",
             "huge-samples-wavelength", "huge-linear-index", "subnormal-speed-ramp-width",
             "nan-wave-speed", "huge-initial-slope"],
    )
    def test_edge_values_print_one_error_line(self, argv, code, line, tmp_path):
        # in a child, so that numpy warnings would reach its stderr; a None
        # line means exit 0 with an empty stderr and the output written. IN is
        # a 20x20 grid of samples uniform in +-1.7e308
        out, src = tmp_path / "o.csv", tmp_path / "f.csv"
        rng = np.random.default_rng(0)
        save_grid_csv(src, Grid1x1(0.0, 0.1, 20, 0.0, 0.1, 20),
                      1.7e308 * rng.uniform(-1.0, 1.0, (20, 20)))
        proc = run_child([{"OUT": str(out), "IN": str(src)}.get(a, a) for a in argv])
        assert (proc.returncode, proc.stderr.decode()) == (code, line + "\n" if line else "")
        assert out.exists() == (line is None)

    def test_unknown_flag_exits_2(self):
        assert run_child(["pv", "--frobnicate"]).returncode == 2

    def test_zero_width_initial_prints_one_error_line(self, tmp_path):
        # in a child, so that numpy warnings would reach its stderr
        proc = run_child(
            ["simulate", "--grid=-5,0.025,400x0,0.02,400", "--initial", "gauss:-2.5,0",
             "--out", str(tmp_path / "o.csv")]
        )
        assert proc.returncode == 2
        err = proc.stderr.decode().splitlines()
        assert len(err) == 1 and err[0].startswith("error: UsageError: ")


class TestCommands:
    def test_pv_zero_eps_den_masks_the_poles(self, tmp_path):
        # psi_x = 0 exactly on the diagonal x = t; in a child, so that numpy
        # warnings would reach its stderr
        out = tmp_path / "v.csv"
        proc = run_child(
            ["pv", "--analytic", "damped:gauss,a=1,lambda=0.1", "--order", "0",
             "--grid=0,0.01,4x0,0.01,3", "--eps-den", "0", "--out", str(out)]
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        _, values, _ = load_grid_csv(out)
        assert np.isnan(np.diagonal(values)).all()
        assert np.isfinite(values[~np.eye(3, 4, dtype=bool)]).all()

    def test_pv_analytic_writes_field_csv(self, tmp_path):
        out = tmp_path / "v0.csv"
        code = run_cli(
            ["pv", "--analytic", "harmonic:omega=3,k=1.5", "--order", "0",
             "--grid", "0,0.07,40x0,0.05,30", "--out", str(out)]
        )
        assert code == 0
        grid, vals, name = load_grid_csv(out)
        assert name == "v0"
        assert (grid.nx, grid.nt) == (40, 30)
        finite = np.isfinite(vals)
        assert np.allclose(vals[finite], 2.0, atol=1e-10)

    def test_medium_table(self, tmp_path):
        out = tmp_path / "sep.csv"
        code = run_cli(
            ["medium", "--n", "linear:1,0.1", "--c", "1", "--dx", "2",
             "--xi", "1,10,100", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "xi,v0_global,vI_global,vI_rederived"
        assert len(lines) == 4
        v0s = {line.split(",")[1] for line in lines[1:]}
        assert len(v0s) == 1

    def test_boost_audit_json(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(
            ["boost", "--audit", "order0", "--resolution", "200", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["violations"] == []
        assert data["max_abs_vprime_over_c"] <= 1.0 + 1e-12

    def test_boost_add(self, capsys):
        code = run_cli(["boost", "--add", "order0", "--v", "0.5", "--V", "0.5"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.8)

    @pytest.mark.parametrize("rule", ["order0", "order1"])
    def test_boost_far_from_unit_light_speed_is_no_pole(self, rule, capsys, tmp_path):
        # the pole test reads speeds in units of c, so neither run is a pole
        assert run_cli(["boost", "--add", rule, "--v=1e13", "--V=0", "--c=1e14"]) == 0
        assert abs(float(capsys.readouterr().out)) == 1e13
        reports = []
        for c, name in [("1e150", "huge.json"), ("1", "unit.json")]:
            out = tmp_path / name
            argv = ["boost", "--audit", rule, "--resolution", "20", "--c", c, "--out", str(out)]
            assert run_cli(argv) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["violations"] == []
        assert reports[0]["max_abs_vprime_over_c"] == pytest.approx(
            reports[1]["max_abs_vprime_over_c"], rel=1e-12)

    def test_simulate_then_pv_round_trip(self, tmp_path):
        sim_out = tmp_path / "sim.csv"
        code = run_cli(
            ["simulate", "--grid=-5,0.05,200x0,0.04,200",
             "--initial", "gauss:-2.5,0.7", "--out", str(sim_out)]
        )
        assert code == 0
        pv_out = tmp_path / "v0.csv"
        code = run_cli(["pv", "--in", str(sim_out), "--order", "0", "--out", str(pv_out)])
        assert code == 0
        grid, vals, name = load_grid_csv(pv_out)
        assert name == "v0"
        assert (grid.nx, grid.nt) == (200, 200)

    def test_simulate_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# leapfrog settings\n"
            "grid=-5,0.05,200x0,0.04,100\n"
            "gamma=0.1\n"
            "initial=gauss:-2.5,0.7\n"
            "boundary=Reflecting\n"
        )
        out = tmp_path / "sim.csv"
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        grid, vals, _ = load_grid_csv(out)
        assert (grid.nx, grid.nt) == (200, 100)
        assert np.all(vals[:, 0] == 0.0)  # reflecting ends pinned

    @pytest.mark.parametrize("lines, code", [("moving=up\n", 2), ("gam=0.1\n", 2),
                                             ("gamma=0.1\n", 0)],
                             ids=["bad-choice", "unknown-key", "override"])
    def test_config_lines_get_the_flags_checks_and_override_them(self, lines, code, tmp_path):
        # the flags ask for an undamped run; a config line overrides its flag
        cfg, out, ref = tmp_path / "run.cfg", tmp_path / "sim.csv", tmp_path / "ref.csv"
        cfg.write_text(lines)
        flags = ["simulate", "--grid=-5,0.05,200x0,0.04,100", "--initial", "gauss:-2.5,0.7"]
        assert run_cli(flags + ["--gamma=0", "--config", str(cfg), "--out", str(out)]) == code
        if code == 0:
            assert run_cli(flags + ["--gamma=0.1", "--out", str(ref)]) == 0
            assert out.read_bytes() == ref.read_bytes()

    def test_simulate_speed_ramp_is_the_librarys_run(self, tmp_path):
        out, ref = tmp_path / "sim.csv", tmp_path / "ref.csv"
        grid = Grid1x1(-5.0, 0.05, 200, 0.0, 0.04, 100)
        assert run_cli(["simulate", "--grid=-5,0.05,200x0,0.04,100", "--speed",
                        "tanh:1,-0.2,0,1", "--initial", "gauss:-2.5,0.7", "--moving", "standing",
                        "--out", str(out)]) == 0
        spec = SimSpec(grid, lambda x: 1.0 + 0.5 * -0.2 * (1.0 + np.tanh((x - 0.0) / 1.0)), 0.0,
                       lambda x: 1.0 * np.exp(-(((x - -2.5) / 0.7) ** 2)), np.zeros_like)
        save_grid_csv(ref, grid, simulate_run(spec).values, field_name="psi")
        assert out.read_bytes() == ref.read_bytes()

    def test_simulate_constant_speed_spec_is_the_bare_number(self, tmp_path):
        outs = [tmp_path / "const.csv", tmp_path / "bare.csv"]
        for speed, out in zip(["const:0.8", "0.8"], outs):
            assert run_cli(["simulate", "--grid=-5,0.05,200x0,0.04,100", "--speed", speed,
                            "--initial", "gauss:-2.5,0.7", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_pv_on_overhanging_grid_writes_nan_outside(self, tmp_path):
        field_csv = tmp_path / "field.csv"
        g = Grid1x1(-2.0, 0.05, 81, 0.0, 0.05, 41)
        save_grid_csv(field_csv, g, sample(Harmonic(3.0, 1.5), g).values)
        out = tmp_path / "v0.csv"
        code = run_cli(
            ["pv", "--in", str(field_csv), "--order", "0",
             "--grid=-2.5,0.07,80x-0.3,0.06,45", "--out", str(out)]
        )
        assert code == 0
        q, vals, _ = load_grid_csv(out)
        in_x = (q.xs >= g.x0) & (q.xs <= g.x_max)
        in_t = (q.ts >= g.t0) & (q.ts <= g.t_max)
        inside = in_t[:, None] & in_x[None, :]
        assert not np.isfinite(vals[~inside]).any()
        assert np.isfinite(vals[inside]).mean() > 0.9

    def test_track_on_csv_field(self, tmp_path):
        sim_out = tmp_path / "sim.csv"
        run_cli(
            ["simulate", "--grid=-5,0.025,400x0,0.02,300",
             "--initial", "gauss:-2.5,0.7", "--out", str(sim_out)]
        )
        traj_out = tmp_path / "traj.csv"
        code = run_cli(
            ["track", "--in", str(sim_out), "--order", "0", "--level", "0.5",
             "--seed-near=-2,0", "--t-end", "2", "--out", str(traj_out)]
        )
        assert code == 0
        lines = traj_out.read_text().splitlines()
        assert lines[0] == "t,x,v_local"
        gv = float(lines[-1].split("=")[1])
        assert gv == pytest.approx(1.0, abs=5e-2)

    def test_track_on_a_three_row_csv_field(self, tmp_path):
        # 3 rows carry the t-stencil of the three partials an order-1 probe reads
        sim_out, traj_out = tmp_path / "short.csv", tmp_path / "traj.csv"
        assert run_cli(["simulate", "--grid=-5,0.025,400x0,0.02,3",
                        "--initial", "gauss:-2.5,0.7", "--out", str(sim_out)]) == 0
        code = run_cli(["track", "--in", str(sim_out), "--order", "1", "--level", "0",
                        "--seed-near=-2.5,0", "--t-end", "0.04", "--out", str(traj_out)])
        assert code == 0
        lines = traj_out.read_text().splitlines()
        assert lines[-2] == "# terminated_by=TimeLimit"
        assert float(lines[-1].split("=")[1]) == pytest.approx(1.0, abs=5e-2)

    def test_wavelength_command(self, tmp_path, capsys):
        out = tmp_path / "lam.csv"
        code = run_cli(
            ["wavelength", "--analytic", "harmonic:omega=3,k=1.5",
             "--grid", "0,0.05,400x0,0.05,9", "--out", str(out)]
        )
        assert code == 0
        assert "omega_over_k=2" in capsys.readouterr().out
        _, vals, name = load_grid_csv(out)
        assert name == "lambda_w"
        finite = np.isfinite(vals)
        assert np.allclose(vals[finite], 2 * np.pi / 1.5, atol=1e-4)


# runs CLI argv lists given as JSON in one interpreter, then prints their exit
# codes and the scipy modules it loaded
SCIPY_PROBE = """
import json, sys
from locpv.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
"""

# a finder that refuses every scipy module, as in an install without scipy
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def probe_scipy(recipes, prelude=""):
    proc = run_python("-c", prelude + SCIPY_PROBE, json.dumps(recipes))
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def write_harmonic_csv(path):
    g = Grid1x1(-2.0, 0.05, 81, 0.0, 0.05, 41)
    save_grid_csv(path, g, sample(Harmonic(3.0, 1.5), g).values)
    return str(path)


def readme_recipes(tmp_path):
    """The README recipes on small grids, except medium."""
    field_csv = write_harmonic_csv(tmp_path / "field.csv")
    out, sim = str(tmp_path / "out"), str(tmp_path / "sim.csv")
    return [
        ["pv", "--analytic", "damped:gauss,a=1,lambda=0.1", "--order", "1",
         "--grid=-2,0.01,40x0,0.01,20", "--out", out],
        ["pv", "--in", field_csv, "--order", "0", "--out", out],
        # a sampled field read off its grid, and tracked: the local interpolant
        ["pv", "--in", field_csv, "--order", "0", "--grid=-1.5,0.07,20x0.1,0.06,10",
         "--out", out],
        ["track", "--in", field_csv, "--order", "0", "--level", "0.5",
         "--seed-near=-0.15,0.1", "--t-end", "0.5", "--out", out],
        ["track", "--analytic", "trans:gauss,a=1", "--order", "0", "--level", "0.5",
         "--seed-near", "1.0,0.0", "--t-end", "3", "--step", "0.05", "--out", out],
        ["boost", "--add", "order0", "--v", "0.5", "--V", "0.5"],
        ["boost", "--audit", "order1", "--resolution", "20", "--out", out],
        ["simulate", "--grid=-5,0.05,200x0,0.04,50", "--initial", "gauss:-2.5,0.7",
         "--gamma", "0.1", "--out", sim],
        ["pv", "--in", sim, "--order", "0", "--out", out],
        ["wavelength", "--analytic", "harmonic:omega=3,k=1.5",
         "--grid", "0,0.05,400x0,0.05,9", "--out", out],
    ]


def medium_recipe(tmp_path):
    return ["medium", "--n", "linear:1,0.1", "--c", "1", "--dx", "2", "--xi", "1,10,100",
            "--out", str(tmp_path / "sep.csv")]


class TestStartup:
    """No command imports scipy: the package runs on numpy alone."""

    def test_scipy_free_recipes_do_not_import_scipy(self, tmp_path):
        recipes = readme_recipes(tmp_path)
        assert probe_scipy(recipes) == [[0] * len(recipes), []]

    def test_quadrature_recipe_does_not_import_scipy(self, tmp_path):
        assert probe_scipy([medium_recipe(tmp_path)]) == [[0], []]

    def test_tabulated_index_does_not_import_scipy(self):
        proc = run_python(
            "-c",
            "import sys\n"
            "from locpv import TabulatedIndex\n"
            "print(TabulatedIndex([0.0, 1.0, 2.0], [1.0, 1.5, 1.2]).n(1.0))\n"
            "assert 'scipy' not in sys.modules\n",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"1.5\n", b"")

    def test_recipes_run_with_scipy_blocked(self, tmp_path):
        recipes = readme_recipes(tmp_path) + [medium_recipe(tmp_path)]
        prelude = BLOCK_SCIPY + (
            "try:\n    import scipy.integrate\nexcept ImportError:\n    pass\n"
            "else:\n    sys.exit('scipy was not blocked')\n"
            "from locpv import TabulatedIndex\n"
            "TabulatedIndex([0.0, 1.0, 2.0], [1.0, 1.5, 1.2]).series(1.0, 3)\n"
        )
        assert probe_scipy(recipes, prelude) == [[0] * len(recipes), []]
        unblocked = tmp_path / "unblocked"
        unblocked.mkdir()
        assert run_cli(medium_recipe(unblocked)) == 0
        assert (tmp_path / "sep.csv").read_bytes() == (unblocked / "sep.csv").read_bytes()


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = ["pv", "--analytic", "damped:gauss,a=1,lambda=0.1", "--order", "1",
                "--grid=-2,0.01,300x0,0.01,50"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(p1)]) == 0
        assert run_cli(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
