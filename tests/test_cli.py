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
        ],
        ids=["t-end", "step", "frame-speed", "light-speed", "resolution", "initial",
             "zero-division", "envelope", "damped-envelope", "harmonic-envelope",
             "kink-envelope", "nan-t-end", "nan-step", "nan-eps-den", "nan-dx", "inf-dx",
             "inf-xi", "nan-frame-speed", "inf-speed-order0", "nan-speed-order1",
             "nan-a", "nan-omega", "inf-k", "inf-lambda", "nan-kink-lambda",
             "nan-medium-index", "inf-ramp-width", "inf-constant-index", "inf-light-speed"],
    )
    def test_invalid_value_is_usage_error(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / "o.csv") if a == "OUT" else a for a in argv]
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


def probe_scipy(recipes):
    proc = run_python("-c", SCIPY_PROBE, json.dumps(recipes))
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def write_harmonic_csv(path):
    g = Grid1x1(-2.0, 0.05, 81, 0.0, 0.05, 41)
    save_grid_csv(path, g, sample(Harmonic(3.0, 1.5), g).values)
    return str(path)


class TestStartup:
    """scipy is imported only where a spline or a quadrature is built."""

    def test_scipy_free_recipes_do_not_import_scipy(self, tmp_path):
        # the README recipes on small grids, except medium (quadrature)
        field_csv = write_harmonic_csv(tmp_path / "field.csv")
        out, sim = str(tmp_path / "out"), str(tmp_path / "sim.csv")
        recipes = [
            ["pv", "--analytic", "damped:gauss,a=1,lambda=0.1", "--order", "1",
             "--grid=-2,0.01,40x0,0.01,20", "--out", out],
            ["pv", "--in", field_csv, "--order", "0", "--out", out],
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
        assert probe_scipy(recipes) == [[0] * len(recipes), []]

    @pytest.mark.parametrize(
        "argv, module",
        [
            (["pv", "--in", "FIELD", "--order", "0", "--grid=-1.5,0.07,20x0.1,0.06,10",
              "--out", "OUT"], "scipy.interpolate"),
            (["medium", "--n", "linear:1,0.1", "--c", "1", "--dx", "2", "--xi", "1,10",
              "--out", "OUT"], "scipy.integrate"),
        ],
        ids=["pv-off-grid", "medium"],
    )
    def test_spline_and_quadrature_recipes_import_scipy(self, argv, module, tmp_path):
        paths = {"FIELD": write_harmonic_csv(tmp_path / "field.csv"),
                 "OUT": str(tmp_path / "o.csv")}
        codes, loaded = probe_scipy([[paths.get(a, a) for a in argv]])
        assert codes == [0]
        assert module in loaded

    def test_tabulated_index_imports_scipy(self):
        proc = run_python(
            "-c",
            "import sys\n"
            "from locpv import TabulatedIndex\n"
            "assert 'scipy' not in sys.modules\n"
            "print(TabulatedIndex([0.0, 1.0, 2.0], [1.0, 1.5, 1.2]).n(1.0))\n"
            "assert 'scipy.interpolate' in sys.modules\n",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"1.5\n", b"")


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = ["pv", "--analytic", "damped:gauss,a=1,lambda=0.1", "--order", "1",
                "--grid=-2,0.01,300x0,0.01,50"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(p1)]) == 0
        assert run_cli(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
