"""Benchmark of locpv: README CLI recipes, tracker ensembles and grid sweeps.

    python3 perfbench/run.py --workload {cli_recipes,track_ensemble,grid_sweeps}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is the checkout's ``src``.
Each workload is a closed loop with one client in one worker process: the
next op starts when the previous one has finished. Every op's output is
checked, and an op that fails its check counts as failed. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it runs all three
workloads untraced and then traced, and reports the per-layer metrics.

The report (metrics with units and sample counts, seed, versions, machine)
is printed as JSON; the last line of stdout is the one-line summary
``{"correct", "attempted", "failed", "metrics"}``. The exit code is non-zero
when an op fails its check or the checkout has no ``src/locpv``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the sibling modules, also where the script's directory is not on sys.path
sys.path.insert(0, str(Path(__file__).resolve().parent))
from worker import HERE, SRC, cli_env  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("cli_recipes", "track_ensemble", "grid_sweeps")
SETUP_PROBES = 5
# Tail percentile per workload, taken per cycle: fixed so that two commits
# report the same percentile, with at least ten ops of a 25 s run beyond it
# (66-99 and 180-210 ops when the benchmark was defined). Higher ones would
# blend the slowest op kinds of a cycle with the rest. cli_recipes runs 18
# ops, too few for any percentile above the median, so its tail is the
# slowest op of a cycle (the track recipe).
TAIL_PERCENTILE = {"cli_recipes": 100, "track_ensemble": 75, "grid_sweeps": 90}
# Cycles of each workload in a traced run: fixed, so that counts compare
# exactly between commits and the run takes about 70 s whatever --seconds is.
TRACE_CYCLES = {"cli_recipes": 1, "track_ensemble": 1, "grid_sweeps": 5}
# The whole command ends within this many seconds, or fails.
DEADLINE_S = 170
_deadline = time.monotonic() + DEADLINE_S


class BenchError(Exception):
    pass


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_group(cmd, **kwargs):
    """Run cmd in its own process group; at the command's deadline, kill the
    group (the worker and any CLI child) and wait for it."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=max(0.1, _deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[1:3]} did not finish within {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def worker(workload, seed, mode, workdir, seconds=0.0, cycles=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--workdir", str(workdir), "--seconds", str(seconds)]
    if cycles is not None:
        cmd += ["--cycles", str(cycles)]
    return json.loads(run_group(cmd, cwd=ROOT).splitlines()[-1])


def setup_probe(workload, seed, workdir):
    """One set-up in a fresh interpreter, in seconds."""
    if workload == "cli_recipes":
        t0 = time.perf_counter()
        run_group([sys.executable, "-c", "import locpv.cli"], cwd=workdir, env=cli_env())
        return time.perf_counter() - t0
    return worker(workload, seed, "setup", workdir)["setup_s"]


def failures(records):
    return [p for _, _, problems in records for p in problems]


def metric(value, unit, samples, **extra):
    return {"value": value, "unit": unit, "samples": samples, **extra}


def end_to_end(workload, seed, seconds, workdir):
    setups = [setup_probe(workload, seed, workdir) for _ in range(SETUP_PROBES)]
    res = worker(workload, seed, "run", workdir, seconds=seconds)
    if "setup_s" in res:
        setups.append(res["setup_s"])
    times = [t for _, t, _ in res["records"]]
    failed = len([r for r in res["records"] if r[2]])
    # Each timing is taken per cycle (every cycle has the same ops) and the
    # run reports its median over cycles: the machine's speed dips by up to
    # half for a few seconds at a time, and a median over cycles ignores dips
    # that cover fewer than half of them.
    n = len(times) // res["cycles"]
    cycles = [times[i:i + n] for i in range(0, len(times), n)]

    def over_cycles(stat):
        return statistics.median(stat(c) for c in cycles)

    p_tail = TAIL_PERCENTILE[workload]
    tail = over_cycles(lambda c: percentile(c, p_tail))
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "ops_per_s": metric(over_cycles(lambda c: len(c) / sum(c)), "1/s", len(times),
                            cycles=len(cycles)),
        "op_p50_ms": metric(over_cycles(lambda c: percentile(c, 50)) * 1e3, "ms", len(times),
                            cycles=len(cycles)),
        "op_tail_ms": metric(tail * 1e3, "ms", len(times), cycles=len(cycles), percentile=p_tail,
                             ops_beyond=sum(t > tail for t in times)),
        "peak_rss_mb": metric(res["rss_kb"] / 1024.0, "MB", 1,
                              source="largest CLI child" if workload == "cli_recipes" else "worker"),
    }
    report = {"failed_ratio": metric(failed / len(times), "ratio", len(times),
                                     failed=failed, attempted=len(times)),
              "cycles": res["cycles"], "versions": res["versions"], "notes": res["notes"],
              "problems": failures(res["records"])[:20]}
    return metrics, report, len(times), failed


def per_layer(seed, workdir):
    """Per-layer metrics from one traced pass of each workload."""
    runs = {}
    for w in WORKLOADS:
        runs[w] = worker(w, seed, "trace", workdir, cycles=TRACE_CYCLES[w])
        runs[w]["cycles"] = TRACE_CYCLES[w]
    cli, te, gs = (runs[w] for w in WORKLOADS)

    def calls(run, name):
        return run["trace"].get("calls", {}).get(name, [0, 0.0, 0.0])

    def count(run, name):
        return run["trace"].get("counters", {}).get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["cli.import_s"] = (statistics.median(cli["import_s"]), "s")
    for name in dict.fromkeys(k for k, _, _ in cli["untraced"]):
        ms = [t * 1e3 for k, t, _ in cli["untraced"] if k == name]
        m[f"cli.recipe_ms.{name}"] = (statistics.median(ms), "ms")
    for kind, fn in (("write", "field.save_grid_csv"), ("read", "field.load_grid_csv")):
        n, _, total = calls(cli, fn)
        m[f"field.csv_{kind}_s"] = (ratio(total, n), "s")
        m[f"field.csv_{kind}_mb_per_s"] = (ratio(count(cli, f"csv_{kind}_bytes") / 1e6, total), "MB/s")

    n, self_s, total = calls(te, "field.AnalyticField.jet")
    m["field.jet_calls"] = (n, "count")
    m["field.jet_self_s"] = (self_s, "s")
    m["field.jet_us_per_call"] = (ratio(total, n) * 1e6, "us")
    n, self_s, _ = calls(te, "field.SampledField.jet")
    m["field.sampled_jet_calls"] = (n, "count")
    m["field.sampled_jet_self_s"] = (self_s, "s")
    _, self_s, total = calls(gs, "field.AnalyticField.jet_batch")
    points = count(gs, "jet_batch_points")
    m["field.jet_batch_points"] = (points, "count")
    m["field.jet_batch_self_s"] = (self_s, "s")
    m["field.jet_batch_ns_per_point"] = (ratio(total, points) * 1e9, "ns")
    n, self_s, _ = calls(gs, "field.SampledField.derivative_grid")
    m["field.derivative_grid_calls"] = (n, "count")
    m["field.derivative_grid_self_s"] = (self_s, "s")
    m["field.derivative_grid_reuse_ratio"] = (ratio(count(gs, "derivative_grid_repeats"), n), "ratio")
    m["field.sample_self_s"] = (calls(te, "field.sample")[1] + calls(gs, "field.sample")[1], "s")

    for kind, run in (("scalar", te), ("batch", gs)):
        n, self_s, _ = calls(run, f"taylor.Taylor2.__mul__:{kind}")
        m[f"taylor.mul_calls_{kind}"] = (n, "count")
        m[f"taylor.mul_self_s_{kind}"] = (self_s, "s")
    m["taylor.compose_calls"] = (calls(te, "taylor.t2_compose")[0] + calls(gs, "taylor.t2_compose")[0],
                                 "count")
    m["taylor.compose_self_s"] = (calls(te, "taylor.t2_compose")[1] + calls(gs, "taylor.t2_compose")[1],
                                  "s")

    n, self_s, _ = calls(te, "phasevel.pv_point")
    m["phasevel.pv_point_calls"] = (n, "count")
    m["phasevel.pv_point_self_s"] = (self_s, "s")
    _, self_s, total = calls(gs, "phasevel.pv_field")
    cells = count(gs, "pv_field_cells")
    m["phasevel.pv_field_cells"] = (cells, "count")
    m["phasevel.pv_field_self_s"] = (self_s, "s")
    m["phasevel.pv_field_ns_per_cell"] = (ratio(total, cells) * 1e9, "ns")
    m["phasevel.classical_diagnostics_self_s"] = (calls(gs, "phasevel.classical_diagnostics")[1], "s")
    m["phasevel.masked_ratio"] = (ratio(count(gs, "pv_field_masked"), cells), "ratio")
    m["phasevel.outside_domain_valid_cells"] = (gs["notes"].get("outside_valid_cells", 0), "count")

    jets = ("field.AnalyticField.jet", "field.SampledField.jet")
    nested = te["trace"].get("nested", {})
    m["tracker.find_seed_self_s"] = (calls(te, "tracker.find_seed")[1], "s")
    m["tracker.find_seed_jets"] = (sum(nested.get("tracker.find_seed", {}).get(j, 0) for j in jets),
                                   "count")
    _, self_s, total = calls(te, "tracker.track")
    steps = count(te, "track_steps")
    m["tracker.track_self_s"] = (self_s, "s")
    m["tracker.steps"] = (steps, "count")
    m["tracker.us_per_step"] = (ratio(total, steps) * 1e6, "us")
    m["tracker.jets_per_step"] = (
        ratio(sum(nested.get("tracker.track", {}).get(j, 0) for j in jets), steps), "ratio")
    for reason in ("TimeLimit", "DomainExit", "SingularityHit"):
        m[f"tracker.terminations.{reason}"] = (count(te, f"terminations.{reason}"), "count")

    # a module's self time: its wrapped functions minus the other modules' calls
    def module_self(run, module):
        return sum(rec[1] for name, rec in run["trace"].get("calls", {}).items()
                   if name.startswith(module + "."))

    total = calls(gs, "simulate.run")[2]
    updates = count(gs, "sim_cell_updates")
    m["simulate.run_self_s"] = (module_self(gs, "simulate"), "s")
    m["simulate.cell_updates"] = (updates, "count")
    m["simulate.ns_per_cell"] = (ratio(total, updates) * 1e9, "ns")
    m["simulate.bytes_per_cell_computed"] = (ratio(count(gs, "sim_bytes_computed"), updates), "B")
    m["media.dynamic_separation_self_s"] = (module_self(cli, "media"), "s")
    m["relativity.audit_self_s"] = (module_self(cli, "relativity"), "s")
    for w, run in runs.items():
        traced = sum(t for _, t, _ in run["records"])
        plain = sum(t for _, t, _ in run["untraced"])
        m[f"trace.overhead_ratio.{w}"] = (traced / plain, "ratio")

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in m.items()}
    records = [r for run in runs.values() for r in run["untraced"] + run["records"]]
    failed = len([r for r in records if r[2]])
    report = {"cycles": {w: run["cycles"] for w, run in runs.items()},
              "versions": cli["versions"], "problems": failures(records)[:20],
              "raw_calls": {w: run["trace"].get("calls", {}) for w, run in runs.items()}}
    return metrics, report, len(records), failed


def machine():
    """(usable cores, load average) where the platform reports them."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count()
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return nproc, load


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0, help="0 runs the README's own inputs")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "locpv" / "__init__.py").is_file():
        sys.exit(f"error: no locpv sources at {SRC}; run from the root of a locpv checkout")
    nproc, load = machine()
    started = {"seed": args.seed, "workload": args.workload, "seconds": args.seconds,
               "trace": args.trace, "nproc": nproc, "loadavg_at_start": load, "workers": 1}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.trace:
            metrics, report, attempted, failed = per_layer(args.seed, workdir)
        else:
            metrics, report, attempted, failed = end_to_end(args.workload, args.seed,
                                                            args.seconds, workdir)
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    outside = report.get("notes", {}).get("outside_valid_cells") or (
        metrics.get("phasevel.outside_domain_valid_cells", {}).get("value"))
    if outside:
        print(f"known defect: pv_field returned {outside} cells outside the sampled domain "
              "as valid (spline extrapolation)", file=sys.stderr)
    print(json.dumps({**started, "metrics": metrics, **report}, indent=1))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    print(json.dumps(summary))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
