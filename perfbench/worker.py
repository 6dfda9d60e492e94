"""One workload in one process: a closed loop with one client.

    python3 perfbench/worker.py --workload W --seed N --mode M --workdir D
                                [--seconds S] [--cycles C]

Modes: ``setup`` builds the workload's inputs and reports the time taken
from before ``import locpv``; ``run`` does that and then runs whole cycles of
ops for about S seconds; ``trace`` runs C cycles untraced and then the same C
cycles traced (in-process workloads run one more cycle first, to warm up).
The result is one JSON object on the last line of stdout.
``perfbench/run.py`` starts this script.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SCOPES = ("tracker.find_seed", "tracker.track")


def run_cycles(make_cycle, seconds=0.0, cycles=None, pending=()):
    """Run whole cycles of ops, timing each op and checking its output.

    Without ``cycles``, the count is ``seconds`` over the first cycle's op
    time, rounded up, so every run has the same mix of ops. Check time is not
    op time. ``pending`` is a list of cycles built in set-up; they are popped,
    so their outputs are freed once run.
    """
    records, notes, elapsed, done = [], {}, 0.0, 0
    while cycles is None or done < cycles:
        ops = pending.pop() if pending else make_cycle()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # the loop keeps going; the op counts as failed
                dt = time.perf_counter() - t0
                problems = [f"{op.kind}: " + traceback.format_exc(limit=3).strip()]
            else:
                dt = time.perf_counter() - t0
                problems = op.check(out, notes)
            records.append([op.kind, dt, problems])
            elapsed += dt
        done += 1
        if cycles is None:
            cycles = max(1, math.ceil(seconds / elapsed))
    return records, notes, done


def merge(into, snap):
    """Add one tracer snapshot to another."""
    calls = into.setdefault("calls", {})
    for name, (n, self_s, total_s) in snap["calls"].items():
        rec = calls.setdefault(name, [0, 0.0, 0.0])
        rec[0] += n
        rec[1] += self_s
        rec[2] += total_s
    counters = into.setdefault("counters", {})
    for name, v in snap["counters"].items():
        counters[name] = counters.get(name, 0) + v
    nested = into.setdefault("nested", {})
    for scope, d in snap["nested"].items():
        dst = nested.setdefault(scope, {})
        for name, v in d.items():
            dst[name] = dst.get(name, 0) + v
    return into


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def inproc_pass(name, seed, seconds, cycles=None):
    """Set up (timed from before `import locpv`) and run cycles."""
    t0 = time.perf_counter()
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    make_cycle = getattr(workloads, name)(rng)
    pending = [make_cycle()]
    setup_s = time.perf_counter() - t0
    if not (seconds or cycles):
        return setup_s, None
    return setup_s, run_cycles(make_cycle, seconds, cycles, pending)


def inproc(args):
    if args.mode == "setup":
        return {"setup_s": inproc_pass(args.workload, args.seed, 0.0)[0]}
    if args.mode == "run":
        setup_s, (records, notes, cycles) = inproc_pass(args.workload, args.seed, args.seconds)
        return {"setup_s": setup_s, "records": records, "notes": notes, "cycles": cycles,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    # trace: one warm-up cycle, the cycles untraced, then the same cycles
    # traced (set-up included)
    inproc_pass(args.workload, args.seed, 0.0, 1)
    _, (plain, _, _) = inproc_pass(args.workload, args.seed, 0.0, args.cycles)
    from tracer import Tracer

    tracer = Tracer(SCOPES)
    tracer.install()
    try:
        _, (records, notes, _) = inproc_pass(args.workload, args.seed, 0.0, args.cycles)
    finally:
        tracer.uninstall()
    return {"untraced": plain, "records": records, "notes": notes, "trace": tracer.snapshot()}


# ---------------------------------------------------------------------------
# cli_recipes
# ---------------------------------------------------------------------------


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def recipe_ops(recipes, workdir, launcher, digests, on_done=None):
    """One op per recipe: run `launcher + argv` in workdir, then check it."""
    from workloads import Op, digest

    env = cli_env()

    def make(recipe):
        def run_op():
            return subprocess.run(launcher + recipe.argv, cwd=workdir, env=env,
                                  capture_output=True, text=True, timeout=150)

        def check(proc, notes):
            if on_done is not None:
                on_done()
            if proc.returncode != 0:
                return [f"{recipe.name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            problems = recipe.check(workdir, proc.stdout)
            if digests is not None and digest(workdir, recipe, proc.stdout) != digests[recipe.name]:
                problems.append(f"{recipe.name}: output bytes differ from the recorded digests")
            return problems

        return Op(recipe.name, run_op, check)

    return [make(r) for r in recipes]


def cli_setup(seed, workdir):
    """Recipes for the seed and field.csv in workdir; at seed 0 (the README's
    own inputs), also the recorded digests of their outputs."""
    import numpy as np

    import workloads

    (omega, k), recipes = workloads.cli_recipes(np.random.default_rng(seed), default=seed == 0)
    workloads.write_field_csv(workdir, omega, k)
    digests = json.loads(workloads.DIGESTS.read_text()) if seed == 0 else None
    return recipes, digests


def cli(args):
    workdir = Path(args.workdir)
    recipes, digests = cli_setup(args.seed, workdir)
    ops = recipe_ops(recipes, workdir, [sys.executable, "-m", "locpv.cli"], digests)
    records, notes, cycles = run_cycles(lambda: ops, args.seconds, args.cycles)
    if args.mode == "run":
        return {"records": records, "notes": notes, "cycles": cycles,
                "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    stats_path = workdir / "trace.json"
    snap, import_s = {}, []

    def collect():
        if stats_path.exists():
            data = json.loads(stats_path.read_text())
            import_s.append(data["import_s"])
            merge(snap, data["trace"])
            stats_path.unlink()

    traced_cli = [sys.executable, str(HERE / "traced_cli.py"), str(stats_path)]
    ops = recipe_ops(recipes, workdir, traced_cli, digests, collect)
    traced, notes, _ = run_cycles(lambda: ops, cycles=cycles)
    return {"untraced": records, "records": traced, "notes": notes, "trace": snap,
            "import_s": import_s}


def versions():
    """Package versions, read after the measurement so numba's import costs nothing."""
    import numpy
    import scipy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        import numba
    except ImportError:
        out["numba"] = None
    else:
        out["numba"] = numba.__version__
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    result = cli(args) if args.workload == "cli_recipes" else inproc(args)
    result["versions"] = versions()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
