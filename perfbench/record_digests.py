"""Record the digests of the README recipes' outputs at seed 0.

    python3 perfbench/record_digests.py

Runs each recipe once, as ``python -m locpv.cli`` against this checkout's
``src``, in a scratch directory under the checkout, and writes
``perfbench/digests.json``. The benchmark then requires the same bytes at
seed 0. Re-record only when a change is meant to alter CLI output.
"""

import json
import shutil
import subprocess
import sys

import worker

sys.path.insert(0, str(worker.SRC))
import workloads  # noqa: E402  (imports locpv from SRC)


def main():
    workdir = worker.HERE.parent / ".bench_work" / "digests"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (omega, k), recipes = workloads.cli_recipes(None, default=True)
        workloads.write_field_csv(workdir, omega, k)
        out = {}
        for recipe in recipes:
            proc = subprocess.run([sys.executable, "-m", "locpv.cli", *recipe.argv], cwd=workdir,
                                  env=worker.cli_env(), capture_output=True, text=True, check=True)
            problems = recipe.check(workdir, proc.stdout)
            if problems:
                sys.exit(f"{recipe.name}: {problems}")
            out[recipe.name] = workloads.digest(workdir, recipe, proc.stdout)
        workloads.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
