"""Run the locpv CLI with the tracer installed and write its counts to a file.

    python3 perfbench/traced_cli.py STATS.json <locpv cli arguments>

Behaves like ``python -m locpv.cli <arguments>``; STATS.json receives the
in-process import time of ``locpv.cli`` and the tracer's snapshot.
"""

import json
import sys
import time
from pathlib import Path


def main():
    stats = Path(sys.argv[1])
    t0 = time.perf_counter()
    import locpv.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return locpv.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        stats.write_text(json.dumps({"import_s": import_s, "trace": tracer.snapshot()}))


if __name__ == "__main__":
    sys.exit(main())
