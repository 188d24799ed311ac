"""Cold-start child: one iteration of a benchmark workload in a fresh
interpreter.

    python3 xbench/child.py WORKLOAD SEED T0 OUT RESULT [--setup-only]

``T0`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide, so the child can measure its own set-up from it).
The child imports the workload's modules, notes when it is ready, runs
one iteration into ``OUT`` and writes ``{"setup_s", "run_s",
"observation"}`` as JSON to ``RESULT``.  With ``--setup-only`` it stops
after the imports (used under ``python -X importtime``).
"""

import json
import os
import sys
import time


def main() -> int:
    workload, seed, t0, out, result = sys.argv[1:6]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import wl

    bench = wl.WORKLOADS[workload](int(seed))
    bench.setup()
    ready = time.monotonic()
    if "--setup-only" in sys.argv[6:]:
        return 0
    from pathlib import Path

    res = bench.iterate(Path(out))
    done = time.monotonic()
    observation = wl.digest(bench.observe(res, Path(out)))
    with open(result, "w") as fh:
        json.dump({"setup_s": ready - float(t0), "run_s": done - ready,
                   "observation": observation}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
