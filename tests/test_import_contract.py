"""Python-workload runs never load the mini-CUDA front end.

``repro-trace --workload pathfinder`` replays a native Python workload:
it parses, interprets and compiles nothing, so ``repro.instrument``,
``repro.interp`` and ``repro.codegen`` must stay unloaded (``--backend``
takes its choices from the leaf :mod:`repro.backends`).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
from repro.telemetry.cli import main
rc = main(["--workload", "pathfinder", "--out", sys.argv[1]])
print(json.dumps([rc, sorted(sys.modules)]))
"""


def test_python_workload_loads_no_front_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          check=True)
    rc, modules = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0 and (tmp_path / "events.jsonl").exists()
    loaded = {m for m in modules
              if m.split(".")[:2] in (["repro", "instrument"],
                                      ["repro", "interp"],
                                      ["repro", "codegen"])}
    assert not loaded, sorted(loaded)
    assert "repro.backends" in modules


def test_heat_and_signature_layers_load_no_codegen():
    """The attribution and epoch-vector memos use the leaf ``repro.memo``
    LRU, so the heat and signature layers never load ``repro.codegen``."""
    probe = ("import json, sys, repro.heatmap.attribution, "
             "repro.signature.vector; print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    modules = json.loads(done.stdout.splitlines()[-1])
    assert "repro.memo" in modules
    assert not [m for m in modules if m.startswith("repro.codegen")]
