"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared VM the CPU speed available to one process swings
by up to 2x over seconds to minutes (frequency changes, neighbours on
the same cores).  Every timing the benchmark reports is therefore taken
next to a calibration that does not touch the repository's code, and is
reported as ``raw seconds * reference / calibration seconds``: seconds
at a fixed reference speed.  Raw seconds are printed alongside.

* In-process timings pair with :func:`measure`, a fixed mix of
  pure-Python dispatch, small numpy operations, JSON encoding/decoding,
  allocation churn and CRC-32 -- the kinds of work the workloads do.
* Cold-start timings pair with :func:`measure_cold_start`, a fresh
  interpreter importing numpy and a fixed set of standard-library
  packages -- the kinds of work a cold start does.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
import zlib
from typing import Callable

import numpy as np

#: Calibration time at the reference speed the reported timings are
#: scaled to (one unit takes 4-9 ms on a shared 2-vCPU 2.1 GHz Xeon
#: VM, depending on the host's load).
REFERENCE_S = 0.006

#: :func:`measure_cold_start` time at the reference speed (0.17-0.3 s on
#: the same VM).
REFERENCE_COLD_S = 0.2

_COLD_START = [sys.executable, "-c",
               "import numpy, json, decimal, argparse, email.parser, "
               "http.client, xml.dom.minidom, csv, fractions, statistics, "
               "logging, dataclasses, typing, pathlib"]


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0):
        self.op, self.left, self.right, self.value = op, left, right, value


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("lit", value=depth + 3)
    return _Node("add" if depth % 2 else "mul", _tree(depth - 1),
                 _Node("lit", value=depth))


def _eval(node: _Node, env: dict) -> int:
    if node.op == "lit":
        return node.value
    a, b = _eval(node.left, env), _eval(node.right, env)
    env[node.op] = env.get(node.op, 0) + 1
    return (a + b) % 1000003 if node.op == "add" else (a * b) % 1000003


_TREE = _tree(60)
_A = np.arange(256, dtype=np.float64)
_IDX = (np.arange(256) * 7) % 256
_RECORDS = json.dumps([
    {"type": "driver_event", "id": i, "kind": ("populate", "fault")[i % 2],
     "t": i * 0.5, "proc": "CPU", "pages": i % 7, "detail": "abc" * (i % 5)}
    for i in range(400)])


def workload() -> int:
    """One calibration unit (a few ms)."""
    env: dict = {}
    acc = 0
    for _ in range(70):
        acc += _eval(_TREE, env)
    a = _A.copy()
    for i in range(200):
        a[_IDX] += a * 0.5
        a = np.minimum(a, 1e6) - i
    record = {"rows": [[i, i * 0.5, str(i)] for i in range(300)],
              "acc": acc, "sum": float(a.sum())}
    text = json.dumps(record, sort_keys=True)
    acc += len(hashlib.sha256(text.encode()).hexdigest())
    records = json.loads(_RECORDS)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    by_kind: dict = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(dict(r))
    return acc + zlib.crc32("\n".join(lines).encode()) + len(by_kind)


def measure() -> float:
    """Seconds one calibration unit takes right now."""
    start = time.perf_counter()
    workload()
    return time.perf_counter() - start


def measure_cold_start() -> float:
    """Seconds a fresh interpreter takes to import a fixed package set."""
    start = time.perf_counter()
    subprocess.run(_COLD_START, check=True)
    return time.perf_counter() - start


class Scaler:
    """Paired calibration: each timing is scaled by the mean of the
    calibrations measured just before and just after it."""

    def __init__(self, measure: Callable[[], float] = measure,
                 reference: float = REFERENCE_S) -> None:
        self.measure = measure
        self.reference = reference
        self.restart()

    def restart(self) -> None:
        """Re-take the "before" calibration (after unrelated work)."""
        self.last = self.measure()

    def factor(self) -> float:
        """Call right after a timed region: its raw-to-reference factor."""
        now = self.measure()
        factor = self.reference / ((self.last + now) / 2)
        self.last = now
        return factor
