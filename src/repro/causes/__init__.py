"""Causal "why" profiling over the unified-memory driver.

Layers (each usable on its own):

* :mod:`~repro.causes.graph` -- :class:`CausalGraph`: blame attribution
  per source site / allocation / kernel / anti-pattern category, and the
  critical path through causally linked driver events.
* :mod:`~repro.causes.capture` -- run workloads with provenance enabled
  (:func:`run_with_causes`) and read captures
  back (:func:`load_report`), rejecting incompatible schema versions.
* :mod:`~repro.causes.diff` -- :func:`diff_reports`: align two runs and
  report improvements/regressions per key with threshold flags.
* :mod:`~repro.causes.render` / :mod:`~repro.causes.cli` -- terminal
  tables and the ``repro-why`` command.
"""

from .capture import (
    IncompatibleCaptureError,
    build_report,
    load_report,
    run_with_causes,
)
from .diff import DIFF_VERSION, diff_reports
from .graph import REPORT_VERSION, CausalGraph, CEvent
from .render import render_chain, render_diff, render_report

__all__ = [
    "CausalGraph",
    "CEvent",
    "REPORT_VERSION",
    "DIFF_VERSION",
    "IncompatibleCaptureError",
    "build_report",
    "load_report",
    "run_with_causes",
    "diff_reports",
    "render_chain",
    "render_diff",
    "render_report",
]
