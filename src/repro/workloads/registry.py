"""The one workload registry: platform spellings and workload runners.

:data:`WORKLOADS` (diagnose once at the end), :data:`REPORT_RUNNERS`
(diagnose every epoch, so each epoch freezes its own heat row) and
:data:`OVERHEAD_WORKLOADS` (the overhead ladder's timing sizes) are all
built from :data:`_TABLE`.  They are module-level dicts read at call
time, so a caller may publish an extra runner under a new name.
Workload classes are imported inside the runners, keeping this import
cheap.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from ..memsim import PLATFORMS
from .base import Session, WorkloadRun
from .spatter import indirection, uniform_stride

__all__ = ["PLATFORM_ALIASES", "WORKLOADS", "REPORT_RUNNERS",
           "OVERHEAD_WORKLOADS", "UnknownNameError", "resolve_platform",
           "runner_for"]

Runner = Callable[[Session], WorkloadRun]

#: ``--platform`` spelling -> preset name: every preset plus four aliases.
PLATFORM_ALIASES: dict[str, str] = {
    "pcie": "intel-pascal",
    "pcie-pascal": "intel-pascal",
    "pcie-volta": "intel-volta",
    "nvlink": "power9-volta",
    **{name: name for name in PLATFORMS},
}


class UnknownNameError(KeyError, ValueError):
    """A workload or platform name no table knows; ``str()`` is the plain
    message, ready for a one-line CLI error."""

    def __str__(self) -> str:
        return str(self.args[0])


def _unknown(kind: str, name: str, known) -> UnknownNameError:
    return UnknownNameError(
        f"unknown {kind} {name!r}; known: {', '.join(sorted(known))}")


def resolve_platform(name: str) -> str:
    """The preset name ``name`` spells; raises :class:`UnknownNameError`."""
    try:
        return PLATFORM_ALIASES[name]
    except KeyError:
        raise _unknown("platform", name, PLATFORM_ALIASES) from None


#: name -> (module under ``repro.workloads``, class, constructor keywords,
#: ``run()`` arguments, the class's per-epoch diagnosis flag or ``None``,
#: constructor keywords at timing size or ``None``).
_TABLE: dict[str, tuple[str, str, dict[str, Any], tuple, str | None,
                        dict[str, Any] | None]] = {
    "pathfinder": ("rodinia", "Pathfinder",
                   {"cols": 8192, "rows": 40, "pyramid_height": 8}, (),
                   "diagnose_each_iteration",
                   {"cols": 60_000, "rows": 240, "pyramid_height": 5}),
    "pathfinder-opt": ("rodinia", "OverlappedPathfinder",
                       {"cols": 8192, "rows": 40, "pyramid_height": 8}, (),
                       None, None),
    "lulesh": ("lulesh", "Lulesh", {"size": 8}, (6,),
               "diagnose_each_step", {"size": 8}),
    "sw": ("smithwaterman", "SmithWaterman", {"n": 192}, (),
           "diagnose_each_iteration", {"n": 160}),
    "sw-rotated": ("smithwaterman", "RotatedSmithWaterman", {"n": 192}, (),
                   "diagnose_each_iteration", None),
    "sw-advised": ("smithwaterman", "AdvisedSmithWaterman", {"n": 192}, (),
                   None, None),
    "backprop": ("rodinia", "Backprop", {"input_size": 4096}, (), None, None),
    "cfd": ("rodinia", "Cfd", {"cells": 2048}, (), None, None),
    "gaussian": ("rodinia", "Gaussian", {"size": 64}, (), None, None),
    "lud": ("rodinia", "Lud", {"size": 64}, (),
            "diagnose_each_iteration", None),
    "nn": ("rodinia", "NearestNeighbor", {"records": 4096}, (), None, None),
    "spatter-stride": ("spatter", "SpatterWorkload",
                       {"spec": uniform_stride(8, count=64)}, (), None, None),
    "spatter-indirect": ("spatter", "SpatterWorkload",
                         {"spec": indirection(length=256, spread=65536)}, (),
                         None, None),
}


def _runner(module: str, cls: str, kwargs: dict[str, Any],
            run_args: tuple) -> Runner:
    def run(session: Session) -> WorkloadRun:
        workload = getattr(importlib.import_module(
            f"repro.workloads.{module}"), cls)
        return workload(session, **kwargs).run(*run_args)
    return run


#: name -> runner(session) -> WorkloadRun, at diagnosis-friendly sizes.
WORKLOADS: dict[str, Runner] = {
    name: _runner(module, cls, kwargs, run_args)
    for name, (module, cls, kwargs, run_args, _, _) in _TABLE.items()}

#: Per-epoch-diagnosing runners; a workload absent here falls back to
#: :data:`WORKLOADS`, whose heatmap collapses to one epoch.
REPORT_RUNNERS: dict[str, Runner] = {
    name: _runner(module, cls, {**kwargs, flag: True}, run_args)
    for name, (module, cls, kwargs, run_args, flag, _) in _TABLE.items()
    if flag is not None}

#: Runners at timing size for the overhead ladder.
OVERHEAD_WORKLOADS: dict[str, Runner] = {
    name: _runner(module, cls, timing, run_args)
    for name, (module, cls, _, run_args, _, timing) in _TABLE.items()
    if timing is not None}


def runner_for(workload: str, *, per_epoch: bool = False) -> Runner:
    """The runner registered as ``workload``.

    With ``per_epoch`` a :data:`REPORT_RUNNERS` variant is preferred.
    Raises :class:`UnknownNameError` for a name in neither table.
    """
    if per_epoch and workload in REPORT_RUNNERS:
        return REPORT_RUNNERS[workload]
    try:
        return WORKLOADS[workload]
    except KeyError:
        raise _unknown("workload", workload, WORKLOADS) from None
