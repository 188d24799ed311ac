"""Codegen backends for mini-CUDA kernels.

Lowers instrumented kernel ASTs to native Python once per kernel
(:mod:`repro.codegen.emitter`), optionally vectorizing the whole thread
grid into numpy array operations (:mod:`repro.codegen.vectorize` +
:mod:`repro.codegen.gridexec`); host functions go through the same
emitter (:mod:`repro.codegen.host`, imported on first use).  Backend selection and the per-launch
fallback ladder live in :mod:`repro.codegen.backend`; the tree-walking
interpreter remains the differential oracle every compiled backend must
byte-match.
"""

from .backend import (
    BACKENDS,
    default_backend,
    run_compiled,
    set_default_backend,
)
from .emitter import CodegenBail, compile_scalar, kernel_digest

__all__ = [
    "BACKENDS",
    "CodegenBail",
    "compile_scalar",
    "default_backend",
    "kernel_digest",
    "run_compiled",
    "set_default_backend",
]
