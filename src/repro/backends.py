"""Names of the execution backends for mini-CUDA programs.

A leaf module: CLIs offer ``--backend`` choices from here without
loading the front end, the interpreter or the code generators.
"""

#: Selectable backends (``auto`` = vectorize when provable, else
#: codegen, else interp).
BACKENDS = ("auto", "interp", "codegen", "codegen-vec")
