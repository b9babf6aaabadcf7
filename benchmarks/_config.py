"""Shared configuration for the benchmark suite.

Every module regenerates one table or figure of the paper (see DESIGN.md for
the index).  The suite is sized to run on a laptop in minutes; the scale
parameters below can be raised to approach the paper's original sizes.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Linear downscaling factor for the SuiteSparse stand-ins (paper scale = 1).
MATRIX_SCALE = int(os.environ.get("REPRO_MATRIX_SCALE", "256"))

#: Linear downscaling factor for the FROSTT stand-ins.
TENSOR_SCALE = int(os.environ.get("REPRO_TENSOR_SCALE", "48"))

#: Repetitions per measurement in the printed summary tables.
REPEATS = int(os.environ.get("REPRO_REPEATS", "1"))

#: Execution backends compared by the backend benchmarks (comma-separated in
#: the environment): any of "interpret", "compile", "typed".
BACKENDS = tuple(
    backend.strip()
    for backend in os.environ.get(
        "REPRO_BACKENDS", "interpret,compile,typed").split(",")
    if backend.strip()
)


def print_report(text: str) -> None:
    """Print a report block that survives pytest's output capturing (-s not needed)."""
    sys.stdout.write("\n" + text + "\n")
    sys.stdout.flush()
