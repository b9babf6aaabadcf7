"""Physical plan execution: interpretation, code generation, typed buffers.

Three backends (selected with ``backend=`` on :class:`ExecutionEngine`,
:func:`repro.storel.run` and the benchmark systems; see ``docs/backends.md``):

* ``"interpret"`` — the reference interpreter (the semantics oracle),
* ``"compile"``   — generated Python loops (inspectable source),
* ``"typed"``     — lane-expanding kernels over flat typed columnar buffers
  (numba-JIT when available, NumPy-vectorized otherwise); the default,
  :data:`DEFAULT_BACKEND`.

Prepared plans are cached across calls by :class:`PlanCache`
(:data:`GLOBAL_PLAN_CACHE` by default), keyed on backend, plan hash and
environment schema.
"""

from .buffers import HAVE_NUMBA, BufferDict, BufferLevels, to_buffer_levels
from .codegen import CompiledPlan, compile_plan
from .engine import (
    BACKENDS,
    DEFAULT_BACKEND,
    GLOBAL_PLAN_CACHE,
    ExecutionEngine,
    PlanCache,
    PreparedPlan,
    env_signature,
    result_to_dense,
    result_to_matrix,
    result_to_scalar,
    result_to_tensor3,
    result_to_vector,
)
from .typed_backend import TypedPlan, typed_plan

__all__ = [
    "BACKENDS", "DEFAULT_BACKEND",
    "CompiledPlan", "compile_plan",
    "TypedPlan", "typed_plan",
    "BufferDict", "BufferLevels", "to_buffer_levels", "HAVE_NUMBA",
    "ExecutionEngine", "PreparedPlan",
    "PlanCache", "GLOBAL_PLAN_CACHE", "env_signature",
    "result_to_dense", "result_to_matrix", "result_to_scalar",
    "result_to_tensor3", "result_to_vector",
]
