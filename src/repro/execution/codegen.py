"""Compilation of physical SDQLite plans to Python source code.

The paper executes optimized plans on Julia; this module is the analogous
backend for the reproduction: every plan is translated to a self-contained
Python function of one argument (the environment of physical symbols) built
out of nested ``for`` loops, direct array indexing and in-place dictionary
accumulation.  The generated code is considerably faster than the
tree-walking reference interpreter and is what the benchmark harness runs.

The translation is intentionally mechanical:

* ``sum``   → a ``for`` loop accumulating into a scalar or a dict,
* ``merge`` → a value-indexed probe of the right side (falling back to the
  generic semantics of Sec. 5.6),
* ``let``   → a local variable binding,
* ``e(i)``  → ``_lookup(e, i)`` (constant-time on arrays / hash-maps),
* ``lo:hi`` / ``e(lo:hi)`` → ``range``-based iteration without materialization.

Correctness is checked against the reference interpreter by the test suite
for every kernel / format combination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..sdqlite.ast import (
    Add,
    And,
    Cmp,
    Const,
    DictExpr,
    Div,
    Expr,
    Get,
    IfThen,
    Idx,
    Let,
    Merge,
    Mul,
    Neg,
    Not,
    Or,
    RangeExpr,
    SliceGet,
    Sub,
    Sum,
    Sym,
    Var,
)
from ..sdqlite.errors import ExecutionError
from ..sdqlite.values import is_scalar, is_zero, iter_items, lookup, v_add, v_mul

__all__ = ["compile_plan", "CompiledPlan"]


# ---------------------------------------------------------------------------
# Runtime helpers referenced by the generated code
# ---------------------------------------------------------------------------


def _runtime_iter(value):
    """Iterate (key, value) pairs of any physical collection.

    Same semantics as :func:`repro.sdqlite.values.iter_items` (which handles
    ``range`` and every dictionary-like), with one generated-code fast path:
    1-D arrays iterate over ``tolist()`` to avoid per-element NumPy scalar
    wrappers in the hot loop.
    """
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return enumerate(value.tolist())
    return iter_items(value)


def _runtime_slice(value, lo, hi):
    """Iterate (position, element) pairs of a sub-array without materializing it."""
    lo, hi = int(lo), int(hi)
    if isinstance(value, np.ndarray) and value.ndim == 1:
        chunk = value[lo:hi].tolist()
        return zip(range(lo, hi), chunk)
    return ((position, lookup(value, position)) for position in range(lo, hi))


def _add_into(accumulator, value):
    """Accumulate ``value`` into ``accumulator`` (dictionaries merge in place).

    Maintains the interpreter's ``SemiringDict`` invariant — a materialized
    dictionary never holds zero values — by skipping zero insertions and
    pruning entries that cancel to zero, so programs that *observe* keys
    (e.g. ``sum(<k, v> in e) k``) agree across backends (found by the
    differential fuzzer).
    """
    if is_scalar(accumulator) and is_scalar(value):
        return accumulator + value
    if is_scalar(accumulator):
        if accumulator == 0:
            accumulator = {}
        else:
            raise ExecutionError("cannot add a dictionary to a non-zero scalar")
    if is_scalar(value):
        if value == 0:
            return accumulator
        raise ExecutionError("cannot add a non-zero scalar to a dictionary")
    for key, item in (value.items() if hasattr(value, "items") else iter_items(value)):
        if key in accumulator:
            merged = _add_into(accumulator[key], item)
            if is_zero(merged):
                del accumulator[key]
            else:
                accumulator[key] = merged
        elif not is_zero(item):
            accumulator[key] = _to_mutable(item)
    return accumulator


def _to_mutable(value):
    if hasattr(value, "items"):
        return {key: _to_mutable(item) for key, item in value.items()}
    return value


def _singleton(key, value):
    """``{ key -> value }`` with the zero-pruning of the reference semantics."""
    if is_zero(value):
        return {}
    return {key: value}


#: ``+`` and ``*`` in generated code delegate to the canonical semiring
#: operations of :mod:`repro.sdqlite.values` — one definition of the
#: overloaded arithmetic shared by every backend, so they cannot drift.
RUNTIME = {
    "_iter": _runtime_iter,
    "_lookup": lookup,
    "_slice": _runtime_slice,
    "_add_into": _add_into,
    "_singleton": _singleton,
    "_mul": v_mul,
    "_vadd": v_add,
    "np": np,
}


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


@dataclass
class CompiledPlan:
    """A plan compiled to Python source plus its callable.

    ``sum_sources`` maps each loop slot to the source expression of the
    ``sum`` loop the compiler emitted there — the loop table consumed by the
    adaptive feedback layer.  Profiled execution (``profile`` argument set)
    runs a *separate* generated variant with per-loop iteration counters; it
    is compiled lazily on first use and cached on the artifact, so the
    unprofiled fast path stays byte-identical to a build without profiling.
    """

    source: str
    function: Callable[[Mapping[str, Any]], Any]
    plan: Expr | None = None
    sum_sources: Mapping[int, Expr] = field(default_factory=dict)
    _profiled: "CompiledPlan | None" = None

    def __call__(self, env: Mapping[str, Any], stats: dict | None = None,
                 profile=None) -> Any:
        """Execute against ``env``; ``stats`` is accepted for signature
        parity with :class:`~repro.execution.typed_backend.TypedPlan` and
        left untouched (generated loops keep no fallback counters)."""
        if profile is None:
            return self.function(env)
        variant = self._profiled
        if variant is None:
            if self.plan is None:
                return self.function(env)
            # Benign race: concurrent first profiled runs may both compile;
            # the variants are identical and the attribute write is atomic.
            variant = self._profiled = compile_plan(self.plan, profiled=True)
        return variant.function(env, profile)


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 1
        self._counter = itertools.count()

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._counter)}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def block(self):
        emitter = self

        class _Block:
            def __enter__(self_inner):
                emitter.indent += 1

            def __exit__(self_inner, *exc):
                emitter.indent -= 1

        return _Block()


class _Compiler:
    """Translates a De Bruijn plan into Python statements.

    With ``profiled`` set, every ``sum`` loop additionally maintains a local
    iteration counter and reports it to the ``_profile`` argument of the
    generated function after the loop; slot numbers follow emission order,
    which is identical in both modes (the traversal is the same).
    """

    def __init__(self, profiled: bool = False) -> None:
        self.emitter = _Emitter()
        self.symbols: set[str] = set()
        self.profiled = profiled
        self.sum_sources: list[Expr] = []

    # -- expression compilation: returns a Python expression string ---------

    def compile_expr(self, expr: Expr, env: list[str]) -> str:
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Sym):
            self.symbols.add(expr.name)
            return f"_env[{expr.name!r}]"
        if isinstance(expr, Idx):
            if expr.index >= len(env):
                raise ExecutionError(f"unbound index %{expr.index} during code generation")
            return env[-1 - expr.index]
        if isinstance(expr, Var):
            raise ExecutionError("named variables must be converted to De Bruijn form first")
        if isinstance(expr, Neg):
            return f"(-{self.compile_expr(expr.operand, env)})"
        if isinstance(expr, Not):
            return f"(not {self.compile_expr(expr.operand, env)})"
        if isinstance(expr, Add):
            return self._binary(expr, env, "_vadd", "+")
        if isinstance(expr, Sub):
            left = self.compile_expr(expr.left, env)
            right = self.compile_expr(expr.right, env)
            return f"_vadd({left}, _mul(-1, {right}))"
        if isinstance(expr, Mul):
            return self._binary(expr, env, "_mul", "*")
        if isinstance(expr, Div):
            left = self.compile_expr(expr.left, env)
            right = self.compile_expr(expr.right, env)
            return f"({left} / {right})"
        if isinstance(expr, Cmp):
            left = self.compile_expr(expr.left, env)
            right = self.compile_expr(expr.right, env)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, And):
            return f"({self.compile_expr(expr.left, env)} and {self.compile_expr(expr.right, env)})"
        if isinstance(expr, Or):
            return f"({self.compile_expr(expr.left, env)} or {self.compile_expr(expr.right, env)})"
        if isinstance(expr, Get):
            target = self.compile_expr(expr.target, env)
            key = self.compile_expr(expr.key, env)
            return f"_lookup({target}, {key})"
        if isinstance(expr, RangeExpr):
            lo = self.compile_expr(expr.lo, env)
            hi = self.compile_expr(expr.hi, env)
            return f"range(int({lo}), int({hi}))"
        if isinstance(expr, SliceGet):
            target = self.compile_expr(expr.target, env)
            lo = self.compile_expr(expr.lo, env)
            hi = self.compile_expr(expr.hi, env)
            return f"dict(_slice({target}, {lo}, {hi}))"
        if isinstance(expr, DictExpr):
            key = self.compile_expr(expr.key, env)
            value = self.compile_expr(expr.value, env)
            return f"_singleton({key}, {value})"
        # Statement-level constructs used in expression position are compiled
        # into a temporary via a nested emission.
        if isinstance(expr, (IfThen, Let, Sum, Merge)):
            return self.compile_statement(expr, env)
        raise ExecutionError(f"cannot generate code for {type(expr).__name__}")

    def _binary(self, expr, env: list[str], helper: str, operator: str) -> str:
        left = self.compile_expr(expr.left, env)
        right = self.compile_expr(expr.right, env)
        return f"{helper}({left}, {right})"

    # -- statement compilation: emits statements, returns the result variable --

    def compile_statement(self, expr: Expr, env: list[str]) -> str:
        emit = self.emitter.emit
        if isinstance(expr, IfThen):
            result = self.emitter.fresh("_t")
            cond = self.compile_expr(expr.cond, env)
            emit(f"{result} = 0")
            emit(f"if {cond}:")
            with self.emitter.block():
                value = self.compile_expr(expr.then, env)
                emit(f"{result} = {value}")
            return result
        if isinstance(expr, Let):
            bound = self.emitter.fresh("_x")
            value = self.compile_expr(expr.value, env)
            emit(f"{bound} = {value}")
            return self.compile_expr(expr.body, env + [bound])
        if isinstance(expr, Sum):
            slot = len(self.sum_sources)
            self.sum_sources.append(expr.source)
            accumulator = self.emitter.fresh("_acc")
            key = self.emitter.fresh("_k")
            value = self.emitter.fresh("_v")
            counter = self.emitter.fresh("_n") if self.profiled else None
            emit(f"{accumulator} = 0")
            if counter is not None:
                emit(f"{counter} = 0")
            source = self._compile_iteration(expr.source, env, key, value)
            emit(source)
            with self.emitter.block():
                if counter is not None:
                    emit(f"{counter} += 1")
                term = self.compile_expr(expr.body, env + [key, value])
                emit(f"{accumulator} = _add_into({accumulator}, {term})")
            if counter is not None:
                emit(f"_profile.record_loop({slot}, {counter})")
            return accumulator
        if isinstance(expr, Merge):
            accumulator = self.emitter.fresh("_acc")
            left = self.compile_expr(expr.left, env)
            right = self.compile_expr(expr.right, env)
            index = self.emitter.fresh("_byval")
            key1 = self.emitter.fresh("_k1")
            key2 = self.emitter.fresh("_k2")
            shared = self.emitter.fresh("_s")
            emit(f"{accumulator} = 0")
            emit(f"{index} = {{}}")
            emit(f"for {key2}, {shared} in _iter({right}):")
            with self.emitter.block():
                emit(f"{index}.setdefault({shared}, []).append({key2})")
            emit(f"for {key1}, {shared} in _iter({left}):")
            with self.emitter.block():
                emit(f"for {key2} in {index}.get({shared}, ()):")
                with self.emitter.block():
                    term = self.compile_expr(expr.body, env + [key1, key2, shared])
                    emit(f"{accumulator} = _add_into({accumulator}, {term})")
            return accumulator
        raise ExecutionError(f"cannot generate a statement for {type(expr).__name__}")

    def _compile_iteration(self, source: Expr, env: list[str], key: str, value: str) -> str:
        """The ``for`` statement iterating ``source`` without materializing it."""
        if isinstance(source, RangeExpr):
            lo = self.compile_expr(source.lo, env)
            hi = self.compile_expr(source.hi, env)
            return f"for {key} in range(int({lo}), int({hi})):\n" + \
                   "    " * (self.emitter.indent + 1) + f"{value} = {key}"
        if isinstance(source, SliceGet):
            target = self.compile_expr(source.target, env)
            lo = self.compile_expr(source.lo, env)
            hi = self.compile_expr(source.hi, env)
            return f"for {key}, {value} in _slice({target}, {lo}, {hi}):"
        expression = self.compile_expr(source, env)
        return f"for {key}, {value} in _iter({expression}):"


def compile_plan(plan: Expr, name: str = "generated_plan",
                 profiled: bool = False) -> CompiledPlan:
    """Compile a physical plan (De Bruijn form) into a Python function.

    ``profiled`` generates the instrumented variant taking a second
    ``_profile`` argument (see :class:`_Compiler`); plain callers never pay
    for it — :class:`CompiledPlan` builds it lazily on first profiled run.
    """
    compiler = _Compiler(profiled=profiled)
    result = compiler.compile_statement(plan, []) if isinstance(
        plan, (Sum, Let, IfThen, Merge)) else None
    if result is None:
        compiler = _Compiler(profiled=profiled)
        result_expr = compiler.compile_expr(plan, [])
        body_lines = compiler.emitter.lines + ["    _result = " + result_expr]
    else:
        body_lines = compiler.emitter.lines + ["    _result = " + result]
    header = f"def {name}(_env, _profile=None):" if profiled else f"def {name}(_env):"
    source = "\n".join(
        [header] + (body_lines or ["    pass"]) + ["    return _result"]
    )
    namespace = dict(RUNTIME)
    try:
        exec(compile(source, f"<{name}>", "exec"), namespace)  # noqa: S102 - code generation
    except SyntaxError as exc:  # pragma: no cover - indicates a compiler bug
        raise ExecutionError(f"generated code failed to compile: {exc}\n{source}") from exc
    return CompiledPlan(source=source, function=namespace[name], plan=plan,
                        sum_sources=dict(enumerate(compiler.sum_sources)))
