"""Tests for the execution engine: all backends agree with the interpreter."""

import numpy as np
import pytest

from repro.core import compose, strategies
from repro.data.synthetic import random_dense_vector, random_sparse_matrix, random_sparse_tensor3
from repro.execution import (
    BACKENDS,
    ExecutionEngine,
    PlanCache,
    compile_plan,
    env_signature,
    result_to_dense,
    result_to_matrix,
    result_to_scalar,
    result_to_vector,
    typed_plan,
)
from repro.kernels import KERNELS
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.errors import ExecutionError
from repro.sdqlite.values import to_plain
from repro.storage import (
    FORMATS,
    Catalog,
    CSFFormat,
    CSRFormat,
    DenseFormat,
    DOKFormat,
    build_format,
)


def db(source):
    return to_debruijn(parse_expr(source))


def both_backends(plan, env):
    compiled = compile_plan(plan)(env)
    interpreted = evaluate(plan, env)
    assert values_equal(compiled, interpreted)
    return compiled


def test_codegen_scalar_expressions():
    assert compile_plan(db("1 + 2 * 3"))({}) == 7
    assert compile_plan(db("let x = 4 in x * x"))({}) == 16
    assert compile_plan(db("if (2 > 3) then 5"))({}) == 0
    assert compile_plan(db("if (3 > 2) then 5"))({}) == 5


def test_codegen_sum_and_dict():
    env = {"V": {0: 2.0, 3: -1.0, 5: 4.0}}
    result = both_backends(db("sum(<i, v> in V) if (v > 0) then { i -> 5 * v }"), env)
    assert to_plain(result) == {0: 10.0, 5: 20.0}


def test_codegen_range_slice_and_lookup():
    env = {"A_val": np.array([1.0, 2.0, 3.0, 4.0]), "N": 4}
    result = both_backends(db("sum(<i, _> in 0:N) { i -> A_val(i) * 2 }"), env)
    assert to_plain(result) == {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0}
    result = both_backends(db("sum(<p, v> in A_val(1:3)) v"), env)
    assert result == pytest.approx(5.0)
    assert both_backends(db("A_val(9)"), env) == 0


def test_codegen_merge():
    env = {"L": {0: 3, 1: 5}, "R": {0: 5, 1: 3, 2: 5},
           "V1": np.array([1.0, 2.0]), "V2": np.array([10.0, 20.0, 30.0])}
    plan = db("merge(<p1, p2, l> in <L, R>) { l -> V1(p1) * V2(p2) }")
    result = both_backends(plan, env)
    assert to_plain(result) == {5: 2.0 * 10.0 + 2.0 * 30.0, 3: 1.0 * 20.0}


def test_codegen_named_variables_rejected():
    with pytest.raises(ExecutionError):
        compile_plan(parse_expr("sum(<i, v> in V) { i -> v }"))  # named form


def test_codegen_source_is_inspectable():
    plan = db("sum(<i, v> in V) { i -> v }")
    compiled = compile_plan(plan, name="my_plan")
    assert "def my_plan(_env):" in compiled.source
    assert "_iter" in compiled.source


@pytest.mark.parametrize("kernel_name", ["MMM", "SUMMM", "BATAX", "BATAX-nested", "TTM", "MTTKRP"])
def test_codegen_matches_interpreter_on_all_kernels(kernel_name):
    kernel = KERNELS[kernel_name]
    size = 8
    catalog = Catalog()
    a = random_sparse_matrix(size, size, 0.3, seed=21)
    if kernel_name in ("MMM", "SUMMM"):
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(size, size, 0.3, seed=22)))
    elif kernel_name.startswith("BATAX"):
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(DenseFormat.from_dense("X", random_dense_vector(size, seed=23)))
        catalog.add_scalar("beta", 2.0)
    else:
        coords, values = random_sparse_tensor3(size, 5, 6, 0.1, seed=24)
        catalog.add(CSFFormat.from_coo("A", coords, values, (size, 5, 6)))
        catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(5 if kernel_name == "MTTKRP" else 4, 6 if kernel_name == "TTM" else 4, 0.5, seed=25)))
        if kernel_name == "MTTKRP":
            catalog.add(CSRFormat.from_dense("C", random_sparse_matrix(6, 4, 0.5, seed=26)))
    naive = compose(kernel.program, catalog.mappings())
    env = catalog.globals()
    for name, plan in strategies.candidate_plans(naive).items():
        both_backends(plan, env)


def test_execution_engine_backends_agree():
    catalog = Catalog()
    catalog.add(DOKFormat.from_dense("A", random_sparse_matrix(6, 6, 0.4, seed=31)))
    plan = db("sum(<(i,j), v> in A_hash) { i -> v }")
    compiled_engine = ExecutionEngine.for_catalog(catalog, backend="compile")
    interpreted_engine = ExecutionEngine.for_catalog(catalog, backend="interpret")
    assert values_equal(compiled_engine.run(plan), interpreted_engine.run(plan))
    prepared = compiled_engine.prepare(plan)
    assert "def" in prepared.source
    assert interpreted_engine.prepare(plan).source == "<interpreted>"
    with pytest.raises(ExecutionError):
        ExecutionEngine(env={}, backend="julia").prepare(plan)


# ---------------------------------------------------------------------------
# kernel × format parity with the interpreter
# ---------------------------------------------------------------------------

MATRIX_FORMATS = ("dense", "coo", "csr", "csc", "dcsr", "dok", "trie")
TENSOR3_FORMATS = ("coo", "csf", "dok", "trie")

_PARITY_CASES = [
    (kernel, fmt)
    for kernel in ("MMM", "SUMMM", "BATAX", "BATAX-nested")
    for fmt in MATRIX_FORMATS
] + [
    (kernel, fmt)
    for kernel in ("TTM", "MTTKRP")
    for fmt in TENSOR3_FORMATS
]


def _parity_catalog(kernel_name: str, fmt: str, size: int = 8) -> Catalog:
    catalog = Catalog()
    a = random_sparse_matrix(size, size, 0.3, seed=21)
    if kernel_name in ("MMM", "SUMMM"):
        catalog.add(build_format(fmt, "A", a))
        catalog.add(build_format(fmt, "B", random_sparse_matrix(size, size, 0.3, seed=22)))
    elif kernel_name.startswith("BATAX"):
        catalog.add(build_format(fmt, "A", a))
        catalog.add(DenseFormat.from_dense("X", random_dense_vector(size, seed=23)))
        catalog.add_scalar("beta", 2.0)
    else:
        coords, values = random_sparse_tensor3(size, 5, 6, 0.15, seed=24)
        catalog.add(FORMATS[fmt].from_coo("A", coords, values, (size, 5, 6)))
        other_rows = 5 if kernel_name == "MTTKRP" else 4
        other_cols = 6 if kernel_name == "TTM" else 4
        catalog.add(CSRFormat.from_dense(
            "B", random_sparse_matrix(other_rows, other_cols, 0.5, seed=25)))
        if kernel_name == "MTTKRP":
            catalog.add(build_format("csc", "C", random_sparse_matrix(6, 4, 0.5, seed=26)))
    return catalog


@pytest.mark.parametrize("kernel_name,fmt", _PARITY_CASES,
                         ids=[f"{k}-{f}" for k, f in _PARITY_CASES])
def test_typed_matches_interpreter(kernel_name, fmt):
    """The typed backend equals the interpreter on every kernel × format."""
    kernel = KERNELS[kernel_name]
    catalog = _parity_catalog(kernel_name, fmt)
    naive = compose(kernel.program, catalog.mappings())
    env = catalog.globals()
    for plan in strategies.candidate_plans(naive).values():
        assert values_equal(typed_plan(plan)(env), evaluate(plan, env))


@pytest.mark.parametrize("kernel_name,fmt", _PARITY_CASES,
                         ids=[f"{k}-{f}" for k, f in _PARITY_CASES])
def test_codegen_matches_interpreter_parity_matrix(kernel_name, fmt):
    """The compile backend equals the interpreter on every kernel × format.

    The counterpart of ``test_typed_matches_interpreter``: before this
    matrix ``compile`` was exercised on a handful of hand-picked catalogs
    only (and the differential fuzzer promptly found a zero-pruning
    divergence there — see ``tests/corpus/codegen_zero_value_keys.py``).
    """
    kernel = KERNELS[kernel_name]
    catalog = _parity_catalog(kernel_name, fmt)
    naive = compose(kernel.program, catalog.mappings())
    env = catalog.globals()
    for plan in strategies.candidate_plans(naive).values():
        assert values_equal(compile_plan(plan)(env), evaluate(plan, env))


def test_engine_backends_agree():
    catalog = Catalog()
    catalog.add(CSRFormat.from_dense("A", random_sparse_matrix(9, 9, 0.4, seed=51)))
    plan = db("sum(<row, _> in 0:A_len1) "
              "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
              "{ col -> A_val(off) }")
    results = {backend: ExecutionEngine.for_catalog(catalog, backend=backend,
                                                    cache=PlanCache()).run(plan)
               for backend in BACKENDS}
    assert values_equal(results["typed"], results["interpret"])
    assert values_equal(results["typed"], results["compile"])


def test_typed_probe_shortcut_semantics():
    """Equality-probe loops: in range, out of range, and non-integer probes."""
    env = {"V": np.array([5.0, 6.0, 7.0]), "N": 3}
    for j, expected in [(1, 6.0), (7, 0), (-2, 0)]:
        plan = db(f"sum(<i, v> in V) if (i == {j}) then v")
        assert typed_plan(plan)(env) == evaluate(plan, env) == expected
    plan = db("sum(<i, _> in 0:N) if (i == 1.5) then 9")
    assert typed_plan(plan)(env) == evaluate(plan, env) == 0
    # Probe expression referencing an outer binder.
    plan = db("sum(<j, _> in 0:N) { j -> sum(<i, v> in V) if (i == j) then 2 * v }")
    assert values_equal(typed_plan(plan)(env), evaluate(plan, env))


def test_typed_source_marker_and_named_form_rejection():
    plan = db("sum(<i, v> in V) { i -> v }")
    assert "typed" in typed_plan(plan).source
    with pytest.raises(ExecutionError):
        typed_plan(parse_expr("sum(<i, v> in V) { i -> v }"))  # named form


# ---------------------------------------------------------------------------
# PreparedPlan caching
# ---------------------------------------------------------------------------


def test_plan_cache_hits_on_repeated_prepare():
    cache = PlanCache(maxsize=8)
    env = {"V": np.array([1.0, 2.0, 3.0])}
    engine = ExecutionEngine(env=env, backend="compile", cache=cache)
    plan = db("sum(<i, v> in V) v")
    first = engine.prepare(plan)
    assert (cache.hits, cache.misses) == (0, 1)
    second = engine.prepare(plan)
    assert (cache.hits, cache.misses) == (1, 1)
    # The lowered artifact is shared; the bound environment is per-prepare.
    assert second.artifact is first.artifact
    assert first.run() == second.run() == pytest.approx(6.0)


def test_plan_cache_invalidates_on_env_schema_and_backend():
    cache = PlanCache(maxsize=8)
    plan = db("sum(<i, v> in V) v")
    array_env = {"V": np.array([1.0, 2.0])}
    dict_env = {"V": {0: 1.0, 5: 4.0}}
    ExecutionEngine(env=array_env, backend="compile", cache=cache).prepare(plan)
    ExecutionEngine(env=dict_env, backend="compile", cache=cache).prepare(plan)
    assert cache.misses == 2 and cache.hits == 0  # different env schema
    ExecutionEngine(env=array_env, backend="typed", cache=cache).prepare(plan)
    assert cache.misses == 3  # different backend
    other_plan = db("sum(<i, v> in V) 2 * v")
    ExecutionEngine(env=array_env, backend="compile", cache=cache).prepare(other_plan)
    assert cache.misses == 4  # different plan hash
    ExecutionEngine(env=array_env, backend="compile", cache=cache).prepare(plan)
    assert cache.hits == 1


def test_plan_cache_lru_eviction_and_clear():
    cache = PlanCache(maxsize=2)
    env = {"V": np.array([1.0])}
    engine = ExecutionEngine(env=env, backend="compile", cache=cache)
    plans = [db(f"sum(<i, v> in V) {k} * v") for k in (1, 2, 3)]
    engine.prepare(plans[0])
    engine.prepare(plans[1])
    engine.prepare(plans[2])          # evicts plans[0]
    assert len(cache) == 2
    engine.prepare(plans[0])          # miss again after eviction
    assert cache.misses == 4
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_plan_cache_interpret_bypasses_cache():
    cache = PlanCache()
    env = {"V": {0: 2.0}}
    engine = ExecutionEngine(env=env, backend="interpret", cache=cache)
    plan = db("sum(<i, v> in V) v")
    assert engine.run(plan) == 2.0
    assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


def test_env_signature_is_schema_level():
    a = {"X": np.zeros(3), "n": 3}
    b = {"n": 7, "X": np.ones(9)}
    assert env_signature(a) == env_signature(b)
    assert env_signature(a) != env_signature({"X": {0: 1.0}, "n": 3})


def test_prepared_plan_backend_property():
    catalog = Catalog()
    catalog.add(DenseFormat.from_dense("V", np.array([1.0, 2.0])))
    plan = db("sum(<i, v> in V_val) v")
    for backend in BACKENDS:
        engine = ExecutionEngine.for_catalog(catalog, backend=backend, cache=PlanCache())
        assert engine.prepare(plan).backend == backend


def test_result_conversions():
    assert result_to_scalar(5.0) == 5.0
    assert result_to_scalar({}) == 0.0
    with pytest.raises(ExecutionError):
        result_to_scalar({1: 2.0})
    np.testing.assert_array_equal(result_to_vector({0: 1.0, 3: 2.0}, 5),
                                  [1.0, 0.0, 0.0, 2.0, 0.0])
    np.testing.assert_array_equal(result_to_matrix({0: {1: 3.0}}, (2, 2)),
                                  [[0.0, 3.0], [0.0, 0.0]])
    tensor = result_to_dense({0: {1: {2: 4.0}}}, (2, 2, 3))
    assert tensor[0, 1, 2] == 4.0
    assert result_to_dense(7.5, ()) == 7.5
    np.testing.assert_array_equal(result_to_dense(0, (2,)), [0.0, 0.0])
