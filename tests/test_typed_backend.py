"""Unit tests for the typed-buffer backend (repro.execution.typed_backend).

The kernel × format parity matrix lives in ``tests/test_execution.py`` and
the differential fuzzer exercises random programs; these tests target the
individual mechanisms: lane expansion over :class:`BufferLevels`, batched
arithmetic and masked conditionals, gather with out-of-bounds keys, sorted
lookups (including empty levels), probe short-circuiting, guard hoisting
through ``let``, loop-invariant memoization, the per-loop fallback and its
accounting, and the scatter path that turns root :class:`BufferDict`
results into dense arrays.
"""

import numpy as np
import pytest

from repro.execution import typed_plan
from repro.execution.buffers import (
    HAVE_NUMBA,
    BufferDict,
    BufferLevels,
    levels_from_mapping,
    lookup_sorted,
)
from repro.execution.engine import result_to_matrix, result_to_vector
from repro.execution.typed_backend import _hoist_guard, _is_closed, _uses_sum_binders
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.ast import Cmp, Idx, IfThen, Let, Sum, Sym
from repro.sdqlite.values import SemiringDict, to_plain
from repro.storage import TrieFormat, build_format


def db(source):
    return to_debruijn(parse_expr(source))


def check(source, env, stats=None):
    plan = db(source)
    typed = typed_plan(plan)(env, stats)
    interpreted = evaluate(plan, env)
    assert values_equal(typed, interpreted)
    return typed


# ---------------------------------------------------------------------------
# lane expansion and batched arithmetic
# ---------------------------------------------------------------------------


def test_scalar_reductions_match_interpreter():
    env = {"V": np.array([1.0, -2.0, 3.0, 4.0]), "N": 4}
    assert check("sum(<i, v> in V) v * v + 1", env) == pytest.approx(34.0)
    assert check("sum(<i, v> in V) if (v > 0 && i < 3) then v", env) == pytest.approx(4.0)
    assert check("sum(<i, _> in 0:N) i", env) == 6


def test_batched_arithmetic_and_comparisons():
    env = {"V": np.array([1.0, -2.0, 3.0, 4.0]), "N": 4}
    assert check("sum(<i, v> in V) v - i", env) == pytest.approx(0.0)
    assert check("sum(<i, v> in V) v / 2", env) == pytest.approx(3.0)
    assert check("sum(<i, v> in V) -v", env) == pytest.approx(-6.0)
    assert check("sum(<i, v> in V) if (v < 0 || i >= 3) then 1", env) == 2
    assert check("sum(<i, v> in V) if (!(v == 3)) then v", env) == pytest.approx(3.0)


def test_zero_divisor_matches_the_interpreter():
    # Python-scalar values: both backends raise ZeroDivisionError.
    env = {"D": {0: 1.0, 1: 0.0}}
    plan = db("sum(<i, v> in D) 8 / v")
    with pytest.raises(ZeroDivisionError):
        evaluate(plan, env)
    with pytest.raises(ZeroDivisionError):
        typed_plan(plan)(env)
    # NumPy-scalar values: the interpreter yields inf, and so do we (the
    # batched path must not silently diverge by masking the lane).
    env = {"V": np.array([1.0, 0.0])}
    plan = db("sum(<i, v> in V) 8 / v")
    with np.errstate(divide="ignore"):
        assert typed_plan(plan)(env) == evaluate(plan, env) == np.inf
    # A guarded division never divides by zero on any backend.
    env = {"V": np.array([2.0, 0.0, 4.0])}
    assert check("sum(<i, v> in V) if (v != 0) then 8 / v", env) == pytest.approx(6.0)


def test_batched_dict_construction_and_nesting():
    env = {"V": np.array([1.0, 2.0, 3.0]), "N": 3}
    result = check("sum(<i, _> in 0:N) { i -> { i -> V(i) } }", env)
    assert to_plain(result) == {0: {0: 1.0}, 1: {1: 2.0}, 2: {2: 3.0}}
    # Repeated keys accumulate (scatter-add), matching per-iteration v_add.
    result = check("sum(<i, v> in V) { 0 -> v }", env)
    assert to_plain(result) == {0: 6.0}


def test_non_integer_scalar_key_falls_back_to_float_keys():
    # The interpreter keeps 2.5 as a float key; the batched path must fall
    # back rather than truncate it to 2.
    env = {"V": np.array([1.0, 2.0]), "c": 2.5}
    result = check("sum(<i, v> in V) { c -> v }", env)
    assert to_plain(result) == {2.5: 3.0}


def test_batched_conditional_masks_dict_entries():
    env = {"V": np.array([1.0, 0.0, 3.0, 4.0])}
    result = check("sum(<i, v> in V) if (v > 1) then { i -> v }", env)
    assert to_plain(result) == {2: 3.0, 3: 4.0}


def test_scalar_body_constant_across_lanes():
    env = {"N": 5}
    assert check("sum(<i, _> in 0:N) 3", env) == 15
    assert check("sum(<i, _> in 0:N) { 1 -> 2 }", env) == SemiringDict({1: 10})


def test_empty_iteration_spaces():
    env = {"V": np.empty(0, dtype=np.float64), "N": 0}
    assert check("sum(<i, v> in V) v", env) == 0
    assert check("sum(<i, _> in 0:N) { i -> 1 }", env) == 0


def test_nested_sums_expand_lanes():
    matrix = build_format("csr", "A", np.array([[1.0, 0.0], [2.0, 3.0]]))
    env = matrix.physical()
    check("sum(<row, _> in 0:A_len1) "
          "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
          "{ col -> A_val(off) }", env)


def test_dictionary_results_are_buffer_dicts():
    env = {"V": np.array([1.0, 0.0, 3.0])}
    result = check("sum(<i, v> in V) { i -> 2 * v }", env)
    assert isinstance(result, BufferDict)


# ---------------------------------------------------------------------------
# lookups, including the empty-collection edge the fuzzer found
# ---------------------------------------------------------------------------


def test_lookup_sorted_empty_haystack_reports_miss():
    pos, found = lookup_sorted(np.empty(0, dtype=np.int64),
                               np.array([0, 5], dtype=np.int64))
    assert not found.any()


def test_probe_into_empty_trie_is_zero():
    # Regression: seed 7000000091 — probing an empty levelized dictionary
    # indexed values[pos] on a zero-length array.
    empty = TrieFormat.from_coo("T1", np.empty((0, 1), dtype=np.int64),
                                np.empty(0), (2,))
    env = empty.physical()
    assert check("sum(<k1, v2> in 0:2) T1_trie(k1)", env) == 0


def test_probe_out_of_range_keys():
    env = {"V": np.array([5.0, 6.0, 7.0]), "N": 5}
    assert check("sum(<i, _> in 0:N) V(i)", env) == pytest.approx(18.0)


def test_batched_gather_with_out_of_bounds_keys():
    env = {"IDX": np.array([0, 5, 2, -1]), "V": np.array([10.0, 20.0, 30.0])}
    # Keys 5 and -1 are out of bounds and must contribute the default 0.
    assert check("sum(<p, i> in IDX) V(i)", env) == pytest.approx(40.0)


def test_probe_handles_all_source_kinds():
    env = {"V": np.array([4.0, 5.0, 6.0]), "N": 3, "j": 2}
    assert check("sum(<i, _> in 0:N) if (i == j) then 10", env) == 10
    assert check("sum(<i, v> in V) if (i == j) then v", env) == pytest.approx(6.0)
    assert check("sum(<p, v> in V(1:3)) if (p == j) then v", env) == pytest.approx(6.0)
    # Dictionary sources are not probed but still agree via iteration.
    env_dict = {"D": {0: 1.0, 2: 9.0}, "j": 2}
    assert check("sum(<i, v> in D) if (i == j) then v", env_dict) == pytest.approx(9.0)


def test_probe_does_not_fire_when_expression_uses_loop_variables():
    env = {"N": 4}
    # i == i is True on every iteration; a naive probe would collapse it.
    assert check("sum(<i, _> in 0:N) if (i == i) then 1", env) == 4


def test_uses_sum_binders_accounts_for_nested_binders():
    # %1 at depth 0 is the sum key; under one extra binder it is %2.
    assert _uses_sum_binders(Idx(1))
    assert _uses_sum_binders(Idx(0))
    assert not _uses_sum_binders(Idx(2))
    inner = Sum(Sym("V"), Cmp("==", Idx(3), Idx(0)))  # %3 = outer sum key
    assert _uses_sum_binders(inner)
    assert not _uses_sum_binders(Sum(Sym("V"), Cmp("==", Idx(4), Idx(0))))


# ---------------------------------------------------------------------------
# guard hoisting through let
# ---------------------------------------------------------------------------


def test_hoist_guard_moves_condition_above_let():
    body = db("sum(<i, v> in V) let x = v in if (i == 2) then x").body
    hoisted = _hoist_guard(body)
    assert isinstance(hoisted, IfThen)
    assert isinstance(hoisted.then, Let)


def test_hoist_guard_keeps_dependent_condition_in_place():
    body = db("sum(<i, v> in V) let x = v in if (x > 0) then x").body
    assert isinstance(_hoist_guard(body), Let)


def test_probe_behind_let_matches_interpreter():
    env = {"V": np.array([5.0, 6.0, 7.0]), "X": np.array([1.0, 2.0, 3.0])}
    check("sum(<i, v> in V) let x = X(i) in if (i == 1) then v * x", env)


# ---------------------------------------------------------------------------
# stats and fallback accounting
# ---------------------------------------------------------------------------


def test_stats_report_kernelized_loops():
    stats = {}
    check("sum(<i, v> in V) { i -> v }", {"V": np.array([1.0, 2.0])}, stats)
    assert stats["sum_loops"] == 1
    assert stats["fallback_sums"] == 0
    assert stats["fallback_merges"] == 0


def test_trie_source_matches_interpreter():
    trie = TrieFormat.from_dense("A", np.array([[1.0, 0.0], [0.0, 2.0]]))
    env = trie.physical()
    result = check("sum(<i, row> in A_trie, <j, v> in row) { (j, i) -> v }", env)
    assert to_plain(result) == {0: {0: 1.0}, 1: {1: 2.0}}


def test_nested_dict_iteration_stays_correct():
    env = {"M": {0: {0: 1.0, 1: 2.0}, 1: {1: 3.0}}, "N": 2,
           "X": np.array([5.0, 7.0])}
    result = check("sum(<i, row> in M) { i -> sum(<k, _> in 0:N) row(k) * X(k) }", env)
    assert to_plain(result) == {0: 1.0 * 5 + 2.0 * 7, 1: 3.0 * 7}


def test_nested_sum_on_outer_lane_is_contained():
    # The inner sum's body looks up the outer loop variable: the typed path
    # must contain it (batch or fall back per loop), never leak an error.
    env = {"V": np.array([1.0, 2.0, 3.0]), "H": {0: {0: 1.0}}}
    result = check("sum(<i, v> in V) v * (sum(<k, r> in H) r(i))", env)
    assert result == pytest.approx(1.0)


def test_merge_matches_interpreter():
    env = {"L": {0: 1, 1: 2}, "R": {0: 2, 1: 1, 2: 2}}
    result = check("merge(<p, q, v> in <L, R>) { v -> 1 }", env)
    assert to_plain(result) == {1: 1, 2: 2}


def test_source_marker_names_the_kernel_mode():
    plan = typed_plan(db("sum(<i, v> in V) v"))
    mode = "numba-JIT" if HAVE_NUMBA else "NumPy"
    assert mode in plan.source
    assert "typed" in plan.source


# ---------------------------------------------------------------------------
# loop-invariant memoization (closed subplans evaluate in empty frames)
# ---------------------------------------------------------------------------


def test_loop_invariant_sum_is_memoized_per_execution():
    calls = {"n": 0}

    class CountingDict(dict):
        def items(self):
            calls["n"] += 1
            return super().items()

    env = {"D": CountingDict({0: 1.0, 1: 2.0}), "N": 50}
    plan = db("sum(<i, _> in 0:N) (sum(<k, v> in D) { k -> v })(i)")
    typed = typed_plan(plan)
    first = typed(env)
    # The closed inner sum materialized once for the whole execution, not
    # once per outer iteration (the interpreter re-iterates D on every one).
    per_run = calls["n"]
    assert per_run <= 2
    typed(env)
    assert calls["n"] == 2 * per_run  # recomputed per run(), not cached across
    assert values_equal(first, evaluate(plan, env))


def test_is_closed_tracks_binders():
    assert _is_closed(db("sum(<i, v> in V) { i -> v }"))
    open_sum = Sum(Sym("V"), Idx(2))  # %2 escapes the sum's two binders
    assert not _is_closed(open_sum)


def test_invariant_subplan_with_nested_sums():
    # The inner sum over W is loop-invariant; memoized evaluation must not
    # see the outer batched frames (regression: TTM reindexed outer lanes).
    env = {"V": np.array([1.0, 2.0, 3.0]), "W": np.array([4.0, 5.0])}
    check("sum(<i, v> in V) v * sum(<j, w> in W) w * w", env)


# ---------------------------------------------------------------------------
# scatter of root BufferDict results into dense outputs
# ---------------------------------------------------------------------------


def test_result_to_vector_scatters_buffer_dict():
    env = {"V": np.array([1.0, 0.0, 3.0])}
    result = typed_plan(db("sum(<i, v> in V) { i -> 2 * v }"))(env)
    np.testing.assert_allclose(result_to_vector(result, 3), [2.0, 0.0, 6.0])


def test_result_to_matrix_scatters_buffer_dict():
    dense = np.array([[1.0, 0.0], [2.0, 3.0]])
    fmt = build_format("csr", "A", dense)
    env = fmt.physical()
    plan = db("sum(<row, _> in 0:A_len1) "
              "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
              "{ row -> { col -> A_val(off) } }")
    result = typed_plan(plan)(env)
    np.testing.assert_allclose(result_to_matrix(result, (2, 2)), dense)


# ---------------------------------------------------------------------------
# buffer levels structure
# ---------------------------------------------------------------------------


def test_levels_from_mapping_roundtrip():
    nested = {0: {1: 2.0}, 2: {0: 4.0, 2: 5.0}}
    levels = levels_from_mapping(nested)
    assert levels is not None
    coords = levels.leaf_coords()
    rebuilt = {}
    for coordinate, value in zip(coords, levels.values):
        rebuilt.setdefault(int(coordinate[0]), {})[int(coordinate[1])] = value
    assert rebuilt == nested


def test_levels_from_mapping_rejects_ragged_depth():
    assert levels_from_mapping({0: {1: 2.0}, 1: 3.0}) is None


def test_empty_buffer_levels_have_empty_leaves():
    levels = BufferLevels.from_sorted_coords(np.empty((0, 2), dtype=np.int64),
                                             np.empty(0))
    assert levels.depth == 2
    assert levels.leaf_coords().shape == (0, 2)


# ---------------------------------------------------------------------------
# numba-specific behavior (runs only where numba is importable)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_numba_kernels_match_numpy_reference():
    rng = np.random.default_rng(3)
    env = {"V": rng.random(1000)}
    stats = {}
    result = check("sum(<i, v> in V) { i -> v * v }", env, stats)
    assert stats["fallback_sums"] == 0
    assert isinstance(result, BufferDict)


@pytest.mark.skipif(HAVE_NUMBA, reason="covered by the numba leg in CI")
def test_numpy_fallback_mode_is_active():
    assert "NumPy" in typed_plan(db("sum(<i, v> in V) v")).source
