"""Typed-buffer compiled execution of physical SDQLite plans.

The default execution backend (``backend="typed"``).  Where the ``compile``
backend runs every ``sum`` as a scalar Python loop, this backend batches
whole loop nests into NumPy kernels:

* every collection is viewed through the flat columnar buffers of
  :mod:`repro.execution.buffers` (one sorted int64 key array per nesting
  level plus segment pointers and a float64 leaf array),
* a ``sum`` nested inside a batched body **expands the lane space** instead
  of bailing out: each outer lane fans out into its iteration sub-space
  (``expand_ranges`` over per-lane slice bounds or trie segments) and every
  enclosing binding is re-indexed onto the expanded lanes,
* lookups with per-lane keys into nested dictionaries become one
  composite-key ``searchsorted`` over the level's (parent, key) order,
* equality-probe loops (``sum(<k,_> in S) if (e == k) then ...``) with a
  *per-lane* probe key become one batched point lookup,
* ``merge`` over flat scalar-valued collections becomes a value-sorted join
  (argsort + ``searchsorted``) instead of a per-key Python dict of lists,
* dictionary-shaped loop bodies accumulate as flat (coords, values) entry
  bags whose final reduction is a single lexicographic group-by-sum
  producing a :class:`~repro.execution.buffers.BufferDict` — a lazy view the
  engine's ``result_to_*`` helpers scatter straight into dense output.

The kernels underneath (:func:`~repro.execution.buffers.expand_ranges`,
:func:`~repro.execution.buffers.parent_sum`,
:func:`~repro.execution.buffers.lookup_sorted`) JIT via ``numba.njit`` when
numba is importable and run as equivalent NumPy code when it is not, so the
backend is always available; pure Python remains the reference path.

Anything the typed representation cannot hold (tuple or non-integral float
dictionary keys, ragged nesting, value types that only exist mid-expression)
raises :class:`Untyped`; the nearest enclosing non-batched ``sum`` (or
``merge``) then falls back to a plain Python loop — inside which nested
sums get a fresh chance to batch — so the backend executes every plan the
interpreter executes, with identical results.  The number of loops that took
the fallback is reported through the optional ``stats`` sink (see
:class:`TypedPlan`).
"""

from __future__ import annotations

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
    binder_arities,
    children,
)
from ..sdqlite.debruijn import free_indices, shift
from ..sdqlite.errors import EvaluationError, ExecutionError
from ..sdqlite.values import (
    RangeDict,
    SemiringDict,
    SliceDict,
    integral_index,
    is_scalar,
    is_zero,
    iter_items,
    lookup,
    merge_hashable,
    normalize_key,
    truthy,
    v_add,
    v_mul,
    v_sub,
)
from ..storage.physical import PhysicalArray
from .buffers import (
    BufferDict,
    BufferLevels,
    LevelView,
    expand_ranges,
    group_sum_sorted,
    lookup_sorted,
    parent_sum,
    to_buffer_levels,
)

__all__ = ["typed_plan", "TypedPlan", "Untyped"]

#: Lane-count ceiling for cross-product expansion of a loop-invariant source
#: inside a batched body (outer lanes × inner entries).  Beyond it the sum
#: falls back rather than materialize huge intermediates.
_EXPANSION_CAP = 1 << 23


def _uses_sum_binders(expr: Expr, depth: int = 0) -> bool:
    """True when ``expr`` (inside a sum body) references the sum's key or value.

    ``depth`` counts binders entered below the sum body; the sum's own
    binders appear as indices ``depth`` (value) and ``depth + 1`` (key).
    """
    if isinstance(expr, Idx):
        return depth <= expr.index < depth + 2
    for child, arity in zip(children(expr), binder_arities(expr)):
        if _uses_sum_binders(child, depth + arity):
            return True
    return False


def _is_closed(expr: Expr, depth: int = 0) -> bool:
    """True when ``expr`` references no De Bruijn index bound outside itself."""
    if isinstance(expr, Idx):
        return expr.index < depth
    return all(_is_closed(child, depth + arity)
               for child, arity in zip(children(expr), binder_arities(expr)))


#: Sentinel distinguishing "probe missed" (contributes 0) from "not probeable".
_NO_PROBE = object()


def _probe_entry(source, key: int):
    """O(1) lookup of ``key`` in a dense iteration space.

    Returns the iteration value for ``key``, 0-contribution ``None`` when the
    key is outside the space, or :data:`_NO_PROBE` when the source is not a
    range / array / array slice (whose keys are exactly the positions — for
    other collections the caller must iterate).
    """
    if isinstance(source, PhysicalArray):
        source = source.data
    if isinstance(source, RangeDict):
        return key if source.lo <= key < source.hi else None
    if isinstance(source, np.ndarray) and source.ndim == 1:
        return source[key] if 0 <= key < source.shape[0] else None
    if isinstance(source, SliceDict):
        if source.lo <= key < source.hi:
            return lookup(source.target, key)
        return None
    return _NO_PROBE


_COMPARATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Untyped(Exception):
    """Raised when a construct has no typed-buffer representation.

    Caught by the nearest enclosing non-batched ``sum``/``merge``, which
    falls back to a Python loop (re-creating the interpreter's behaviour,
    including its error behaviour, exactly).
    """


# ---------------------------------------------------------------------------
# Batched value representations
# ---------------------------------------------------------------------------


class TBatch:
    """A scalar per lane: one NumPy array over the current lane space."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TBatch({self.data!r})"


class TBatchDict:
    """A singleton dictionary ``{ key -> value }`` per lane.

    ``keys`` is int64 per lane; ``value`` is a per-lane array (scalar leaf)
    or a nested :class:`TBatchDict`; ``mask`` marks lanes whose entry exists.
    """

    __slots__ = ("keys", "value", "mask")

    def __init__(self, keys: np.ndarray, value, mask: np.ndarray | None = None):
        self.keys = keys
        self.value = value
        self.mask = mask

    def with_mask(self, mask: np.ndarray) -> "TBatchDict":
        combined = mask if self.mask is None else (self.mask & mask)
        return TBatchDict(self.keys, self.value, combined)

    def scaled(self, factor) -> "TBatchDict":
        if isinstance(self.value, TBatchDict):
            return TBatchDict(self.keys, self.value.scaled(factor), self.mask)
        return TBatchDict(self.keys, _num(np.asarray(self.value)) * factor, self.mask)


class TSlice:
    """A range/array-slice dictionary per lane, with per-lane bounds.

    ``target`` is a shared 1-D float array (``e(lo:hi)``) or ``None`` for a
    bare range ``lo:hi`` (values are the keys); ``lo``/``hi`` are int64 per
    lane.
    """

    __slots__ = ("target", "lo", "hi")

    def __init__(self, target: np.ndarray | None, lo: np.ndarray, hi: np.ndarray):
        self.target = target
        self.lo = lo
        self.hi = hi


class TSegs:
    """A nested-dictionary segment per lane.

    Lane ``i`` denotes the children of entry ``owner[i]`` (an entry index at
    ``level - 1`` of ``levels``; ``owner[i] < 0`` means the empty
    dictionary).  ``scale`` is an optional per-lane scalar multiplier applied
    lazily at the leaves, so ``c * d`` never copies the buffers.
    """

    __slots__ = ("levels", "level", "owner", "scale")

    def __init__(self, levels: BufferLevels, level: int, owner: np.ndarray,
                 scale: np.ndarray | None = None):
        self.levels = levels
        self.level = level
        self.owner = owner
        self.scale = scale


class TFlat:
    """A general dictionary per lane, stored as a bag of (coords, value) entries.

    ``cols`` are int64 coordinate columns (outermost key first), ``vals``
    float64, ``rows`` the owning lane of each entry.  Semiring addition is
    concatenation; duplicate coordinates are resolved by the final
    group-by-sum reduction, matching the interpreter's ``v_add`` exactly.
    """

    __slots__ = ("cols", "vals", "rows")

    def __init__(self, cols: list, vals: np.ndarray, rows: np.ndarray):
        self.cols = cols
        self.vals = vals
        self.rows = rows


def _is_batched(value) -> bool:
    return isinstance(value, (TBatch, TBatchDict, TSlice, TSegs, TFlat))


def _is_dict_batched(value) -> bool:
    return isinstance(value, (TBatchDict, TSlice, TSegs, TFlat))


class _Runtime:
    """Per-execution state threaded through the closures."""

    __slots__ = ("env", "batched", "lanes", "invariants", "failed_batch",
                 "fallbacks", "buffers", "profile")

    def __init__(self, env: Mapping[str, Any], profile=None):
        self.env = env
        self.batched = False
        self.lanes = 0
        self.invariants: dict = {}
        self.failed_batch: set = set()   # sums whose typed attempt failed this run
        self.fallbacks: set = set()      # sums/merges that ran a Python loop
        self.buffers: dict = {}          # id(obj) -> (obj, LevelView | None)
        self.profile = profile           # optional ExecutionProfile (loop counts)


_Closure = Callable[[list, _Runtime], Any]


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _num(data: np.ndarray) -> np.ndarray:
    """Promote bool arrays for arithmetic (``True + True`` must be 2, not OR)."""
    return data.astype(np.int64) if data.dtype == np.bool_ else data


def _lane_data(value):
    """Unwrap a scalar-or-:class:`TBatch` operand for element-wise ops."""
    if isinstance(value, TBatch):
        return value.data
    if is_scalar(value):
        return value
    raise Untyped(f"non-scalar operand of type {type(value).__name__} in batched body")


def _lane_num(value):
    data = _lane_data(value)
    return _num(data) if isinstance(data, np.ndarray) else data


def _int_lanes(data: np.ndarray):
    """``(int64 keys, valid-mask | None)`` for a per-lane key array.

    Integral lanes convert exactly; non-integral / non-finite float lanes are
    flagged invalid (they can never hit an integer-keyed container).
    """
    data = np.asarray(data)
    if data.dtype == np.bool_ or data.dtype.kind in ("i", "u"):
        return data.astype(np.int64), None
    if data.dtype.kind == "f":
        finite = np.isfinite(data) & (np.abs(data) < float(1 << 62))
        with np.errstate(invalid="ignore"):
            ok = finite & (np.mod(data, 1) == 0)
        ints = np.where(ok, data, 0).astype(np.int64)
        return ints, (None if bool(ok.all()) else ok)
    raise Untyped(f"cannot use dtype {data.dtype} as dictionary keys")


def _trunc_lanes(value, lanes: int) -> np.ndarray:
    """Per-lane ``int()`` truncation for range/slice bounds."""
    if isinstance(value, TBatch):
        data = np.asarray(value.data)
        if data.dtype == np.bool_ or data.dtype.kind in ("i", "u"):
            return data.astype(np.int64)
        if data.dtype.kind == "f":
            if not (np.all(np.isfinite(data)) and np.all(np.abs(data) < float(1 << 62))):
                raise Untyped("non-finite range bound in batched body")
            return np.trunc(data).astype(np.int64)
        raise Untyped(f"cannot use dtype {data.dtype} as a range bound")
    if is_scalar(value):
        try:
            bound = int(value)
        except (ValueError, OverflowError):
            raise Untyped("non-finite range bound") from None
        return np.full(lanes, bound, dtype=np.int64)
    raise Untyped("range bound is not a scalar")


def _levels_of(rt: _Runtime, value) -> LevelView | None:
    """Cached :func:`to_buffer_levels` view of a plain collection.

    The cache is per-run and keeps a strong reference to the source object,
    so an ``id()`` can never be recycled into a stale hit mid-run.
    """
    if isinstance(value, BufferDict):
        return LevelView(value.levels, value.level, value.lo, value.hi)
    key = id(value)
    hit = rt.buffers.get(key)
    if hit is not None:
        return hit[1]
    view = to_buffer_levels(value)
    rt.buffers[key] = (value, view)
    return view


def _unwrap(value):
    if isinstance(value, PhysicalArray):
        return value.data
    return value


# ---------------------------------------------------------------------------
# Lane re-indexing, flattening and reduction
# ---------------------------------------------------------------------------


def _reindex(value, parent: np.ndarray):
    """Re-map a per-lane value onto an expanded lane space (``new -> old``)."""
    if isinstance(value, TBatch):
        return TBatch(value.data[parent])
    if isinstance(value, TBatchDict):
        inner = value.value
        inner = _reindex(inner, parent) if isinstance(inner, TBatchDict) \
            else np.asarray(inner)[parent]
        mask = None if value.mask is None else value.mask[parent]
        return TBatchDict(value.keys[parent], inner, mask)
    if isinstance(value, TSlice):
        return TSlice(value.target, value.lo[parent], value.hi[parent])
    if isinstance(value, TSegs):
        scale = None if value.scale is None else value.scale[parent]
        return TSegs(value.levels, value.level, value.owner[parent], scale)
    if isinstance(value, TFlat):
        raise Untyped("cannot re-index an entry bag across a lane expansion")
    return value


def _safe_gather(arr: np.ndarray, pos: np.ndarray, found: np.ndarray):
    """``arr[pos]`` with miss lanes redirected to entry 0 (result unmasked).

    ``lookup_sorted``/``lookup_level`` clip positions on a miss, which can
    still land out of range when the searched span is empty — only lanes
    where ``found`` is true carry a real position.
    """
    if arr.shape[0] == 0:
        return np.zeros(found.shape[0], dtype=arr.dtype)
    return arr[np.where(found, pos, 0)]


def _gather(target: np.ndarray | None, keys: np.ndarray):
    """Bounds-checked gather; out-of-range positions read 0, like ``lookup``."""
    if target is None:
        return keys
    size = target.shape[0]
    if size == 0:
        return np.zeros(keys.shape[0], dtype=np.float64)
    valid = (keys >= 0) & (keys < size)
    return np.where(valid, _num(target[np.clip(keys, 0, size - 1)]), 0)


def _flatten_tbd(tbd: TBatchDict, lanes: int):
    """(cols, vals, rows) of a per-lane singleton-dictionary chain."""
    sel = np.arange(lanes, dtype=np.int64)
    cols: list = []
    node = tbd
    while isinstance(node, TBatchDict):
        if node.mask is not None:
            keep = node.mask[sel]
            sel = sel[keep]
            cols = [c[keep] for c in cols]
        cols.append(node.keys[sel])
        node = node.value
    vals = _num(np.asarray(node))[sel].astype(np.float64)
    return cols, vals, sel


def _flatten_segs(ts: TSegs):
    """(cols, vals, rows) of a per-lane nested-dictionary segment."""
    levels = ts.levels
    lanes = ts.owner.shape[0]
    rows = np.arange(lanes, dtype=np.int64)
    owner, scale = ts.owner, ts.scale
    keep = owner >= 0
    if not bool(keep.all()):
        rows, owner = rows[keep], owner[keep]
        if scale is not None:
            scale = scale[keep]
    cols: list = []
    level = ts.level
    while True:
        seg = levels.seg[level]
        starts = seg[owner]
        counts = seg[owner + 1] - starts
        pos = expand_ranges(starts, counts)
        rows = np.repeat(rows, counts)
        cols = [np.repeat(c, counts) for c in cols]
        if scale is not None:
            scale = np.repeat(scale, counts)
        cols.append(levels.keys[level][pos])
        if level == levels.depth - 1:
            vals = levels.values[pos]
            if scale is not None:
                vals = vals * scale
            return cols, vals, rows
        owner = pos
        level += 1


def _flatten_slice(ts: TSlice):
    counts = np.maximum(ts.hi - ts.lo, 0)
    rows = np.repeat(np.arange(ts.lo.shape[0], dtype=np.int64), counts)
    keys = expand_ranges(ts.lo, counts)
    vals = _num(np.asarray(_gather(ts.target, keys))).astype(np.float64)
    return [keys], vals, rows


def _flatten(value, lanes: int):
    """(cols, vals, rows) for any per-lane dictionary representation."""
    if isinstance(value, TFlat):
        return value.cols, value.vals, value.rows
    if isinstance(value, TBatchDict):
        return _flatten_tbd(value, lanes)
    if isinstance(value, TSegs):
        return _flatten_segs(value)
    if isinstance(value, TSlice):
        return _flatten_slice(value)
    raise Untyped(f"cannot flatten {type(value).__name__}")


def _group_result(cols: list, vals: np.ndarray):
    """Group-by-sum an entry bag into a :class:`BufferDict` (or 0)."""
    coords, sums = group_sum_sorted(cols, np.asarray(vals, dtype=np.float64))
    if sums.size == 0:
        return 0
    return BufferDict(BufferLevels.from_sorted_coords(coords, sums))


def _reduce_lanes(body, lanes: int):
    """Collapse a batched sum body over *all* lanes into one value."""
    if isinstance(body, TBatch):
        return body.data.sum().item()
    if _is_dict_batched(body):
        cols, vals, _ = _flatten(body, lanes)
        return _group_result(cols, vals)
    # Constant across lanes (the body used no batched variable).
    return v_mul(lanes, body)


def _reduce_expanded(rt: _Runtime, body, parent: np.ndarray, out_lanes: int,
                     counts: np.ndarray):
    """Collapse an expanded sum body back onto the outer lane space."""
    if isinstance(body, TBatch):
        return TBatch(parent_sum(parent, _num(body.data), out_lanes))
    if isinstance(body, TFlat):
        return TFlat(body.cols, body.vals, parent[body.rows])
    if isinstance(body, (TBatchDict, TSegs, TSlice)):
        cols, vals, rows = _flatten(body, parent.shape[0])
        return TFlat(cols, vals, parent[rows])
    if is_scalar(body):
        if is_zero(body):
            return 0
        return TBatch(counts.astype(np.float64) * float(body))
    # A loop-invariant dictionary summed `counts[i]` times per outer lane.
    view = _levels_of(rt, body)
    if view is not None and view.level == 0 and view.lo == 0 \
            and view.hi == view.levels.keys[0].shape[0]:
        owner = np.where(counts > 0, 0, -1).astype(np.int64)
        return TSegs(view.levels, 0, owner, counts.astype(np.float64))
    raise Untyped("loop-invariant dictionary body does not flatten")


def _apply_mask(result, mask: np.ndarray):
    """Zero out the lanes where ``mask`` is False (``if`` / probe filtering)."""
    if isinstance(result, TBatch):
        return TBatch(np.where(mask, _num(result.data), 0))
    if isinstance(result, TBatchDict):
        return result.with_mask(mask)
    if isinstance(result, TFlat):
        keep = mask[result.rows]
        return TFlat([c[keep] for c in result.cols], result.vals[keep],
                     result.rows[keep])
    if isinstance(result, TSegs):
        return TSegs(result.levels, result.level,
                     np.where(mask, result.owner, -1), result.scale)
    if isinstance(result, TSlice):
        return TSlice(result.target, np.where(mask, result.lo, 0),
                      np.where(mask, result.hi, 0))
    if is_scalar(result):
        if is_zero(result):
            return 0
        return TBatch(np.where(mask, result, 0))
    raise Untyped("conditional dictionary value in batched body")


# ---------------------------------------------------------------------------
# Iteration spaces, batched point lookups and lane expansion
# ---------------------------------------------------------------------------


def _iteration_space(rt: _Runtime, source):
    """``(keys, values)`` for batching a non-batched sum source, else ``None``.

    Nested dictionaries and tries batch too: their value side is a
    :class:`TSegs` over the levelized buffers.
    """
    source = _unwrap(source)
    if isinstance(source, RangeDict):
        keys = np.arange(source.lo, source.hi, dtype=np.int64)
        return keys, TBatch(keys)
    if isinstance(source, np.ndarray):
        if source.ndim != 1:
            return None
        return (np.arange(source.shape[0], dtype=np.int64), TBatch(source))
    if isinstance(source, SliceDict):
        target = _unwrap(source.target)
        if not (isinstance(target, np.ndarray) and target.ndim == 1):
            return None
        keys = np.arange(source.lo, source.hi, dtype=np.int64)
        return keys, TBatch(_gather(target, keys))
    view = _levels_of(rt, source)
    if view is None:
        return None
    levels = view.levels
    entries = np.arange(view.lo, view.hi, dtype=np.int64)
    keys = levels.keys[view.level][view.lo:view.hi]
    if view.is_leaf:
        return keys, TBatch(levels.values[view.lo:view.hi])
    return keys, TSegs(levels, view.level + 1, entries)


def _lookup_batched(rt: _Runtime, target, keys: np.ndarray,
                    valid: np.ndarray | None):
    """Per-lane point lookup ``target(keys[i])`` -> ``(value, found)``.

    ``found`` marks lanes whose key *exists as an entry* of ``target``
    (its value may still be an explicit zero).  Returns ``None`` when the
    target kind does not support a batched lookup.
    """
    lanes = keys.shape[0]
    target = _unwrap(target)
    if is_scalar(target) and is_zero(target):
        return 0, np.zeros(lanes, dtype=bool)
    if isinstance(target, RangeDict):
        found = (keys >= target.lo) & (keys < target.hi)
        if valid is not None:
            found = found & valid
        return TBatch(np.where(found, keys, 0)), found
    if isinstance(target, np.ndarray) and target.ndim == 1:
        found = (keys >= 0) & (keys < target.shape[0])
        if valid is not None:
            found = found & valid
        return TBatch(_gather(target, np.where(found, keys, -1))), found
    if isinstance(target, SliceDict):
        in_slice = (keys >= target.lo) & (keys < target.hi)
        if valid is not None:
            in_slice = in_slice & valid
        inner = _lookup_batched(rt, target.target, keys, in_slice)
        if inner is None:
            return None
        value, _ = inner
        return _apply_mask(value, in_slice), in_slice
    if isinstance(target, TSlice):
        in_slice = (keys >= target.lo) & (keys < target.hi)
        if valid is not None:
            in_slice = in_slice & valid
        return TBatch(np.where(in_slice, _gather(target.target, keys), 0)), in_slice
    if isinstance(target, TSegs):
        hit = target.levels.lookup_level(target.level, target.owner, keys, valid)
        if hit is None:
            raise Untyped("composite key overflow in nested lookup")
        pos, found = hit
        levels = target.levels
        if target.level == levels.depth - 1:
            values = _safe_gather(levels.values, pos, found)
            if target.scale is not None:
                values = values * target.scale
            return TBatch(np.where(found, values, 0)), found
        return (TSegs(levels, target.level + 1, np.where(found, pos, -1),
                      target.scale), found)
    if isinstance(target, TBatchDict):
        found = target.keys == keys
        if target.mask is not None:
            found = found & target.mask
        if valid is not None:
            found = found & valid
        if isinstance(target.value, TBatchDict):
            return target.value.with_mask(found), found
        return TBatch(np.where(found, _num(np.asarray(target.value)), 0)), found
    if _is_batched(target):
        return None
    view = _levels_of(rt, target)
    if view is None:
        return None
    levels = view.levels
    span = levels.keys[view.level][view.lo:view.hi]
    pos, found = lookup_sorted(span, keys)
    pos = pos + view.lo
    if valid is not None:
        found = found & valid
    if view.is_leaf:
        return TBatch(np.where(found, _safe_gather(levels.values, pos, found), 0)), found
    return TSegs(levels, view.level + 1, np.where(found, pos, -1)), found


def _expand_source(rt: _Runtime, source, lanes: int):
    """Fan a batched sum source out into an expanded lane space.

    Returns ``(parent, keys, values, counts)`` — ``parent`` maps every new
    lane back to its outer lane — or a plain scalar 0 when the source is the
    semiring zero on every lane.
    """
    if isinstance(source, TSlice):
        counts = np.maximum(source.hi - source.lo, 0)
        parent = np.repeat(np.arange(lanes, dtype=np.int64), counts)
        keys = expand_ranges(source.lo, counts)
        if source.target is None:
            return parent, keys, TBatch(keys), counts
        return parent, keys, TBatch(_gather(source.target, keys)), counts
    if isinstance(source, TSegs):
        levels = source.levels
        seg = levels.seg[source.level]
        safe = np.maximum(source.owner, 0)
        starts = seg[safe]
        ends = seg[np.minimum(safe + 1, seg.shape[0] - 1)]
        counts = np.where(source.owner >= 0, ends - starts, 0)
        parent = np.repeat(np.arange(lanes, dtype=np.int64), counts)
        pos = expand_ranges(np.where(source.owner >= 0, starts, 0), counts)
        keys = levels.keys[source.level][pos]
        scale = None if source.scale is None else np.repeat(source.scale, counts)
        if source.level == levels.depth - 1:
            values = levels.values[pos]
            if scale is not None:
                values = values * scale
            return parent, keys, TBatch(values), counts
        return parent, keys, TSegs(levels, source.level + 1, pos, scale), counts
    if _is_batched(source):
        raise Untyped(f"cannot iterate {type(source).__name__} in batched body")
    if is_scalar(source):
        if is_zero(source):
            return 0
        raise Untyped("sum over a non-zero scalar")
    # Loop-invariant source: the cross product of outer lanes × its entries.
    space = _iteration_space(rt, source)
    if space is None:
        raise Untyped(f"cannot batch iteration over {type(source).__name__}")
    inner_keys, inner_values = space
    size = inner_keys.shape[0]
    if size == 0:
        return 0
    if lanes * size > _EXPANSION_CAP:
        raise Untyped("cross-product expansion exceeds the lane cap")
    parent = np.repeat(np.arange(lanes, dtype=np.int64), size)
    keys = np.tile(inner_keys, lanes)
    counts = np.full(lanes, size, dtype=np.int64)
    if isinstance(inner_values, TBatch):
        return parent, keys, TBatch(np.tile(inner_values.data, lanes)), counts
    return (parent, keys,
            TSegs(inner_values.levels, inner_values.level,
                  np.tile(inner_values.owner, lanes)), counts)


def _flat_pairs(rt: _Runtime, value):
    """``(keys, values)`` float arrays of a flat scalar-valued collection.

    Used by the merge join; ``None`` when the collection is nested or not
    array-representable.
    """
    value = _unwrap(value)
    if isinstance(value, RangeDict):
        keys = np.arange(value.lo, value.hi, dtype=np.int64)
        return keys, keys.astype(np.float64)
    if isinstance(value, np.ndarray):
        if value.ndim != 1:
            return None
        return (np.arange(value.shape[0], dtype=np.int64),
                _num(value).astype(np.float64))
    if isinstance(value, SliceDict):
        target = _unwrap(value.target)
        if not (isinstance(target, np.ndarray) and target.ndim == 1):
            return None
        keys = np.arange(value.lo, value.hi, dtype=np.int64)
        return keys, np.asarray(_gather(target, keys), dtype=np.float64)
    if is_scalar(value) and is_zero(value):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if not hasattr(value, "items") and not isinstance(value, (dict, SemiringDict)):
        return None
    view = _levels_of(rt, value)
    if view is None or not view.is_leaf:
        return None
    return (view.levels.keys[view.level][view.lo:view.hi],
            view.levels.values[view.lo:view.hi])


def _is_full_root(view: LevelView) -> bool:
    return (view.level == 0 and view.lo == 0
            and view.hi == view.levels.keys[0].shape[0])


def _neg_value(rt: _Runtime, value):
    if isinstance(value, TBatch):
        return TBatch(-_num(value.data))
    if isinstance(value, TBatchDict):
        return value.scaled(-1.0)
    if isinstance(value, TFlat):
        return TFlat(value.cols, -value.vals, value.rows)
    if isinstance(value, (TSegs, TSlice)):
        cols, vals, rows = _flatten(value, rt.lanes)
        return TFlat(cols, -vals, rows)
    return v_mul(-1, value) if not is_scalar(value) else -value


def _add_values(rt: _Runtime, left, right):
    if is_scalar(left) and is_zero(left):
        return right
    if is_scalar(right) and is_zero(right):
        return left
    if not _is_batched(left) and not _is_batched(right):
        return v_add(left, right)
    if isinstance(left, TBatch) or isinstance(right, TBatch):
        return TBatch(np.asarray(_lane_num(left) + _lane_num(right)))
    if _is_dict_batched(left) and _is_dict_batched(right):
        lcols, lvals, lrows = _flatten(left, rt.lanes)
        rcols, rvals, rrows = _flatten(right, rt.lanes)
        if len(lcols) != len(rcols):
            raise Untyped("mixed-depth dictionary addition in batched body")
        return TFlat([np.concatenate([a, b]) for a, b in zip(lcols, rcols)],
                     np.concatenate([lvals, rvals]),
                     np.concatenate([lrows, rrows]))
    raise Untyped("dictionary addition does not batch")


def _scale_dict(rt: _Runtime, dct, factor):
    """``factor * dct`` where ``dct`` is per-lane and ``factor`` scalar-per-lane."""
    if is_scalar(factor):
        if is_zero(factor):
            return 0
        factor_arr = None
        scalar_factor = factor
    else:
        factor_arr = _num(factor.data)
        scalar_factor = None
    if isinstance(dct, TBatchDict):
        return dct.scaled(scalar_factor if factor_arr is None else factor_arr)
    if isinstance(dct, TFlat):
        scale = scalar_factor if factor_arr is None else factor_arr[dct.rows]
        return TFlat(dct.cols, dct.vals * scale, dct.rows)
    if isinstance(dct, TSegs):
        lanes = dct.owner.shape[0]
        fac = np.full(lanes, float(scalar_factor)) if factor_arr is None \
            else factor_arr.astype(np.float64)
        # A zero factor annihilates the whole per-lane dictionary (v_mul
        # prunes it), so iteration must not see its entries: kill the owner.
        owner = np.where(fac != 0, dct.owner, -1)
        scale = fac if dct.scale is None else dct.scale * fac
        return TSegs(dct.levels, dct.level, owner, scale)
    if isinstance(dct, TSlice):
        cols, vals, rows = _flatten_slice(dct)
        scale = scalar_factor if factor_arr is None else factor_arr[rows]
        return TFlat(cols, vals * scale, rows)
    raise Untyped("dictionary scaling does not batch")


def _mul_values(rt: _Runtime, left, right):
    if not _is_batched(left) and not _is_batched(right):
        return v_mul(left, right)
    scalarish_left = isinstance(left, TBatch) or is_scalar(left)
    scalarish_right = isinstance(right, TBatch) or is_scalar(right)
    if scalarish_left and scalarish_right:
        return TBatch(np.asarray(_lane_num(left) * _lane_num(right)))
    if _is_dict_batched(left) and scalarish_right:
        return _scale_dict(rt, left, right)
    if _is_dict_batched(right) and scalarish_left:
        return _scale_dict(rt, right, left)
    if isinstance(left, TBatch) or isinstance(right, TBatch):
        # per-lane scalar × loop-invariant dictionary
        factor = left if isinstance(left, TBatch) else right
        other = right if isinstance(left, TBatch) else left
        view = _levels_of(rt, other)
        if view is not None and _is_full_root(view):
            data = _num(factor.data).astype(np.float64)
            owner = np.where(data != 0, 0, -1).astype(np.int64)
            return TSegs(view.levels, 0, owner, data)
        raise Untyped("batched multiplication with a materialized dictionary")
    raise Untyped("dictionary × dictionary in batched body")


def _singleton_lanes(rt: _Runtime, klanes: np.ndarray, value, lanes: int):
    """``{ klanes[i] -> value[i] }`` per lane, for a batched ``DictExpr``."""
    if isinstance(value, TBatch):
        return TBatchDict(klanes, value.data)
    if isinstance(value, TBatchDict):
        return TBatchDict(klanes, value)
    if isinstance(value, (TSegs, TSlice, TFlat)):
        cols, vals, rows = _flatten(value, lanes)
        return TFlat([klanes[rows]] + list(cols), vals, rows)
    if is_scalar(value):
        return TBatchDict(klanes, np.full(lanes, value))
    raise Untyped("dictionary value does not batch")


# ---------------------------------------------------------------------------
# Lowering: AST -> closures
# ---------------------------------------------------------------------------


def _hoist_guard(body: Expr) -> Expr:
    """Float equality guards above let-bindings that they do not reference.

    ``let x = e in if (c) then t`` ≡ ``if (c') then (let x = e in t)`` when
    ``c`` has no free ``%0`` (``c'`` is ``c`` with the vanished binder
    shifted out).  Applied recursively so a chain of lets exposes the guard
    underneath to the probe detector in :meth:`_Lowerer._lower_sum`.
    """
    if isinstance(body, Let):
        inner = _hoist_guard(body.body)
        if isinstance(inner, IfThen) and 0 not in free_indices(inner.cond):
            return IfThen(shift(inner.cond, -1, 0),
                          Let(body.value, inner.then, name=body.name))
        if inner is not body.body:
            return Let(body.value, inner, name=body.name)
    return body


class _Lowerer:
    """Translates a De Bruijn plan into a tree of typed evaluation closures."""

    def __init__(self) -> None:
        self.sum_count = 0
        self.merge_count = 0
        self.invariant_slots = 0
        self.sum_sources: dict[int, Expr] = {}  # slot -> source expression

    def lower(self, expr: Expr) -> _Closure:
        if isinstance(expr, Const):
            value = expr.value
            return lambda frames, rt: value
        if isinstance(expr, Sym):
            name = expr.name
            def sym_f(frames, rt):
                try:
                    return rt.env[name]
                except KeyError:
                    raise ExecutionError(f"unknown global symbol {name!r}") from None
            return sym_f
        if isinstance(expr, Idx):
            index = expr.index
            def idx_f(frames, rt):
                if index >= len(frames):
                    raise ExecutionError(f"unbound De Bruijn index %{index}")
                return frames[-1 - index]
            return idx_f
        if isinstance(expr, Var):
            raise ExecutionError("named variables must be converted to De Bruijn form first")
        if isinstance(expr, Neg):
            operand_f = self.lower(expr.operand)
            return lambda frames, rt: _neg_value(rt, operand_f(frames, rt))
        if isinstance(expr, Not):
            operand_f = self.lower(expr.operand)
            def not_f(frames, rt):
                value = operand_f(frames, rt)
                if isinstance(value, TBatch):
                    return TBatch(np.logical_not(value.data.astype(bool)))
                if _is_batched(value):
                    raise Untyped("boolean negation of a dictionary in batched body")
                return not truthy(value)
            return not_f
        if isinstance(expr, (Add, Sub)):
            subtract = isinstance(expr, Sub)
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def add_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if not _is_batched(left) and not _is_batched(right):
                    return v_sub(left, right) if subtract else v_add(left, right)
                if subtract:
                    right = _neg_value(rt, right)
                return _add_values(rt, left, right)
            return add_f
        if isinstance(expr, Mul):
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            return lambda frames, rt: _mul_values(
                rt, left_f(frames, rt), right_f(frames, rt))
        if isinstance(expr, Div):
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def div_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if isinstance(left, TBatch) or isinstance(right, TBatch):
                    divisor = _lane_num(right)
                    # A zero divisor on any lane must surface as the same
                    # ZeroDivisionError the other backends raise: fall back.
                    if np.any(np.asarray(divisor) == 0):
                        raise Untyped("zero divisor in batched body")
                    return TBatch(np.asarray(_lane_num(left) / divisor))
                if _is_batched(left) or _is_batched(right):
                    raise Untyped("dictionary division in batched body")
                if not (is_scalar(left) and is_scalar(right)):
                    raise EvaluationError("division is only defined on scalars")
                return left / right
            return div_f
        if isinstance(expr, Cmp):
            comparator = _COMPARATORS[expr.op]
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def cmp_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if isinstance(left, TBatch) or isinstance(right, TBatch):
                    return TBatch(np.asarray(comparator(_lane_data(left),
                                                        _lane_data(right))))
                if _is_batched(left) or _is_batched(right):
                    raise Untyped("dictionary comparison in batched body")
                if not (is_scalar(left) and is_scalar(right)):
                    raise EvaluationError("comparisons are only defined on scalars")
                return bool(comparator(left, right))
            return cmp_f
        if isinstance(expr, (And, Or)):
            combine = np.logical_and if isinstance(expr, And) else np.logical_or
            short_circuit_on = isinstance(expr, Or)
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def bool_f(frames, rt):
                left = left_f(frames, rt)
                if isinstance(left, TBatch):
                    right = right_f(frames, rt)
                    return TBatch(combine(left.data.astype(bool),
                                          np.asarray(_lane_data(right)).astype(bool)))
                if _is_batched(left):
                    raise Untyped("boolean connective over a dictionary in batched body")
                if truthy(left) == short_circuit_on:
                    return short_circuit_on
                right = right_f(frames, rt)
                if isinstance(right, TBatch):
                    return TBatch(right.data.astype(bool))
                if _is_batched(right):
                    raise Untyped("boolean connective over a dictionary in batched body")
                return truthy(right)
            return bool_f
        if isinstance(expr, Get):
            target_f, key_f = self.lower(expr.target), self.lower(expr.key)
            def get_f(frames, rt):
                target = target_f(frames, rt)
                key = key_f(frames, rt)
                if isinstance(key, TBatch):
                    q, valid = _int_lanes(key.data)
                    hit = _lookup_batched(rt, target, q, valid)
                    if hit is None:
                        raise Untyped(
                            f"vector-key lookup into {type(target).__name__}")
                    return hit[0]
                if _is_batched(key):
                    raise Untyped("dictionary-valued key in batched body")
                if _is_batched(target):
                    norm = normalize_key(key)
                    index = integral_index(norm)
                    if index is None:
                        return 0  # per-lane containers are integer-keyed
                    q = np.full(rt.lanes, index, dtype=np.int64)
                    hit = _lookup_batched(rt, target, q, None)
                    if hit is None:
                        raise Untyped(
                            f"scalar lookup into batched {type(target).__name__}")
                    return hit[0]
                return lookup(target, normalize_key(key))
            return get_f
        if isinstance(expr, RangeExpr):
            lo_f, hi_f = self.lower(expr.lo), self.lower(expr.hi)
            def range_f(frames, rt):
                lo, hi = lo_f(frames, rt), hi_f(frames, rt)
                if _is_batched(lo) or _is_batched(hi):
                    return TSlice(None, _trunc_lanes(lo, rt.lanes),
                                  _trunc_lanes(hi, rt.lanes))
                return RangeDict(int(lo), int(hi))
            return range_f
        if isinstance(expr, SliceGet):
            target_f = self.lower(expr.target)
            lo_f, hi_f = self.lower(expr.lo), self.lower(expr.hi)
            def slice_f(frames, rt):
                target = target_f(frames, rt)
                lo, hi = lo_f(frames, rt), hi_f(frames, rt)
                if _is_batched(target):
                    raise Untyped("batched slice target")
                if _is_batched(lo) or _is_batched(hi):
                    array = _unwrap(target)
                    if not (isinstance(array, np.ndarray) and array.ndim == 1):
                        raise Untyped("slice of a non-array with batched bounds")
                    return TSlice(array, _trunc_lanes(lo, rt.lanes),
                                  _trunc_lanes(hi, rt.lanes))
                return SliceDict(target, int(lo), int(hi))
            return slice_f
        if isinstance(expr, DictExpr):
            key_f, value_f = self.lower(expr.key), self.lower(expr.value)
            def dict_f(frames, rt):
                key = key_f(frames, rt)
                value = value_f(frames, rt)
                if _is_dict_batched(key):
                    raise Untyped("dictionary-valued key")
                if isinstance(key, TBatch) or _is_batched(value):
                    lanes = key.data.shape[0] if isinstance(key, TBatch) else rt.lanes
                    if isinstance(key, TBatch):
                        klanes, kvalid = _int_lanes(key.data)
                        if kvalid is not None:
                            raise Untyped("non-integer dictionary keys in batched body")
                    elif is_scalar(key):
                        norm = normalize_key(key)
                        index = integral_index(norm)
                        if index is None:
                            raise Untyped("non-integer dictionary key in batched body")
                        klanes = np.full(lanes, index, dtype=np.int64)
                    else:
                        raise EvaluationError("dictionary keys must evaluate to scalars")
                    return _singleton_lanes(rt, klanes, value, lanes)
                if is_zero(value):
                    return SemiringDict()
                return SemiringDict({normalize_key(key): value})
            return dict_f
        if isinstance(expr, IfThen):
            cond_f, then_f = self.lower(expr.cond), self.lower(expr.then)
            def if_f(frames, rt):
                cond = cond_f(frames, rt)
                if isinstance(cond, TBatch):
                    mask = cond.data.astype(bool)
                    then = then_f(frames, rt)
                    if not _is_batched(then) and not is_scalar(then):
                        view = _levels_of(rt, then)
                        if view is None or not _is_full_root(view):
                            raise Untyped(
                                "conditional dictionary value in batched body")
                        owner = np.where(mask, 0, -1).astype(np.int64)
                        return TSegs(view.levels, 0, owner)
                    return _apply_mask(then, mask)
                if _is_batched(cond):
                    raise Untyped("dictionary-valued condition")
                if truthy(cond):
                    return then_f(frames, rt)
                return 0
            return if_f
        if isinstance(expr, Let):
            value_f, body_f = self.lower(expr.value), self.lower(expr.body)
            def let_f(frames, rt):
                frames.append(value_f(frames, rt))
                try:
                    return body_f(frames, rt)
                finally:
                    frames.pop()
            return let_f
        if isinstance(expr, Sum):
            return self._maybe_memoize(expr, self._lower_sum(expr))
        if isinstance(expr, Merge):
            return self._maybe_memoize(expr, self._lower_merge(expr))
        raise ExecutionError(f"cannot lower node of type {type(expr).__name__}")

    def _maybe_memoize(self, expr: Expr, closure: _Closure) -> _Closure:
        """Cache closed (loop-invariant) sums/merges once per execution.

        Invariant subplans the optimizer leaves inside loops (e.g. a whole
        operand transpose) are computed once per run — and because this
        backend computes them, they materialize directly as
        :class:`BufferDict` views that downstream batched iteration and
        lookups consume with no conversion walk.
        """
        if not _is_closed(expr):
            return closure
        slot = self.invariant_slots
        self.invariant_slots += 1
        def memoized(frames, rt):
            try:
                return rt.invariants[slot]
            except KeyError:
                pass
            batched, lanes = rt.batched, rt.lanes
            rt.batched, rt.lanes = False, 0
            try:
                # Closed subplans reference no loop variables: evaluate with
                # an empty frame stack so the invariant's own batched sums
                # never try to reindex outer-lane frames.
                value = closure([], rt)
            finally:
                rt.batched, rt.lanes = batched, lanes
            rt.invariants[slot] = value
            return value
        return memoized

    def _lower_sum(self, expr) -> _Closure:
        self.sum_count += 1
        slot = self.sum_count
        self.sum_sources[slot] = expr.source
        source_f, body_f = self.lower(expr.source), self.lower(expr.body)
        probe_f = then_f = None
        # Probe detection runs on a guard-hoisted view of the body: greedy
        # plans wrap the equality guard in let-bindings (`let x = X_val(i) in
        # if (k == i) then ...`), which would otherwise hide the probe and
        # force a dense cross-product expansion of the range source.  The
        # generic paths below still lower the original body.
        body = _hoist_guard(expr.body)
        if isinstance(body, IfThen) and isinstance(body.cond, Cmp) and body.cond.op == "==":
            left, right = body.cond.left, body.cond.right
            if isinstance(left, Idx) and left.index == 1 and not _uses_sum_binders(right):
                probe_f = self.lower(right)
            elif isinstance(right, Idx) and right.index == 1 and not _uses_sum_binders(left):
                probe_f = self.lower(left)
            if probe_f is not None:
                then_f = self.lower(body.then)

        def python_loop(frames, rt, source):
            rt.fallbacks.add(slot)
            accumulator: Any = 0
            iterations = 0
            for key, value in iter_items(source):
                iterations += 1
                frames.append(key)
                frames.append(value)
                try:
                    term = body_f(frames, rt)
                finally:
                    frames.pop()
                    frames.pop()
                accumulator = v_add(accumulator, term)
            if rt.profile is not None:
                rt.profile.record_loop(slot, iterations)
            return accumulator

        def sum_batched(frames, rt, source):
            lanes = rt.lanes
            if probe_f is not None:
                frames.append(0)
                frames.append(0)
                try:
                    probe_key = probe_f(frames, rt)
                finally:
                    frames.pop()
                    frames.pop()
                if is_scalar(probe_key) and not _is_batched(source) \
                        and not isinstance(probe_key, (bool, np.bool_)):
                    # Same-key-on-every-lane probe into an invariant source.
                    as_float = float(probe_key)
                    if as_float.is_integer():
                        entry = _probe_entry(source, int(as_float))
                        if entry is None:
                            return 0
                        if entry is not _NO_PROBE:
                            frames.append(int(as_float))
                            frames.append(entry)
                            try:
                                return then_f(frames, rt)
                            finally:
                                frames.pop()
                                frames.pop()
                    elif _probe_entry(source, 0) is not _NO_PROBE:
                        return 0
                if isinstance(probe_key, TBatch) or \
                        (is_scalar(probe_key) and _is_batched(source)):
                    if isinstance(probe_key, TBatch):
                        q, valid = _int_lanes(probe_key.data)
                    else:
                        index = integral_index(probe_key)
                        if index is None:
                            q = np.zeros(lanes, dtype=np.int64)
                            valid = np.zeros(lanes, dtype=bool)
                        else:
                            q, valid = np.full(lanes, index, dtype=np.int64), None
                    hit = _lookup_batched(rt, source, q, valid)
                    if hit is not None:
                        value, found = hit
                        if is_scalar(value) and is_zero(value):
                            return 0
                        frames.append(TBatch(q))
                        frames.append(value)
                        try:
                            result = then_f(frames, rt)
                        finally:
                            frames.pop()
                            frames.pop()
                        return _apply_mask(result, found)
            expanded = _expand_source(rt, source, lanes)
            if not isinstance(expanded, tuple):
                if rt.profile is not None and lanes:
                    rt.profile.record_loop(slot, 0, entries=lanes)
                return expanded  # the source is empty on every lane
            parent, keys, values, counts = expanded
            if rt.profile is not None and lanes:
                # parent has one lane per (outer lane, inner element) pair:
                # the total inner iteration count across the outer lanes.
                rt.profile.record_loop(slot, parent.shape[0], entries=lanes)
            if parent.shape[0] == 0:
                return 0
            new_frames = [_reindex(frame, parent) for frame in frames]
            new_frames.append(TBatch(keys))
            new_frames.append(values)
            rt.lanes = parent.shape[0]
            try:
                result = body_f(new_frames, rt)
            finally:
                rt.lanes = lanes
            return _reduce_expanded(rt, result, parent, lanes, counts)

        def sum_f(frames, rt):
            source = source_f(frames, rt)
            if rt.batched:
                return sum_batched(frames, rt, source)
            if probe_f is not None:
                frames.append(0)
                frames.append(0)
                try:
                    probe_key = probe_f(frames, rt)
                finally:
                    frames.pop()
                    frames.pop()
                if is_scalar(probe_key) and not isinstance(probe_key, (bool, np.bool_)):
                    as_float = float(probe_key)
                    if as_float.is_integer():
                        entry = _probe_entry(source, int(as_float))
                        if entry is None:
                            return 0
                        if entry is not _NO_PROBE:
                            frames.append(int(as_float))
                            frames.append(entry)
                            try:
                                return then_f(frames, rt)
                            finally:
                                frames.pop()
                                frames.pop()
                    elif _probe_entry(source, 0) is not _NO_PROBE:
                        return 0
            if slot not in rt.failed_batch:
                space = _iteration_space(rt, source)
                if space is not None:
                    keys, values = space
                    lanes = keys.shape[0]
                    if rt.profile is not None:
                        rt.profile.record_loop(slot, lanes)
                    if lanes == 0:
                        return 0
                    outer_lanes = rt.lanes
                    rt.batched, rt.lanes = True, lanes
                    frames.append(TBatch(keys))
                    frames.append(values)
                    failed = False
                    try:
                        body_value = body_f(frames, rt)
                    except Untyped:
                        rt.failed_batch.add(slot)
                        failed = True
                    finally:
                        frames.pop()
                        frames.pop()
                        rt.batched, rt.lanes = False, outer_lanes
                    if not failed:
                        return _reduce_lanes(body_value, lanes)
            return python_loop(frames, rt, source)

        return sum_f

    def _lower_merge(self, expr) -> _Closure:
        self.merge_count += 1
        slot = ("merge", self.merge_count)
        left_f, right_f = self.lower(expr.left), self.lower(expr.right)
        body_f = self.lower(expr.body)

        def python_merge(frames, rt, left, right):
            rt.fallbacks.add(slot)
            by_value: dict = {}
            for key, value in iter_items(right):
                by_value.setdefault(merge_hashable(value), []).append(key)
            accumulator: Any = 0
            for key1, value in iter_items(left):
                matches = by_value.get(merge_hashable(value))
                if not matches:
                    continue
                for key2 in matches:
                    frames.append(key1)
                    frames.append(key2)
                    frames.append(value)
                    try:
                        term = body_f(frames, rt)
                    finally:
                        del frames[-3:]
                    accumulator = v_add(accumulator, term)
            return accumulator

        def merge_f(frames, rt):
            if rt.batched:
                raise Untyped("merge inside a batched body")
            left = left_f(frames, rt)
            right = right_f(frames, rt)
            pairs_left = _flat_pairs(rt, left)
            pairs_right = _flat_pairs(rt, right) if pairs_left is not None else None
            if pairs_left is not None and pairs_right is not None:
                left_keys, left_vals = pairs_left
                right_keys, right_vals = pairs_right
                if np.all(np.isfinite(left_vals)) and np.all(np.isfinite(right_vals)):
                    # Value-equality join: sort the right side by value, then
                    # locate every left value's match range in one
                    # searchsorted pair instead of a per-key Python dict.
                    order = np.argsort(right_vals, kind="stable")
                    right_keys_sorted = right_keys[order]
                    right_vals_sorted = right_vals[order]
                    lo = np.searchsorted(right_vals_sorted, left_vals, side="left")
                    hi = np.searchsorted(right_vals_sorted, left_vals, side="right")
                    counts = hi - lo
                    lanes = int(counts.sum())
                    if lanes == 0:
                        return 0
                    key1 = np.repeat(left_keys, counts)
                    values = np.repeat(left_vals, counts)
                    key2 = right_keys_sorted[expand_ranges(lo, counts)]
                    outer_lanes = rt.lanes
                    rt.batched, rt.lanes = True, lanes
                    frames.append(TBatch(key1))
                    frames.append(TBatch(key2))
                    frames.append(TBatch(values))
                    failed = False
                    try:
                        body_value = body_f(frames, rt)
                    except Untyped:
                        failed = True
                    finally:
                        del frames[-3:]
                        rt.batched, rt.lanes = False, outer_lanes
                    if not failed:
                        return _reduce_lanes(body_value, lanes)
            return python_merge(frames, rt, left, right)

        return merge_f


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


@dataclass
class TypedPlan:
    """A plan lowered to typed-buffer kernels.

    Calling the object with an environment executes the plan.  Pass a
    ``stats`` dict to receive per-run fallback accounting (``sum_loops``
    lowered, and ``fallback_sums`` — how many of them ran a scalar Python
    loop).
    """

    plan: Expr
    function: Callable[..., Any]
    sum_count: int = 0
    sum_sources: Mapping[int, Expr] = field(default_factory=dict)

    def __call__(self, env: Mapping[str, Any], stats: dict | None = None,
                 profile=None) -> Any:
        return self.function(env, stats, profile)

    @property
    def source(self) -> str:
        """Pseudo-source marker (there is no generated Python text)."""
        from .buffers import HAVE_NUMBA

        mode = "numba-JIT" if HAVE_NUMBA else "NumPy"
        return (f"<typed: {self.sum_count} sum loop(s) over flat columnar "
                f"buffers, {mode} kernels with loop fallback>")


def typed_plan(plan: Expr, name: str = "typed_plan") -> TypedPlan:
    """Lower a physical plan (De Bruijn form) for typed-buffer execution.

    The returned :class:`TypedPlan` evaluates nested ``sum`` loops by lane
    expansion over flat columnar buffers, with a per-loop Python fallback for
    untypeable constructs; results are identical to the reference
    interpreter (dictionary results come back as lazy
    :class:`~repro.execution.buffers.BufferDict` views).
    """
    lowerer = _Lowerer()
    root = lowerer.lower(plan)

    def function(env: Mapping[str, Any], stats: dict | None = None,
                 profile=None) -> Any:
        rt = _Runtime(env, profile=profile)
        result = root([], rt)
        if stats is not None:
            stats["sum_loops"] = lowerer.sum_count
            stats["merge_loops"] = lowerer.merge_count
            stats["fallback_sums"] = sum(
                1 for slot in rt.fallbacks if isinstance(slot, int))
            stats["fallback_merges"] = sum(
                1 for slot in rt.fallbacks if not isinstance(slot, int))
        return result

    return TypedPlan(plan=plan, function=function, sum_count=lowerer.sum_count,
                     sum_sources=lowerer.sum_sources)
