"""Sessions and prepared statements: optimize once, execute many.

The paper's workflow (Fig. 2) separates the *Data Admin* — who registers
tensors, storage formats and statistics once — from the queries that run many
times over that configuration.  A :class:`Session` is the database-style
embodiment of that split:

* it owns a :class:`~repro.storage.Catalog` and keeps derived state —
  :class:`~repro.core.statistics.Statistics`, the physical environment, one
  :class:`~repro.execution.engine.ExecutionEngine` per backend, and memoized
  optimizer decisions — in sync with it;
* :meth:`Session.prepare` runs the full pipeline (parse → statistics →
  cost-based optimization → backend lowering) **once** and hands back a
  :class:`Statement` whose :meth:`Statement.execute` only re-binds named
  scalar parameters and executes — no re-parsing, no re-optimization;
* catalog mutations (:meth:`Session.register`, :meth:`Session.set_scalar`,
  :meth:`Session.drop`, :meth:`Session.replace_format`) are epoch-tracked:
  a *schema* change (tensors added / dropped / re-stored, new symbols)
  invalidates optimized plans — stale statements transparently re-prepare on
  their next execution, evicting their old artifact from the plan cache if
  the plan actually changed — while a *value-only* change (re-binding an
  existing scalar) merely refreshes the bound environment.  Statistics are
  patched incrementally per-tensor on session mutations rather than rebuilt
  from scratch.

A typical lifecycle::

    from repro.session import Session

    session = (Session()                      # connect
               .register(CSRFormat.from_dense("A", a))
               .register(DenseFormat.from_dense("X", x))
               .set_scalar("beta", 2.0))      # register data once
    statement = session.prepare(program, dense_shape=(n,))   # optimize once
    for beta in (0.5, 1.0, 2.0):
        result = statement.execute(beta=beta)                # execute many

The one-shot helpers in :mod:`repro.storel` (``run`` / ``run_detailed`` /
``explain``) are thin wrappers over a throwaway session, so every entry
point shares this single code path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .core.feedback import FeedbackConfig, FeedbackStore
from .core.optimizer import OptimizationResult, Optimizer
from .core.statistics import Statistics
from .execution.engine import (
    DEFAULT_BACKEND,
    GLOBAL_PLAN_CACHE,
    ExecutionEngine,
    PlanCache,
    PreparedPlan,
    result_to_dense,
)
from .execution.profile import ExecutionProfile
from .execution.sharded import ShardExecutor, split_plan
from .sdqlite.ast import Expr, Sym, children
from .sdqlite.errors import StorageError
from .sdqlite.parser import parse_expr
from .storage.catalog import Catalog


def _as_program(program: "str | Expr") -> Expr:
    if isinstance(program, str):
        return parse_expr(program)
    return program


def _global_symbols(expr: Expr) -> set[str]:
    """Every global symbol (physical array / scalar / tensor name) in ``expr``."""
    symbols: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            symbols.add(node.name)
        stack.extend(children(node))
    return symbols


@dataclass
class RunOutcome:
    """Result of a detailed run: the value plus the optimizer's output."""

    result: Any
    optimization: OptimizationResult
    plan_source: str
    #: Backend execution counters (``sum_loops``, ``fallback_sums``, ...) for
    #: the typed backend; ``None`` for backends without counters.
    execution_stats: dict[str, Any] | None = None

    def explain(self) -> str:
        """The plan explanation, extended with this run's execution counters."""
        return format_explanation(self.optimization,
                                  execution_stats=self.execution_stats)


def format_explanation(optimization: OptimizationResult, *,
                       execution_stats: "Mapping[str, Any] | None" = None) -> str:
    """Render an :class:`OptimizationResult` the way ``storel.explain`` prints it."""
    from .sdqlite.pretty import pretty

    lines = [
        "== chosen plan ==",
        pretty(optimization.plan, indent=True),
        "",
        f"estimated cost: {optimization.cost:.1f}",
    ]
    if optimization.candidate_costs:
        lines.append("candidate costs:")
        for name, cost in sorted(optimization.candidate_costs.items(), key=lambda kv: kv[1]):
            lines.append(f"  {name:<26}: {cost:.1f}")
    if optimization.stage1 is not None:
        lines.append(f"stage 1 (storage-independent): {optimization.stage1.as_row()}")
    if optimization.stage2 is not None:
        lines.append(f"stage 2 (storage-aware):       {optimization.stage2.as_row()}")
    if execution_stats:
        lines.append("execution counters:")
        for name in sorted(execution_stats):
            lines.append(f"  {name:<26}: {execution_stats[name]}")
    return "\n".join(lines)


class Session:
    """A persistent connection to one catalog: registered data + derived state.

    Parameters
    ----------
    catalog:
        The catalog to serve; a fresh empty one by default.  The session
        mutates it in place through :meth:`register` / :meth:`set_scalar` /
        :meth:`drop` / :meth:`replace_format`.
    method:
        Default optimization method for :meth:`prepare` / :meth:`run`
        (``"greedy"`` or ``"egraph"``).
    backend:
        Default execution backend (``"typed"``, :data:`DEFAULT_BACKEND`;
        or ``"compile"`` / ``"interpret"``).
    cache:
        The :class:`~repro.execution.engine.PlanCache` lowered plans are
        kept in; the process-wide
        :data:`~repro.execution.engine.GLOBAL_PLAN_CACHE` by default, so
        throwaway sessions still share lowering work.
    optimizer_options:
        Default keyword arguments for every
        :class:`~repro.core.optimizer.Optimizer` this session builds
        (e.g. ``iter_limit``); per-statement options override them.
    feedback:
        A :class:`~repro.core.feedback.FeedbackConfig` to enable the
        adaptive feedback loop (``docs/adaptive.md``): sampled executions
        are profiled, observed cardinalities refine the statistics, and
        statements whose estimates were off by more than the configured
        q-error threshold transparently re-prepare.  ``None`` (the default)
        disables the loop entirely; :meth:`enable_feedback` turns it on
        after construction.
    shard_workers:
        When ``>= 2``, statements whose optimized plan is a per-shard ``+``
        chain (sharded storage, see ``docs/sharding.md``) execute their
        shard parts on a pool of that many worker processes and
        ``v_add``-merge the partials; anything else — including every
        failure of the pool — runs the plan in-process, where the same
        chain streams one shard at a time.  ``0`` (the default) never
        spawns processes.  Feedback-enabled sessions always execute
        in-process so sampled profiles keep observing whole plans.  Each
        pool failure is counted in :attr:`shard_fallbacks`.
    """

    def __init__(self, catalog: Catalog | None = None, *, method: str = "greedy",
                 backend: str = DEFAULT_BACKEND, cache: PlanCache | None = None,
                 optimizer_options: Mapping[str, Any] | None = None,
                 feedback: FeedbackConfig | None = None,
                 shard_workers: int = 0):
        self.catalog = catalog if catalog is not None else Catalog()
        self.method = method
        self.backend = backend
        self.cache = cache if cache is not None else GLOBAL_PLAN_CACHE
        self.optimizer_options = dict(optimizer_options or {})
        self.shard_workers = shard_workers
        self._shard_executor = ShardExecutor(shard_workers)
        self._stats: Statistics | None = None
        self._stats_version = -1
        self._env: dict[str, Any] | None = None
        self._env_version = -1
        self._engines: dict[str, ExecutionEngine] = {}
        self._opt_memo: dict[Any, OptimizationResult] = {}
        self._opt_memo_version: Any = None
        self._views = None  # lazy repro.ivm.views.ViewRegistry
        self._feedback = FeedbackStore(feedback) if feedback is not None else None
        # One re-entrant lock guards every piece of derived state above
        # (statistics, environment, engines, the optimizer memo) plus the
        # catalog-mutation + incremental-stats-patch pairs, so one Session
        # can be shared by concurrent threads.  Lock order is always
        # session lock -> catalog lock; the catalog never calls back into
        # the session, so the order cannot invert.
        self._lock = threading.RLock()

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop all derived state (the catalog itself is left untouched).

        Lowered artifacts are left in the plan cache: they are pure
        functions of the plan, the default cache is shared process-wide,
        and the cache is LRU-bounded anyway.
        """
        with self._lock:
            self._stats = None
            self._env = None
            self._engines.clear()
            self._opt_memo.clear()
            self._shard_executor.close()

    @property
    def shard_fallbacks(self) -> int:
        """Executions whose shard-pool dispatch failed and ran in-process."""
        return self._shard_executor.failures

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Session(tensors={sorted(self.catalog.tensors)}, "
                f"scalars={sorted(self.catalog.scalars)}, "
                f"backend={self.backend!r}, method={self.method!r}, "
                f"version={self.catalog.version})")

    # -- catalog mutation (the Data Admin API) --------------------------------

    def _stats_in_sync(self) -> bool:
        return self._stats is not None and self._stats_version == self.catalog.version

    # Each mutation delegates to the catalog (which bumps the epochs) and
    # patches the memoized statistics in place.  No other invalidation is
    # needed: the environment, engines, optimizer memo and statements all
    # compare epochs lazily and rebuild / re-prepare on their next use.
    # Runtime cardinality observations describe the *pre-mutation* data, so
    # every patch also drops them — the feedback loop re-learns them from
    # the next sampled executions.

    def register(self, fmt) -> "Session":
        """Register a new tensor (see :meth:`repro.storage.Catalog.add`)."""
        with self._lock:
            in_sync = self._stats_in_sync()
            self.catalog.add(fmt)
            if in_sync:
                self._stats.apply_format(fmt)
                self._stats.clear_observations()
                self._stats_version = self.catalog.version
        return self

    def set_scalar(self, name: str, value: float) -> "Session":
        """Register a global scalar, or re-bind an existing one to a new value.

        Re-binding is a value-only mutation: prepared statements stay valid
        and only refresh their environment — no re-optimization, no
        re-lowering.
        """
        with self._lock:
            in_sync = self._stats_in_sync()
            self.catalog.set_scalar(name, value)
            if in_sync:
                self._stats.set_scalar(name, value)
                self._stats.clear_observations()
                self._stats_version = self.catalog.version
        return self

    def drop(self, name: str) -> "Session":
        """Unregister a tensor or scalar (see :meth:`repro.storage.Catalog.drop`)."""
        with self._lock:
            fmt = self.catalog.tensors.get(name)
            in_sync = self._stats_in_sync()
            self.catalog.drop(name)
            if in_sync:
                if fmt is not None:
                    self._stats.remove_format(fmt)
                else:
                    self._stats.remove_scalar(name)
                self._stats.clear_observations()
                self._stats_version = self.catalog.version
        return self

    def replace_format(self, fmt) -> "Session":
        """Re-store an already-registered tensor in a different format."""
        with self._lock:
            old = self.catalog.tensors.get(fmt.name)
            in_sync = self._stats_in_sync()
            self.catalog.replace(fmt)
            if in_sync:
                self._stats.remove_format(old)
                self._stats.apply_format(fmt)
                self._stats.clear_observations()
                self._stats_version = self.catalog.version
        return self

    def _apply_update(self, name: str, coords, values) -> None:
        """Catalog point-update + incremental statistics patch (no views)."""
        with self._lock:
            old = self.catalog.tensors.get(name)
            in_sync = self._stats_in_sync()
            self.catalog.update(name, coords, values)
            if in_sync and old is not None:
                self._stats.remove_format(old)
                self._stats.apply_format(self.catalog.tensors[name])
                self._stats.clear_observations()
                self._stats_version = self.catalog.version

    def update(self, name: str, coords, values) -> "Session":
        """Apply a sparse point-update to tensor ``name`` (value-only mutation).

        ``coords`` is an ``(n, rank)`` integer array and ``values`` the
        matching additive deltas — see :meth:`repro.storage.Catalog.update`.
        Prepared statements survive (only their environment refreshes), and
        every registered materialized view is maintained — by its prepared
        delta statement when that pays, by full re-execution otherwise
        (``docs/ivm.md``).
        """
        # Lock order is registry -> session (view reads take the registry
        # lock first), so the registry is read without the session lock here.
        registry = self._views
        if registry is not None and len(registry):
            registry.update(name, coords, values)
        else:
            self._apply_update(name, coords, values)
        return self

    # -- materialized views (incremental view maintenance) ---------------------

    def views(self):
        """This session's :class:`repro.ivm.views.ViewRegistry` (created lazily)."""
        from .ivm.views import ViewRegistry

        with self._lock:
            if self._views is None:
                self._views = ViewRegistry(self)
            return self._views

    def create_view(self, name: str, program: "str | Expr", *,
                    method: str | None = None, backend: str | None = None,
                    dense_shape: tuple[int, ...] | None = None,
                    optimizer_options: Mapping[str, Any] | None = None):
        """Register ``program`` as a materialized view named ``name``.

        The view is materialized immediately and maintained incrementally
        across :meth:`update` calls; read it with ``session.view(name)
        .value()``.  Returns the :class:`repro.ivm.views.MaterializedView`.
        """
        return self.views().create(name, _as_program(program), method=method,
                                   backend=backend, dense_shape=dense_shape,
                                   optimizer_options=optimizer_options)

    def view(self, name: str):
        """The registered :class:`repro.ivm.views.MaterializedView` named ``name``."""
        return self.views().get(name)

    def drop_view(self, name: str) -> "Session":
        """Unregister a materialized view (its tensor data is untouched)."""
        self.views().drop(name)
        return self

    def apply_recommendation(self, recommendation) -> "Session":
        """Re-store tensors as a :class:`repro.advisor.Recommendation` advises.

        Every tensor whose recommended format differs from its current one
        is converted in place via :func:`repro.storage.convert.reformat` and
        swapped with :meth:`replace_format` — so the catalog epochs bump,
        statistics are patched incrementally, and live prepared statements
        transparently re-prepare on their next execution.  Tensors already
        stored as recommended are left untouched (no epoch bump).

        Example (see ``docs/advisor.md``)::

            recommendation = storel.advise(programs, session.catalog)
            session.apply_recommendation(recommendation)
        """
        from .storage.convert import reformat

        for name, kind in recommendation.formats.items():
            current = self.catalog.tensors.get(name)
            if current is None:
                raise StorageError(
                    f"recommendation names {name!r}, which is not a registered tensor")
            # spec_name carries the shard count (e.g. "sharded_csr@4"), so a
            # tensor already stored exactly as recommended is a no-op even
            # when the recommendation names a sharded spec.
            if kind not in (current.format_name, current.spec_name):
                self.replace_format(reformat(current, kind))
        return self

    def advise(self, programs, **kwargs):
        """Run the workload-driven format advisor over this session's catalog.

        Thin wrapper over :class:`repro.advisor.Advisor`; keyword arguments
        are split between the advisor's constructor knobs (``method``,
        ``backend``, ``beam_width``, ``per_tensor_top``,
        ``optimizer_options``) and :meth:`repro.advisor.Advisor.advise`
        (``weights``, ``tensors``, ``include_special``, ``measure``,
        ``top_k``, ``measure_repeats``).  Returns a
        :class:`repro.advisor.Recommendation`; apply it with
        :meth:`apply_recommendation`.
        """
        from .advisor import Advisor

        constructor_keys = ("method", "backend", "beam_width", "per_tensor_top",
                            "optimizer_options", "shard_counts")
        constructor = {key: kwargs.pop(key) for key in constructor_keys if key in kwargs}
        constructor.setdefault("method", self.method)
        # The advisor must cost plans under the same optimizer configuration
        # this session executes with; explicit options override per key.
        options = dict(self.optimizer_options)
        options.update(constructor.get("optimizer_options") or {})
        constructor["optimizer_options"] = options
        return Advisor(self, **constructor).advise(programs, **kwargs)

    # -- adaptive feedback loop ------------------------------------------------

    @property
    def feedback(self) -> FeedbackStore | None:
        """The session's :class:`FeedbackStore`, or ``None`` when disabled."""
        return self._feedback

    def enable_feedback(self, *, sample_every: int = 8,
                        threshold: float = 2.0) -> "Session":
        """Turn on the adaptive feedback loop (see ``docs/adaptive.md``).

        One in every ``sample_every`` executions of each statement is
        profiled; observed cardinalities that disagree with the estimates by
        more than a ``threshold`` q-error refine the statistics and make
        dependent statements re-prepare on their next execution.  Idempotent
        when already enabled with the same configuration; re-configuring
        replaces the store (and resets its counters).
        """
        config = FeedbackConfig(sample_every=sample_every, threshold=threshold)
        with self._lock:
            if self._feedback is None or self._feedback.config != config:
                self._feedback = FeedbackStore(config)
        return self

    def disable_feedback(self) -> "Session":
        """Turn the adaptive feedback loop off.

        Already-adopted observations stay in the statistics (they still
        describe the current data); only profiling and ingestion stop.
        Re-enabling later starts a fresh store with reset counters.
        """
        with self._lock:
            self._feedback = None
        return self

    def feedback_report(self) -> dict[str, Any]:
        """Lifetime counters of the feedback loop (empty dict when disabled)."""
        store = self._feedback
        return store.snapshot() if store is not None else {}

    def _feedback_epoch(self) -> int:
        store = self._feedback
        return store.epoch if store is not None else 0

    def _ingest_profile(self, prepared: PreparedPlan,
                        profile: ExecutionProfile) -> dict[str, Any]:
        """Fold one sampled execution profile into the session statistics."""
        with self._lock:
            return self._feedback.ingest(self.statistics(), prepared, profile,
                                         self.catalog.version)

    # -- derived state, kept in sync with the catalog epochs ------------------

    def statistics(self) -> Statistics:
        """Statistics over the current catalog (memoized on the catalog epoch).

        Session-driven mutations patch the memoized instance incrementally;
        a full :meth:`Statistics.from_catalog` rebuild only happens when the
        catalog was mutated behind the session's back.
        """
        with self._lock:
            if not self._stats_in_sync():
                self._stats = Statistics.from_catalog(self.catalog)
                self._stats_version = self.catalog.version
            return self._stats

    def environment(self) -> dict[str, Any]:
        """The physical environment ``catalog.globals()``, memoized per epoch."""
        with self._lock:
            if self._env is None or self._env_version != self.catalog.version:
                version = self.catalog.version
                self._env = self.catalog.globals()
                self._env_version = version
            return self._env

    def engine(self, backend: str | None = None) -> ExecutionEngine:
        """The session's execution engine for ``backend`` (default backend if None)."""
        backend = backend or self.backend
        with self._lock:
            env = self.environment()
            engine = self._engines.get(backend)
            if engine is None or engine.env is not env:
                engine = ExecutionEngine(env=env, backend=backend, cache=self.cache)
                self._engines[backend] = engine
            return engine

    def _optimize(self, expr: Expr, method: str,
                  optimizer_options: Mapping[str, Any]) -> OptimizationResult:
        """Cost-based optimization, memoized per (program, method, options, epoch).

        The memo token pairs the catalog version with the feedback epoch, so
        adopting runtime observations invalidates memoized plans exactly like
        a catalog change does.
        """
        with self._lock:
            memo_token = (self.catalog.version, self._feedback_epoch())
            if self._opt_memo_version != memo_token:
                self._opt_memo.clear()
                self._opt_memo_version = memo_token
            options = dict(self.optimizer_options)
            options.update(optimizer_options)
            key = (expr, method, tuple(sorted(options.items())))
            result = self._opt_memo.get(key)
            if result is None:
                optimizer = Optimizer(self.statistics(), **options)
                result = optimizer.optimize(expr, self.catalog.mappings(), method=method)
                self._opt_memo[key] = result
            return result

    # -- the query API --------------------------------------------------------

    def prepare(self, program: "str | Expr", *, method: str | None = None,
                backend: str | None = None, dense_shape: tuple[int, ...] | None = None,
                optimizer_options: Mapping[str, Any] | None = None) -> "Statement":
        """Optimize and lower ``program`` once; return a reusable :class:`Statement`."""
        return Statement(self, _as_program(program),
                         method=method or self.method,
                         backend=backend or self.backend,
                         dense_shape=dense_shape,
                         optimizer_options=dict(optimizer_options or {}))

    def run_detailed(self, program: "str | Expr", *, method: str | None = None,
                     backend: str | None = None,
                     dense_shape: tuple[int, ...] | None = None,
                     optimizer_options: Mapping[str, Any] | None = None) -> RunOutcome:
        """Prepare and execute once; return the value plus the plan details."""
        statement = self.prepare(program, method=method, backend=backend,
                                 dense_shape=dense_shape,
                                 optimizer_options=optimizer_options)
        stats: dict[str, Any] = {}
        result = statement.execute_with_stats(stats)
        return RunOutcome(result=result,
                          optimization=statement.optimization,
                          plan_source=statement.plan_source,
                          execution_stats=stats or None)

    def run(self, program: "str | Expr", *, method: str | None = None,
            backend: str | None = None, dense_shape: tuple[int, ...] | None = None,
            optimizer_options: Mapping[str, Any] | None = None) -> Any:
        """Prepare and execute once; return just the value."""
        return self.run_detailed(program, method=method, backend=backend,
                                 dense_shape=dense_shape,
                                 optimizer_options=optimizer_options).result

    def explain(self, program: "str | Expr", *, method: str | None = None,
                optimizer_options: Mapping[str, Any] | None = None) -> str:
        """Human-readable description of the plan STOREL chooses for ``program``."""
        optimization = self._optimize(_as_program(program), method or self.method,
                                      dict(optimizer_options or {}))
        return format_explanation(optimization)


class Statement:
    """A prepared statement: an optimized, lowered plan ready to execute many times.

    Created by :meth:`Session.prepare`.  Execution re-binds named scalar
    parameters into the prepared plan's environment — lowered artifacts are
    environment-independent, so no re-parsing, re-optimization or
    re-lowering happens on the hot path.  A statement notices catalog epochs
    moving underneath it: after a schema change it transparently re-prepares
    on the next execution (evicting its superseded artifact from the plan
    cache); after a value-only change it merely refreshes its environment.
    """

    def __init__(self, session: Session, program: Expr, *, method: str,
                 backend: str, dense_shape: tuple[int, ...] | None,
                 optimizer_options: dict[str, Any]):
        self._session = session
        self.program = program
        self.method = method
        self.backend = backend
        self.dense_shape = dense_shape
        self.optimizer_options = optimizer_options
        self.optimization: OptimizationResult = None  # set by _prepare
        # The prepared artifact and the environment it executes against are
        # kept in ONE tuple, swapped wholesale: a concurrent re-preparation
        # can never be observed as a new artifact paired with an old
        # environment (or vice versa) by an in-flight execute().
        self._bound: tuple[PreparedPlan, Mapping[str, Any]] | None = None
        self._schema_version = -1
        self._version = -1
        self._feedback_seen = 0
        self._prepare()

    # -- preparation / invalidation -------------------------------------------

    def _prepare(self) -> None:
        session = self._session
        with session._lock:
            # Epochs are read *before* the derived state is rebuilt: if a
            # writer slips in a mutation between the epoch read and the
            # prepare (only possible through direct catalog access — session
            # mutators hold the same lock), the recorded epochs are older
            # than the state we built, so the next execution revalidates
            # again rather than serving stale state forever.
            version, schema_version = session.catalog.epochs()
            self.optimization = session._optimize(self.program, self.method,
                                                  self.optimizer_options)
            engine = session.engine(self.backend)
            unbound = _global_symbols(self.optimization.plan) - set(engine.env)
            if unbound:
                raise StorageError(
                    f"plan references unbound symbol(s) {sorted(unbound)}; "
                    "a tensor or scalar the program needs is not registered "
                    "in the catalog (was it dropped?)")
            self._bound = (engine.prepare(self.optimization.plan), engine.env)
            self._schema_version = schema_version
            self._version = version
            self._feedback_seen = session._feedback_epoch()

    @property
    def _prepared(self) -> PreparedPlan | None:
        return self._bound[0] if self._bound is not None else None

    @property
    def _env(self) -> Mapping[str, Any]:
        return self._bound[1] if self._bound is not None else {}

    @property
    def is_stale(self) -> bool:
        """True when a schema change invalidated the prepared plan."""
        return self._schema_version != self._session.catalog.schema_version

    def _revalidate(self) -> None:
        session = self._session
        catalog = session.catalog
        if (catalog.schema_version == self._schema_version
                and catalog.version == self._version
                and session._feedback_epoch() == self._feedback_seen):
            return  # fast path: nothing moved, no locking on the hot path
        with session._lock:
            if (catalog.schema_version != self._schema_version
                    or session._feedback_epoch() != self._feedback_seen):
                # Re-optimize and re-lower — the schema changed, or the
                # feedback loop adopted new cardinality observations.  When
                # the change left the plan and symbol schema intact, the
                # cache key is unchanged and
                # re-preparation is a pure cache hit.  If the key did change,
                # the old entry is dead weight for this statement — evict it,
                # but only from a session-private cache: artifacts are plan-pure,
                # so an entry in the shared process-wide cache may still serve
                # other sessions (and that cache is LRU-bounded anyway).
                old_key = self._prepared.cache_key if self._prepared else None
                self._prepare()
                if (old_key is not None and old_key != self._prepared.cache_key
                        and self._session.cache is not GLOBAL_PLAN_CACHE):
                    self._session.cache.discard(old_key)
            elif catalog.version != self._version:
                self._bound = (self._bound[0], self._session.environment())
                self._version = catalog.version

    # -- execution -------------------------------------------------------------

    def _check_params(self, scalar_params: Mapping[str, Any]) -> None:
        unknown = [name for name in scalar_params
                   if name not in self._session.catalog.scalars]
        if unknown:
            raise StorageError(
                f"unknown scalar parameter(s) {sorted(unknown)}; "
                f"registered scalars: {sorted(self._session.catalog.scalars)}")

    def _finish(self, result: Any) -> Any:
        if self.dense_shape is not None:
            return result_to_dense(result, self.dense_shape)
        return result

    def _run(self, stats: dict | None, scalar_params: Mapping[str, Any]) -> Any:
        self._revalidate()
        prepared, env = self._bound
        if scalar_params:
            self._check_params(scalar_params)
        store = self._session._feedback
        if store is None and stats is None and self._session._shard_executor.available():
            # Parallel shard dispatch: a per-shard + chain executes its
            # addends on the session's worker pool and merges the partials.
            # Strictly a performance path — any failure falls through to the
            # in-process execution below, which streams the same chain one
            # shard at a time.  Skipped when backend counters (stats) or the
            # feedback loop want to observe the whole in-process run.
            parts = split_plan(prepared.plan)
            if len(parts) >= 2:
                try:
                    result = self._session._shard_executor.run_parts(
                        parts, self._session.catalog, self.backend,
                        scalar_params)
                    return self._finish(result)
                except Exception:
                    pass  # counted in Session.shard_fallbacks
        if scalar_params:
            env = dict(env)
            env.update(scalar_params)
        if store is not None and store.should_sample():
            # Sampled execution: collect per-loop iteration counts plus the
            # output cardinality and feed them back into the statistics.
            # The raw backend result is profiled *before* any dense
            # conversion, so the typed backend's buffer lengths are read
            # directly.
            profile = ExecutionProfile()
            result = prepared.run(env, stats, profile)
            profile.record_output(result)
            counters = self._session._ingest_profile(prepared, profile)
            if stats is not None:
                stats.update(counters)
            return self._finish(result)
        return self._finish(prepared.run(env, stats))

    def execute(self, **scalar_params: float) -> Any:
        """Execute the prepared plan, re-binding the given scalar parameters.

        Parameters must name scalars registered in the catalog (e.g.
        ``statement.execute(beta=0.5)``); unknown names raise
        :class:`~repro.sdqlite.errors.StorageError`.  Parameters given here
        override the catalog value for this execution only.
        """
        return self._run(None, scalar_params)

    def execute_with_stats(self, stats: dict, **scalar_params: float) -> Any:
        """Like :meth:`execute`, but populate ``stats`` with backend counters.

        The typed backend records loop/fallback counts
        (``sum_loops``, ``merge_loops``, ``fallback_sums``,
        ``fallback_merges``) into the given dictionary; other backends
        leave it untouched.  When the session's adaptive feedback loop is
        enabled and this execution was sampled, the dictionary additionally
        receives the estimated-vs-actual counters (``feedback_checked``,
        ``feedback_misestimations``, ``feedback_max_q_error``,
        ``feedback_refined``) — :meth:`RunOutcome.explain` renders them in
        its ``execution counters`` block.
        """
        return self._run(stats, scalar_params)

    def execute_many(self, param_batches: Iterable[Mapping[str, float]]) -> list:
        """Execute once per parameter binding, amortizing environment setup.

        ``param_batches`` is an iterable of ``{scalar: value}`` mappings;
        one mutable copy of the environment is built up front and patched
        in place per batch, so a sweep over thousands of bindings costs one
        dict copy total instead of one per call.  Each batch sees exactly
        the catalog values plus its own bindings — scalars overridden by an
        earlier batch are restored from the base environment first.
        """
        self._revalidate()
        prepared, base = self._bound
        env = dict(base)
        overridden: set[str] = set()
        results = []
        for params in param_batches:
            self._check_params(params)
            for name in overridden.difference(params):
                env[name] = base[name]
            env.update(params)
            overridden = set(params)
            results.append(self._finish(prepared.run(env)))
        return results

    # -- introspection ---------------------------------------------------------

    @property
    def plan(self) -> Expr:
        """The chosen physical plan."""
        return self.optimization.plan

    @property
    def cost(self) -> float:
        """The optimizer's estimated cost of the chosen plan."""
        return self.optimization.cost

    @property
    def plan_source(self) -> str:
        """Generated backend source (``compile``) or a backend marker."""
        return self._prepared.source

    def explain(self) -> str:
        """Human-readable description of this statement's prepared plan."""
        return format_explanation(self.optimization)
