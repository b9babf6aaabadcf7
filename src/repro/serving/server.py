"""A thread-safe serving layer: one catalog, many concurrent client sessions.

The paper's flexible-storage design assumes a long-lived system in which many
queries share one catalog and its statistics; :class:`Server` is that system
boundary.  It multiplexes any number of concurrent client threads over one
shared :class:`~repro.storage.Catalog` with four guarantees:

* **Prepare once, globally.**  Plans live in a cross-session
  :class:`~repro.serving.cache.SharedPlanCache` keyed on (program source,
  format-config fingerprint, catalog schema epoch): the first request for a
  query pays the optimizer, every other client — concurrent ones included,
  via single-flight coalescing — reuses the entry.
* **Snapshot isolation.**  Every request executes against an immutable
  :meth:`~repro.storage.Catalog.snapshot` taken at admission: a concurrent
  :meth:`replace_format` / :meth:`set_scalar` can never expose a
  half-applied catalog state to an in-flight execution, and every result is
  exactly the program evaluated at *some* point of the update sequence
  (serial equivalence; fuzz-checked by ``repro.fuzz``'s concurrent mode).
* **Admission control.**  At most ``max_concurrency`` requests execute at
  once; up to ``max_queue`` more wait (bounded, FIFO-fair via condition
  wakeups) for at most ``queue_timeout`` seconds.  Beyond that the server
  sheds load: :class:`ServerBusy` on a full queue, :class:`RequestTimeout`
  on a slot wait that expires — back-pressure the caller can see.
* **Observability.**  :attr:`Server.stats` counts hits / misses /
  re-prepares / rejections and records per-request latency with p50/p99
  queries (:mod:`repro.serving.stats`).

See ``docs/serving.md`` for the lifecycle walk-through and tuning guide,
``benchmarks/bench_serving.py`` for the closed-loop load benchmark, and
``tests/test_serving.py`` for the concurrency stress suite.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.feedback import FeedbackConfig, FeedbackStore
from ..core.optimizer import Optimizer
from ..core.statistics import Statistics
from ..execution.engine import (
    BACKENDS,
    DEFAULT_BACKEND,
    ExecutionEngine,
    PlanCache,
    result_to_dense,
)
from ..execution.profile import ExecutionProfile
from ..execution.sharded import ShardExecutor, split_plan
from ..sdqlite.ast import Expr
from ..sdqlite.debruijn import to_debruijn_safe
from ..sdqlite.errors import StorageError
from ..sdqlite.pretty import to_source
from ..sdqlite.parser import parse_expr
from ..storage.catalog import Catalog, CatalogSnapshot
from .cache import SharedPlan, SharedPlanCache, base_key, plan_key
from .stats import ServerStats


class ServingError(RuntimeError):
    """Base class for serving-layer failures."""


class ServerBusy(ServingError):
    """The admission queue is at capacity; the request was shed immediately."""


class RequestTimeout(ServingError):
    """No execution slot freed up within ``queue_timeout`` seconds."""


class ServerClosed(ServingError):
    """The server was shut down; no further requests are admitted."""


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for a :class:`Server` (see ``docs/serving.md``).

    ``max_concurrency``
        Executing requests at once.  Python's GIL serializes interpretation
        anyway, so this is a *fairness* bound (keeps one heavy query from
        hogging every slot), not a parallelism dial.
    ``max_queue``
        Requests allowed to wait for a slot before new arrivals are shed
        with :class:`ServerBusy`.
    ``queue_timeout``
        Seconds a queued request waits before :class:`RequestTimeout`
        (``None`` = wait forever).
    ``plan_cache_size``
        Entries in the shared plan cache (optimized + lowered plans).
    ``lowered_cache_size``
        Entries in the underlying per-artifact LRU shared by re-preparations.
    ``env_cache_size``
        Materialized snapshot environments kept per catalog version.
    ``latency_window``
        Latency observations retained for p50/p99 queries.
    ``profile_every``
        Profile one in every ``profile_every`` served executions and feed
        observed cardinalities back into the optimizer statistics
        (``docs/adaptive.md``).  ``0`` (the default) disables the adaptive
        loop entirely — served executions are byte-identical to a server
        without this feature.
    ``reoptimize_threshold``
        Minimum q-error (symmetric estimated/actual factor) before an
        observation is adopted; adopting one bumps the adaptive epoch, so
        affected queries transparently re-prepare through the shared cache.
    ``shard_workers``
        When ``>= 2``, requests whose shared plan is a per-shard ``+`` chain
        (sharded storage, ``docs/sharding.md``) execute the shard parts on a
        pool of that many worker processes; the pool is keyed on the
        snapshot's epochs, so every catalog mutation retires it and requests
        behave identically under snapshot isolation.  ``0`` (the default)
        never spawns processes; failures fall back to in-process streaming.
    """

    max_concurrency: int = 8
    max_queue: int = 64
    queue_timeout: float | None = 10.0
    plan_cache_size: int = 256
    lowered_cache_size: int = 256
    env_cache_size: int = 4
    latency_window: int = 8192
    profile_every: int = 0
    reoptimize_threshold: float = 2.0
    shard_workers: int = 0


class AdmissionGate:
    """A bounded, timeout-aware concurrency gate (condition-variable based)."""

    def __init__(self, max_concurrency: int, max_queue: int,
                 timeout: float | None):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.timeout = timeout
        self.active = 0
        self.waiting = 0
        self._condition = threading.Condition()

    def acquire(self) -> None:
        """Take an execution slot, queueing if needed.

        Raises :class:`ServerBusy` when the queue is full and
        :class:`RequestTimeout` when no slot frees within the timeout.
        """
        with self._condition:
            if self.active < self.max_concurrency:
                self.active += 1
                return
            if self.waiting >= self.max_queue:
                raise ServerBusy(
                    f"admission queue full ({self.waiting} waiting, "
                    f"{self.active} executing)")
            self.waiting += 1
            try:
                deadline = (None if self.timeout is None
                            else time.monotonic() + self.timeout)
                while self.active >= self.max_concurrency:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise RequestTimeout(
                            f"no execution slot within {self.timeout}s "
                            f"({self.active} executing)")
                    self._condition.wait(remaining)
                self.active += 1
            finally:
                self.waiting -= 1

    def release(self) -> None:
        with self._condition:
            self.active -= 1
            self._condition.notify()


class Server:
    """Serves many concurrent client sessions over one shared catalog.

    Parameters
    ----------
    catalog:
        The shared catalog (a fresh empty one by default).  The server's
        admin methods (:meth:`register` / :meth:`set_scalar` /
        :meth:`replace_format` / …) mutate it atomically; clients only ever
        read point-in-time snapshots of it.
    method / backend:
        Server-wide defaults, overridable per session and per statement.
    optimizer_options:
        Default keyword arguments for every optimizer run; part of the
        shared-plan-cache key.
    config:
        A :class:`ServerConfig`; individual fields can also be overridden
        via keyword arguments (``Server(max_concurrency=2)``).
    """

    def __init__(self, catalog: Catalog | None = None, *, method: str = "greedy",
                 backend: str = DEFAULT_BACKEND,
                 optimizer_options: Mapping[str, Any] | None = None,
                 config: ServerConfig | None = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either config= or individual overrides, not both")
        if overrides:
            config = ServerConfig(**overrides)
        self.config = config or ServerConfig()
        self.catalog = catalog if catalog is not None else Catalog()
        self.method = method
        self.backend = backend
        self.optimizer_options = dict(optimizer_options or {})
        self.plans = SharedPlanCache(maxsize=self.config.plan_cache_size)
        self.stats = ServerStats(latency_window=self.config.latency_window)
        self.stats.attach_plan_cache(self.plans)
        self.lowered = PlanCache(maxsize=self.config.lowered_cache_size)
        self._gate = AdmissionGate(self.config.max_concurrency,
                                   self.config.max_queue,
                                   self.config.queue_timeout)
        self.feedback = (FeedbackStore(FeedbackConfig(
            sample_every=self.config.profile_every,
            threshold=self.config.reoptimize_threshold))
            if self.config.profile_every > 0 else None)
        self._shard_executor = ShardExecutor(self.config.shard_workers)
        self.stats.attach_shard_executor(self._shard_executor)
        self._envs: OrderedDict[int, dict[str, Any]] = OrderedDict()
        self._statistics: OrderedDict[int, Statistics] = OrderedDict()
        self._prepared_epochs: dict[tuple, tuple[int, int]] = {}
        self._memo_lock = threading.Lock()
        self._views = None  # lazy repro.ivm.views.ViewRegistry
        self._views_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop admitting requests and drop cached plans/environments/views."""
        self._closed = True
        self._shard_executor.close()
        self.plans.clear()
        self.lowered.clear()
        with self._views_lock:
            registry = self._views
            self._views = None
        if registry is not None:
            registry.session.close()
        with self._memo_lock:
            self._envs.clear()
            self._statistics.clear()
            self._prepared_epochs.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Server(tensors={sorted(self.catalog.tensors)}, "
                f"backend={self.backend!r}, method={self.method!r}, "
                f"plans={len(self.plans)}, closed={self._closed})")

    # -- the data-admin API (atomic mutations of the shared catalog) ----------

    def register(self, fmt) -> "Server":
        """Register a new tensor in the shared catalog."""
        self.catalog.add(fmt)
        return self

    def set_scalar(self, name: str, value: float) -> "Server":
        """Register or re-bind a global scalar (value-only if it exists)."""
        self.catalog.set_scalar(name, value)
        return self

    def drop(self, name: str) -> "Server":
        """Unregister a tensor or scalar."""
        self.catalog.drop(name)
        return self

    def replace_format(self, fmt) -> "Server":
        """Re-store an already-registered tensor in a different format."""
        self.catalog.replace(fmt)
        return self

    def apply_recommendation(self, recommendation) -> "Server":
        """Apply a :class:`repro.advisor.Recommendation` to the shared catalog.

        Each re-store is one atomic replace; in-flight requests keep their
        snapshots, later requests see the new formats and re-prepare through
        the shared cache.
        """
        from ..storage.convert import reformat

        for name, kind in recommendation.formats.items():
            current = self.catalog.tensors.get(name)
            if current is None:
                raise StorageError(
                    f"recommendation names {name!r}, which is not a registered tensor")
            if current.format_name != kind:
                self.replace_format(reformat(current, kind))
        return self

    def update(self, name: str, coords, values) -> "Server":
        """Apply a sparse point-update to tensor ``name``, maintaining views.

        The update is a value-only mutation (:meth:`repro.storage.Catalog
        .update`): the schema epoch is untouched, so shared plans survive
        and in-flight snapshot readers are unaffected.  Every registered
        materialized view (:meth:`create_view`) is refreshed *before* the
        new epoch becomes observable to view readers — by its prepared
        delta statement when the cost model says that pays, by full
        re-execution otherwise (``docs/ivm.md``).  Maintenance counters and
        latency land in :attr:`stats`.
        """
        if self._closed:
            raise ServerClosed("cannot update a closed server")
        with self._views_lock:
            registry = self._views
        if registry is not None and len(registry):
            registry.update(name, coords, values)
        else:
            self.catalog.update(name, coords, values)
        return self

    # -- materialized views (incremental view maintenance) ---------------------

    def _view_registry(self):
        from ..ivm.views import ViewRegistry
        from ..session import Session

        with self._views_lock:
            if self._views is None:
                # A private maintenance session over the *live* catalog; its
                # lowered artifacts share the server's cache.
                maintenance = Session(self.catalog, method=self.method,
                                      backend=self.backend, cache=self.lowered,
                                      optimizer_options=self.optimizer_options)
                self._views = ViewRegistry(
                    maintenance,
                    on_maintenance=self.stats.record_maintenance)
            return self._views

    def create_view(self, name: str, program: "str | Expr", *,
                    method: str | None = None, backend: str | None = None,
                    dense_shape: tuple[int, ...] | None = None,
                    optimizer_options: Mapping[str, Any] | None = None):
        """Register ``program`` as a materialized view, maintained by :meth:`update`.

        Returns the :class:`repro.ivm.views.MaterializedView`; read its
        current result with ``server.view(name).value()``.
        """
        if self._closed:
            raise ServerClosed("cannot create a view on a closed server")
        program = parse_expr(program) if isinstance(program, str) else program
        view = self._view_registry().create(
            name, program, method=method, backend=backend,
            dense_shape=dense_shape, optimizer_options=optimizer_options)
        self.stats.count("views")
        return view

    def view(self, name: str):
        """The registered :class:`repro.ivm.views.MaterializedView` named ``name``."""
        return self._view_registry().get(name)

    def drop_view(self, name: str) -> "Server":
        """Unregister a materialized view."""
        self._view_registry().drop(name)
        return self

    def purge_stale_plans(self) -> int:
        """Eagerly drop shared plans from superseded schema epochs."""
        return self.plans.purge_stale(self.catalog.schema_version)

    def feedback_report(self) -> dict[str, Any]:
        """Lifetime counters of the adaptive feedback loop (empty when off)."""
        return self.feedback.snapshot() if self.feedback is not None else {}

    # -- client entry points ---------------------------------------------------

    def session(self, *, method: str | None = None, backend: str | None = None,
                optimizer_options: Mapping[str, Any] | None = None
                ) -> "ClientSession":
        """Open a lightweight client session (cheap; one per request is fine)."""
        if self._closed:
            raise ServerClosed("cannot open a session on a closed server")
        self.stats.count("sessions")
        return ClientSession(self, method=method or self.method,
                             backend=backend or self.backend,
                             optimizer_options=dict(optimizer_options
                                                    or self.optimizer_options))

    #: Database-API-flavoured alias.
    connect = session

    def execute(self, program: "str | Expr", *, method: str | None = None,
                backend: str | None = None,
                dense_shape: tuple[int, ...] | None = None,
                **scalar_params: float) -> Any:
        """One-shot convenience: open a session, prepare (via the shared
        cache — usually a hit), execute once."""
        return (self.session(method=method, backend=backend)
                .prepare(program, dense_shape=dense_shape)
                .execute(**scalar_params))

    # -- per-snapshot derived state (memoized per catalog version) -------------

    def _env_for(self, snapshot: CatalogSnapshot) -> dict[str, Any]:
        """``snapshot.globals()`` memoized on the snapshot's version epoch."""
        with self._memo_lock:
            env = self._envs.get(snapshot.version)
            if env is not None:
                self._envs.move_to_end(snapshot.version)
                return env
        env = snapshot.globals()
        with self._memo_lock:
            self._envs[snapshot.version] = env
            self._envs.move_to_end(snapshot.version)
            while len(self._envs) > self.config.env_cache_size:
                self._envs.popitem(last=False)
        return env

    def _statistics_for(self, snapshot: CatalogSnapshot) -> Statistics:
        """Statistics over the snapshot, memoized on its version epoch."""
        with self._memo_lock:
            stats = self._statistics.get(snapshot.version)
            if stats is not None:
                self._statistics.move_to_end(snapshot.version)
                return stats
        stats = Statistics.from_catalog(snapshot)
        with self._memo_lock:
            self._statistics[snapshot.version] = stats
            self._statistics.move_to_end(snapshot.version)
            while len(self._statistics) > self.config.env_cache_size:
                self._statistics.popitem(last=False)
        return stats

    # -- the request path ------------------------------------------------------

    def _shared_plan(self, query: Expr, program: Expr, *, method: str,
                     backend: str, optimizer_options: dict,
                     snapshot: CatalogSnapshot) -> SharedPlan:
        """Look up / build the shared plan for one query under one snapshot.

        ``query`` is the statement's canonical (de Bruijn) form — the
        cache-key identity; ``program`` is the named form the optimizer
        consumes."""
        key = plan_key(query, method=method, backend=backend,
                       optimizer_options=optimizer_options, snapshot=snapshot)
        feedback_epoch = self.feedback.epoch if self.feedback is not None else 0
        if self.feedback is not None:
            # The adaptive epoch rides at the TAIL of the key: ``base_key``
            # (the first four components) stays the query's stable identity,
            # and adopting new observations structurally invalidates every
            # plan optimized under the old statistics.
            key = key + (feedback_epoch,)

        def build() -> SharedPlan:
            options = dict(self.optimizer_options)
            options.update(optimizer_options)
            optimizer = Optimizer(self._statistics_for(snapshot), **options)
            optimization = optimizer.optimize(program, snapshot.mappings(),
                                              method=method)
            engine = ExecutionEngine(env=self._env_for(snapshot),
                                     backend=backend, cache=self.lowered)
            prepared = engine.prepare(optimization.plan)
            return SharedPlan(key=key, optimization=optimization,
                              prepared=prepared,
                              schema_version=snapshot.schema_version)

        entry, was_hit = self.plans.get_or_prepare(key, build)
        if was_hit:
            self.stats.count("plan_hits")
        else:
            self.stats.count("plan_misses")
            with self._memo_lock:
                previous = self._prepared_epochs.get(base_key(key))
                self._prepared_epochs[base_key(key)] = (snapshot.schema_version,
                                                        feedback_epoch)
            if previous is not None:
                prev_schema, prev_feedback = previous
                if prev_schema != snapshot.schema_version:
                    self.stats.count("re_prepares")
                elif prev_feedback != feedback_epoch:
                    # Same schema, new adaptive epoch: this miss is the
                    # feedback loop re-optimizing the query.
                    self.stats.count("re_optimizations")
        return entry

    def _execute(self, entry: SharedPlan, env: Mapping[str, Any],
                 snapshot: CatalogSnapshot, backend: str,
                 scalar_params: Mapping[str, float]) -> Any:
        """Run a shared plan: parallel shard dispatch when configured, else in-process.

        The worker pool is keyed on the snapshot's epochs, so it always
        serves exactly the state the plan was prepared against; scalar
        parameters travel per-call instead of riding in the shipped
        environment.  Any pool failure falls back to the in-process path,
        which produces the identical result (shard key ranges are disjoint),
        and is counted as ``shard_fallbacks`` in :meth:`ServerStats.snapshot`.
        """
        if self._shard_executor.available():
            parts = split_plan(entry.prepared.plan)
            if len(parts) >= 2:
                try:
                    return self._shard_executor.run_parts(
                        parts, snapshot, backend, scalar_params)
                except Exception:
                    pass  # counted by the executor (shard_fallbacks)
        return entry.run(env)

    def _serve(self, query: Expr, program: Expr, *, method: str, backend: str,
               optimizer_options: dict, dense_shape: tuple[int, ...] | None,
               scalar_params: Mapping[str, float]) -> Any:
        """Admission → snapshot → shared plan → execute → record."""
        if self._closed:
            raise ServerClosed("server is closed")
        if backend not in BACKENDS:
            raise StorageError(
                f"unknown execution backend {backend!r}; expected one of {BACKENDS}")
        start = time.perf_counter()
        try:
            self._gate.acquire()
        except ServerBusy:
            self.stats.count("rejected_full")
            raise
        except RequestTimeout:
            self.stats.count("rejected_timeout")
            raise
        self.stats.enter()
        try:
            snapshot = self.catalog.snapshot()
            entry = self._shared_plan(query, program, method=method,
                                      backend=backend,
                                      optimizer_options=optimizer_options,
                                      snapshot=snapshot)
            env = self._env_for(snapshot)
            if scalar_params:
                unknown = [name for name in scalar_params
                           if name not in snapshot.scalars]
                if unknown:
                    raise StorageError(
                        f"unknown scalar parameter(s) {sorted(unknown)}; "
                        f"registered scalars: {sorted(snapshot.scalars)}")
                env = dict(env)
                env.update(scalar_params)
            store = self.feedback
            if store is not None and store.should_sample():
                # Sampled execution: profile loop iteration counts and the
                # output cardinality, then fold them into the snapshot's
                # statistics.  Misestimations beyond the threshold bump the
                # adaptive epoch, so the next request for an affected query
                # misses the shared cache and re-optimizes with the
                # observed numbers.
                profile = ExecutionProfile()
                result = entry.prepared.run(env, None, profile)
                profile.record_output(result)
                counters = store.ingest(self._statistics_for(snapshot),
                                        entry.prepared, profile,
                                        snapshot.version)
                self.stats.count("profiled_runs")
                if counters["feedback_misestimations"]:
                    self.stats.count("misestimations",
                                     counters["feedback_misestimations"])
            else:
                result = self._execute(entry, env, snapshot, backend,
                                       scalar_params)
            if dense_shape is not None:
                result = result_to_dense(result, dense_shape)
            return result
        except BaseException:
            self.stats.count("errors")
            raise
        finally:
            self.stats.leave()
            self._gate.release()
            self.stats.latency.record((time.perf_counter() - start) * 1_000.0)


class ClientSession:
    """One client's handle on a :class:`Server`.

    Deliberately tiny: it carries per-client defaults (method / backend /
    optimizer options) and constructs :class:`ServedStatement` handles — all
    state that matters (catalog, plans, statistics) lives in the server, so
    sessions are free to create per request and safe to share or discard.
    """

    def __init__(self, server: Server, *, method: str, backend: str,
                 optimizer_options: dict[str, Any]):
        self.server = server
        self.method = method
        self.backend = backend
        self.optimizer_options = optimizer_options
        self._closed = False

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._closed = True

    def prepare(self, program: "str | Expr", *, method: str | None = None,
                backend: str | None = None,
                dense_shape: tuple[int, ...] | None = None,
                optimizer_options: Mapping[str, Any] | None = None
                ) -> "ServedStatement":
        """A reusable statement handle.

        Unlike :meth:`repro.session.Session.prepare`, nothing is optimized
        here: preparation happens (once, globally) on first execution, so
        handles are free and never go stale — each execution resolves
        against the catalog epoch current *at that moment*.
        """
        if self._closed:
            raise ServerClosed("session is closed")
        options = dict(self.optimizer_options)
        options.update(optimizer_options or {})
        return ServedStatement(self.server, program,
                               method=method or self.method,
                               backend=backend or self.backend,
                               dense_shape=dense_shape,
                               optimizer_options=options)

    def execute(self, program: "str | Expr", *,
                dense_shape: tuple[int, ...] | None = None,
                **scalar_params: float) -> Any:
        """Prepare (via the shared cache) and execute once."""
        return self.prepare(program, dense_shape=dense_shape).execute(**scalar_params)

    #: ``Session.run``-flavoured alias.
    run = execute


class ServedStatement:
    """A query handle bound to a server, executable from any thread.

    Every :meth:`execute` is one admission-controlled request served from a
    fresh catalog snapshot; the optimized + lowered plan comes from the
    server's shared cache, so repeated executions (from this or any other
    statement for the same query) are pure cache hits.
    """

    def __init__(self, server: Server, program: "str | Expr", *, method: str,
                 backend: str, dense_shape: tuple[int, ...] | None,
                 optimizer_options: dict[str, Any]):
        self.program = parse_expr(program) if isinstance(program, str) else program
        self.source = to_source(self.program)
        # Cache on the de Bruijn form: binder names are parse-time gensyms,
        # so two parses of the same query text (or whitespace variants of
        # it) only compare equal once names are out of the comparison.
        self.query = to_debruijn_safe(self.program)
        self.server = server
        self.method = method
        self.backend = backend
        self.dense_shape = dense_shape
        self.optimizer_options = optimizer_options

    def execute(self, **scalar_params: float) -> Any:
        """Execute once against a fresh snapshot of the server's catalog."""
        return self.server._serve(self.query, self.program,
                                  method=self.method, backend=self.backend,
                                  optimizer_options=self.optimizer_options,
                                  dense_shape=self.dense_shape,
                                  scalar_params=scalar_params)

    def explain(self) -> str:
        """The plan this statement resolves to under the current catalog."""
        from ..session import format_explanation

        snapshot = self.server.catalog.snapshot()
        entry = self.server._shared_plan(
            self.query, self.program, method=self.method,
            backend=self.backend, optimizer_options=self.optimizer_options,
            snapshot=snapshot)
        return format_explanation(entry.optimization)
