"""The differential oracle: one program, every backend × engine × format.

The paper's central equivalence claim is that the *same* tensor program
produces the *same* result under any storage format and any execution
strategy — only cost differs.  This module checks that claim mechanically on
machine-generated scenarios:

* a :class:`FuzzCase` is one sampled point — a generated program
  (:mod:`repro.fuzz.genprog`), fabricated tensor data and a legal per-tensor
  format assignment (:mod:`repro.fuzz.gendata`), plus the scalar bindings;
* :func:`check_case` executes the point under the cross-product of execution
  backends (``interpret`` / ``compile`` / ``typed``) and optimizer
  engines — the plain composed plan (``unoptimized``), the greedy strategy
  picker (``greedy``), equality saturation on the fast engine (``egraph``)
  and on the legacy engine (``egraph-legacy``) — and compares every result
  against the reference (unoptimized plan on the interpreter) after a single
  canonical value-normalization;
* :func:`campaign` drives a seeded run of many cases, shrinking and
  serializing any divergence into a replayable corpus file
  (:mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.corpus`).

Value normalization and comparison live *here*, in exactly one place
(:func:`canonical` / :func:`results_match`): results are reduced to plain
nested dicts with near-zero entries pruned, and compared with float
tolerance treating a missing key as zero — so a backend materializing an
explicit ``1e-17`` where another prunes an exact ``0.0`` does not produce a
spurious divergence, while any structural or numeric disagreement beyond
rounding does.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from ..core import LEGACY_ENGINE, compose
from ..execution.engine import BACKENDS, ExecutionEngine
from ..sdqlite.ast import Expr
from ..sdqlite.debruijn import to_debruijn_safe
from ..sdqlite.pretty import to_source
from ..sdqlite.values import is_scalar, to_plain
from ..session import Session
from .gendata import (
    assign_formats,
    build_catalog,
    generate_scalars,
    materialize_schema,
)
from .genprog import generate_program, generate_schema

#: The configuration every other one is compared against: the naive composed
#: plan, executed by the reference interpreter.
REFERENCE = ("unoptimized", "interpret")

#: Saturation limits used during fuzzing: small enough that the e-graph
#: engines keep up with thousands of generated programs, large enough that
#: the rewrite rules genuinely fire.  The *time* limit is deliberately huge:
#: campaigns must be reproducible from their seed alone, so saturation has
#: to stop on the deterministic iteration/node limits, never on wall-clock
#: (a load-dependent stop changes the e-graph, and with it the extracted
#: plan, between two runs of the same seed).
FUZZ_OPTIMIZER_OPTIONS: dict = {
    "iter_limit": 3,
    "node_limit": 800,
    "time_limit": 3600.0,
    "match_limit_per_rule": 64,
}


class CaseSkipped(Exception):
    """Raised when the *reference* execution of a case fails.

    The generator aims never to produce such programs; the campaign counts
    these separately instead of reporting a divergence, because with no
    reference value there is nothing to differ from.
    """


@dataclass
class FuzzCase:
    """One generated (program, data, format-assignment) point."""

    seed: int
    program: Expr                      # named-form AST over logical names
    tensors: dict[str, np.ndarray]     # dense data per logical tensor
    formats: dict[str, str]            # format_name per logical tensor
    scalars: dict[str, float]

    @property
    def source(self) -> str:
        """The program as re-parseable SDQLite source text."""
        return to_source(self.program)

    def replace(self, **changes) -> "FuzzCase":
        """A shallow-copied case with the given fields replaced."""
        fields_ = dict(seed=self.seed, program=self.program,
                       tensors=dict(self.tensors), formats=dict(self.formats),
                       scalars=dict(self.scalars))
        fields_.update(changes)
        return FuzzCase(**fields_)


@dataclass(frozen=True)
class OracleConfig:
    """Which (engine, backend) pairs to run and how to compare results."""

    backends: tuple[str, ...] = BACKENDS
    methods: tuple[str, ...] = ("unoptimized", "greedy", "egraph")
    optimizer_options: Mapping[str, Any] = field(
        default_factory=lambda: dict(FUZZ_OPTIMIZER_OPTIONS))
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9

    def pairs(self) -> list[tuple[str, str]]:
        """The full engine × backend grid, reference first."""
        grid = [(method, backend) for method in self.methods
                for backend in self.backends]
        return [pair for pair in grid if pair != REFERENCE]

    def with_legacy(self) -> "OracleConfig":
        """This configuration plus the legacy saturation engine."""
        if "egraph-legacy" in self.methods:
            return self
        return OracleConfig(backends=self.backends,
                            methods=self.methods + ("egraph-legacy",),
                            optimizer_options=dict(self.optimizer_options),
                            rel_tol=self.rel_tol, abs_tol=self.abs_tol)


@dataclass
class Divergence:
    """The first disagreement found for a case."""

    case: FuzzCase
    method: str
    backend: str
    expected: Any = None
    actual: Any = None
    error: str | None = None

    def describe(self) -> str:
        head = (f"seed={self.case.seed} {self.method}/{self.backend} "
                f"formats={self.case.formats}")
        if self.error is not None:
            return f"{head}\n  raised: {self.error}\n  program: {self.case.source}"
        return (f"{head}\n  expected: {self.expected!r}\n  actual:   "
                f"{self.actual!r}\n  program: {self.case.source}")


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------


def generate_case(seed: int, *, fuel: int = 14, max_tensors: int = 3,
                  max_rank: int = 3, max_dim: int = 5,
                  weird_key_chance: float = 0.05) -> FuzzCase:
    """Generate one case; everything derives from the single ``seed``."""
    rng = random.Random(seed)
    schema = generate_schema(rng, max_tensors=max_tensors, max_rank=max_rank,
                             max_dim=max_dim)
    program = generate_program(schema, rng, fuel=fuel,
                               weird_key_chance=weird_key_chance)
    np_rng = np.random.default_rng(rng.getrandbits(64))
    tensors = materialize_schema(schema, np_rng)
    formats = assign_formats(tensors, rng)
    scalars = generate_scalars(schema, rng)
    return FuzzCase(seed=seed, program=program, tensors=tensors,
                    formats=formats, scalars=scalars)


# ---------------------------------------------------------------------------
# canonical value normalization (the oracle's single comparison layer)
# ---------------------------------------------------------------------------


def canonical(value: Any, *, abs_tol: float = 1e-9) -> Any:
    """Reduce an execution result to a canonical plain form.

    Plain Python numbers and nested dicts (via
    :func:`~repro.sdqlite.values.to_plain`), with entries whose canonical
    value is zero — below ``abs_tol`` for scalars, empty for dictionaries —
    pruned recursively, so explicit near-zeros cannot distinguish two
    otherwise equal results.
    """
    plain = to_plain(value)
    return _prune(plain, abs_tol)


def _prune(plain: Any, abs_tol: float) -> Any:
    if isinstance(plain, dict):
        out = {}
        for key, item in plain.items():
            pruned = _prune(item, abs_tol)
            if isinstance(pruned, dict):
                if pruned:
                    out[key] = pruned
            elif abs(pruned) > abs_tol:
                out[key] = pruned
        return out
    if isinstance(plain, bool):
        return int(plain)
    return plain


def results_match(left: Any, right: Any, *, rel_tol: float = 1e-6,
                  abs_tol: float = 1e-9) -> bool:
    """Tolerant structural equality of two canonical results.

    Missing dictionary keys count as zero, and a scalar ``~0`` equals an
    empty dictionary (SDQLite identifies the two).
    """
    left_scalar = is_scalar(left)
    right_scalar = is_scalar(right)
    if left_scalar and right_scalar:
        return bool(abs(left - right)
                    <= max(abs_tol, rel_tol * max(abs(left), abs(right))))
    if left_scalar:
        return abs(left) <= abs_tol and _effectively_zero(right, abs_tol)
    if right_scalar:
        return abs(right) <= abs_tol and _effectively_zero(left, abs_tol)
    keys = set(left) | set(right)
    return all(results_match(left.get(key, 0), right.get(key, 0),
                             rel_tol=rel_tol, abs_tol=abs_tol)
               for key in keys)


def _effectively_zero(value: Any, abs_tol: float) -> bool:
    if is_scalar(value):
        return abs(value) <= abs_tol
    return all(_effectively_zero(item, abs_tol) for item in value.values())


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class _CaseRunner:
    """Executes one case under every configuration, sharing work.

    The catalog is built once; the naive composed plan is computed once; one
    :class:`~repro.session.Session` serves all optimized configurations, so
    each optimizer engine runs once per case and its chosen plan is then
    executed on each backend.
    """

    def __init__(self, case: FuzzCase, config: OracleConfig):
        self.case = case
        self.config = config
        self.catalog = build_catalog(case.tensors, case.formats, case.scalars)
        self.session = Session(self.catalog,
                               optimizer_options=dict(config.optimizer_options))
        self._naive: Expr | None = None

    def naive_plan(self) -> Expr:
        if self._naive is None:
            program = to_debruijn_safe(self.case.program)
            mappings = {name: to_debruijn_safe(mapping)
                        for name, mapping in self.catalog.mappings().items()}
            self._naive = compose(program, mappings)
        return self._naive

    def run(self, method: str, backend: str) -> Any:
        if method == "unoptimized":
            engine = ExecutionEngine.for_catalog(self.catalog, backend=backend)
            return engine.run(self.naive_plan())
        if method == "egraph-legacy":
            options = dict(self.config.optimizer_options)
            options.update(LEGACY_ENGINE)
            return self.session.run(self.case.program, method="egraph",
                                    backend=backend, optimizer_options=options)
        return self.session.run(self.case.program, method=method, backend=backend)


def check_case(case: FuzzCase,
               config: OracleConfig | None = None) -> Divergence | None:
    """Run ``case`` under every configuration; return the first divergence.

    Raises :class:`CaseSkipped` when the reference itself fails — such a
    case carries no signal.  Returns ``None`` when every configuration
    agrees with the reference.
    """
    config = config or OracleConfig()
    runner = _CaseRunner(case, config)
    try:
        reference = canonical(runner.run(*REFERENCE), abs_tol=config.abs_tol)
    except Exception as exc:  # noqa: BLE001 - reference failures end the case
        raise CaseSkipped(f"reference execution failed: {exc!r}") from exc
    for method, backend in config.pairs():
        try:
            actual = canonical(runner.run(method, backend),
                               abs_tol=config.abs_tol)
        except Exception as exc:  # noqa: BLE001 - any error is a divergence
            return Divergence(case, method, backend,
                              error=f"{type(exc).__name__}: {exc}")
        if not results_match(reference, actual, rel_tol=config.rel_tol,
                             abs_tol=config.abs_tol):
            return Divergence(case, method, backend,
                              expected=reference, actual=actual)
    return None


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass
class CampaignReport:
    """Summary of one seeded fuzz run."""

    seed: int
    cases_run: int = 0
    skipped: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    corpus_paths: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        return (f"fuzz campaign seed={self.seed}: {self.cases_run} cases, "
                f"{self.skipped} skipped, {status} in {self.elapsed:.1f}s")


def case_seed(master_seed: int, index: int) -> int:
    """The per-case seed of case ``index`` of a campaign (stable contract)."""
    return master_seed * 1_000_000_007 + index


def campaign(seed: int, cases: int, *, config: OracleConfig | None = None,
             legacy_every: int = 4, shrink: bool = True,
             out_dir: str | None = None, time_budget: float | None = None,
             max_failures: int = 5, progress: bool = False,
             case_options: Mapping[str, Any] | None = None) -> CampaignReport:
    """Run a seeded differential fuzz campaign of ``cases`` generated points.

    Every ``legacy_every``-th case additionally runs the legacy saturation
    engine (0 disables it).  Divergent cases are delta-debugged to a minimal
    repro (``shrink=True``) and, when ``out_dir`` is given, serialized there
    as self-contained corpus files.  ``time_budget`` (seconds) bounds the
    wall-clock of CI smoke runs; the campaign stops cleanly when exceeded.
    """
    from .corpus import write_corpus_case
    from .shrink import shrink_case

    base_config = config or OracleConfig()
    report = CampaignReport(seed=seed)
    start = time.perf_counter()
    options = dict(case_options or {})
    for index in range(cases):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        case = generate_case(case_seed(seed, index), **options)
        case_config = base_config
        if legacy_every and index % legacy_every == 0:
            case_config = base_config.with_legacy()
        try:
            divergence = check_case(case, case_config)
        except CaseSkipped:
            report.skipped += 1
            report.cases_run += 1
            continue
        report.cases_run += 1
        if divergence is not None:
            if shrink:
                divergence = shrink_case(divergence, case_config)
            report.divergences.append(divergence)
            if out_dir is not None:
                report.corpus_paths.append(
                    str(write_corpus_case(divergence, out_dir)))
            if len(report.divergences) >= max_failures:
                break
        if progress and (index + 1) % 50 == 0:
            elapsed = time.perf_counter() - start
            print(f"  [{index + 1}/{cases}] {elapsed:.1f}s "
                  f"({report.skipped} skipped, "
                  f"{len(report.divergences)} divergences)")
    report.elapsed = time.perf_counter() - start
    return report


def replay(case: FuzzCase, configs: Iterable[tuple[str, str]] | None = None,
           **tolerances) -> Divergence | None:
    """Re-check a (possibly corpus-loaded) case under the given config pairs."""
    if configs is None:
        return check_case(case)
    configs = list(configs)
    methods = tuple(dict.fromkeys(method for method, _ in configs))
    backends = tuple(dict.fromkeys(backend for _, backend in configs))
    config = OracleConfig(backends=backends,
                          methods=("unoptimized",) + tuple(
                              m for m in methods if m != "unoptimized"),
                          **tolerances)
    return check_case(case, config)


# ---------------------------------------------------------------------------
# concurrent campaigns: serial-equivalence under interleaved catalog updates
# ---------------------------------------------------------------------------
#
# The serving layer (repro.serving) promises snapshot isolation: a request
# racing a catalog update sees either the whole update or none of it.  The
# concurrent oracle checks the observable consequence — *serial
# equivalence*: with a single writer applying updates u1..um, every state a
# snapshot can capture is a prefix state s0..sm, so every concurrent
# execution's result must equal the program evaluated serially at SOME si
# (its linearization witness).  A result matching no state means a reader
# observed a torn catalog (or a cache served a plan across epochs).


@dataclass(frozen=True)
class CatalogUpdate:
    """One serialized catalog mutation of a concurrent fuzz case.

    ``kind`` is one of:

    * ``"set_scalar"`` — re-bind scalar ``name`` to ``value`` (value-only);
    * ``"replace"``    — re-store tensor ``name`` with *new data* (the old
      dense data scaled by ``value``) in format ``fmt`` (schema bump);
    * ``"reformat"``   — re-store tensor ``name`` in format ``fmt`` with
      unchanged data (schema bump, result-preserving).
    """

    kind: str
    name: str
    value: float | None = None
    fmt: str | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "name": self.name}
        if self.value is not None:
            out["value"] = self.value
        if self.fmt is not None:
            out["fmt"] = self.fmt
        return out

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "CatalogUpdate":
        return cls(kind=spec["kind"], name=spec["name"],
                   value=spec.get("value"), fmt=spec.get("fmt"))


def apply_update_state(state: FuzzCase, update: CatalogUpdate) -> FuzzCase:
    """The successor state (functional — ``state`` is not modified)."""
    if update.kind == "set_scalar":
        scalars = dict(state.scalars)
        scalars[update.name] = update.value
        return state.replace(scalars=scalars)
    if update.kind == "replace":
        tensors = dict(state.tensors)
        tensors[update.name] = np.asarray(tensors[update.name]) * update.value
        formats = dict(state.formats)
        formats[update.name] = update.fmt
        return state.replace(tensors=tensors, formats=formats)
    if update.kind == "reformat":
        formats = dict(state.formats)
        formats[update.name] = update.fmt
        return state.replace(formats=formats)
    raise ValueError(f"unknown update kind {update.kind!r}")


def apply_update_live(server, state: FuzzCase, update: CatalogUpdate) -> FuzzCase:
    """Apply ``update`` to a live server atomically; return the new state."""
    from ..storage.convert import ALL_FORMATS, reformat_in_catalog

    successor = apply_update_state(state, update)
    if update.kind == "set_scalar":
        server.set_scalar(update.name, update.value)
    elif update.kind == "replace":
        data = np.asarray(successor.tensors[update.name], dtype=np.float64)
        server.replace_format(ALL_FORMATS[update.fmt].from_dense(update.name, data))
    elif update.kind == "reformat":
        reformat_in_catalog(server.catalog, update.name, update.fmt)
    return successor


def generate_updates(case: FuzzCase, rng: random.Random,
                     count: int) -> list[CatalogUpdate]:
    """A random, serially-applicable update sequence for ``case``."""
    from .gendata import legal_format_names

    updates: list[CatalogUpdate] = []
    state = case
    for _ in range(count):
        kinds = []
        if state.scalars:
            kinds.append("set_scalar")
        if state.tensors:
            kinds.extend(["replace", "reformat"])
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind == "set_scalar":
            name = rng.choice(sorted(state.scalars))
            update = CatalogUpdate("set_scalar", name,
                                   value=round(rng.uniform(-4.0, 4.0), 3))
        elif kind == "replace":
            name = rng.choice(sorted(state.tensors))
            # Scaling preserves the sparsity structure, so every format that
            # was legal (including structural special formats) stays legal.
            scale = round(rng.choice([0.5, 0.75, 1.25, 1.5, 2.0]), 3)
            fmt = rng.choice(legal_format_names(np.asarray(state.tensors[name])))
            update = CatalogUpdate("replace", name, value=scale, fmt=fmt)
        else:
            name = rng.choice(sorted(state.tensors))
            legal = legal_format_names(np.asarray(state.tensors[name]))
            others = [f for f in legal if f != state.formats[name]] or legal
            update = CatalogUpdate("reformat", name, fmt=rng.choice(others))
        updates.append(update)
        state = apply_update_state(state, update)
    return updates


@dataclass
class ConcurrentDivergence:
    """A concurrent execution whose result matches no serial state."""

    case: FuzzCase
    updates: list[CatalogUpdate]
    method: str
    backend: str
    actual: Any = None
    error: str | None = None
    expected: Any = None    # the serial state results, for the report

    def describe(self) -> str:
        head = (f"seed={self.case.seed} concurrent {self.method}/{self.backend} "
                f"formats={self.case.formats} updates={[u.as_dict() for u in self.updates]}")
        if self.error is not None:
            return f"{head}\n  raised: {self.error}\n  program: {self.case.source}"
        return (f"{head}\n  actual:   {self.actual!r}\n  matched none of "
                f"{len(self.expected)} serial states: {self.expected!r}\n"
                f"  program: {self.case.source}")


def _serial_state_results(case: FuzzCase, updates: list[CatalogUpdate],
                          config: OracleConfig) -> list[Any]:
    """Reference result per prefix state s0..sm (the linearization witnesses)."""
    expected = []
    state = case
    for index in range(len(updates) + 1):
        runner = _CaseRunner(state, config)
        try:
            expected.append(canonical(runner.run(*REFERENCE),
                                      abs_tol=config.abs_tol))
        except Exception as exc:  # noqa: BLE001 - no reference, no signal
            raise CaseSkipped(
                f"serial reference failed at state {index}: {exc!r}") from exc
        if index < len(updates):
            state = apply_update_state(state, updates[index])
    return expected


def check_concurrent_case(case: FuzzCase, updates: list[CatalogUpdate], *,
                          config: OracleConfig | None = None, readers: int = 3,
                          executions: int = 4,
                          writer_delay: float = 0.002
                          ) -> ConcurrentDivergence | None:
    """Hammer one case concurrently; assert serial equivalence.

    ``readers`` threads execute the program ``executions`` times each
    through one shared :class:`repro.serving.Server` (methods × backends
    rotate over ``config.pairs()``, minus the composed-plan pseudo-method)
    while a writer thread applies ``updates`` in order.  Every result must
    equal the serial reference at some prefix state; the first observation
    with no witness (or any raised error) is returned as a
    :class:`ConcurrentDivergence`.
    """
    from ..serving import Server

    config = config or OracleConfig()
    pairs = [(method, backend) for method, backend in
             (list(config.pairs()) or [("greedy", "compile")])
             if method not in ("unoptimized", "egraph-legacy")]
    if not pairs:
        pairs = [("greedy", "compile")]
    expected = _serial_state_results(case, updates, config)

    server = Server(build_catalog(case.tensors, case.formats, case.scalars),
                    optimizer_options=dict(config.optimizer_options))
    barrier = threading.Barrier(readers + 1)
    observations: list[tuple[str, str, Any, str | None]] = []
    observations_lock = threading.Lock()

    def reader(index: int) -> None:
        method, backend = pairs[index % len(pairs)]
        session = server.session(method=method, backend=backend)
        statement = session.prepare(case.program)
        barrier.wait()
        for _ in range(executions):
            try:
                value = canonical(statement.execute(), abs_tol=config.abs_tol)
                record = (method, backend, value, None)
            except Exception as exc:  # noqa: BLE001 - errors are divergences
                record = (method, backend, None, f"{type(exc).__name__}: {exc}")
            with observations_lock:
                observations.append(record)

    def writer() -> None:
        state = case
        barrier.wait()
        for update in updates:
            time.sleep(writer_delay)
            state = apply_update_live(server, state, update)

    threads = [threading.Thread(target=reader, args=(i,), daemon=True)
               for i in range(readers)]
    threads.append(threading.Thread(target=writer, daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        return ConcurrentDivergence(case, updates, "*", "*",
                                    error="deadlock: worker threads did not finish")

    for method, backend, value, error in observations:
        if error is not None:
            return ConcurrentDivergence(case, updates, method, backend, error=error)
        if not any(results_match(witness, value, rel_tol=config.rel_tol,
                                 abs_tol=config.abs_tol)
                   for witness in expected):
            return ConcurrentDivergence(case, updates, method, backend,
                                        actual=value, expected=expected)
    return None


def concurrent_campaign(seed: int, cases: int, *,
                        config: OracleConfig | None = None, readers: int = 3,
                        executions: int = 4, updates_per_case: int = 5,
                        out_dir: str | None = None,
                        time_budget: float | None = None, max_failures: int = 5,
                        progress: bool = False,
                        case_options: Mapping[str, Any] | None = None
                        ) -> CampaignReport:
    """A seeded campaign of :func:`check_concurrent_case` points.

    Case and update generation derive deterministically from ``seed``; the
    serial-equivalence property must hold under *any* thread interleaving,
    so a campaign is replayable even though schedules differ run to run.
    Failures are serialized (un-shrunk — schedules don't delta-debug) as
    ``MODE = "concurrent"`` corpus files when ``out_dir`` is given.
    """
    from .corpus import write_corpus_case

    base_config = config or OracleConfig()
    report = CampaignReport(seed=seed)
    start = time.perf_counter()
    options = dict(case_options or {})
    for index in range(cases):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        case = generate_case(case_seed(seed, index), **options)
        rng = random.Random(case.seed ^ 0x5EEDC0DE)
        updates = generate_updates(case, rng, updates_per_case)
        try:
            divergence = check_concurrent_case(case, updates,
                                               config=base_config,
                                               readers=readers,
                                               executions=executions)
        except CaseSkipped:
            report.skipped += 1
            report.cases_run += 1
            continue
        report.cases_run += 1
        if divergence is not None:
            report.divergences.append(divergence)
            if out_dir is not None:
                report.corpus_paths.append(str(write_corpus_case(divergence, out_dir)))
            if len(report.divergences) >= max_failures:
                break
        if progress and (index + 1) % 10 == 0:
            elapsed = time.perf_counter() - start
            print(f"  [{index + 1}/{cases}] {elapsed:.1f}s "
                  f"({report.skipped} skipped, "
                  f"{len(report.divergences)} divergences)")
    report.elapsed = time.perf_counter() - start
    return report


def replay_concurrent(case: FuzzCase, updates: Iterable[CatalogUpdate | Mapping],
                      configs: Iterable[tuple[str, str]] | None = None,
                      *, readers: int = 3, executions: int = 4,
                      **tolerances) -> ConcurrentDivergence | None:
    """Re-run a (corpus-loaded) concurrent case and re-check serial equivalence."""
    updates = [update if isinstance(update, CatalogUpdate)
               else CatalogUpdate.from_dict(update) for update in updates]
    if configs:
        configs = list(configs)
        methods = tuple(dict.fromkeys(method for method, _ in configs))
        backends = tuple(dict.fromkeys(backend for _, backend in configs))
        config = OracleConfig(backends=backends, methods=methods, **tolerances)
    else:
        config = OracleConfig(**tolerances)
    return check_concurrent_case(case, updates, config=config,
                                 readers=readers, executions=executions)


# ---------------------------------------------------------------------------
# IVM campaigns: maintained views vs. full re-execution after each delta
# ---------------------------------------------------------------------------
#
# The IVM subsystem (repro.ivm) promises that a maintained view's value
# after a sparse point-update equals the program re-executed in full
# against the updated catalog — whether the refresh went through the
# derived delta statement or the cost-based fallback.  The IVM oracle
# checks exactly that: random update sequences are applied through
# repro.serving.Server.update while registered views (one per
# method/backend pair) must match the serial reference evaluated at every
# post-update state.  The cost fallback is disabled during fuzzing so the
# delta path — the interesting machinery — runs whenever derivation
# succeeds; correctness must hold regardless of which path the cost model
# would have picked.


@dataclass(frozen=True)
class DeltaUpdate:
    """One serialized sparse point-update of an IVM fuzz case.

    ``coords`` holds ``n`` integer coordinate tuples into tensor ``name``
    and ``values`` the ``n`` additive deltas — the arguments of
    :meth:`repro.serving.Server.update` in corpus-serializable form.
    """

    name: str
    coords: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]

    def as_dict(self) -> dict:
        return {"name": self.name,
                "coords": [list(coord) for coord in self.coords],
                "values": list(self.values)}

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "DeltaUpdate":
        return cls(name=spec["name"],
                   coords=tuple(tuple(int(c) for c in coord)
                                for coord in spec["coords"]),
                   values=tuple(float(v) for v in spec["values"]))


def apply_delta_update_state(state: FuzzCase, update: DeltaUpdate) -> FuzzCase:
    """The successor state (functional — ``state`` is not modified)."""
    tensors = dict(state.tensors)
    array = np.asarray(tensors[update.name], dtype=np.float64).copy()
    coords = np.asarray(update.coords, dtype=np.int64).reshape(-1, array.ndim)
    np.add.at(array, tuple(coords.T), np.asarray(update.values, dtype=np.float64))
    tensors[update.name] = array
    return state.replace(tensors=tensors)


def generate_delta_updates(case: FuzzCase, rng: random.Random, count: int,
                           *, max_entries: int = 3) -> list[DeltaUpdate]:
    """A random, serially-applicable delta-update sequence for ``case``.

    Updates to tensors stored in a *structural* special format are
    restricted to the tensor's current non-zero support, so the format's
    precondition (e.g. lower-triangularity) survives every update; general
    formats mix on-support increments, exact cancellations (an entry
    driven to precisely zero — a deletion, exercising the ring's
    subtraction), and fresh off-support insertions.
    """
    from ..storage.special import SPECIAL_FORMATS

    updates: list[DeltaUpdate] = []
    state = case
    names = sorted(state.tensors)
    for _ in range(count):
        if not names:
            break
        name = rng.choice(names)
        array = np.asarray(state.tensors[name], dtype=np.float64)
        special = state.formats.get(name) in SPECIAL_FORMATS
        support = np.argwhere(array != 0)
        if special and not len(support):
            continue  # no legal coordinates to touch
        entries: dict[tuple[int, ...], float] = {}
        for _ in range(rng.randint(1, max_entries)):
            on_support = len(support) and (special or rng.random() < 0.4)
            if on_support:
                coord = tuple(int(c) for c in support[rng.randrange(len(support))])
            else:
                coord = tuple(rng.randrange(extent) for extent in array.shape)
            if rng.random() < 0.25 and array[coord] != 0:
                value = -float(array[coord])  # exact cancellation: a deletion
            else:
                value = rng.choice([0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
            entries[coord] = entries.get(coord, 0.0) + value
        update = DeltaUpdate(name, tuple(entries), tuple(entries.values()))
        updates.append(update)
        state = apply_delta_update_state(state, update)
    return updates


@dataclass
class IvmDivergence:
    """A maintained view that disagrees with full re-execution.

    ``step`` is the update index after which the disagreement was observed
    (``-1`` = the initial materialization, before any update).
    """

    case: FuzzCase
    deltas: list[DeltaUpdate]
    step: int
    method: str
    backend: str
    actual: Any = None
    error: str | None = None
    expected: Any = None

    def describe(self) -> str:
        head = (f"seed={self.case.seed} ivm {self.method}/{self.backend} "
                f"step={self.step} formats={self.case.formats} "
                f"deltas={[d.as_dict() for d in self.deltas]}")
        if self.error is not None:
            return f"{head}\n  raised: {self.error}\n  program: {self.case.source}"
        return (f"{head}\n  view:     {self.actual!r}\n"
                f"  expected: {self.expected!r}\n"
                f"  program: {self.case.source}")


def _ivm_state_results(case: FuzzCase, deltas: list[DeltaUpdate],
                       config: OracleConfig) -> list[Any]:
    """Reference result per prefix state s0..sm (full re-execution oracle)."""
    expected = []
    state = case
    for index in range(len(deltas) + 1):
        runner = _CaseRunner(state, config)
        try:
            expected.append(canonical(runner.run(*REFERENCE),
                                      abs_tol=config.abs_tol))
        except Exception as exc:  # noqa: BLE001 - no reference, no signal
            raise CaseSkipped(
                f"ivm reference failed at state {index}: {exc!r}") from exc
        if index < len(deltas):
            state = apply_delta_update_state(state, deltas[index])
    return expected


def check_ivm_case(case: FuzzCase, deltas: list[DeltaUpdate], *,
                   config: OracleConfig | None = None,
                   max_views: int = 3) -> IvmDivergence | None:
    """Maintain one case's views across ``deltas``; assert the IVM invariant.

    One materialized view per (method, backend) pair — minus the
    composed-plan pseudo-method — is registered on a fresh
    :class:`repro.serving.Server`; after the initial materialization and
    after every :meth:`~repro.serving.Server.update`, each view's value
    must equal the program re-executed in full (the serial reference) at
    that state.  The registry's cost fallback is disabled so the derived
    delta statements actually run; the first disagreement (or any raised
    error) is returned as an :class:`IvmDivergence`.
    """
    from ..serving import Server

    config = config or OracleConfig()
    pairs = [(method, backend) for method, backend in
             (list(config.pairs()) or [("greedy", "compile")])
             if method not in ("unoptimized", "egraph-legacy")][:max_views]
    if not pairs:
        pairs = [("greedy", "compile")]
    expected = _ivm_state_results(case, deltas, config)

    server = Server(build_catalog(case.tensors, case.formats, case.scalars),
                    optimizer_options=dict(config.optimizer_options))
    try:
        registry = server._view_registry()
        # Correctness must hold on *both* refresh paths; forcing the delta
        # path maximizes coverage of the delta machinery (the full-refresh
        # path is the plain serving pipeline, fuzzed elsewhere).
        registry.fallback_ratio = 1e12
        registry.max_delta_fraction = float("inf")
        views = []
        for index, (method, backend) in enumerate(pairs):
            try:
                views.append(server.create_view(f"__ivm_{index}", case.program,
                                                method=method, backend=backend))
            except Exception as exc:  # noqa: BLE001 - errors are divergences
                return IvmDivergence(case, deltas, -1, method, backend,
                                     error=f"{type(exc).__name__}: {exc}")
        for step in range(-1, len(deltas)):
            if step >= 0:
                update = deltas[step]
                try:
                    server.update(update.name,
                                  np.asarray(update.coords, dtype=np.int64),
                                  np.asarray(update.values, dtype=np.float64))
                except Exception as exc:  # noqa: BLE001
                    return IvmDivergence(case, deltas, step, "*", "*",
                                         error=f"{type(exc).__name__}: {exc}")
            witness = expected[step + 1]
            for (method, backend), view in zip(pairs, views):
                try:
                    value = canonical(view.value(), abs_tol=config.abs_tol)
                except Exception as exc:  # noqa: BLE001
                    return IvmDivergence(case, deltas, step, method, backend,
                                         error=f"{type(exc).__name__}: {exc}")
                if not results_match(witness, value, rel_tol=config.rel_tol,
                                     abs_tol=config.abs_tol):
                    return IvmDivergence(case, deltas, step, method, backend,
                                         actual=value, expected=witness)
    finally:
        server.close()
    return None


def shrink_ivm(divergence: IvmDivergence, *,
               config: OracleConfig | None = None,
               max_attempts: int = 64) -> IvmDivergence:
    """Greedy delta-debugging of an IVM failure's update sequence.

    Tries dropping whole updates, then individual delta entries, keeping
    any reduction under which :func:`check_ivm_case` still diverges.  The
    program and data are left alone (the case generator's serial shrinker
    does not understand update sequences); the update sequence is usually
    where the noise is.
    """
    config = config or OracleConfig()
    best = divergence
    attempts = 0

    def still_fails(deltas: list[DeltaUpdate]) -> IvmDivergence | None:
        nonlocal attempts
        attempts += 1
        try:
            return check_ivm_case(best.case, deltas, config=config)
        except CaseSkipped:
            return None

    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for index in range(len(best.deltas) - 1, -1, -1):
            if attempts >= max_attempts:
                break
            candidate = best.deltas[:index] + best.deltas[index + 1:]
            reduced = still_fails(candidate)
            if reduced is not None:
                best, changed = reduced, True
    for index, update in enumerate(list(best.deltas)):
        for position in range(len(update.coords) - 1, -1, -1):
            if attempts >= max_attempts or len(best.deltas[index].coords) <= 1:
                break
            update = best.deltas[index]
            slim = DeltaUpdate(update.name,
                               update.coords[:position] + update.coords[position + 1:],
                               update.values[:position] + update.values[position + 1:])
            candidate = best.deltas[:index] + [slim] + best.deltas[index + 1:]
            reduced = still_fails(candidate)
            if reduced is not None:
                best = reduced
    return best


def ivm_campaign(seed: int, cases: int, *, config: OracleConfig | None = None,
                 updates_per_case: int = 4, shrink: bool = True,
                 out_dir: str | None = None, time_budget: float | None = None,
                 max_failures: int = 5, progress: bool = False,
                 case_options: Mapping[str, Any] | None = None
                 ) -> CampaignReport:
    """A seeded campaign of :func:`check_ivm_case` points.

    Case and update generation derive deterministically from ``seed``, and
    checking is single-threaded, so the whole campaign — including shrinks
    — replays exactly.  Failures are shrunk (update-sequence only) and
    serialized as ``MODE = "ivm"`` corpus files when ``out_dir`` is given.
    """
    from .corpus import write_corpus_case

    base_config = config or OracleConfig()
    report = CampaignReport(seed=seed)
    start = time.perf_counter()
    options = dict(case_options or {})
    for index in range(cases):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        case = generate_case(case_seed(seed, index), **options)
        rng = random.Random(case.seed ^ 0x1D3A5EED)
        deltas = generate_delta_updates(case, rng, updates_per_case)
        try:
            divergence = check_ivm_case(case, deltas, config=base_config)
        except CaseSkipped:
            report.skipped += 1
            report.cases_run += 1
            continue
        report.cases_run += 1
        if divergence is not None:
            if shrink:
                divergence = shrink_ivm(divergence, config=base_config)
            report.divergences.append(divergence)
            if out_dir is not None:
                report.corpus_paths.append(str(write_corpus_case(divergence, out_dir)))
            if len(report.divergences) >= max_failures:
                break
        if progress and (index + 1) % 10 == 0:
            elapsed = time.perf_counter() - start
            print(f"  [{index + 1}/{cases}] {elapsed:.1f}s "
                  f"({report.skipped} skipped, "
                  f"{len(report.divergences)} divergences)")
    report.elapsed = time.perf_counter() - start
    return report


def replay_ivm(case: FuzzCase, deltas: Iterable[DeltaUpdate | Mapping],
               configs: Iterable[tuple[str, str]] | None = None,
               **tolerances) -> IvmDivergence | None:
    """Re-run a (corpus-loaded) IVM case and re-check the IVM invariant."""
    deltas = [delta if isinstance(delta, DeltaUpdate)
              else DeltaUpdate.from_dict(delta) for delta in deltas]
    if configs:
        configs = list(configs)
        methods = tuple(dict.fromkeys(method for method, _ in configs))
        backends = tuple(dict.fromkeys(backend for _, backend in configs))
        config = OracleConfig(backends=backends, methods=methods, **tolerances)
    else:
        config = OracleConfig(**tolerances)
    return check_ivm_case(case, deltas, config=config)


# ---------------------------------------------------------------------------
# adaptive campaigns: feedback-driven re-optimization is result-invariant
# ---------------------------------------------------------------------------
#
# The adaptive loop (repro.core.feedback, docs/adaptive.md) profiles sampled
# executions, folds observed cardinalities into the statistics, and makes
# statements whose estimates were off transparently re-prepare — possibly
# choosing a *different plan* mid-stream.  The invariant the adaptive oracle
# checks is that none of this is ever observable in results: with profiling
# on every run and an aggressive re-optimize threshold, a statement executed
# repeatedly while sparse updates drift the data underneath it must return
# the serial reference value at every state, no matter how many times the
# feedback loop re-optimized it in between.


#: The deliberately aggressive loop configuration fuzzing runs under: every
#: execution is profiled and a 5% estimation error already re-optimizes, so
#: mid-campaign re-preparation — the machinery under test — fires constantly.
ADAPTIVE_FUZZ_FEEDBACK: dict = {"sample_every": 1, "threshold": 1.05}


@dataclass
class AdaptiveDivergence:
    """An adaptively re-optimized statement that changed its answer.

    ``step`` is the update index after which the disagreement was observed
    (``-1`` = before any update); ``execution`` is the repeat at that state
    (re-preparation typically happens *between* repeats, so a failure at
    ``execution > 0`` points at the re-optimized plan).
    """

    #: Corpus serialization tag (see :mod:`repro.fuzz.corpus`).
    corpus_mode = "adaptive"

    case: FuzzCase
    deltas: list[DeltaUpdate]
    step: int
    method: str
    backend: str
    execution: int = 0
    actual: Any = None
    error: str | None = None
    expected: Any = None

    def describe(self) -> str:
        head = (f"seed={self.case.seed} adaptive {self.method}/{self.backend} "
                f"step={self.step} execution={self.execution} "
                f"formats={self.case.formats} "
                f"deltas={[d.as_dict() for d in self.deltas]}")
        if self.error is not None:
            return f"{head}\n  raised: {self.error}\n  program: {self.case.source}"
        return (f"{head}\n  actual:   {self.actual!r}\n"
                f"  expected: {self.expected!r}\n"
                f"  program: {self.case.source}")


def check_adaptive_case(case: FuzzCase, deltas: list[DeltaUpdate], *,
                        config: OracleConfig | None = None,
                        executions: int = 3,
                        max_statements: int = 3) -> AdaptiveDivergence | None:
    """Execute one case repeatedly under the adaptive loop; assert invariance.

    One prepared statement per (method, backend) pair — minus the
    composed-plan pseudo-method — lives on a single
    :class:`~repro.session.Session` with feedback profiling on *every*
    execution (:data:`ADAPTIVE_FUZZ_FEEDBACK`).  At each state (the initial
    one and after every sparse update) each statement executes
    ``executions`` times; every result must equal the serial reference at
    that state.  Observed cardinalities accumulate across statements, so an
    epoch bumped by one statement's profile re-prepares all of them — the
    densest re-optimization schedule the production loop can produce.
    """
    from ..core.feedback import FeedbackConfig

    config = config or OracleConfig()
    pairs = [(method, backend) for method, backend in
             (list(config.pairs()) or [("greedy", "compile")])
             if method not in ("unoptimized", "egraph-legacy")][:max_statements]
    if not pairs:
        pairs = [("greedy", "compile")]
    expected = _ivm_state_results(case, deltas, config)

    session = Session(build_catalog(case.tensors, case.formats, case.scalars),
                      optimizer_options=dict(config.optimizer_options),
                      feedback=FeedbackConfig(**ADAPTIVE_FUZZ_FEEDBACK))
    statements = []
    for method, backend in pairs:
        try:
            statements.append(session.prepare(case.program, method=method,
                                              backend=backend))
        except Exception as exc:  # noqa: BLE001 - errors are divergences
            return AdaptiveDivergence(case, deltas, -1, method, backend,
                                      error=f"{type(exc).__name__}: {exc}")
    for step in range(-1, len(deltas)):
        if step >= 0:
            update = deltas[step]
            try:
                session.update(update.name,
                               np.asarray(update.coords, dtype=np.int64),
                               np.asarray(update.values, dtype=np.float64))
            except Exception as exc:  # noqa: BLE001
                return AdaptiveDivergence(case, deltas, step, "*", "*",
                                          error=f"{type(exc).__name__}: {exc}")
        witness = expected[step + 1]
        for (method, backend), statement in zip(pairs, statements):
            for repeat in range(executions):
                try:
                    value = canonical(statement.execute(),
                                      abs_tol=config.abs_tol)
                except Exception as exc:  # noqa: BLE001
                    return AdaptiveDivergence(
                        case, deltas, step, method, backend, execution=repeat,
                        error=f"{type(exc).__name__}: {exc}")
                if not results_match(witness, value, rel_tol=config.rel_tol,
                                     abs_tol=config.abs_tol):
                    return AdaptiveDivergence(
                        case, deltas, step, method, backend, execution=repeat,
                        actual=value, expected=witness)
    return None


def shrink_adaptive(divergence: AdaptiveDivergence, *,
                    config: OracleConfig | None = None,
                    max_attempts: int = 48) -> AdaptiveDivergence:
    """Greedy delta-debugging of an adaptive failure's update sequence.

    Tries dropping whole updates (newest first) while the case still
    diverges; program and data are left to the serial shrinker's domain.
    """
    config = config or OracleConfig()
    best = divergence
    attempts = 0
    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for index in range(len(best.deltas) - 1, -1, -1):
            if attempts >= max_attempts:
                break
            attempts += 1
            candidate = best.deltas[:index] + best.deltas[index + 1:]
            try:
                reduced = check_adaptive_case(best.case, candidate, config=config)
            except CaseSkipped:
                reduced = None
            if reduced is not None:
                best, changed = reduced, True
    return best


def adaptive_campaign(seed: int, cases: int, *,
                      config: OracleConfig | None = None,
                      updates_per_case: int = 3, executions: int = 3,
                      shrink: bool = True, out_dir: str | None = None,
                      time_budget: float | None = None, max_failures: int = 5,
                      progress: bool = False,
                      case_options: Mapping[str, Any] | None = None
                      ) -> CampaignReport:
    """A seeded campaign of :func:`check_adaptive_case` points.

    Case and update generation derive deterministically from ``seed``, and
    checking is single-threaded (the adaptive loop itself is the moving
    part), so campaigns replay exactly.  Failures are shrunk
    (update-sequence only) and serialized as ``MODE = "adaptive"`` corpus
    files when ``out_dir`` is given.
    """
    from .corpus import write_corpus_case

    base_config = config or OracleConfig()
    report = CampaignReport(seed=seed)
    start = time.perf_counter()
    options = dict(case_options or {})
    for index in range(cases):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        case = generate_case(case_seed(seed, index), **options)
        rng = random.Random(case.seed ^ 0x0ADA9FED)
        deltas = generate_delta_updates(case, rng, updates_per_case)
        try:
            divergence = check_adaptive_case(case, deltas, config=base_config,
                                             executions=executions)
        except CaseSkipped:
            report.skipped += 1
            report.cases_run += 1
            continue
        report.cases_run += 1
        if divergence is not None:
            if shrink:
                divergence = shrink_adaptive(divergence, config=base_config)
            report.divergences.append(divergence)
            if out_dir is not None:
                report.corpus_paths.append(str(write_corpus_case(divergence, out_dir)))
            if len(report.divergences) >= max_failures:
                break
        if progress and (index + 1) % 10 == 0:
            elapsed = time.perf_counter() - start
            print(f"  [{index + 1}/{cases}] {elapsed:.1f}s "
                  f"({report.skipped} skipped, "
                  f"{len(report.divergences)} divergences)")
    report.elapsed = time.perf_counter() - start
    return report


def replay_adaptive(case: FuzzCase, deltas: Iterable[DeltaUpdate | Mapping],
                    configs: Iterable[tuple[str, str]] | None = None,
                    *, executions: int = 3,
                    **tolerances) -> AdaptiveDivergence | None:
    """Re-run a (corpus-loaded) adaptive case and re-check result invariance."""
    deltas = [delta if isinstance(delta, DeltaUpdate)
              else DeltaUpdate.from_dict(delta) for delta in deltas]
    if configs:
        configs = list(configs)
        methods = tuple(dict.fromkeys(method for method, _ in configs))
        backends = tuple(dict.fromkeys(backend for _, backend in configs))
        config = OracleConfig(backends=backends, methods=methods, **tolerances)
    else:
        config = OracleConfig(**tolerances)
    return check_adaptive_case(case, deltas, config=config,
                               executions=executions)
