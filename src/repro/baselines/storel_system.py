"""STOREL as a benchmarkable system: optimize, compile, execute.

This wraps the full pipeline (composition, cost-based optimization, code
generation) behind the common :class:`~repro.baselines.base.System`
interface used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import strategies
from ..core.compose import compose
from ..execution.engine import ExecutionEngine, result_to_dense
from ..kernels.programs import Kernel
from ..session import Session
from ..storage.catalog import Catalog
from .base import RunCallable, System, output_shape


@dataclass
class StorelSystem(System):
    """The system described in the paper: cost-based optimization over flexible storage.

    Parameters
    ----------
    method:
        ``"egraph"`` runs the full two-stage equality-saturation pipeline;
        ``"greedy"`` picks the cheapest strategy-generated candidate (used by
        the harness when only plan quality matters — the produced plans are
        the same for the kernels of the paper, but preparation is much
        faster, and the paper excludes optimization time from Fig. 7–9
        anyway).
    backend:
        Execution backend: ``"compile"`` (generated Python loops, default
        here: the paper's generated-code STOREL in the Fig. 7–10
        reproductions), ``"interpret"`` (reference interpreter) or
        ``"typed"`` (flat typed buffers, JIT-compiled when numba is
        available); see ``docs/backends.md``.
    session:
        An optional shared :class:`~repro.session.Session`.  When given and
        its catalog is the one being benchmarked, preparation reuses the
        session's memoized statistics and optimization decisions — the
        harness uses this so that measuring one kernel across several
        backends optimizes it only once.  Otherwise a throwaway session is
        built per :meth:`prepare`.
    """

    method: str = "greedy"
    backend: str = "compile"
    name: str = "STOREL"
    session: Session | None = None

    def __post_init__(self):
        if self.name == "STOREL" and self.backend != "compile":
            self.name = f"STOREL[{self.backend}]"

    def prepare(self, kernel: Kernel, catalog: Catalog) -> RunCallable:
        session = self.session
        if session is None or session.catalog is not catalog:
            session = Session(catalog, method=self.method)
        statement = session.prepare(kernel.program, method=self.method,
                                    backend=self.backend,
                                    dense_shape=output_shape(kernel, catalog))

        def run():
            return statement.execute()

        run.optimization = statement.optimization  # type: ignore[attr-defined] - Table 4
        run.plan_source = statement.plan_source  # type: ignore[attr-defined]
        run.statement = statement  # type: ignore[attr-defined]
        return run


@dataclass
class FixedPlanSystem(System):
    """Runs one specific plan variant (used by the ablation study of Fig. 9).

    ``variant`` is one of the candidate-plan names produced by
    :func:`repro.core.strategies.candidate_plans`: ``naive``, ``fused``,
    ``factorized``, ``fused+factorized`` (or ``fused+factorized+merge``).
    ``backend`` is ``"compile"``, ``"interpret"`` or ``"typed"``.
    """

    variant: str = "fused+factorized"
    backend: str = "compile"

    def __post_init__(self):
        self.name = f"STOREL[{self.variant}]"

    def prepare(self, kernel: Kernel, catalog: Catalog) -> RunCallable:
        naive = compose(kernel.program, catalog.mappings())
        candidates = strategies.candidate_plans(naive)
        if self.variant not in candidates:
            raise KeyError(f"unknown plan variant {self.variant!r}")
        plan = candidates[self.variant]
        engine = ExecutionEngine.for_catalog(catalog, backend=self.backend)
        prepared = engine.prepare(plan)
        shape = output_shape(kernel, catalog)

        def run():
            return result_to_dense(prepared.run(), shape)

        run.plan = plan  # type: ignore[attr-defined]
        run.plan_source = prepared.source  # type: ignore[attr-defined]
        return run


@dataclass
class TacoLikeSystem(System):
    """The Taco baseline: format-aware loop fusion, but no cost-based rewrites.

    Taco compiles the tensor expression *as written* into loops merged with
    the storage formats; it does not factorize or re-order the computation.
    This is reproduced by running the composed plan through the fusion
    rewrites only (see DESIGN.md, "Substitutions").
    """

    backend: str = "compile"
    name: str = "Taco-like"

    def prepare(self, kernel: Kernel, catalog: Catalog) -> RunCallable:
        naive = compose(kernel.program, catalog.mappings())
        plan = strategies.greedy_optimize(naive, with_fusion=True, with_factorization=False)
        engine = ExecutionEngine.for_catalog(catalog, backend=self.backend)
        prepared = engine.prepare(plan)
        shape = output_shape(kernel, catalog)

        def run():
            return result_to_dense(prepared.run(), shape)

        run.plan = plan  # type: ignore[attr-defined]
        return run
