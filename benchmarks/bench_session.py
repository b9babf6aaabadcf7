"""Session vs one-shot: what does a prepared statement actually save?

Every ``storel.run`` call re-parses the program, re-derives statistics,
re-runs the cost-based optimizer and rebuilds the execution environment —
only the backend lowering is shared through the process-wide plan cache.  A
:class:`repro.session.Session` pays all of that once at
:meth:`~repro.session.Session.prepare` time; each subsequent
:meth:`~repro.session.Statement.execute` is parameter binding + execution.

This benchmark measures the per-call latency of the three call styles on the
same kernel / catalog / backend:

* ``one-shot``      — ``storel.run(source, catalog)`` per call (warm plan
  cache, so this is the *best case* for the one-shot API);
* ``prepared``      — ``statement.execute(**params)`` per call;
* ``execute_many``  — one ``statement.execute_many(batch)`` call, amortized
  per binding.

and records the rows plus the prepared-over-one-shot speedups in
``BENCH_session.json`` at the repository root.  Run either as a pytest
module (``pytest benchmarks/bench_session.py``) or directly
(``python benchmarks/bench_session.py``).  Scale factors come from
:mod:`_config` (``REPRO_MATRIX_SCALE``, ``REPRO_TENSOR_SCALE``).
"""

import json
import os
import platform

import numpy as np

from _config import MATRIX_SCALE, REPEATS, TENSOR_SCALE, print_report
from repro import storel
from repro.baselines.base import output_shape
from repro.kernels import KERNELS
from repro.session import Session
from repro.workloads.experiments import (
    matrix_kernel_catalog,
    synthetic_catalog,
    tensor_kernel_catalog,
)
from repro.workloads.harness import time_callable
from repro.workloads.reporting import format_table

#: (kernel, dataset) pairs; BATAX exercises scalar re-binding.  The
#: ``serving`` dataset is a deliberately small synthetic matrix: the
#: point-query regime of a system under heavy traffic, where per-call
#: optimization overhead — not execution — dominates the one-shot API.
CASES = (("SUMMM", "serving"), ("MMM", "serving"), ("BATAX", "serving"),
         ("BATAX", "pdb1HYS"), ("MMM", "pdb1HYS"), ("MTTKRP", "Facebook"))

#: Size of the ``serving`` synthetic matrix.
SERVING_SIZE = int(os.environ.get("REPRO_SERVING_SIZE", "32"))

#: Backends measured (interpret adds nothing here: it has no lowering to skip).
MEASURED_BACKENDS = ("compile", "typed")

#: Bindings per ``execute_many`` batch.
BATCH = 16

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCH_session.json")


def _catalog(kernel_name: str, dataset: str):
    if dataset == "serving":
        return synthetic_catalog(kernel_name, 0.05,
                                 rows=SERVING_SIZE, cols=SERVING_SIZE)
    if kernel_name in ("MMM", "SUMMM", "BATAX"):
        return matrix_kernel_catalog(kernel_name, dataset, scale=MATRIX_SCALE)
    return tensor_kernel_catalog(kernel_name, dataset, scale=TENSOR_SCALE)


def bench_case(kernel_name: str, dataset: str, backend: str, repeats: int) -> dict:
    kernel = KERNELS[kernel_name]
    catalog = _catalog(kernel_name, dataset)
    shape = output_shape(kernel, catalog)
    params = {"beta": 0.5} if "beta" in catalog.scalars else {}

    # One-shot: the full pipeline per call (first call warms the plan cache).
    def one_shot():
        return storel.run(kernel.source, catalog, backend=backend, dense_shape=shape)

    one_shot()
    one_shot_ms, one_shot_result = time_callable(one_shot, repeats)

    # Prepared: optimize once, execute many.
    session = Session(catalog, backend=backend)
    statement = session.prepare(kernel.source, dense_shape=shape)
    prepared_ms, prepared_result = time_callable(
        lambda: statement.execute(**params), repeats)

    # Batched: one environment build amortized over BATCH bindings.
    batch_ms, batch_results = time_callable(
        lambda: statement.execute_many([params] * BATCH), max(1, repeats // 2))
    many_ms = batch_ms / BATCH

    correct = bool(
        np.allclose(one_shot_result, prepared_result, rtol=1e-6, atol=1e-6)
        and all(np.allclose(prepared_result, r, rtol=1e-6, atol=1e-6)
                for r in batch_results))
    return {
        "kernel": kernel_name,
        "dataset": dataset,
        "backend": backend,
        "one_shot_ms": round(one_shot_ms, 4),
        "prepared_ms": round(prepared_ms, 4),
        "execute_many_ms": round(many_ms, 4),
        "speedup": round(one_shot_ms / prepared_ms, 3),
        "speedup_many": round(one_shot_ms / many_ms, 3),
        "correct": correct,
    }


def run_bench(repeats: int = max(5, REPEATS)) -> dict:
    """All cases × backends; return the report dict written to JSON."""
    rows = [bench_case(kernel_name, dataset, backend, repeats)
            for kernel_name, dataset in CASES
            for backend in MEASURED_BACKENDS]
    table = format_table(rows, title="Prepared statements — per-call latency (ms): "
                                     "one-shot storel.run vs Statement.execute "
                                     f"(matrix scale {MATRIX_SCALE}, "
                                     f"tensor scale {TENSOR_SCALE})")
    print_report(table)
    return {
        "benchmark": "session",
        "matrix_scale": MATRIX_SCALE,
        "tensor_scale": TENSOR_SCALE,
        "repeats": repeats,
        "batch": BATCH,
        "backends": list(MEASURED_BACKENDS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "best_speedup": max(row["speedup"] for row in rows),
    }


def test_session_bench(benchmark):
    """All cases, correctness-checked; writes BENCH_session.json."""
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
    assert all(row["correct"] for row in report["rows"]), \
        "prepared execution diverged from one-shot storel.run"
    # The whole point of preparing: optimization cost is off the per-call path.
    assert report["best_speedup"] >= 5.0, \
        f"expected >=5x on at least one kernel, best was {report['best_speedup']}x"


def main() -> None:
    report = run_bench()
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {_JSON_PATH}")


if __name__ == "__main__":
    import sys
    sys.exit(main())
