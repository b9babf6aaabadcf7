"""Execution-backend shootout: interpret vs compile vs typed.

Runs every Fig. 7 kernel through the STOREL pipeline once per execution
backend on one representative dataset each, checks all backends against the
NumPy oracle, prints the runtime table and the typed-over-best-other
speedups, and records the raw rows in
``BENCH_backends.json`` at the repository root.  The first execution of
every (kernel, backend) pair is timed separately as ``compile_ms`` and
excluded from the steady-state ``mean_ms`` (the typed backend JIT-compiles
there when numba is available).

Run either as a pytest module (``pytest benchmarks/bench_backends.py -s``)
or directly (``python benchmarks/bench_backends.py``).  Scale factors and
the backend list come from :mod:`_config` (``REPRO_MATRIX_SCALE``,
``REPRO_TENSOR_SCALE``, ``REPRO_BACKENDS``).
"""

import json
import os
import platform

from _config import BACKENDS, MATRIX_SCALE, REPEATS, TENSOR_SCALE, print_report
from repro.kernels import KERNELS
from repro.workloads.harness import backend_shootout
from repro.workloads.experiments import matrix_kernel_catalog, tensor_kernel_catalog
from repro.workloads.reporting import format_table, pivot_measurements

MATRIX_KERNELS = ("MMM", "SUMMM", "BATAX")
TENSOR_KERNELS = ("TTM", "MTTKRP")

#: One representative dataset per kernel family (same as the paper's spotlights).
MATRIX_DATASET = "pdb1HYS"
TENSOR_DATASET = "Facebook"

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCH_backends.json")


def _shootout(kernel_name: str, repeats: int):
    if kernel_name in MATRIX_KERNELS:
        dataset = MATRIX_DATASET
        catalog = matrix_kernel_catalog(kernel_name, dataset, scale=MATRIX_SCALE)
    else:
        dataset = TENSOR_DATASET
        catalog = tensor_kernel_catalog(kernel_name, dataset, scale=TENSOR_SCALE)
    return backend_shootout(KERNELS[kernel_name], catalog, backends=BACKENDS,
                            dataset=dataset, repeats=repeats)


def run_shootout(repeats: int = REPEATS) -> dict:
    """Run all kernels × backends; return the report dict written to JSON."""
    measurements = []
    for kernel_name in MATRIX_KERNELS + TENSOR_KERNELS:
        measurements.extend(_shootout(kernel_name, repeats))
    table = format_table(
        pivot_measurements(measurements, row_key="kernel", column_key="system"),
        title="Execution backends — run time (ms) per kernel "
              f"(matrix scale {MATRIX_SCALE}, tensor scale {TENSOR_SCALE})")
    report = {
        "benchmark": "backends",
        "matrix_scale": MATRIX_SCALE,
        "tensor_scale": TENSOR_SCALE,
        "repeats": repeats,
        "backends": list(BACKENDS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": [m.as_row() for m in measurements],
        "typed_speedup_over_best": {},
    }
    by_kernel: dict[str, dict[str, float]] = {}
    for measurement in measurements:
        if measurement.mean_ms is not None:
            by_kernel.setdefault(measurement.kernel, {})[measurement.system] = measurement.mean_ms
    typed_rows = []
    for kernel, systems in by_kernel.items():
        typed = systems.get("STOREL[typed]")
        others = {name: ms for name, ms in systems.items()
                  if name != "STOREL[typed]"}
        if typed and others:
            best_name, best_ms = min(others.items(), key=lambda kv: kv[1])
            speedup = best_ms / typed
            report["typed_speedup_over_best"][kernel] = round(speedup, 3)
            typed_rows.append({"kernel": kernel, "best_other": best_name,
                               "best_ms": best_ms, "typed_ms": typed,
                               "speedup": speedup})
    if typed_rows:
        table += "\n" + format_table(
            typed_rows, title="typed speedup over the best other backend")
    print_report(table)
    return report


def test_backend_shootout(benchmark):
    """All kernels × backends, correctness-checked; writes BENCH_backends.json."""
    report = benchmark.pedantic(run_shootout, rounds=1, iterations=1)
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
    ok = [row for row in report["rows"] if row["status"] == "ok"]
    assert ok, "no backend produced a measurement"
    assert all(row["correct"] for row in ok), "a backend returned an incorrect result"
    # Every backend must have executed every kernel it was asked to run.
    assert len(ok) == len(report["rows"]), \
        f"backend failures: {[r for r in report['rows'] if r['status'] != 'ok']}"
    # Kernel-backend wins must come from kernelized plans, not Python-loop
    # fallbacks: the fastest typed row per kernel reports zero
    # fallback sums and merges.
    by_kernel: dict[str, list[dict]] = {}
    for row in ok:
        by_kernel.setdefault(row["kernel"], []).append(row)
    for kernel, rows in by_kernel.items():
        winner = min(rows, key=lambda r: r["mean_ms"])
        if winner["fallback_sums"] is not None:
            assert winner["fallback_sums"] == 0 and winner["fallback_merges"] == 0, \
                f"{kernel}: winning backend {winner['system']} fell back to " \
                f"Python loops ({winner['fallback_sums']} sums, " \
                f"{winner['fallback_merges']} merges)"


def main() -> None:
    report = run_shootout(repeats=max(3, REPEATS))
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {_JSON_PATH}")


if __name__ == "__main__":
    import sys
    sys.exit(main())
