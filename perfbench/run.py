"""The repository's end-to-end benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the program from ``src/`` and
the metric names and units from ``BENCHMARK.json``.  ``--trace 0`` times the
workload and reports the end-to-end metrics.  ``--trace 1`` wraps each
layer's public entry points with the span recorder (``spans.py``) during
set-up and in every other block of the timed phase, and reports the
per-layer metrics.  Every answer is compared with a NumPy/SciPy reference
outside the timed call; a mismatch or an error fails the run.

The last line of standard output is one JSON object; the lines before it
are a readable summary: the metrics, the medians (not gated), the
unadjusted timings and the counts that must repeat exactly in every run
of one seed.  ``METRICS.md`` describes the
workloads, the metrics and the host adjustment of the timings.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups per untraced run; ``setup_s`` uses their median.
SETUP_REPEATS = 3
#: Share of the timed phase ``serve`` and ``adhoc`` spend reading; the rest
#: times bare writes of ``A``.
READ_SHARE = 0.8
#: The traced run alternates untraced and traced blocks of this length.
BLOCK_S = 1.0
#: The host probe runs between requests at least this often.
PROBE_EVERY_S = 0.2
#: Timings are reported as they would read on a host where the probe takes
#: this long (see ``adjust``).
REFERENCE_PROBE_MS = 2.5


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


_PROBE_KEYS = np.random.default_rng(0).integers(0, 4096, 4096)


def host_probe() -> float:
    """Milliseconds for a fixed loop of interpreter and small-array work.

    It touches nothing of the program: when it reads differently, the host
    ran at another speed.
    """
    keys = _PROBE_KEYS
    start = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i % 7
    values = np.linspace(0.0, 1.0, keys.size)
    for _ in range(6):
        order = np.argsort(keys, kind="stable")
        out = np.zeros(keys.size)
        np.add.at(out, keys[order], values[order])
        values = np.cumsum(np.take(out, keys)) * 1e-4
    return (time.perf_counter() - start) * 1e3


def probe_median(count: int = 3) -> float:
    return statistics.median(host_probe() for _ in range(count))


class Loop:
    """The timed phase: one closed-loop client; the benchmark times each request.

    Between requests it runs the host probe, so that each request's latency
    can be set against the host's speed at that moment.
    """

    def __init__(self, workload, check, recorder=None):
        self.workload = workload
        self.check = check
        self.recorder = recorder
        #: (kind, traced, end time, latency ms) per request.
        self.requests: list[tuple[str, bool, float, float]] = []
        self.traced_ids: list[int] = []
        self.failed = 0
        self.probe_times: list[float] = []
        self.probe_ms: list[float] = []

    def probe(self) -> None:
        self.probe_ms.append(host_probe())
        self.probe_times.append(time.perf_counter())

    def request(self, kind: str, tracing: bool) -> None:
        call = self.workload.read if kind == "read" else self.workload.write
        if tracing:
            self.traced_ids.append(len(self.recorder.request_kinds))
        start = time.perf_counter()
        if tracing:
            self.recorder.begin(kind, start)
        try:
            answers, error = call(), None
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            answers, error = [], exc
        end = time.perf_counter()
        if tracing:
            self.recorder.end(end)
        self.requests.append((kind, tracing, end, (end - start) * 1e3))
        if error is not None:
            print(f"# {kind} request failed: {error!r}", file=sys.stderr)
        self.failed += error is not None or self.check(answers) > 0
        if end - self.probe_times[-1] >= PROBE_EVERY_S:
            self.probe()

    def run(self, seconds: float, kinds: tuple[str, ...]) -> None:
        """Send ``kinds`` in turn for ``seconds``; tracing alternates by block."""
        self.probe()
        end = time.perf_counter() + seconds
        block = 0
        while time.perf_counter() < end:
            tracing = self.recorder is not None and block % 2 == 0
            if tracing:
                self.recorder.install()
            block_end = min(end, time.perf_counter() + BLOCK_S)
            while time.perf_counter() < block_end:
                for kind in kinds:
                    self.request(kind, tracing)
            if tracing:
                self.recorder.uninstall()
            block += 1
        self.probe()

    def count(self, kind: str) -> int:
        return sum(r[0] == kind for r in self.requests)

    def latencies(self, kind: str, traced: bool, adjusted: bool) -> list[float]:
        """Latencies (ms) of the requests of one kind, host-adjusted or not."""
        out = []
        for r_kind, r_traced, end, ms in self.requests:
            if r_kind == kind and r_traced == traced:
                out.append(ms * self.adjust(end) if adjusted else ms)
        return out

    def adjust(self, at: float) -> float:
        """``REFERENCE_PROBE_MS`` over the host probe around time ``at``.

        The probes just before and just after a request measure the host's
        speed while it ran; scaling by their mean removes the host's drift.
        """
        i = bisect.bisect_left(self.probe_times, at)
        around = self.probe_ms[max(0, i - 1):i + 1]
        return REFERENCE_PROBE_MS / statistics.fmean(around)


def program_counters(workload) -> dict[str, int]:
    """Server statistics plus lowered-plan cache counters, as totals so far."""
    from repro.execution.engine import GLOBAL_PLAN_CACHE

    server = getattr(workload, "server", None)
    counters = dict(server.stats.snapshot()) if server is not None else {}
    caches = [GLOBAL_PLAN_CACHE] + ([server.lowered] if server is not None else [])
    counters["lower_hits"] = sum(c.hits for c in caches)
    counters["lower_misses"] = sum(c.misses for c in caches)
    return counters


def exact_counts(workload, loop: Loop, diff) -> dict:
    """Counts that must read the same in every run of one seed."""
    counts = {"lowerings_per_read": diff("lower_misses") / max(loop.count("read"), 1)}
    if loop.count("write") and hasattr(workload, "views"):
        writes = loop.count("write")
        counts["delta_executions_per_write"] = diff("delta_executions") / writes
        counts["full_refreshes_per_write"] = diff("full_refreshes") / writes
    if hasattr(workload, "chosen"):
        counts["chosen"] = {k: sorted(v) for k, v in workload.chosen.items()}
    else:
        counts["plans"] = {
            k: {"chosen": o.chosen_candidate, "cost": o.cost,
                "egraph": [[s.runner.iterations, s.runner.nodes, s.runner.stop_reason]
                           for s in (o.stage1, o.stage2) if s is not None]}
            for k, o in sorted(workload.plans().items())}
    return counts


def latency_metrics(loop: Loop, adjusted: bool) -> dict[str, float]:
    """Mean, median and 90th percentile of the untraced reads and writes."""
    metrics = {}
    for kind, prefix in (("read", ""), ("write", "write_")):
        values = loop.latencies(kind, False, adjusted)
        metrics[prefix + "mean_ms"] = statistics.fmean(values)
        metrics[prefix + "p50_ms"] = statistics.median(values)
        metrics[prefix + "p90_ms"] = quantile(values, 0.9)
    return metrics


def end_to_end(loop: Loop, programs_per_read: int, setup_s: float,
               interleaved: bool) -> dict[str, float]:
    """The end-to-end metrics; ``interleaved`` when writes share the timed
    loop with the reads, so the client's busy time includes them."""
    reads = loop.latencies("read", False, True)
    busy = sum(reads) + (sum(loop.latencies("write", False, True))
                         if interleaved else 0.0)
    return {
        "setup_s": setup_s,
        **latency_metrics(loop, adjusted=True),
        "throughput_per_s": len(reads) * programs_per_read / (busy / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(recorder, loop: Loop, diff) -> dict[str, float]:
    problems = recorder.check()
    if problems:
        raise RuntimeError("span check failed: " + "; ".join(problems[:3]))
    metrics = recorder.layer_metrics(loop.traced_ids)
    setup = recorder.self_times()[0]
    reports = recorder.runner_reports
    reads = max(loop.count("read"), 1)
    writes = max(loop.count("write"), 1)
    metrics.update({
        "core.optimize.candidates": (statistics.fmean(recorder.candidates)
                                     if recorder.candidates else 0.0),
        # Saturation runs only while preparing, so these cover the set-up.
        "egraph.run.ms": sum(setup.get("egraph.run", [])),
        "egraph.run.calls": len(reports),
        "egraph.iterations": sum(r.iterations for r in reports),
        "egraph.nodes": sum(r.nodes for r in reports),
        "egraph.iter_limit_stops": sum(r.stop_reason == "iter_limit" for r in reports),
        "execution.plan_cache.hits": diff("lower_hits") / reads,
        "execution.plan_cache.misses": diff("lower_misses") / reads,
        "ivm.delta_executions": diff("delta_executions") / writes,
        "ivm.full_refreshes": diff("full_refreshes") / writes,
        "serving.plan_hits": diff("plan_hits") / reads,
        "serving.plan_misses": diff("plan_misses") / reads,
        "serving.errors": diff("errors"),
        "serving.rejected": diff("rejected_full") + diff("rejected_timeout"),
        "host.ref_ms": statistics.median(loop.probe_ms),
        "trace.overhead_ratio": (
            statistics.fmean(loop.latencies("read", True, True))
            / statistics.fmean(loop.latencies("read", False, True))),
    })
    return metrics


def measure(args) -> tuple[dict, dict]:
    """One run; returns (metrics, details for the summary)."""
    start = time.perf_counter()
    import workloads as W          # imports SciPy and the program

    import_s = time.perf_counter() - start
    sizes = W.SIZES[args.size]
    factory = W.WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()

    setups: list[float] = []
    workload = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        before = probe_median()
        if recorder is not None:
            recorder.install()
        begin = time.perf_counter()
        if recorder is not None:
            recorder.begin("setup", begin)
        workload = factory(W.Operands(sizes, args.seed), args.seed)
        finish = time.perf_counter()
        if recorder is not None:
            recorder.end(finish)
            recorder.uninstall()
        elapsed = finish - begin
        after = probe_median()
        setups.append(elapsed * REFERENCE_PROBE_MS / statistics.fmean((before, after)))
        if len(setups) == 1:
            import_s *= REFERENCE_PROBE_MS / before
    setup_s = import_s + statistics.median(setups)

    loop = Loop(workload, W.check, recorder)
    before = program_counters(workload)
    interleaved = args.workload == "ingest"
    if interleaved:
        loop.run(args.seconds, ("write", "read"))
    else:
        loop.run(args.seconds * READ_SHARE, ("read",))
        loop.run(args.seconds * (1 - READ_SHARE), ("write",))
    final_failed = W.check(workload.final_check()) > 0
    after = program_counters(workload)

    def diff(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    details = {
        "counts": exact_counts(workload, loop, diff),
        "attempted": len(loop.requests) + 1,
        "failed": loop.failed + final_failed,
        "host.ref_ms": statistics.median(loop.probe_ms),
        "reads": loop.count("read"), "writes": loop.count("write"),
        "unadjusted": {},
    }
    workload.close()
    if recorder is not None:
        recorder.dump(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.json"))
        return layer_metrics(recorder, loop, diff), details
    details["unadjusted"] = latency_metrics(loop, adjusted=False)
    return end_to_end(loop, factory.programs_per_read, setup_s, interleaved), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is the self-test's")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench"),
                        help="directory the traced run writes its spans to")
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(spec_path):
        print(f"error: run from a checkout holding src/repro and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.trace and args.seconds * READ_SHARE < 2 * BLOCK_S:
        parser.error("--trace 1 needs a traced and an untraced block of reads: "
                     f"--seconds {2 * BLOCK_S / READ_SHARE:g} or more")
    sys.path.insert(0, SRC)
    if args.trace:
        os.makedirs(args.out, exist_ok=True)

    metrics, details = measure(args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    attempted, failed = details["attempted"], details["failed"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reads={details['reads']} writes={details['writes']}")
    for entry in wanted:
        print(f"# {entry['name']:<28} {metrics[entry['name']]:>14.6g} {entry['unit']}")
    gated = {entry["name"] for entry in wanted}
    for name in sorted(set(metrics) - gated):
        print(f"# {name + ' (not gated)':<28} {metrics[name]:>14.6g} ms")
    print(f"# {'failed_ratio':<28} {failed / attempted:>14.6g} 1")
    if not args.trace:
        print(f"# {'host.ref_ms':<28} {details['host.ref_ms']:>14.6g} ms")
    for name, value in details["unadjusted"].items():
        print(f"# {'unadjusted ' + name:<28} {value:>14.6g} ms")
    print("# counts " + json.dumps(details["counts"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
