"""Self-test of the benchmark: each workload once at the tiny size, untraced and traced.

    python3 -m pytest perfbench/selftest.py -q

Run from the repository root.  It checks that every metric ``BENCHMARK.json``
names is printed with its unit, that no answer failed, that the untraced run
never imports the span recorder, that the traced run's spans nest, and that
the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Runs ``run.main`` in a fresh interpreter, then fails if the recorder was
#: imported by an untraced run.
_IN_FRESH_INTERPRETER = """
import sys
sys.path.insert(0, {here!r})
import run
code = run.main(sys.argv[1:])
if "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "0":
    assert "spans" not in sys.modules, "untraced run imported the recorder"
sys.exit(code)
"""


def bench(workload: str, trace: int, out: str) -> tuple[dict, str]:
    args = ["--workload", workload, "--seed", "3", "--seconds", "3",
            "--size", "tiny", "--trace", str(trace), "--out", out]
    proc = subprocess.run(
        [sys.executable, "-c", _IN_FRESH_INTERPRETER.format(here=HERE), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def assert_metrics(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    result, stdout = bench(workload, 0, str(tmp_path))
    assert_metrics(result, "end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "# failed_ratio" in stdout and "# host.ref_ms" in stdout
    assert not list(tmp_path.iterdir()), "the untraced run wrote spans"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_spans_nest(workload, tmp_path):
    result, _ = bench(workload, 1, str(tmp_path))
    assert_metrics(result, "per_layer")
    with open(tmp_path / f"spans-{workload}-3.json") as handle:
        dump = json.load(handle)
    spans = dump["spans"]
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == len(dump["requests"])
    for name, start, end, parent, request in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_request = spans[parent]
            assert p_start <= start <= end <= p_end, name
            assert p_request == request, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
