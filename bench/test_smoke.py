"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout: python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from pipeline import COMMANDS, ROOT, Session, cli_pipeline  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(params=WORKLOADS)
def tiny(request, tmp_path):
    """A tiny workload and the outcome of its first pipeline as the record."""
    workload = generate(request.param, 5, tmp_path / "inputs", scale="tiny")
    first = Session(expected=None)
    cli_pipeline(workload, first, tmp_path, 0)
    assert first.failures == []
    return workload, first.observed, tmp_path


def test_benchmark_json_names_the_harness_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert {m["unit"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"} == {"s"}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layer_names = list(tracing.Tracer("x").layer_metrics()) + ["cli.import_s",
                                                               "trace.overhead_s"]
    assert list(per_layer) == layer_names
    assert all(per_layer[n] == bench.unit_of(n) for n in per_layer)


def test_untraced_run_reports_every_end_to_end_metric(tiny):
    workload, expected, logs = tiny
    metrics, session, samples = bench.untraced(workload, expected, 0, logs)
    assert session.failures == []
    assert samples["passes"] == bench.MIN_PASSES
    assert session.attempted == (1 + len(COMMANDS)) * bench.MIN_PASSES
    assert set(metrics) == set(bench.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    assert metrics["success_frac"] == 1.0


def test_checks_catch_a_wrong_value_and_a_wrong_verdict(tiny):
    workload, expected, logs = tiny
    wrong = json.loads(json.dumps(expected))
    wrong["transport"]["distance"] *= 1.0 + 1e-6
    wrong["certify"]["exit"] = 1 - wrong["certify"]["exit"]
    session = Session(wrong)
    cli_pipeline(workload, session, logs, 1)
    assert {f.split(":")[0] for f in session.failures} == {"pass[1] certify", "pass[1] transport"}
    assert session.failed == 2


def test_traced_run_reports_spans_and_repeatable_counts(tiny):
    workload, expected, logs = tiny
    metrics, session, samples = bench.traced(workload, expected, 0, logs)
    assert session.failures == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert samples["missing_targets"] == []
    spans = samples["spans"][0]
    names = {s["name"] for s in spans}
    assert {"cli.run", "cli.certify", "cli.rate", "cli.transport", "markov.run"} <= names
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["workload"] == workload.name and s["end"] >= s["start"] for s in spans)
    again = tracing.Tracer(workload.name)
    tracing.in_process_pipeline(workload, Session(expected), again, "again")
    counts = again.layer_metrics()
    assert all(counts[k] == metrics[k] for k in tracing.COUNT_METRICS)
    assert metrics["blockspace.draws"] > 0 and metrics["transport.solves_assign"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
