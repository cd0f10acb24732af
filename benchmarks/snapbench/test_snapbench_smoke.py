"""Smoke test of snapbench: every workload runs at ``--smoke`` size, emits
every metric BENCHMARK.json names, and passes the OBS oracle check.

The workloads run as the command line runs them — one process each, so
nothing they configure process-wide (telemetry, kernel caches, worker
pools) leaks into the rest of the test session — and side by side, to
stay within a few seconds.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_tables_agree_with_benchmark_json():
    assert BENCHMARK["command"] == ["python3", "benchmarks/snapbench/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/snapbench"]
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == list(
        run.WORKLOADS
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(run.PER_LAYER)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """workload -> (stdout, result, spans) of ``run.py --smoke --trace``."""
    out = tmp_path_factory.mktemp("snapbench")
    children = {
        name: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--smoke", "--trace", "--out", str(out / f"{name}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, _why in run.WORKLOADS
    }
    runs = {}
    for name, child in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        (result,) = json.loads((out / f"{name}.json").read_text())["runs"]
        spans = json.loads((out / f"trace-{name}.json").read_text())
        runs[name] = stdout, result, spans
    return runs


@pytest.mark.parametrize("workload", [name for name, _why in run.WORKLOADS])
def test_smoke_run_emits_every_metric_once(smoke_runs, workload):
    stdout, result, spans = smoke_runs[workload]
    assert result["smoke"] is True
    assert result["failed"] == 0
    assert result["end_to_end"]["failed_ops_share"]["value"] == 0
    lines = stdout.splitlines()
    expected = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    for name in expected + ["failed_ops_share"]:
        assert sum(line.split()[:1] == [name] for line in lines) == 1, name
    assert set(result["end_to_end"]) == {
        m["name"] for m in BENCHMARK["end_to_end"]
    } | {"failed_ops_share"}
    assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # The line the pipeline reads: bare --trace reports end to end.
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    # Spans were written once, beside the result set, not into it.
    assert "spans" not in result
    assert {"name", "start", "end", "parent", "workload", "round"} <= set(spans[0])


def test_result_sets_never_mix_smoke_and_full(tmp_path):
    path = tmp_path / "set.json"
    result = {"workload": "campus-ops", "smoke": True, "spans": []}
    run.append_result(path, dict(result))
    with pytest.raises(SystemExit):
        run.append_result(path, dict(result, smoke=False))
