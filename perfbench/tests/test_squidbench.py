"""Fast checks of the benchmark itself, at tiny dataset sizes.

Every workload must emit every metric ``BENCHMARK.json`` names, and a
corrupted answer must fail the correctness check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from squidbench.workloads import WORKLOADS, Run, run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

SECONDS = 0.05


def _tiny(workload: str, trace: bool = False) -> Run:
    bench = Run(workload, seed=3, seconds=SECONDS, trace=trace, profile="tiny")
    bench.measure()
    return bench


def _assert_metrics(result, declared) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)


def test_benchmark_json_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run(workload, seed=3, seconds=SECONDS, trace=False, profile="tiny")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    _assert_metrics(result, SPEC["end_to_end"])
    metrics = result["metrics"]
    assert metrics["completed_share"]["value"] == 1.0
    for metric in SPEC["end_to_end"]:
        assert metrics[metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    path = tmp_path / "spans.jsonl"
    result = run(
        workload, seed=3, seconds=SECONDS, trace=True, profile="tiny", trace_path=str(path)
    )
    assert result["correct"] is True
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["pipeline.candidates"]["value"] >= 1.0
    assert metrics["adb.build_ms"]["value"] > 0
    assert metrics["adb.refresh_ms"]["value"] > 0
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"name", "start", "end", "parent", "request"} <= set(spans[0])
    names = {span["name"] for span in spans}
    assert {"pipeline.discover", "lookup", "context", "adb.build"} <= names
    if WORKLOADS[workload].front == "server":
        assert metrics["serve.handle_self_ms"]["value"] > 0


def test_tracing_restores_the_program():
    from repro.core import pipeline, session
    from repro.sql.engine import base

    originals = (
        session.discover_sequential,
        pipeline.Stage.__call__,
        base.CachingBackend.execute,
    )
    _tiny("dblp-session", trace=True)
    assert (
        session.discover_sequential,
        pipeline.Stage.__call__,
        base.CachingBackend.execute,
    ) == originals


def _corrupt_serve(record) -> None:
    record.answer = dict(record.answer, rows=list(reversed(record.answer["rows"])) + ["x"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_answer_fails_the_check(workload):
    bench = _tiny(workload)
    last = bench.records[-1]
    if WORKLOADS[workload].front == "server":
        _corrupt_serve(last)
    else:
        sql, rows = last.answer
        last.answer = (sql.replace("SELECT", "SELECT DISTINCT", 1), rows)
    result = bench.finish()
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["completed_share"]["value"] < 1.0


def test_changed_row_count_fails_the_session_check():
    bench = _tiny("dblp-session")
    sql, rows = bench.records[0].answer
    bench.records[0].answer = (sql, rows + 1)
    assert bench.finish()["failed"] == 1


def test_same_seed_gives_same_inputs():
    first = Run("imdb-mutate", seed=5, seconds=SECONDS, trace=False, profile="tiny")
    second = Run("imdb-mutate", seed=5, seconds=SECONDS, trace=False, profile="tiny")
    other = Run("imdb-mutate", seed=6, seconds=SECONDS, trace=False, profile="tiny")
    draw = lambda bench: (  # noqa: E731
        [bench.next_request(0).request for _ in range(5)],
        bench.next_write_batch(),
    )
    assert draw(first) == draw(second)
    assert draw(first) != draw(other)
    for bench in (first, second, other):
        bench.loop.close()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "imdb-serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
