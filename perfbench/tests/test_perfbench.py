"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from checks import check_outputs, write_reference  # noqa: E402
from tracing import LAYER_UNITS, SELF_TIME_KEYS, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

bench.import_leolink()

from leolink import config_from_dict, engine  # noqa: E402

CHECKED = ("summary.json", "pass_access.csv")
EXACT_UNITS = {"count", "bytes", "ratio"}


def traced_small(name: str, out_dir: Path) -> tuple[bench.Attempt, dict]:
    tracer = Tracer()
    attempt = bench.run_once(name, 3, out_dir, small=True, tracer=tracer)
    return attempt, layer_metrics(tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_passes_check_and_trace(name, tmp_path):
    plain = bench.run_once(name, 3, tmp_path / "plain", small=True)
    assert plain.ok, plain.error or plain.check.problems
    traced, m = traced_small(name, tmp_path / "traced")
    assert traced.ok, traced.error or traced.check.problems
    for f in CHECKED:
        assert (tmp_path / "traced" / f).read_bytes() == (tmp_path / "plain" / f).read_bytes()

    assert plain.threads == 1
    parts = sum(m[k] for k in SELF_TIME_KEYS) + m["engine.self_s"]
    assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["geometry.pairs_dense"] > 0 and m["propagation.records"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly(name, tmp_path):
    _, first = traced_small(name, tmp_path / "a")
    _, second = traced_small(name, tmp_path / "b")
    exact = [k for k in first if LAYER_UNITS[k] in EXACT_UNITS]
    assert exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_worker_threads_get_per_user_spans(tmp_path):
    """With a pool, per-user work runs in engine.user spans on the workers,
    and self times add up to the thread-summed busy time."""
    raw = WORKLOADS["population_mc"](3, str(tmp_path), True)
    raw["threads"] = 2
    tracer = Tracer()
    with instrument(tracer), tracer.root():
        engine.run(config_from_dict(raw))

    def spans_on(name):
        return {tid for _, n, *_, tid in tracer.spans if n == name}

    assert spans_on("policy") and spans_on("policy") <= spans_on("engine.user")
    assert threading.main_thread().ident not in spans_on("engine.user")
    m = layer_metrics(tracer)
    parts = sum(m[k] for k in SELF_TIME_KEYS) + m["engine.self_s"]
    assert parts == pytest.approx(m["engine.busy_s"], rel=1e-9)


def test_reference_comparison(tmp_path):
    run_dir, ref_dir = tmp_path / "run", tmp_path / "ref"
    a = bench.run_once("geo_deep", 0, run_dir, small=True)
    assert a.ok
    cfg = config_from_dict(WORKLOADS["geo_deep"](0, str(run_dir), True))
    write_reference(run_dir, ref_dir)

    def check():
        return check_outputs(run_dir, cfg.epoch, cfg.n_steps, cfg.step_s, ref_dir)

    assert check().ok and check().bytes_identical

    summary_path = run_dir / "summary.json"
    summary = json.loads(summary_path.read_text())
    user = summary["users"][0]["summaries"]["combined"]
    user["fspl_max_db"] *= 1 + 1e-12  # inside the float tolerance
    summary_path.write_text(json.dumps(summary, indent=1))
    result = check()
    assert result.ok and result.bytes_identical is False

    user["fspl_max_db"] *= 1 + 1e-6
    summary_path.write_text(json.dumps(summary))
    assert any("fspl_max_db" in p for p in check().problems)

    user["fspl_max_db"] /= 1 + 1e-6
    user["covered_steps"] += 1
    summary_path.write_text(json.dumps(summary))
    assert any("covered_steps" in p for p in check().problems)


def test_invariants_catch_broken_outputs(tmp_path):
    a = bench.run_once("iss_leo", 5, tmp_path, small=True)
    assert a.ok
    cfg = config_from_dict(WORKLOADS["iss_leo"](5, str(tmp_path), True))
    csv_path = tmp_path / "pass_access.csv"
    csv_path.write_text(csv_path.read_text() + "0,pass,1,2021-03-20T09:37:29Z,2031-01-01T00:00:00Z,1.0\n")
    problems = check_outputs(tmp_path, cfg.epoch, cfg.n_steps, cfg.step_s).problems
    assert any("outside the window" in p for p in problems)
    assert any("pass rows" in p for p in problems)


def test_benchmark_json_matches_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    """A directory holding only the benchmark cannot produce a result."""
    (tmp_path / "perfbench").mkdir()
    for p in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo_deep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
