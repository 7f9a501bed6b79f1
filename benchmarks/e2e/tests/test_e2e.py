"""Tests of the end-to-end benchmark itself (not of the program).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import harness, workloads
from benchmarks.e2e.child import ChildFailed, cached_in_child, in_child
from benchmarks.e2e.compare import main as compare_main
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.stats import TooFewSamples, percentile
from benchmarks.e2e.trace import (
    BOUNDARIES,
    Boundary,
    MissingBoundary,
    Tracer,
    installed,
    self_times,
)

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    record = harness.run_workload(name, 3, 0.3, False, tmp_path, smoke=True)
    assert record["correct"] and record["failed"] == 0
    assert _units(record["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert (tmp_path / f"result-{name}.json").exists()


@pytest.mark.parametrize("name", ["cold-oneshot", "update-stream"])
def test_smoke_traced_run_reports_every_layer_metric(name, tmp_path):
    record = harness.run_workload(name, 3, 0.3, True, tmp_path, smoke=True)
    assert record["correct"]
    assert _units(record["metrics"]) == PER_LAYER
    layers = json.loads((tmp_path / f"layers-{name}.json").read_text())
    assert layers["accounted_frac"] == pytest.approx(1.0)
    spans = json.loads((tmp_path / f"trace-{name}.json").read_text())["spans"]
    assert len({span[4] for span in spans}) == layers["ops"]
    # The kernel's clique counter agrees with what the enum ops returned.
    counts = layers["counts"]
    assert counts["search.cliques"] == counts["enum.returned"] > 0
    assert counts["search.enum_calls"] > 0
    for output in (record, layers):
        assert output["provenance"]["seed"] == 3
        assert output["provenance"]["cpu_count"] == os.cpu_count()


def test_cli_prints_the_result_line_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", "warm-session", "--seed", "2", "--seconds", "0.2",
         "--trace", "0", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert _units(line["metrics"]) == END_TO_END


def test_benchmark_json_names_these_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def test_injected_wrong_answer_counts_as_failed(tmp_path, monkeypatch):
    real = workloads.run_query

    def drop_a_clique(session, op, stats=None):
        result = real(session, op, stats)
        return result[1:] if op.kind == "enum" and result else result

    monkeypatch.setattr(workloads, "run_query", drop_a_clique)
    record = harness.run_workload(
        "cold-oneshot", 3, 0.3, False, tmp_path, smoke=True
    )
    assert not record["correct"]
    assert record["failed"] > 0
    assert record["detail"]["failed_frac"] == pytest.approx(
        record["failed"] / record["attempted"]
    )


def test_digest_tells_clique_sets_apart():
    a, b, c = frozenset("ab"), frozenset("bc"), frozenset("abc")
    assert workloads.digest([a, b]) == workloads.digest([b, a])
    assert workloads.digest([a, b]) != workloads.digest([a])
    assert workloads.digest([a, b]) != workloads.digest([a, c])
    assert workloads.digest([a, a]) != workloads.digest([a, b])


def test_digest_is_the_same_in_every_interpreter():
    code = ("from benchmarks.e2e.workloads import digest; "
            "print(digest([frozenset({'0:a', '0:b'}), frozenset({'1:c'})]))")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True, text=True,
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}"),
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1


def test_in_child_returns_the_answer_and_reports_a_raise():
    assert in_child(sorted, [3, 1, 2]) == [1, 2, 3]
    with pytest.raises(ChildFailed, match="ZeroDivisionError"):
        in_child(divmod, 1, 0)


def test_cached_in_child_computes_once_per_key(tmp_path):
    first = cached_in_child(tmp_path, "a", os.getpid)
    assert first != os.getpid()  # computed in a child
    assert cached_in_child(tmp_path, "a", os.getpid) == first
    assert cached_in_child(tmp_path, "b", os.getpid) != first
    assert cached_in_child(None, "a", os.getpid) != first


def test_cli_exits_nonzero_on_a_wrong_answer(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "run_query",
                        lambda session, op, stats=None: [])
    status = harness.main([
        "--workload", "warm-session", "--seed", "1", "--seconds", "0.2",
        "--smoke", "--out", str(tmp_path),
    ])
    assert status == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["failed"] > 0 and not line["correct"]


# ----------------------------------------------------------------------
# Percentiles and verdicts
# ----------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90
    assert percentile([5.0] * 20, 50) == 5.0


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)  # rank 90: 9 beyond
    assert percentile(list(range(100)), 90) == 89  # rank 90: 10 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


def test_end_to_end_takes_cell_medians_at_the_reference_speed():
    ref = harness.REFERENCE_PROBE_S
    phase = harness.Phase()
    # Probes 0..2: the host at reference speed, then at half speed.
    phase.probes = [ref, ref, 2 * ref]
    phase.timed = [
        (("enum", 4, 0.1, None), 0.010, 0, False),  # probes 0, 1: 10 ms
        (("enum", 4, 0.1, None), 0.030, 0, False),
        (("enum", 4, 0.1, None), 0.500, 0, False),  # an outlier
        (("enum", 5, 0.1, None), 0.060, 1, False),  # probes 1, 2: 40 ms
        (("max", 4, 0.1, None), 0.002, 0, False),
        (("anchored", 4, 0.1, 7), 0.001, 0, False),
        (("max", 4, 0.1, None), 9.000, 0, True),  # traced: left out
    ]
    metrics = harness.end_to_end(phase, [3.0, 1.0, 2.0])
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert value["setup_s"] == 2.0
    # Cells: 30 ms and 40 ms; their geometric mean.
    assert value["enum_ms"] == pytest.approx((30 * 40) ** 0.5)
    assert value["max_ms"] == pytest.approx(2.0)
    assert value["anchored_ms"] == pytest.approx(1.0)
    # Six ops, each at its cell's median: 3 x 30 + 40 + 2 + 1 ms.
    assert value["ops_per_s"] == pytest.approx(6 / 0.133)


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert verdict(base, [101.0, 102.0, 100.0, 101.5], "lower", 0.1) == (
        "within bound"
    )
    assert verdict(base, [120.0, 121.0, 119.0, 120.5], "lower", 0.1) == "worse"
    assert verdict(base, [120.0, 121.0, 119.0, 120.5], "higher", 0.1) == (
        "within bound"
    )
    assert verdict(base, [50.0, 150.0, 80.0, 130.0], "lower", 0.1) == (
        "unresolved"
    )
    assert verdict(base, [50.0, 70.0, 60.0, 90.0], "lower", 0.1) == "better"


def _summary(path, update_p50s):
    runs = [
        {"workload": "update-stream",
         "metrics": {"ops_per_s": {"value": 50.0 + i, "unit": "1/s"}},
         "detail": {"latency": {"update": {"n": 300, "p50_ms": p50,
                                           "p90_ms": None}}}}
        for i, p50 in enumerate(update_p50s)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_reports_update_latency_without_gating_on_it(
    tmp_path, capsys
):
    a = _summary(tmp_path / "a.json", [2.0, 2.1, 2.0, 1.9])
    b = _summary(tmp_path / "b.json", [3.0, 3.1, 3.0, 2.9])
    assert compare_main([str(a), str(b)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "update_p50_ms" in line]
    assert len(rows) == 1 and rows[0].endswith("worse (detail)")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        ["op.enum", 0.0, 10.0, None, 1],
        ["cut", 1.0, 4.0, 0, 1],
        ["graph.mutate", 2.0, 3.0, 1, 1],
        ["search", 5.0, 9.0, 0, 1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["op.enum", 0.0, 10.0, None, 1],
        ["search", 1.0, 4.0, 0, 1],
        ["search", 3.0, 6.0, 0, 1],
        ["search", 9.0, 12.0, 0, 1],  # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_layer_totals_add_up_to_op_time():
    tracer = Tracer()
    tracer.spans = [
        ["op.enum", 0.0, 10.0, None, 1],
        ["cut", 1.0, 4.0, 0, 1],
        ["graph.mutate", 2.0, 3.0, 1, 1],
        ["op.max", 10.0, 12.0, None, 2],
        ["search", 10.5, 11.0, 3, 2],
    ]
    totals = tracer.layer_totals()
    assert totals["op"] == {"self_s": 12.0, "calls": 2}
    assert totals["cut"]["self_s"] == 2.0
    assert totals["graph.mutate"]["self_s"] == 1.0
    assert totals["search"]["self_s"] == 0.5
    assert totals["session.self"]["self_s"] == 8.5
    assert sum(
        row["self_s"] for name, row in totals.items() if name != "op"
    ) == pytest.approx(12.0)


def test_a_missing_boundary_fails_before_patching():
    from repro.core import pipeline

    original = pipeline.compile_stage
    gone = Boundary("repro.core.pipeline", "no_such_stage", "compile.full")
    with pytest.raises(MissingBoundary, match="no_such_stage"):
        with installed(Tracer(), (*BOUNDARIES, gone)):
            pass
    assert pipeline.compile_stage is original


def test_installed_restores_every_boundary():
    from repro.core import pipeline
    from repro.uncertain.graph import UncertainGraph

    before = (pipeline.cut_stage, UncertainGraph.__dict__["add_edge"])
    with installed(Tracer()):
        assert pipeline.cut_stage is not before[0]
    assert (pipeline.cut_stage, UncertainGraph.__dict__["add_edge"]) == before


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

def _ops(name: str, seed: int, count: int) -> list:
    wl = workloads.workload(name, smoke=True)
    plan = wl.prepare(seed, 1.0)
    rounds = plan.rounds()
    return list(itertools.islice(itertools.chain.from_iterable(rounds), count))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_the_same_ops(name):
    first = _ops(name, 5, 120)
    assert first == _ops(name, 5, 120)
    assert first != _ops(name, 6, 120)
