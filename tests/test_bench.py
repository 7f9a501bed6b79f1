"""The engines benchmark suites: their arms, their gates and the
calibrated comparison with a checked-in record."""

import json
from typing import Any

import pytest

from repro.bench import runner
from repro.bench.runner import (
    calibrated_regressions,
    run_enumeration_bench,
    run_maximum_bench,
)
from repro.uncertain.graph import UncertainGraph

CONFIG = ("dblp_like", 0.1, 4, 0.2)


def test_enumeration_suite_measures_the_cut() -> None:
    (config,) = run_enumeration_bench([CONFIG], 2).configs
    assert list(config.engines) == ["pivot", "nocut"]
    assert config.identical_output
    pivot, nocut = config.engines["pivot"], config.engines["nocut"]
    assert config.cut_speedup == nocut.median_s / pivot.median_s
    # The nocut arm splits without cutting; both arms search.
    assert pivot.stats["cuts_found"] > 0 == nocut.stats["cuts_found"]
    for run in (pivot, nocut):
        for phase in ("cut", "search"):
            assert len(run.phase_times_s[phase]) == 2
            assert run.phase_seconds[phase] == (
                sum(run.phase_times_s[phase]) / 2
            )


def test_nocut_arm_is_gated_on_the_pivot_arms_cliques(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    enum_once = runner._enum_once

    def drop_one_without_cut(
        graph: UncertainGraph, k: int, tau: float, cut: bool
    ) -> Any:
        elapsed, cliques, stats, phases = enum_once(graph, k, tau, cut)
        return elapsed, cliques if cut else cliques[1:], stats, phases

    monkeypatch.setattr(runner, "_enum_once", drop_one_without_cut)
    (config,) = run_enumeration_bench([CONFIG], 1).configs
    assert not config.identical_output


def test_maximum_suite_is_gated_on_the_canonical_maximum(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    (config,) = run_maximum_bench([CONFIG], 2).configs
    assert list(config.engines) == ["pivot"]
    assert config.identical_output
    # An answer that is not the enumeration's canonical maximum fails.
    max_once = runner._max_once

    def second_best(graph: UncertainGraph, k: int, tau: float) -> Any:
        elapsed, best, stats, phases = max_once(graph, k, tau)
        assert best is not None
        return elapsed, frozenset(list(best)[1:]), stats, phases

    monkeypatch.setattr(runner, "_max_once", second_best)
    (config,) = run_maximum_bench([CONFIG], 1).configs
    assert not config.identical_output


def test_calibrated_gate_compares_with_the_record() -> None:
    report = run_enumeration_bench([CONFIG], 1)
    (config,) = report.configs
    assert config.calibration_s > 0.0
    assert report.provenance["calibration_s"] == config.calibration_s
    record = json.loads(report.to_json())
    assert calibrated_regressions(report, record, 0.1) == ([], [])
    # The same medians recorded on a host twice as slow: both arms
    # regressed.
    record["configs"][0]["calibration_s"] = config.calibration_s * 2
    regressions, unmatched = calibrated_regressions(report, record, 0.1)
    assert len(regressions) == 2 and not unmatched
    # A config or a calibration the record lacks is not speed-gated.
    label = ["dblp_like@0.1 k=4 tau=0.2"]
    assert calibrated_regressions(report, None, 0.1) == ([], label)
    del record["configs"][0]["calibration_s"]
    assert calibrated_regressions(report, record, 0.1) == ([], label)
