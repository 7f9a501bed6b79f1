"""The engine benchmark's enumeration suite: its arms and their gate."""

from typing import Any

import pytest

from repro.bench import runner
from repro.bench.runner import run_enumeration_bench
from repro.core.enumeration import Engine
from repro.uncertain.graph import UncertainGraph

CONFIG = ("dblp_like", 0.1, 4, 0.2)


def test_enumeration_suite_measures_the_cut() -> None:
    (config,) = run_enumeration_bench([CONFIG], 2).configs
    assert list(config.engines) == ["legacy", "pivot", "nocut"]
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
        graph: UncertainGraph, k: int, tau: float, engine: Engine, cut: bool
    ) -> Any:
        elapsed, cliques, stats, phases = enum_once(graph, k, tau, engine, cut)
        return elapsed, cliques if cut else cliques[1:], stats, phases

    monkeypatch.setattr(runner, "_enum_once", drop_one_without_cut)
    (config,) = run_enumeration_bench([CONFIG], 1).configs
    assert not config.identical_output
