"""Smoke tests for every experiment runner at tiny scale.

Each regenerator of DESIGN.md's per-experiment index must run end to end
and report the structural facts the paper's figure relies on (who wins,
subset relations, agreement between algorithms).  Tiny scales keep the
whole module under a couple of minutes.
"""

from repro.experiments import (
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
)

TINY = 0.06


class TestTable1:
    def test_rows_and_columns(self):
        result = run_table1(scale=TINY)
        assert len(result.rows) == 5
        for row in result.rows:
            assert row["n"] > 0
            assert row["m"] > 0
            assert row["d_max"] >= row["degeneracy"]

    def test_dataset_subset(self):
        result = run_table1(scale=TINY, datasets=("dblp_like",))
        assert len(result.rows) == 1
        assert result.rows[0]["paper_dataset"] == "DBLP"


class TestFig2:
    def test_grid_and_agreement(self):
        result = run_fig2(
            datasets=("wikitalk_like",),
            k_values=(6, 10),
            tau_values=(0.1,),
            scale=TINY,
        )
        assert len(result.rows) == 3
        for row in result.rows:
            assert row["dpcore_seconds"] > 0
            assert row["dpcore_plus_seconds"] > 0
            assert row["speedup"] > 0


class TestFig3:
    def test_counts_agree_across_algorithms(self):
        result = run_fig3(
            datasets=("askubuntu_like",),
            k_values=(6,),
            tau_values=(0.1,),
            scale=TINY,
        )
        for row in result.rows:
            assert row["cliques"] >= 0
            assert row["MUCE_seconds"] > 0
            assert row["MUCE++_seconds"] > 0

    def test_baseline_can_be_skipped(self):
        result = run_fig3(
            datasets=("askubuntu_like",),
            k_values=(6,),
            tau_values=(),
            scale=TINY,
            include_baseline=False,
        )
        assert all("MUCE_seconds" not in row for row in result.rows)


class TestFig4:
    def test_corollary_one_in_rows(self):
        result = run_fig4(
            k_values=(6, 10), tau_values=(0.1,), scale=TINY
        )
        for row in result.rows:
            assert row["topk_core_nodes"] <= row["ktau_core_nodes"]

    def test_topk_points_time_the_peel_not_an_index(self, monkeypatch):
        # Every k is peeled repeatedly (two k points, a tau sweep at the
        # same k, three repeats each), so a shared lowering would build
        # its level index on the second peel and answer later ones by
        # lookup.  Each timed topk call must find no index to read.
        from repro.experiments import exp_pruning

        real = exp_pruning.topk_core
        calls = []

        def guarded(graph, k, tau, *, compiled):
            calls.append(compiled._topk_levels.get(k))
            return real(graph, k, tau, compiled=compiled)

        monkeypatch.setattr(exp_pruning, "topk_core", guarded)
        run_fig4(
            k_values=(6, 6),
            tau_values=(0.05, 0.1),
            default_k=6,
            scale=TINY,
            repeats=3,
        )
        assert len(calls) == 12
        assert calls == [None] * 12


class TestFig5:
    def test_sizes_agree(self):
        result = run_fig5(
            datasets=("askubuntu_like",),
            k_values=(6,),
            tau_values=(0.1,),
            scale=TINY,
        )
        for row in result.rows:
            assert row["max_size"] == 0 or row["max_size"] > 6


class TestFig6:
    def test_panels_cover_samplers(self):
        result = run_fig6(
            fractions=(0.5, 1.0), scale=TINY, include_baselines=False
        )
        panels = {row["panel"] for row in result.rows}
        assert any("|V|" in p for p in panels)
        assert any("|E|" in p for p in panels)


class TestFig7:
    def test_ratios_positive(self):
        result = run_fig7(
            datasets=("askubuntu_like",), scale=TINY,
            include_baselines=False,
        )
        row = result.rows[0]
        assert row["graph_bytes"] > 0
        assert row["MUCE++_ratio"] >= 0


class TestFig8:
    def test_lambda_sweep_shrinks_cores(self):
        result = run_fig8(
            lambdas=(2.0, 6.0), scale=TINY, include_baselines=False
        )
        pruning = [
            row for row in result.rows if row["panel"].startswith("pruning")
            and row["variant"].startswith("lambda")
        ]
        assert len(pruning) == 2
        lam2, lam6 = pruning
        assert lam6["topk_core_nodes"] <= lam2["topk_core_nodes"]

    def test_uniform_variant_present(self):
        result = run_fig8(
            lambdas=(2.0,), scale=TINY, include_baselines=False
        )
        variants = {row["variant"] for row in result.rows}
        assert "DBLP-U" in variants and "DBLP-E" in variants


class TestCaseStudy:
    def test_table2_rows(self):
        result = run_table2(scale=0.3, k=5)
        methods = [row["method"] for row in result.rows]
        assert methods == ["MUCE++", "USCAN", "PCluster"]
        for row in result.rows:
            assert 0.0 <= row["precision"] <= 1.0

    def test_muce_wins_on_precision(self):
        result = run_table2(scale=0.3, k=5)
        by_method = {row["method"]: row["precision"] for row in result.rows}
        assert by_method["MUCE++"] >= by_method["USCAN"]
        assert by_method["MUCE++"] >= by_method["PCluster"]

    def test_fig9_grid(self):
        result = run_fig9(
            k_values=(4, 5), tau_values=(0.1,), default_k=5, scale=0.3
        )
        assert len(result.rows) == 3
        for row in result.rows:
            assert 0.0 <= row["precision"] <= 1.0
