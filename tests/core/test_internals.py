"""White-box tests for search/cut internals.

These pin down the behavior of the private helpers the hot paths rely
on, so refactors cannot silently change their contracts.
"""

from bisect import bisect_left, insort

from repro import UncertainGraph
from repro.core.cut_pruning import (
    _cut_is_low,
    _sweep_split,
    induced_rows,
    is_low_probability_cut,
)
from repro.core.prune_kernel import compile_graph
from repro.core.enumeration import _insearch_topk_prune, _pi_k_ok
from repro.utils.validation import FLOAT_EPS, threshold_floor
from tests.conftest import (
    make_clique,
    make_random_graph,
    make_second_sweep_graph,
)


class TestCutTopK:
    """The sweep's cut multiset: an ascending float list (``insort`` /
    ``pop(bisect_left)``) tested by :func:`_cut_is_low`."""

    def test_small_cut_is_low(self):
        cut = [0.9]
        assert _cut_is_low(cut, 2, threshold_floor(0.5))  # one live edge

    def test_top_k_product(self):
        cut: list[float] = []
        for p in (0.9, 0.5, 0.8):
            insort(cut, p)
        # top-2 product = 0.72
        assert not _cut_is_low(cut, 2, threshold_floor(0.7))
        assert _cut_is_low(cut, 2, threshold_floor(0.73))

    def test_removal_changes_product(self):
        cut: list[float] = []
        for p in (0.9, 0.5, 0.8):
            insort(cut, p)
        cut.pop(bisect_left(cut, 0.9))  # drop the 0.9; top-2 = 0.4
        assert _cut_is_low(cut, 2, threshold_floor(0.5))
        assert not _cut_is_low(cut, 2, threshold_floor(0.3))

    def test_live_count_tracks(self):
        cut: list[float] = []
        insort(cut, 0.5)
        assert len(cut) == 1
        cut.pop(bisect_left(cut, 0.5))
        assert len(cut) == 0
        assert _cut_is_low(cut, 1, threshold_floor(0.01))

    def test_query_is_repeatable(self):
        cut = [0.7, 0.8, 0.9]
        first = _cut_is_low(cut, 2, threshold_floor(0.71))
        second = _cut_is_low(cut, 2, threshold_floor(0.71))
        assert first == second == False  # noqa: E712 — explicit value
        assert cut == [0.7, 0.8, 0.9]  # the test reads, never reorders


class TestPiKOk:
    def test_short_list_fails(self):
        assert not _pi_k_ok([0.9], 2, 0.1)

    def test_top_k_product_checked(self):
        floor = 0.5 * (1 - FLOAT_EPS)
        assert _pi_k_ok([0.2, 0.8, 0.9], 2, floor)  # 0.72 >= 0.5
        assert _pi_k_ok([0.2, 0.6, 0.9], 2, floor)  # 0.54 >= 0.5
        assert not _pi_k_ok([0.2, 0.5, 0.9], 2, floor)  # 0.45 < 0.5

    def test_k_zero_always_ok_for_tau_leq_one(self):
        assert _pi_k_ok([], 0, 1.0 * (1 - FLOAT_EPS))


class TestInsearchPrune:
    def test_dead_branch_when_fixed_falls(self, two_groups):
        # Clique anchored at the hub cannot reach size 4 at tau 0.7.
        candidates = [
            (v, two_groups.probability("hub", v))
            for v in two_groups.neighbors("hub")
        ]
        result = _insearch_topk_prune(
            two_groups, ["hub"], candidates, 3,
            0.7 * (1 - FLOAT_EPS), 4,
        )
        assert result is None

    def test_shrinks_candidates(self, two_groups):
        candidates = [
            (v, 1.0) for v in two_groups.nodes()
        ]
        result = _insearch_topk_prune(
            two_groups, [], candidates, 3, 0.7 * (1 - FLOAT_EPS), 4
        )
        assert result is not None
        kept = {v for v, _ in result}
        assert "hub" not in kept
        assert {"a1", "a2", "a3", "a4"} <= kept

    def test_no_op_when_core_full(self):
        g = make_clique(6, 0.99)
        candidates = [(v, 1.0) for v in g.nodes()]
        result = _insearch_topk_prune(
            g, [], candidates, 3, 0.5 * (1 - FLOAT_EPS), 4
        )
        assert result is candidates  # identity: nothing was removed


def _sweep(g, k, tau, start=0):
    """One sweep over all of ``g`` from local id ``start``; segments as
    node lists."""
    compiled = compile_graph(g)
    nodes = compiled.nodes
    n = compiled.n
    rows = induced_rows(compiled, range(n))
    segments = _sweep_split(
        rows, [0] * n, [0.0] * n, bytearray(n), list(range(n)), start,
        k, threshold_floor(tau),
    )
    return [[nodes[i] for i in segment] for segment in segments]


class TestSweepSplit:
    def test_no_cut_in_strong_clique(self):
        g = make_clique(6, 0.95)
        segments = _sweep(g, 3, 0.5)
        assert len(segments) == 1  # the whole absorption order
        assert sorted(segments[0]) == sorted(g.nodes())

    def test_start_node_decides_which_cuts_show(self):
        g = make_second_sweep_graph()
        first = _sweep(g, 2, 0.3)
        assert len(first) == 1 and first[0][-1] == 5
        second = _sweep(g, 2, 0.3, start=5)
        assert [sorted(s) for s in second] == [[0, 2, 4, 5, 6], [1, 3]]

    def test_bridge_cut_found(self):
        # Two strong 4-cliques joined by a single weak edge.
        g = make_clique(4, 0.95)
        for u_off in range(4, 8):
            for v_off in range(u_off + 1, 8):
                g.add_edge(u_off, v_off, 0.95)
        g.add_edge(0, 4, 0.2)
        segments = _sweep(g, 3, 0.5)
        assert len(segments) >= 2
        # The weak edge crosses segments, and every segment is inside
        # one of the two cliques.
        side = {u: i for i, segment in enumerate(segments) for u in segment}
        assert side[0] != side[4]
        for segment in segments:
            assert set(segment) <= {0, 1, 2, 3} or set(segment) <= {
                4, 5, 6, 7,
            }

    def test_disconnected_component_splits(self):
        g = UncertainGraph(edges=[(0, 1, 0.9), (2, 3, 0.9)])
        segments = _sweep(g, 1, 0.5)
        groups = [set(s) for s in segments]
        assert {0, 1} in groups and {2, 3} in groups

    def test_all_edges_preserved_or_deleted_consistently(self):
        g = make_random_graph(14, 0.4, seed=5)
        segments = _sweep(g, 3, 0.5)
        side = {u: i for i, segment in enumerate(segments) for u in segment}
        assert sorted(side) == sorted(g.nodes())
        # Every segment boundary is a low-probability cut (Lemma 5).
        for b in range(1, len(segments)):
            inside = {u for segment in segments[:b] for u in segment}
            cut = [p for u, v, p in g.edges() if (u in inside) != (v in inside)]
            assert is_low_probability_cut(cut, 3, 0.5)


class TestInsearchPruneDuplicateProbabilities:
    """Pin the bisect-removal invariant of the legacy in-search peel.

    When a peeled neighbor's probability is duplicated in a node's sorted
    incident-value list, ``_insearch_topk_prune`` removes *some* equal
    entry by bisect — sound only because equal floats are interchangeable
    in a product.  The compiled kernel peel never faces the ambiguity (it
    indexes by node id), so both must land on the same fixpoint.
    """

    @staticmethod
    def _duplicate_graph():
        from repro import UncertainGraph

        # v carries duplicate 0.5 edges to a (peeled: its only edge) and
        # to b (a core member).  Peeling a forces a bisect removal of one
        # of v's duplicated 0.5 values; v must survive on the other one:
        # top-2 = 0.5 * 0.8 = 0.4 >= tau_floor(0.4).
        graph = UncertainGraph()
        for u, v in (("t1", "t2"), ("t1", "t3"), ("t2", "t3")):
            graph.add_edge(u, v, 0.8)
        graph.add_edge("b", "t1", 0.8)
        graph.add_edge("b", "t2", 0.8)
        graph.add_edge("v", "t1", 0.8)
        graph.add_edge("v", "b", 0.5)
        graph.add_edge("v", "a", 0.5)
        return graph

    def test_duplicate_value_removal_keeps_survivor(self):
        graph = self._duplicate_graph()
        candidates = [(u, 1.0) for u in sorted(graph.nodes(), key=str)]
        result = _insearch_topk_prune(
            graph, [], candidates, 2, 0.4 * (1 - FLOAT_EPS), 3
        )
        assert result is not None
        kept = {u for u, _ in result}
        assert kept == {"t1", "t2", "t3", "b", "v"}

    def test_fixpoint_matches_compiled_peel(self):
        from repro.core.kernel import compile_component
        from repro.core.topk_core import topk_peel_masks
        from repro.utils.validation import threshold_floor

        graph = self._duplicate_graph()
        candidates = [(u, 1.0) for u in sorted(graph.nodes(), key=str)]
        for tau in (0.2, 0.4, 0.41, 0.6):
            floor = threshold_floor(tau)
            legacy = _insearch_topk_prune(graph, [], candidates, 2, floor, 3)
            legacy_kept = (
                None if legacy is None else {u for u, _ in legacy}
            )
            comp = compile_component(graph)
            alive = topk_peel_masks(comp, comp.full_mask, 0, 2, floor)
            assert alive is not None
            kernel_kept = set(comp.decompile(alive))
            if kernel_kept and len(kernel_kept) >= 3:
                assert legacy_kept == kernel_kept
            else:
                # Fewer than min_size survivors: legacy reports a dead
                # branch instead of a set.
                assert legacy_kept is None
