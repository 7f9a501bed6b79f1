"""Unit tests for the cut-based optimization (Section III-C)."""

import importlib
import itertools
import math
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st, target

from repro import UncertainGraph, cut_optimize, maximal_cliques
from repro.core.bruteforce import brute_force_maximal_cliques
from repro.core.cut_pruning import (
    _PEELED,
    _fringe_peel,
    _split,
    _sweep_split,
    cut_rows,
    induced_rows,
)
from repro.core.prune_kernel import compile_graph, topk_peel
from repro.errors import ParameterError
from repro.utils.validation import threshold_floor
from tests.conftest import (
    make_clique,
    make_random_graph,
    make_second_sweep_graph,
)
from tests.core.oracles import is_low_probability_cut, top_k_product
from tests.core.support import PROBABILITY_PALETTE, uncertain_graphs


class TestCutProbability:
    def test_top_k_product(self):
        assert top_k_product([0.9, 0.5, 0.8], 2) == pytest.approx(0.72)

    def test_small_cut_is_zero(self):
        assert top_k_product([0.9], 2) == 0.0

    def test_k_zero_is_one(self):
        assert top_k_product([0.9], 0) == 1.0

    def test_empty_cut(self):
        assert top_k_product([], 1) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            top_k_product([0.5], -1)


class TestIsLowProbabilityCut:
    def test_low(self):
        assert is_low_probability_cut([0.3, 0.3, 0.3], 3, 0.1)

    def test_not_low(self):
        assert not is_low_probability_cut([0.9, 0.9, 0.9], 3, 0.5)

    def test_small_cut_always_low(self):
        assert is_low_probability_cut([0.99], 2, 0.0001)


def _three_blocks() -> UncertainGraph:
    """Three strong 4-cliques in a chain, joined by low-probability cuts
    (three and four edges), plus a fringe node hanging off the first."""
    g = UncertainGraph()
    for block in ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                g.add_edge(u, v, 0.9)
    for u, v, p in [
        (3, 4, 0.5), (2, 5, 0.4), (1, 6, 0.3),
        (7, 8, 0.6), (6, 9, 0.6), (5, 10, 0.6), (4, 11, 0.6),
        (12, 0, 0.9), (12, 1, 0.9),
    ]:
        g.add_edge(u, v, p)
    return g


class TestCutOptimize:
    def test_input_not_modified(self, two_groups):
        before = two_groups.copy()
        version = two_groups.version
        keys = two_groups.component_keys()
        cut_optimize(two_groups, 3, 0.7)
        assert two_groups == before
        assert list(two_groups.nodes()) == list(before.nodes())
        assert two_groups.version == version
        assert two_groups.component_keys() == keys

    def test_no_graph_mutation_and_one_compile(self, monkeypatch):
        g = _three_blocks()

        def forbidden(*args, **kwargs):
            raise AssertionError("cut_optimize must not call this")

        for name in (
            "add_node", "add_edge", "set_probability",
            "remove_edge", "remove_node", "remove_nodes",
        ):
            monkeypatch.setattr(UncertainGraph, name, forbidden)
        # The cut runs on the compile's rows: exactly one lowering, made
        # through the cut module's own import.  The package re-exports
        # same-named functions, so modules are looked up by full name.
        cut_module = importlib.import_module("repro.core.cut_pruning")
        lowerings = []
        lower = cut_module.compile_graph

        def counted(graph):
            lowerings.append(graph)
            return lower(graph)

        monkeypatch.setattr(cut_module, "compile_graph", counted)
        for module in ("repro.core.prune_kernel", "repro.core.topk_core"):
            monkeypatch.setattr(
                importlib.import_module(module), "compile_graph", forbidden
            )
        result = cut_optimize(g, 3, 0.5)
        assert lowerings == [g]
        assert result.cuts_found > 0
        assert result.fringe_nodes_peeled > 0

    def test_pinned_cuts_and_component_order(self):
        # Pins the sweep (start node, tie-breaks) and the output order
        # (by lowest node id): a change to any of them shows up here.
        g = _three_blocks()
        result = cut_optimize(g, 3, 0.5)
        assert result.cuts_found == 2
        assert result.edges_removed == 9
        assert result.fringe_nodes_peeled == 1
        assert [c.nodes() for c in result.components] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12],
        ]
        kept = sum(c.num_edges for c in result.components)
        assert kept + result.edges_removed == g.num_edges

    def test_pinned_parts_of_a_cut_are_not_swept_again(self):
        # The sweep cuts one segment off; the rest is re-peeled (two
        # nodes leave) and final.  A second sweep of it, which the paper
        # runs, found another cut and peeled three more nodes: 2 cuts, 8
        # edges removed, 5 peeled, pieces of 5 and 1 x 5 nodes.  Lemma 5
        # cuts are an optimization, so the answers are the same.
        g = make_random_graph(10, 0.4, seed=22)
        result = cut_optimize(g, 2, 0.2)
        assert result.cuts_found == 1
        assert result.edges_removed == 3
        assert result.fringe_nodes_peeled == 2
        assert [c.nodes() for c in result.components] == [
            [0, 2, 3, 4, 6, 7, 8, 9], [1], [5],
        ]
        cut = set(maximal_cliques(g, 2, 0.2, cut=True))
        assert cut == set(brute_force_maximal_cliques(g, 2, 0.2))

    def test_one_sweep_per_piece(self):
        # The sweep from node 0 flags no boundary, so the piece is final:
        # no repeat sweep from the far end (which would cut {1, 3} off).
        # Lemma 5 cuts are an optimization, so the answers are the same.
        g = make_second_sweep_graph()
        result = cut_optimize(g, 2, 0.3)
        assert result.cuts_found == 0
        assert result.edges_removed == 0
        assert result.fringe_nodes_peeled == 0
        assert [c.nodes() for c in result.components] == [list(range(7))]
        cut = set(maximal_cliques(g, 2, 0.3, cut=True))
        assert cut == set(maximal_cliques(g, 2, 0.3, cut=False))
        assert cut == set(brute_force_maximal_cliques(g, 2, 0.3))

    def test_weak_bridge_severed(self, two_groups):
        result = cut_optimize(two_groups, 3, 0.7)
        comp_sets = [set(c.nodes()) for c in result.components]
        groups_a = {"a1", "a2", "a3", "a4"}
        groups_b = {"b1", "b2", "b3", "b4"}
        assert any(groups_a <= cs and not (groups_b & cs) for cs in comp_sets)
        assert result.cuts_found >= 1
        assert result.edges_removed >= 1

    def test_strong_graph_untouched(self):
        g = make_clique(6, 0.95)
        result = cut_optimize(g, 3, 0.5)
        assert result.cuts_found == 0
        assert len(result.components) == 1
        assert result.components[0] == g

    def test_disconnected_input(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (3, 4, 0.9)])
        result = cut_optimize(g, 1, 0.5)
        assert len(result.components) == 2

    def test_empty_graph(self):
        result = cut_optimize(UncertainGraph(), 3, 0.5)
        assert result.components == []

    def test_all_nodes_preserved(self):
        g = make_random_graph(15, 0.4, seed=3)
        result = cut_optimize(g, 3, 0.3)
        seen = [u for c in result.components for u in c.nodes()]
        assert sorted(seen) == sorted(g.nodes())

    def test_components_are_edge_disjoint_pieces(self):
        g = make_random_graph(15, 0.4, seed=9)
        result = cut_optimize(g, 3, 0.3)
        total_edges = sum(c.num_edges for c in result.components)
        assert total_edges == g.num_edges - result.edges_removed

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k,tau", [(2, 0.3), (3, 0.1), (3, 0.6)])
    def test_lemma5_no_maximal_clique_lost(self, seed, k, tau):
        g = make_random_graph(12, 0.5, seed=seed)
        cliques = brute_force_maximal_cliques(g, k, tau)
        result = cut_optimize(g, k, tau)
        comp_sets = [set(c.nodes()) for c in result.components]
        for clique in cliques:
            assert any(clique <= cs for cs in comp_sets), (
                f"maximal clique {set(clique)} split by cut optimization"
            )

    def test_parameter_validation(self, triangle):
        with pytest.raises(ParameterError):
            cut_optimize(triangle, -1, 0.5)
        with pytest.raises(ParameterError):
            cut_optimize(triangle, 2, 1.5)


# ----------------------------------------------------------------------
# The peel re-tests only what can fail it
# ----------------------------------------------------------------------


def _marked(rows):
    """``rows``' connected parts, with the ``owner`` marks that
    :func:`cut_rows` gives its initial pieces."""
    owner = [0] * len(rows)
    return _split(rows, owner, list(range(len(rows))), count(1)), owner


@st.composite
def _k_taus(draw):
    """``(k, tau)`` with tau a product of ``k`` palette values, taken in
    ascending order as the peel multiplies, or nudged just above it: a
    node's top-k product then sits at or just below the floor."""
    k = draw(st.integers(min_value=1, max_value=3))
    values = draw(st.lists(
        st.sampled_from(PROBABILITY_PALETTE), min_size=k, max_size=k
    ))
    tau = math.prod(sorted(values))
    if draw(st.booleans()):
        tau = min(tau * (1 + 1e-6), 1.0)
    return k, tau


@settings(max_examples=60, deadline=None)
@given(uncertain_graphs(), _k_taus(), st.data())
def test_topk_survivors_start_stable(graph, k_tau, data):
    # The cut's core=True: on the (Top_k, tau)-core of every peel route
    # no fringe peel of an initial piece removes anything, so skipping
    # it changes no piece or counter.
    k, tau = k_tau
    compiled = compile_graph(graph)
    members = data.draw(st.lists(st.sampled_from(graph.nodes()), unique=True))
    whole = topk_peel(compiled, k, tau)
    topk_peel(compiled, k, tau / 2)  # the second whole-graph peel indexes
    assert compiled._topk_levels.get(k) is not None
    routes = {
        "whole": whole,
        "bisect": topk_peel(compiled, k, tau),
        "members": topk_peel(compiled, k, tau, members=members),
    }
    assert routes["bisect"] == whole
    floor = threshold_floor(tau)
    for route, survivors in routes.items():
        ids = sorted(compiled.index[u] for u in survivors)
        rows = induced_rows(compiled, ids)
        pieces, owner = _marked(rows)
        for piece in pieces:
            assert not _fringe_peel(rows, owner, piece, k, floor), route
        assert cut_rows(rows, k, tau, core=True) == cut_rows(rows, k, tau)


@settings(max_examples=100, deadline=None)
@given(uncertain_graphs(), _k_taus(), st.data())
def test_seeded_peel_equals_full_peel_after_any_split(graph, k_tau, data):
    # Peel to the core, split its nodes at random (as a cut's segments,
    # low or not), and peel each part from the nodes that lost an edge:
    # every other node still passes, so the same nodes leave as when
    # every node is tested.
    k, tau = k_tau
    floor = threshold_floor(tau)
    rows = induced_rows(compile_graph(graph), range(len(graph)))
    pieces, owner = _marked(rows)
    for piece in pieces:
        _fringe_peel(rows, owner, piece, k, floor)
    before = list(owner)
    sides = data.draw(st.lists(
        st.integers(0, 2), min_size=len(rows), max_size=len(rows)
    ))
    segments: dict[int, list[int]] = {}
    for i, mark in enumerate(before):
        if mark != _PEELED:
            segments.setdefault(3 * mark + sides[i], []).append(i)
            owner[i] = 3 * mark + sides[i]
    marks = count(3 * max(before, default=0) + 3)
    for segment in segments.values():
        for part in _split(rows, owner, segment, marks):
            seeds = [
                i for i in part
                if any(
                    before[j] == before[i] and owner[j] != owner[i]
                    for j, _ in rows[i]
                )
            ]
            full = list(owner)
            peeled = _fringe_peel(rows, owner, part, k, floor, seeds)
            assert _fringe_peel(rows, full, part, k, floor) == peeled
            assert owner == full


@st.composite
def _blocks(draw):
    """Two to three blocks of palette edges (many repeats) joined by a
    few links, so sweeps find cuts."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=2, max_size=3))
    graph = UncertainGraph(nodes=range(sum(sizes)))
    starts = list(itertools.accumulate(sizes, initial=0))
    blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
    for block in blocks:
        for u, v in itertools.combinations(block, 2):
            if draw(st.integers(0, 3)):
                graph.add_edge(u, v, draw(st.sampled_from(PROBABILITY_PALETTE)))
    for a, b in itertools.combinations(blocks, 2):
        links = st.tuples(st.sampled_from(a), st.sampled_from(b))
        for u, v in draw(st.lists(links, max_size=3, unique=True)):
            graph.add_edge(u, v, draw(st.sampled_from(PROBABILITY_PALETTE)))
    return graph


def _full_repeel_cut(rows, k, tau):
    """:func:`cut_rows` with every node of every piece re-tested by an
    eager peel: the initial pieces are peeled, and the remnants swept
    once; each connected part of a sweep's segments is peeled again, and
    its remnants are final, never swept."""
    floor = threshold_floor(tau)
    n = len(rows)
    owner, marks = [0] * n, count(1)
    conn, in_s = [0.0] * n, bytearray(n)
    cuts = 0
    finished: list[list[int]] = []

    def peel(piece):
        mark = owner[piece[0]]
        if len(piece) > 1:
            _fringe_peel(rows, owner, piece, k, floor)
        finished.extend([i] for i in piece if owner[i] != mark)
        return _split(rows, owner, [i for i in piece if owner[i] == mark],
                      marks)

    for piece in [p for q in _split(rows, owner, list(range(n)), marks)
                  for p in peel(q)]:
        segments = _sweep_split(
            rows, owner, conn, in_s, piece, piece[0], k, floor
        )[0] if len(piece) > 1 else [piece]
        if len(segments) == 1:
            finished.append(piece)
            continue
        cuts += len(segments) - 1
        for segment in segments:
            mark = next(marks)
            for i in segment:
                owner[i] = mark
        for segment in segments:
            for part in _split(rows, owner, segment, marks):
                finished += peel(part)
    finished.sort()
    kept = sum(
        owner[j] == owner[i] != _PEELED for i, row in enumerate(rows)
        for j, _ in row
    )
    peeled = owner.count(_PEELED)
    return finished, cuts, (sum(map(len, rows)) - kept) // 2, peeled


@settings(max_examples=200, deadline=None)
@given(_blocks(), _k_taus())
def test_seeded_repeel_equals_full_repeel(graph, k_tau):
    # On a (Top_k, tau)-core every node the cut peels falls after a
    # sweep's cut, where only the crossing edges' endpoints are
    # re-tested and other rows are built lazily.  Re-testing every node
    # of every part the cut leaves instead gives the same pieces and
    # counters.
    k, tau = k_tau
    compiled = compile_graph(graph)
    ids = sorted(compiled.index[u] for u in topk_peel(compiled, k, tau))
    rows = induced_rows(compiled, ids)
    seeded = cut_rows(rows, k, tau, core=True)
    target(float(seeded[3]))  # steer towards examples that peel
    assert seeded == cut_rows(rows, k, tau) == _full_repeel_cut(rows, k, tau)


@settings(max_examples=100, deadline=None)
@given(_blocks(), _k_taus())
def test_crossing_endpoints_are_the_nodes_that_lost_an_edge(graph, k_tau):
    # The sweep reads the endpoints of its crossing edges off its heap
    # at each flagged boundary: exactly the nodes with a neighbour in
    # another segment, as a scan of every row finds them.
    k, tau = k_tau
    compiled = compile_graph(graph)
    rows = induced_rows(compiled, range(compiled.n))
    pieces, owner = _marked(rows)
    n = len(rows)
    for piece in pieces:
        segments, ends = _sweep_split(
            rows, owner, [0.0] * n, bytearray(n), piece, piece[0], k,
            threshold_floor(tau),
        )
        run = {i: r for r, segment in enumerate(segments) for i in segment}
        assert ends == {
            i for i in piece if any(run[j] != run[i] for j, _ in rows[i])
        }


@settings(max_examples=200, deadline=None)
@given(_blocks(), _k_taus())
def test_sweep_absorbs_the_tightest_node_and_flags_the_low_cuts(graph, k_tau):
    # The sweep is Stoer-Wagner's maximum-adjacency phase ([29]): each
    # node it absorbs has the largest connection weight to the absorbed
    # set (summed in absorption order, as the sweep sums it; ties to the
    # lowest id).  A boundary is flagged exactly when the edges crossing
    # it form a low-probability cut by Eq. (7).
    k, tau = k_tau
    rows = induced_rows(compile_graph(graph), range(len(graph)))
    pieces, owner = _marked(rows)
    n = len(rows)
    for piece in pieces:
        segments, _ = _sweep_split(
            rows, owner, [0.0] * n, bytearray(n), piece, piece[0], k,
            threshold_floor(tau),
        )
        order = [i for segment in segments for i in segment]
        assert sorted(order) == piece
        weight = dict.fromkeys(piece, 0.0)
        for u in order:
            tightest = max(weight.values())
            assert u == min(v for v, w in weight.items() if w == tightest)
            del weight[u]
            for v, p in rows[u]:
                if v in weight:
                    weight[v] += p
        flagged = set(itertools.accumulate(map(len, segments[:-1])))
        absorbed: set[int] = set()
        for size, u in enumerate(order[:-1], start=1):
            absorbed.add(u)
            crossing = [
                p for i in absorbed for j, p in rows[i] if j not in absorbed
            ]
            low = is_low_probability_cut(crossing, k, tau)
            assert low == (size in flagged)


@settings(max_examples=100, deadline=None)
@given(_blocks(), _k_taus(), st.booleans())
def test_each_piece_is_swept_once(graph, k_tau, core):
    # Only the pieces of the initial split are swept (a (Top_k,
    # tau)-core's peel removes nothing), one sweep each: nothing a cut
    # leaves is swept again.
    k, tau = k_tau
    compiled = compile_graph(graph)
    ids = sorted(compiled.index[u] for u in topk_peel(compiled, k, tau))
    rows = induced_rows(compiled, ids)
    cut_module = importlib.import_module("repro.core.cut_pruning")
    swept: list[list[int]] = []

    def counting(rows, owner, conn, in_s, piece, *rest):
        swept.append(list(piece))
        return _sweep_split(rows, owner, conn, in_s, piece, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cut_module, "_sweep_split", counting)
        pieces, cuts, _, _ = cut_rows(rows, k, tau, core=core)
    initial, _ = _marked(rows)
    assert swept == [piece for piece in initial if len(piece) > 1]
    assert len(pieces) >= len(initial) + cuts


def test_lazy_row_keeps_edges_to_pending_nodes():
    # Seeds a and b fall at once (one edge each, k = 2).  Popping b
    # first builds y's list lazily: it must still hold its edge to a,
    # which is condemned but not yet popped, or popping a later deletes
    # one of y's 0.9 edges instead and wrongly peels y.
    a, b, y, c, d = range(5)
    graph = UncertainGraph(nodes=range(5), edges=[
        (a, y, 0.5), (b, y, 0.5), (y, c, 0.9), (y, d, 0.9), (c, d, 0.9),
    ])
    rows = induced_rows(compile_graph(graph), range(5))
    floor = threshold_floor(0.25)
    outcomes: list[list[int]] = []
    for seeds in ([a, b], None):
        (piece,), owner = _marked(rows)
        assert _fringe_peel(rows, owner, piece, 2, floor, seeds)
        outcomes.append(owner)
    seeded, full = outcomes
    assert seeded == full
    assert [i for i in range(5) if seeded[i] == _PEELED] == [a, b]
