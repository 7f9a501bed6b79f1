"""Delta-compile parity: a patched CompiledGraph equals a cold re-lower.

:meth:`CompiledGraph.apply_delta` promises bit-identity — after replaying
a mutation-log slice, the patched artifact must match
:func:`compile_graph` on the mutated graph in node order, the
insertion-order CSR (fully mapped ids *and* exact float sequences), the
search view derived for every component, and the deterministic core
numbers.
These tests pin that promise per op, over randomized op streams, and
for the documented refusal case (``remove_node`` returns ``False``
without touching anything).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import UncertainGraph
from repro.core.kernel import derive_component_view
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    survival_peel,
)
from tests.core.test_compiled_graph import assert_component_views_equal

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_bit_identical(patched: CompiledGraph, cold: CompiledGraph) -> None:
    assert patched.version == cold.version
    assert patched.nodes == cold.nodes
    assert patched.index == cold.index
    assert patched.row_offsets == cold.row_offsets
    assert patched.nbr_probs == cold.nbr_probs  # exact float sequences
    assert patched.sort_rank == cold.sort_rank
    # Ids are lowered lazily per row: compare them with every row mapped.
    patched._finish_lowering()
    cold._finish_lowering()
    assert patched.nbr_ids == cold.nbr_ids
    assert_component_views_equal(patched, cold)
    assert list(patched.core_ids()) == list(cold.core_ids())


def seed_graph() -> UncertainGraph:
    g = UncertainGraph()
    for u, v, p in [
        ("a", "b", 0.9),
        ("b", "c", 0.8),
        ("a", "c", 0.5),
        ("c", "d", 0.7),
        ("x", "y", 0.6),
    ]:
        g.add_edge(u, v, p)
    return g


def patch_through(graph: UncertainGraph, base: CompiledGraph) -> CompiledGraph:
    ops = graph.mutations_since(base.version)
    assert ops is not None
    assert base.apply_delta(ops)
    return base


class TestSingleOps:
    def test_reweight(self):
        g = seed_graph()
        cpg = compile_graph(g)
        g.set_probability("b", "c", 0.15)
        assert_bit_identical(patch_through(g, cpg), compile_graph(g))

    def test_add_edge_between_existing_nodes(self):
        g = seed_graph()
        cpg = compile_graph(g)
        g.add_edge("d", "x", 0.4)
        assert_bit_identical(patch_through(g, cpg), compile_graph(g))

    def test_add_edge_with_new_endpoints(self):
        g = seed_graph()
        cpg = compile_graph(g)
        g.add_edge("new1", "new2", 0.35)
        assert_bit_identical(patch_through(g, cpg), compile_graph(g))

    def test_remove_edge(self):
        g = seed_graph()
        cpg = compile_graph(g)
        g.remove_edge("a", "c")
        assert_bit_identical(patch_through(g, cpg), compile_graph(g))

    def test_add_isolated_node(self):
        g = seed_graph()
        cpg = compile_graph(g)
        g.add_node("loner")
        assert_bit_identical(patch_through(g, cpg), compile_graph(g))

    def test_empty_slice_is_a_noop(self):
        g = seed_graph()
        cpg = compile_graph(g)
        assert cpg.apply_delta(()) is True
        assert_bit_identical(cpg, compile_graph(g))


class TestRefusal:
    def test_remove_node_refused_without_side_effects(self):
        g = seed_graph()
        cpg = compile_graph(g)
        reference = compile_graph(g)
        g.set_probability("a", "b", 0.2)  # patchable...
        g.remove_node("c")  # ...but this poisons the whole slice
        ops = g.mutations_since(cpg.version)
        assert ops is not None
        assert cpg.apply_delta(ops) is False
        # Refusal must leave the artifact untouched, reweight included.
        assert_bit_identical(cpg, reference)


class TestMemoInteraction:
    def test_patch_after_view_derivation(self):
        # Derive every component's view (mapping its rows) and the core
        # numbers first: the patch must still match a cold re-lower.
        g = seed_graph()
        cpg = compile_graph(g)
        for members in (["a", "b", "c", "d"], ["x", "y"]):
            derive_component_view(cpg, members)
        list(cpg.core_ids())
        g.set_probability("a", "b", 0.1)
        g.add_edge("d", "y", 0.55)
        assert_bit_identical(patch_through(g, cpg), compile_graph(g))

    def test_patched_artifact_peels_identically(self):
        g = seed_graph()
        cpg = compile_graph(g)
        g.set_probability("a", "c", 0.95)
        g.add_edge("b", "d", 0.85)
        patched = patch_through(g, cpg)
        cold = compile_graph(g)
        for k, tau in [(1, 0.3), (2, 0.5), (2, 0.1)]:
            assert survival_peel(patched, k, tau) == survival_peel(
                cold, k, tau
            )


@st.composite
def op_streams(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    g = UncertainGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(st.floats(min_value=0.05, max_value=1.0)))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "reweight", "add_node"]),
                st.integers(min_value=0, max_value=n + 2),
                st.integers(min_value=0, max_value=n + 2),
                st.floats(min_value=0.05, max_value=1.0),
            ),
            max_size=15,
        )
    )
    # Rows read before the patch: the artifact starts partly mapped.
    premapped = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return g, ops, premapped


@relaxed
@given(op_streams())
def test_randomized_streams_patch_bit_identically(case):
    graph, ops, premapped = case
    cpg = compile_graph(graph)
    for i in premapped:
        cpg.row(i)
    applied = 0
    for op, u, v, p in ops:
        if u == v:
            continue
        if op == "add" and not graph.has_edge(u, v):
            graph.add_edge(u, v, p)
        elif op == "remove" and graph.has_edge(u, v):
            graph.remove_edge(u, v)
        elif op == "reweight" and graph.has_edge(u, v):
            graph.set_probability(u, v, p)
        elif op == "add_node" and not graph.has_node(u):
            graph.add_node(u)
        else:
            continue
        applied += 1
    assert patch_through(graph, cpg) is cpg
    assert_bit_identical(cpg, compile_graph(graph))
    assert cpg.version == graph.version
