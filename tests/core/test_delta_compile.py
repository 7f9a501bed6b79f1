"""Delta-compile parity: a patched CompiledGraph equals a cold re-lower.

:meth:`CompiledGraph.apply_delta` promises bit-identity: after replaying
a mutation-log slice, the patched lowering matches :func:`compile_graph`
on the mutated graph (see :func:`tests.core.support.assert_bit_identical`)
over randomized op streams, and a slice holding a ``remove_node`` is
refused without touching anything.  The single-op cases are rows of
:data:`tests.core.test_conformance.PINNED`.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import UncertainGraph
from repro.core.prune_kernel import CompiledGraph, compile_graph
from tests.core.support import assert_bit_identical, seed_graph


def patch_through(graph: UncertainGraph, base: CompiledGraph) -> CompiledGraph:
    ops = graph.mutations_since(base.version)
    assert ops is not None
    assert base.apply_delta(ops)
    return base


class TestSingleOps:
    def test_empty_slice_is_a_noop(self) -> None:
        g = seed_graph()
        cpg = compile_graph(g)
        assert cpg.apply_delta(()) is True
        assert_bit_identical(cpg, compile_graph(g))


class TestRefusal:
    def test_remove_node_refused_without_side_effects(self) -> None:
        g = seed_graph()
        cpg = compile_graph(g)
        reference = compile_graph(g)
        g.set_probability("a", "b", 0.2)  # patchable...
        g.remove_node("c")  # ...but this poisons the whole slice
        ops = g.mutations_since(cpg.version)
        assert ops is not None
        assert cpg.apply_delta(ops) is False
        # Refusal leaves the lowering untouched, the reweight included.
        assert_bit_identical(cpg, reference)


@st.composite
def op_streams(draw: st.DrawFn) -> tuple:
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
    # Rows read before the patch: the lowering starts partly mapped.
    premapped = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return g, ops, premapped


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(op_streams())
def test_randomized_streams_patch_bit_identically(case: tuple) -> None:
    graph, ops, premapped = case
    cpg = compile_graph(graph)
    for i in premapped:
        cpg.row(i)
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
    assert patch_through(graph, cpg) is cpg
    assert_bit_identical(cpg, compile_graph(graph))
    assert cpg.version == graph.version
