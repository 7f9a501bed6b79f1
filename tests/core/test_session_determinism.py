"""Cross-process determinism of the session queries.

With string nodes, ``set`` iteration order depends on ``PYTHONHASHSEED``,
which only varies *across* processes — an in-process parity suite can
never catch a hash-order leak.  These tests re-run queries in
subprocesses pinned to different hash seeds and require bit-identical
output: enumeration yield order, the maximum clique and every stats
counter of both engines; the anchored queries, guarding the fix that
builds the anchored region from adjacency order instead of a set
(``PreparedGraph.cliques_containing`` / ``containing_clique_exists``);
the cut; and the approximate miner.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parents[1]

#: Runs in a fresh interpreter: anchored queries over a string-node
#: graph, emitting the clique *yield order* (not just the clique set).
_SCRIPT = """
import json
from repro import UncertainGraph
from repro.core.session import PreparedGraph

g = UncertainGraph()
edges = [
    ("alpha", "bravo", 0.9), ("alpha", "carol", 0.85),
    ("bravo", "carol", 0.8), ("alpha", "delta", 0.9),
    ("carol", "delta", 0.75), ("bravo", "delta", 0.7),
    ("alpha", "echo", 0.95), ("echo", "foxtrot", 0.9),
    ("alpha", "foxtrot", 0.8), ("delta", "golf", 0.85),
    ("alpha", "golf", 0.7), ("echo", "golf", 0.6),
]
for u, v, p in edges:
    g.add_edge(u, v, p)
session = PreparedGraph(g)
ordered = [
    sorted(clique)
    for clique in session.cliques_containing("alpha", 2, 0.05)
]
exists = session.containing_clique_exists(["alpha", "carol"], 2, 0.05)
print(json.dumps({"order": ordered, "exists": exists}))
"""


def _run(hashseed: str) -> str:
    return _run_script(_SCRIPT, hashseed)


#: The approximate miner's greedy growth breaks ties by neighbor order
#: of an anchor node; before the fix the anchor was ``list(frozenset)[0]``
#: — hash order — and this exact fixture returned {aa,bb,dd} under
#: PYTHONHASHSEED=0 but {aa,bb,cc} under other seeds.  The side-edge
#: probabilities and (samples, seed) pair are chosen so the sampler only
#: ever materializes the aa-bb edge, leaving the tie-break as the sole
#: source of variation.
_APPROX_SCRIPT = """
import json
from repro import UncertainGraph
from repro.core.approximate import approximate_maximal_cliques

g = UncertainGraph()
for u, v, p in [
    ("aa", "bb", 0.9),
    ("aa", "cc", 0.1),
    ("bb", "dd", 0.1),
    ("aa", "dd", 0.1),
    ("bb", "cc", 0.1),
]:
    g.add_edge(u, v, p)
result = approximate_maximal_cliques(g, 1, 0.008, samples=3, seed=0)
print(json.dumps(sorted(sorted(c) for c in result)))
"""


def _run_script(script: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_approximate_growth_is_hash_seed_invariant() -> None:
    """Regression: the greedy-growth anchor must not follow frozenset
    hash order (RPL009 finding fixed in approximate._grow_to_maximal)."""
    outputs = {
        _run_script(_APPROX_SCRIPT, seed) for seed in ("0", "1", "4242")
    }
    assert len(outputs) == 1, (
        "approximate output varies with PYTHONHASHSEED:\n"
        + "\n".join(sorted(outputs))
    )
    assert json.loads(next(iter(outputs))) == [["aa", "bb", "cc"]]


def test_anchored_queries_are_hash_seed_invariant() -> None:
    outputs = {_run(seed) for seed in ("0", "1", "4242")}
    assert len(outputs) == 1, (
        "anchored query output varies with PYTHONHASHSEED:\n"
        + "\n".join(sorted(outputs))
    )
    payload = json.loads(next(iter(outputs)))
    assert payload["exists"] is True
    assert payload["order"], "fixture must actually yield cliques"
    assert all(["alpha" in clique for clique in payload["order"]])


#: The cut optimization over a string-labelled graph: before the sweep
#: ran on dense int ids it walked Python sets, and this exact fixture
#: found 2 cuts / 44 removed edges under PYTHONHASHSEED 0, 1 and 3 but
#: 3 cuts / 74 removed edges under seed 2.
_CUT_SCRIPT = """
import json
from repro import UncertainGraph, cut_optimize
from repro.core.enumeration import EnumerationStats
from repro.core.session import PreparedGraph
from repro.core.topk_core import topk_core
from repro.datasets import load_dataset

base = load_dataset("dblp_like", scale=0.3)
g = UncertainGraph()
for u, v, p in base.edges():
    g.add_edge(f"n{u}", f"n{v}", p)
k, tau = 5, 0.05
core = topk_core(g, k, tau).nodes
pruned = g.induced_subgraph([u for u in g if u in core])
result = cut_optimize(pruned, k, tau)
stats = EnumerationStats()
order = [
    sorted(clique)
    for clique in PreparedGraph(g).maximal_cliques(k, tau, stats=stats)
]
print(json.dumps({
    "cuts_found": stats.cuts_found,
    "cut_edges_removed": stats.cut_edges_removed,
    "components": [c.nodes() for c in result.components],
    "order": order,
}))
"""


def test_cut_optimization_is_hash_seed_invariant() -> None:
    outputs = {_run_script(_CUT_SCRIPT, seed) for seed in "0123"}
    assert len(outputs) == 1, (
        "cut optimization output varies with PYTHONHASHSEED:\n"
        + "\n".join(
            json.dumps({key: value for key, value in json.loads(out).items()
                        if key.startswith("cut")})
            for out in sorted(outputs)
        )
    )
    payload = json.loads(next(iter(outputs)))
    assert payload["cuts_found"] > 0, "fixture must actually cut"
    assert payload["order"], "fixture must actually yield cliques"


#: Enumeration and maximum over three string-labelled components, with
#: both engines: the yield order, the maximum and every stats counter.
_QUERY_SCRIPT = """
import json
import random
from dataclasses import asdict
from repro import UncertainGraph
from repro.core.enumeration import EnumerationStats
from repro.core.maximum import MaximumSearchStats
from repro.core.session import PreparedGraph

rng = random.Random(7)
g = UncertainGraph()
for block in "abc":
    names = [f"{block}{i}" for i in range(12)]
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if rng.random() < 0.6:
                g.add_edge(u, v, rng.choice((0.5, 0.7, 0.8, 0.9, 1.0)))
out = {}
for engine in ("legacy", "pivot"):
    session = PreparedGraph(g)
    enum_stats = EnumerationStats()
    order = [
        sorted(c)
        for c in session.maximal_cliques(3, 0.1, stats=enum_stats, engine=engine)
    ]
    max_stats = MaximumSearchStats()
    best = session.max_uc_plus(3, 0.1, stats=max_stats, engine=engine)
    out[engine] = {
        "order": order,
        "enum_stats": asdict(enum_stats),
        "max": sorted(best),
        "max_stats": asdict(max_stats),
    }
print(json.dumps(out))
"""


def test_enumeration_and_maximum_are_hash_seed_invariant() -> None:
    outputs = {_run_script(_QUERY_SCRIPT, seed) for seed in ("0", "1")}
    assert len(outputs) == 1, (
        "enumeration or maximum output varies with PYTHONHASHSEED:\n"
        + "\n".join(sorted(outputs))
    )
    payload = json.loads(next(iter(outputs)))
    for engine in ("legacy", "pivot"):
        assert payload[engine]["order"], "fixture must actually yield cliques"
        assert len(payload[engine]["max"]) > 3
