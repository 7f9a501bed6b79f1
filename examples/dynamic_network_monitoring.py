"""Monitor reliable groups in a continuously-updating uncertain network.

Run with::

    python examples/dynamic_network_monitoring.py

A monitoring loop over a communication network where interactions never
stop arriving: ties strengthen on repeat contact, new edges appear, and
stale ones get dropped.  One :class:`PreparedGraph` session owns the
live graph and a session-mode :class:`KTauCoreMaintainer` absorbs every
update — each mutation bumps only the touched component's epoch, the
graph's own lowering (shared by the session and the maintainer) is
delta-patched forward through the mutation log instead of re-lowered,
and the maintainer re-peels just the dirty frontier of its (k, tau)-core.
Between update bursts the monitoring queries (enumeration, anchored
membership) run over that same warm session, which re-peels and re-cuts
only the dirty components, so each window pays only for what actually
changed.

The loop prints per-window invalidation accounting straight from the
session — delta patches vs full compiles of the graph's lowering, live
vs stale component-scoped artifacts — and the final window cross-checks the incrementally
maintained core against a cold from-scratch recompute plus a sampled
verification of the enumerated cliques.
"""

from __future__ import annotations

import random

from repro import (
    KTauCoreMaintainer,
    PreparedGraph,
    cliques_containing,
    dp_core_plus,
    verify_maximal_cliques,
)
from repro.datasets import communication_network


def main() -> None:
    k, tau = 5, 0.1
    graph = communication_network(
        n_users=600, threads=1500, groups=8, group_size=(7, 10), seed=5
    )
    print(
        f"initial network: {graph.num_nodes} users, "
        f"{graph.num_edges} edges, {graph.num_components} components"
    )

    # One session owns the live graph; the maintainer mutates it in
    # place and keeps its core current, sharing the graph's lowering.
    session = PreparedGraph(graph)
    maintainer = KTauCoreMaintainer(session, k, tau)
    live = session.graph
    print(f"initial ({k}, {tau})-core: {len(maintainer.core)} users")
    baseline_groups = sum(1 for _ in session.maximal_cliques(k, tau))
    print(f"initial reliable groups: {baseline_groups}")

    # --- continuous update stream, queried between bursts --------------
    rng = random.Random(11)
    inserted = dropped = 0
    for window in range(1, 6):
        for _ in range(60):
            u, v = rng.sample(range(600), 2)
            if live.has_edge(u, v):
                # Repeated interaction: strengthen the tie.
                p = live.probability(u, v)
                maintainer.set_probability(u, v, min(1.0, p + (1 - p) * 0.5))
            else:
                maintainer.add_edge(u, v, 0.39)
                inserted += 1
        # And one stale tie ages out per window.
        edges = list(live.edges())
        u, v, _ = edges[rng.randrange(len(edges))]
        maintainer.remove_edge(u, v)
        dropped += 1

        groups = sum(1 for _ in session.maximal_cliques(k, tau))
        info = session.cache_info()
        retention = session.retention_info()
        evicted = session.purge_stale()
        print(
            f"window {window}: core={len(maintainer.core)} "
            f"groups={groups} "
            f"lowering: {info['delta_patches']} delta-patched / "
            f"{info['full_compiles']} full; "
            f"cached artifacts: {retention['component_live']} live, "
            f"{evicted} stale purged"
        )

    print(
        f"\nstreamed {5 * 60} interactions "
        f"({inserted} new edges, {dropped} dropped)"
    )

    # --- anchored query on the warm session ----------------------------
    biggest = max(session.maximal_cliques(k, tau), key=len, default=None)
    if biggest is not None:
        anchor = sorted(biggest)[0]
        memberships = list(cliques_containing(live, anchor, k, tau))
        print(
            f"user {anchor} belongs to {len(memberships)} maximal "
            f"({k}, {tau})-clique(s) right now"
        )

    # --- verify the incremental state against a cold recompute ---------
    cold_core = dp_core_plus(live.copy(), k, tau)
    assert maintainer.core == frozenset(cold_core)
    print(f"incremental core matches cold recompute ({len(cold_core)} users)")

    cliques = list(session.maximal_cliques(k, tau))
    report = verify_maximal_cliques(
        live, cliques, k, tau, sample_probability=True, samples=2000
    )
    print(f"verification: {report.summary()}")
    assert report.ok


if __name__ == "__main__":
    main()
