"""The color-based upper bounds of Section V.

The search runs the bounds inline in :func:`repro.core.kernel.
maximum_compiled`, over dense ids and against the precomputed floor;
:mod:`tests.core.oracles` holds them on a dict coloring, from their
definitions.  Here the oracle forms are pinned on hand-computed cases,
proven sound on every maximal clique (Lemmas 6 and 7), and the kernel's
budget, which both advanced bounds end in, is checked against the
oracle's: on drawn values with products placed at the floor, and on
every call a real MaxUC+ search makes.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.kernel as kernel_mod
from repro import UncertainGraph, clique_probability, max_uc_plus
from repro.core.bruteforce import brute_force_maximal_cliques
from repro.deterministic.coloring import greedy_coloring
from repro.utils.validation import FLOAT_EPS, threshold_floor
from tests.conftest import make_random_graph
from tests.core.oracles import (
    advanced_color_bound_one,
    advanced_color_bound_two,
    basic_color_bound,
    prefix_budget,
)


class TestBasicColorBound:
    def test_counts_distinct_colors(self):
        colors = {1: 0, 2: 1, 3: 0}
        assert basic_color_bound(colors, [1, 2, 3]) == 2

    def test_empty(self):
        assert basic_color_bound({}, []) == 0


class TestAdvancedBoundOne:
    def test_never_exceeds_basic(self):
        g = make_random_graph(14, 0.5, seed=1)
        colors = greedy_coloring(g)
        candidates = [(v, 0.5) for v in g.nodes()]
        basic = basic_color_bound(colors, (v for v, _ in candidates))
        advanced = advanced_color_bound_one(colors, candidates, 1.0, 0.3)
        assert advanced <= basic

    def test_probability_constraint_tightens(self):
        colors = {1: 0, 2: 1, 3: 2}
        candidates = [(1, 0.5), (2, 0.5), (3, 0.5)]
        # With CPr(R) = 1 and tau = 0.2: 0.5 ok, 0.25 ok, 0.125 < 0.2.
        assert advanced_color_bound_one(colors, candidates, 1.0, 0.2) == 2

    def test_zero_when_nothing_fits(self):
        colors = {1: 0}
        assert advanced_color_bound_one(colors, [(1, 0.1)], 1.0, 0.5) == 0

    def test_takes_best_per_color(self):
        colors = {1: 0, 2: 0}
        candidates = [(1, 0.2), (2, 0.9)]
        # Only one member per color group counts; the best (0.9) is used.
        assert advanced_color_bound_one(colors, candidates, 1.0, 0.5) == 1

    def test_empty_candidates(self):
        assert advanced_color_bound_one({}, [], 1.0, 0.5) == 0


class TestAdvancedBoundTwo:
    def _graph(self):
        g = UncertainGraph()
        g.add_edge("r", 1, 0.9)
        g.add_edge("r", 2, 0.4)
        g.add_edge("r", 3, 0.3)
        g.add_edge(1, 2, 0.9)
        g.add_edge(1, 3, 0.9)
        g.add_edge(2, 3, 0.9)
        return g

    def test_per_member_budget(self):
        g = self._graph()
        colors = {1: 0, 2: 1, 3: 2, "r": 3}
        candidates = [(1, 0.9), (2, 0.4), (3, 0.3)]
        # For r: sorted maxima 0.9, 0.4, 0.3; prefix products 0.9,
        # 0.36, 0.108 — with tau = 0.2 only two fit.
        bound = advanced_color_bound_two(
            g, colors, ["r"], candidates, 1.0, 0.2
        )
        assert bound == 2

    def test_empty_clique_falls_back_to_color_count(self):
        g = self._graph()
        colors = greedy_coloring(g)
        candidates = [(v, 1.0) for v in g.nodes()]
        bound = advanced_color_bound_two(g, colors, [], candidates, 1.0, 0.5)
        assert bound == basic_color_bound(colors, g.nodes())

    def test_tightest_member_wins(self):
        g = self._graph()
        g.add_edge("s", 1, 0.99)
        g.add_edge("s", 2, 0.99)
        g.add_edge("s", 3, 0.99)
        g.add_edge("s", "r", 0.99)
        colors = {1: 0, 2: 1, 3: 2, "r": 3, "s": 4}
        candidates = [(1, 0.9), (2, 0.4), (3, 0.3)]
        # s alone would allow 3; r limits the budget to 2.
        bound = advanced_color_bound_two(
            g, colors, ["s", "r"], candidates, 1.0, 0.2
        )
        assert bound == 2


class TestSoundness:
    """Lemmas 6 and 7: the bounds never under-estimate a real clique."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_admit_every_maximal_clique(self, seed):
        g = make_random_graph(12, 0.6, seed=seed)
        k, tau = 1, 0.15
        colors = greedy_coloring(g)
        for clique in brute_force_maximal_cliques(g, k, tau):
            members = sorted(clique, key=str)
            # Split the clique into a prefix R and the rest; the rest
            # must fit inside every bound computed for (R, C) when C
            # contains the remaining members.
            for cut_at in range(1, len(members)):
                prefix = members[:cut_at]
                rest = members[cut_at:]
                r_prob = clique_probability(g, prefix)
                candidates = []
                for v in rest:
                    pi = 1.0
                    for u in prefix:
                        pi *= g.probability(u, v)
                    candidates.append((v, pi))
                need = len(rest)
                b1 = basic_color_bound(colors, rest)
                b2 = advanced_color_bound_one(
                    colors, candidates, r_prob, tau
                )
                b3 = advanced_color_bound_two(
                    g, colors, prefix, candidates, r_prob, tau
                )
                assert b1 >= need
                assert b2 >= need
                assert b3 >= need


#: Relative offsets of tau around a value whose floor is a running
#: product: far above float error, far below the tolerance band.
STRADDLE = (1.0 - 1e-12, 1.0, 1.0 + 1e-12)

probabilities = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def budget_cases(draw: st.DrawFn) -> tuple[list[float], float, float]:
    """Descending values, a clique probability, and a tau that is drawn,
    or sits at one of the running products, or has its floor there."""
    values = sorted(
        draw(st.lists(probabilities, max_size=8)), reverse=True
    )
    prob = draw(probabilities)
    running = [prob]
    for value in values:
        running.append(running[-1] * value)
    product = st.sampled_from(running)
    offset = st.sampled_from(STRADDLE)
    tau = draw(
        probabilities
        | st.builds(lambda p, f: min(1.0, p * f), product, offset)
        | st.builds(
            lambda p, f: min(1.0, p / (1.0 - FLOAT_EPS) * f), product, offset
        )
    )
    return values, prob, tau


@settings(max_examples=300, deadline=None)
@given(case=budget_cases())
def test_kernel_budget_matches_the_oracle(
    case: tuple[list[float], float, float]
) -> None:
    values, prob, tau = case
    assert kernel_mod._prefix_budget(
        values, prob, threshold_floor(tau)
    ) == prefix_budget(values, prob, tau)


@pytest.mark.parametrize("tau", [0.05, 0.3])
@pytest.mark.parametrize("seed", range(4))
def test_every_search_budget_matches_the_oracle(seed: int, tau: float) -> None:
    # Each budget the advanced bounds take in a real MaxUC+ search, on
    # the values, clique probability and floor the search hands over:
    # the lower edge of the kernel's _NEAR band, so that no budget falls
    # short on a knife edge.  Away from the band it is the oracle's at
    # tau, as on every call here.
    calls = []
    budget = kernel_mod._prefix_budget

    def recording(values, clique_prob, tau_floor):
        result = budget(values, clique_prob, tau_floor)
        calls.append((list(values), clique_prob, tau_floor, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_mod, "_prefix_budget", recording)
        max_uc_plus(make_random_graph(14, 0.6, seed=seed), 1, tau)
    assert calls
    for values, clique_prob, tau_floor, result in calls:
        assert tau_floor == threshold_floor(tau) / kernel_mod._NEAR
        assert values == sorted(values, reverse=True)
        assert result == prefix_budget(values, clique_prob, tau)
