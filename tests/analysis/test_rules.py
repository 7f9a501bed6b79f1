"""Per-rule fixtures for repro-lint: each rule fires on its canonical
violation and stays quiet on the sanctioned counterpart."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Finding, lint_file, run_lint


def lint_source(tmp_path: Path, source: str, name: str = "mod.py") -> list[Finding]:
    """Write ``source`` to a temp file and lint it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path)


def rule_ids(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# RPL001: raw threshold comparisons
# ----------------------------------------------------------------------

class TestRawThresholdCompare:
    def test_flags_raw_tau_compare(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def keep(p: float, tau: float) -> bool:
                return p >= tau
            """,
        )
        assert rule_ids(findings) == ["RPL001"]
        assert findings[0].line == 3

    def test_flags_prob_product_compare(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def filter(new_prob, pi, tau_floor):
                return new_prob * pi >= tau_floor
            """,
        )
        assert rule_ids(findings) == ["RPL001"]

    def test_allows_tolerant_helper_call(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            from repro.utils.validation import prob_at_least

            def keep(p: float, tau: float) -> bool:
                return prob_at_least(p, tau)
            """,
        )
        assert findings == []

    def test_allows_zero_one_range_check(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def validate(probability: float) -> bool:
                return 0.0 < probability <= 1.0
            """,
        )
        assert findings == []

    def test_allows_bernoulli_draw(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def flip(rng, p: float) -> bool:
                return rng.random() < p
            """,
        )
        assert findings == []

    def test_ignores_integer_degree_names(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def enough(tau_degree: int, k: int) -> bool:
                return tau_degree >= k
            """,
        )
        assert findings == []

    def test_ignores_len_of_prob_list(self, tmp_path: Path) -> None:
        # len(probs) is an int: call results are not probability values.
        findings = lint_source(
            tmp_path,
            """
            def short(probs: list, k: int) -> bool:
                return len(probs) < k
            """,
        )
        assert findings == []

    def test_validation_module_is_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def prob_at_least(value: float, threshold: float) -> bool:
                return value >= threshold - 1e-9 * threshold
            """,
            name="validation.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL002: unvalidated probability stores
# ----------------------------------------------------------------------

class TestUnvalidatedProbabilityStore:
    def test_flags_direct_adj_write(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def poke(graph, u, v):
                graph._adj[u][v] = 2.0
            """,
        )
        assert "RPL002" in rule_ids(findings)

    def test_flags_out_of_range_literal(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def build():
                g = UncertainGraph()
                g.add_edge(1, 2, 1.5)
                return g
            """,
        )
        assert rule_ids(findings) == ["RPL002"]

    def test_flags_zero_probability_keyword(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def build():
                g = UncertainGraph()
                g.set_probability(1, 2, p=0.0)
                return g
            """,
        )
        assert rule_ids(findings) == ["RPL002"]

    def test_allows_valid_literal(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def build():
                g = UncertainGraph()
                g.add_edge(1, 2, 0.5)
                return g
            """,
        )
        assert findings == []

    def test_graph_module_is_exempt_for_adj(self, tmp_path: Path) -> None:
        # Exempt from RPL005 (the graph module owns _adj) — but a
        # mutator that skips the component-epoch bookkeeping is exactly
        # what RPL014 exists to catch.
        findings = lint_source(
            tmp_path,
            """
            class UncertainGraph:
                def add_edge(self, u, v, p):
                    self._adj[u][v] = p
            """,
            name="graph.py",
        )
        assert rule_ids(findings) == ["RPL014"]


# ----------------------------------------------------------------------
# RPL003: unseeded randomness
# ----------------------------------------------------------------------

class TestUnseededRandom:
    def test_flags_unseeded_random(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import random

            def sample():
                rng = random.Random()
                return rng
            """,
        )
        assert rule_ids(findings) == ["RPL003"]

    def test_flags_random_none(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import random

            def sample():
                return random.Random(None)
            """,
        )
        assert rule_ids(findings) == ["RPL003"]

    def test_flags_module_level_function(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import random

            def shuffle(items):
                random.shuffle(items)
            """,
        )
        assert rule_ids(findings) == ["RPL003"]

    def test_flags_from_import(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            from random import randint
            """,
        )
        assert rule_ids(findings) == ["RPL003"]

    def test_flags_system_random(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import random

            def sample():
                return random.SystemRandom()
            """,
        )
        assert rule_ids(findings) == ["RPL003"]

    def test_allows_seeded_random(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import random

            def sample(seed: int):
                return random.Random(seed)
            """,
        )
        assert findings == []

    def test_allows_random_class_import(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            from random import Random

            def sample(seed: int):
                return Random(seed)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL004: frozen graph parameters
# ----------------------------------------------------------------------

class TestFrozenGraphMutation:
    def test_flags_mutation_of_annotated_param(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def peel(g: UncertainGraph, u):
                g.remove_node(u)
            """,
        )
        assert rule_ids(findings) == ["RPL004"]

    def test_flags_mutation_of_named_param(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def peel(graph, u):
                graph.remove_node(u)
            """,
        )
        assert rule_ids(findings) == ["RPL004"]

    def test_flags_mutation_inside_nested_function(
        self, tmp_path: Path
    ) -> None:
        findings = lint_source(
            tmp_path,
            """
            def search(graph, u):
                def inner():
                    graph.remove_edge(u, u)
                return inner
            """,
        )
        assert rule_ids(findings) == ["RPL004"]

    def test_copy_rebinding_releases_param(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def peel(graph, u):
                graph = graph.copy()
                graph.remove_node(u)
            """,
        )
        assert findings == []

    def test_local_graph_is_free(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def build(edges):
                work = UncertainGraph()
                for u, v, p in edges:
                    work.add_edge(u, v, p)
                return work
            """,
        )
        assert findings == []

    def test_read_only_use_is_fine(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def degree(graph, u):
                return len(graph.incident(u))
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL005: log/linear domain mixing
# ----------------------------------------------------------------------

class TestLogLinearMixing:
    def test_flags_log_of_probability(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import math

            def score(clique_prob: float) -> float:
                return math.log(clique_prob)
            """,
        )
        assert rule_ids(findings) == ["RPL005"]

    def test_flags_exp_into_probability(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import math

            def back(log_tau: float) -> float:
                return math.exp(log_tau)
            """,
        )
        assert rule_ids(findings) == ["RPL005"]

    def test_allows_log_of_non_probability(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import math

            def bits(count: int) -> float:
                return math.log2(count)
            """,
        )
        assert findings == []

    def test_validation_module_is_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            import math

            def log_prob(probability: float) -> float:
                return math.log(probability)
            """,
            name="validation.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL006: bare / swallowed excepts
# ----------------------------------------------------------------------

class TestSwallowedError:
    def test_flags_bare_except(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path)
                except:
                    return None
            """,
        )
        assert rule_ids(findings) == ["RPL006"]

    def test_flags_swallowed_broad_except(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path)
                except Exception:
                    pass
            """,
        )
        assert rule_ids(findings) == ["RPL006"]

    def test_allows_handled_broad_except(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path)
                except Exception as exc:
                    raise RuntimeError(str(path)) from exc
            """,
        )
        assert findings == []

    def test_allows_narrow_swallow(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            """
            def lookup(mapping, key):
                try:
                    return mapping[key]
                except KeyError:
                    pass
                return None
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL007: pipeline stage calls bypassing the session layer
# ----------------------------------------------------------------------

class TestStageBypassesSession:
    def lint_core_file(
        self, tmp_path: Path, source: str, name: str = "algorithm.py"
    ) -> list[Finding]:
        core = tmp_path / "core"
        core.mkdir(exist_ok=True)
        path = core / name
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_file(path)

    DIRECT_CALL = """
        from repro.core.pipeline import prune_stage

        def survivors(graph, k, tau):
            return prune_stage(graph, k, tau, "topk")
        """

    def test_flags_direct_stage_call_in_core(self, tmp_path: Path) -> None:
        findings = self.lint_core_file(tmp_path, self.DIRECT_CALL)
        assert rule_ids(findings) == ["RPL007"]
        assert "PreparedGraph" in findings[0].message

    def test_flags_attribute_qualified_call(self, tmp_path: Path) -> None:
        findings = self.lint_core_file(
            tmp_path,
            """
            from repro.core import pipeline

            def artifact(pruned, k, tau):
                return pipeline.cut_stage(pruned, k, tau, True, 0)
            """,
        )
        assert rule_ids(findings) == ["RPL007"]

    def test_session_and_pipeline_are_sanctioned(self, tmp_path: Path) -> None:
        for name in ("session.py", "pipeline.py"):
            findings = self.lint_core_file(tmp_path, self.DIRECT_CALL, name)
            assert findings == []

    def test_outside_core_is_allowed(self, tmp_path: Path) -> None:
        findings = lint_source(tmp_path, self.DIRECT_CALL, name="bench.py")
        assert findings == []

    def test_pragma_silences(self, tmp_path: Path) -> None:
        findings = self.lint_core_file(
            tmp_path,
            """
            from repro.core.pipeline import prune_stage

            def survivors(graph, k, tau):
                return prune_stage(graph, k, tau, "topk")  # repro-lint: ignore[RPL007]
            """,
        )
        assert findings == []

    def test_shipped_core_tree_respects_layering(self) -> None:
        from repro.analysis import run_lint

        core = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
        findings = [
            finding
            for finding in run_lint([core])
            if finding.rule == "RPL007"
        ]
        assert findings == []


# ----------------------------------------------------------------------
# RPL008: prune peel calls bypassing the compiled session path
# ----------------------------------------------------------------------

class TestPruneBypassesSession:
    def lint_core_file(
        self, tmp_path: Path, source: str, name: str = "algorithm.py"
    ) -> list[Finding]:
        core = tmp_path / "core"
        core.mkdir(exist_ok=True)
        path = core / name
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_file(path)

    DIRECT_CALL = """
        from repro.core.ktau_core import dp_core_plus

        def survivors(graph, k, tau):
            return dp_core_plus(graph, k, tau)
        """

    def test_flags_direct_peel_call_in_core(self, tmp_path: Path) -> None:
        findings = self.lint_core_file(tmp_path, self.DIRECT_CALL)
        assert rule_ids(findings) == ["RPL008"]
        assert "compiled arrays" in findings[0].message

    def test_flags_attribute_qualified_call(self, tmp_path: Path) -> None:
        findings = self.lint_core_file(
            tmp_path,
            """
            from repro.core import topk_core as topk_mod

            def survivors(graph, k, tau):
                return topk_mod.topk_core(graph, k, tau).nodes
            """,
        )
        assert rule_ids(findings) == ["RPL008"]

    def test_peel_layer_files_are_sanctioned(self, tmp_path: Path) -> None:
        for name in (
            "ktau_core.py",
            "topk_core.py",
            "prune_kernel.py",
            "pipeline.py",
            "session.py",
        ):
            findings = self.lint_core_file(tmp_path, self.DIRECT_CALL, name)
            assert findings == []

    def test_outside_core_is_allowed(self, tmp_path: Path) -> None:
        findings = lint_source(tmp_path, self.DIRECT_CALL, name="bench.py")
        assert findings == []

    def test_pragma_silences(self, tmp_path: Path) -> None:
        findings = self.lint_core_file(
            tmp_path,
            """
            from repro.core.ktau_core import dp_core_plus

            def survivors(graph, k, tau):
                return dp_core_plus(graph, k, tau)  # repro-lint: ignore[RPL008]
            """,
        )
        assert findings == []

    def test_shipped_core_tree_respects_layering(self) -> None:
        from repro.analysis import run_lint

        core = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
        findings = [
            finding
            for finding in run_lint([core])
            if finding.rule == "RPL008"
        ]
        assert findings == []


# ----------------------------------------------------------------------
# Findings carry usable positions and render as path:line:col
# ----------------------------------------------------------------------

def test_finding_format_and_order(tmp_path: Path) -> None:
    findings = lint_source(
        tmp_path,
        """
        import random

        def f(p, tau):
            rng = random.Random()
            return p >= tau
        """,
        name="two.py",
    )
    assert rule_ids(findings) in (["RPL001", "RPL003"], ["RPL003", "RPL001"])
    for finding in findings:
        assert finding.format().startswith(str(tmp_path / "two.py"))
        assert f":{finding.line}:" in finding.format()

    ordered = run_lint([tmp_path])
    assert ordered == sorted(ordered, key=Finding.sort_key)


def test_syntax_error_becomes_parse_finding(tmp_path: Path) -> None:
    findings = lint_source(tmp_path, "def broken(:\n", name="broken.py")
    assert rule_ids(findings) == ["RPL000"]
    assert "does not parse" in findings[0].message


@pytest.mark.parametrize(
    "rule_id",
    [
        "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
        "RPL007", "RPL008", "RPL009", "RPL010", "RPL011", "RPL012",
        "RPL013",
    ],
)
def test_every_rule_is_registered(rule_id: str) -> None:
    from repro.analysis import RULES_BY_ID

    assert rule_id in RULES_BY_ID
    assert RULES_BY_ID[rule_id].title
