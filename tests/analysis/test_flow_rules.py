"""Fixture tests for the whole-program flow rules (RPL009–RPL014).

Each rule gets at least one seeded violation the rule must catch, a
sanctioned counterpart it must stay quiet on, and a pragma-suppression
check — the acceptance contract for the two-phase analyzer.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import Finding, lint_file, run_lint


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def rules_of(findings: list[Finding], rule: str) -> list[Finding]:
    return [finding for finding in findings if finding.rule == rule]


# ----------------------------------------------------------------------
# RPL009: unordered iteration flow
# ----------------------------------------------------------------------

class TestUnorderedIterationFlow:
    def test_flags_list_of_set(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def emit(graph):
                chosen = set(graph.nodes())
                return list(chosen)
            """,
        )
        findings = rules_of(lint_file(path), "RPL009")
        assert len(findings) == 1
        assert "list(...)" in findings[0].message

    def test_flags_induced_subgraph_of_set_ops(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def child(graph, keep: frozenset[str]):
                region = keep | {0}
                return graph.induced_subgraph(region)
            """,
        )
        findings = rules_of(lint_file(path), "RPL009")
        assert len(findings) == 1
        assert "induced_subgraph" in findings[0].message

    def test_flags_emitting_loop_and_comprehension(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def emit(graph):
                out = []
                for v in set(graph.nodes()):
                    out.append(v)
                rows = [v for v in frozenset(out)]
                return out, rows
            """,
        )
        assert len(rules_of(lint_file(path), "RPL009")) == 2

    def test_sorted_and_rebinding_sanction(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def emit(graph):
                chosen = set(graph.nodes())
                chosen = sorted(chosen)
                total = len(set(graph.nodes()))
                ranked = sorted(str(v) for v in frozenset(chosen))
                return list(chosen), total, ranked
            """,
        )
        assert rules_of(lint_file(path), "RPL009") == []

    def test_iterable_of_sets_annotation_is_not_a_set(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            from typing import Iterable

            def emit(cliques: Iterable[frozenset[str]]):
                return list(cliques)
            """,
        )
        assert rules_of(lint_file(path), "RPL009") == []

    def test_outside_core_is_out_of_scope(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "bench/mod.py",
            """
            def emit(graph):
                return list(set(graph.nodes()))
            """,
        )
        assert rules_of(lint_file(path), "RPL009") == []

    def test_cross_file_call_flow(self, tmp_path: Path) -> None:
        write(
            tmp_path,
            "core/sink.py",
            """
            def materialize(region):
                return list(region)
            """,
        )
        write(
            tmp_path,
            "core/caller.py",
            """
            from core.sink import materialize

            def run(graph):
                region = set(graph.nodes())
                return materialize(region)
            """,
        )
        findings = rules_of(run_lint([tmp_path]), "RPL009")
        assert len(findings) == 1
        assert findings[0].path.endswith("caller.py")
        assert "materialize" in findings[0].message
        assert "'region'" in findings[0].message

    def test_pragma_suppresses_cross_file_finding(
        self, tmp_path: Path
    ) -> None:
        """A project-level finding (evidence in another file) is still
        anchored at one line, so a pragma there suppresses it."""
        write(
            tmp_path,
            "core/sink.py",
            """
            def materialize(region):
                return list(region)
            """,
        )
        write(
            tmp_path,
            "core/caller.py",
            """
            from core.sink import materialize

            def run(graph):
                region = set(graph.nodes())
                return materialize(region)  # repro-lint: ignore[RPL009]
            """,
        )
        assert rules_of(run_lint([tmp_path]), "RPL009") == []

    def test_pragma_suppresses_in_file_finding(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def emit(graph):
                chosen = set(graph.nodes())
                return list(chosen)  # repro-lint: ignore[RPL009]
            """,
        )
        assert rules_of(lint_file(path), "RPL009") == []


# ----------------------------------------------------------------------
# RPL010: unordered reductions
# ----------------------------------------------------------------------

class TestUnorderedReduction:
    def test_flags_sum_over_prob_set(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def total(probs: set[float]) -> float:
                return sum(probs)
            """,
        )
        findings = rules_of(lint_file(path), "RPL010")
        assert len(findings) == 1
        assert "re-associates floats" in findings[0].message

    def test_flags_genexp_over_prob_set(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            import math

            def product(edges):
                probs = {p for _, p in edges}
                return math.prod(p for p in probs)
            """,
        )
        assert len(rules_of(lint_file(path), "RPL010")) == 1

    def test_sorted_reduction_is_sanctioned(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def total(probs: set[float]) -> float:
                return sum(sorted(probs))
            """,
        )
        assert rules_of(lint_file(path), "RPL010") == []

    def test_non_probability_sum_is_ignored(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def count(degrees: set[int]) -> int:
                return sum(degrees)
            """,
        )
        assert rules_of(lint_file(path), "RPL010") == []

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/mod.py",
            """
            def total(probs: set[float]) -> float:
                return sum(probs)  # repro-lint: ignore[RPL010]
            """,
        )
        assert rules_of(lint_file(path), "RPL010") == []


# ----------------------------------------------------------------------
# RPL011: stage purity
# ----------------------------------------------------------------------

class TestImpureStage:
    def test_flags_stage_mutating_graph_param(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/pipeline.py",
            """
            def prune_stage(graph, k):
                graph.remove_node(k)
                return graph
            """,
        )
        findings = rules_of(lint_file(path), "RPL011")
        assert len(findings) == 1
        assert "mutates a graph parameter" in findings[0].message

    def test_flags_stage_writing_module_state(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/pipeline.py",
            """
            _SCRATCH = {}

            def cut_stage(graph, k):
                _SCRATCH[k] = graph
                return graph
            """,
        )
        findings = rules_of(lint_file(path), "RPL011")
        assert len(findings) == 1
        assert "_SCRATCH" in findings[0].message

    def test_flags_stage_reading_module_state(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/pipeline.py",
            """
            _LIMITS = {"k": 3}

            def cut_stage(graph):
                return _LIMITS["k"]
            """,
        )
        findings = rules_of(lint_file(path), "RPL011")
        assert len(findings) == 1
        assert "reads module-level mutable" in findings[0].message

    def test_decorator_registers_stage_anywhere(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/extra.py",
            """
            def register_stage(fn):
                return fn

            @register_stage
            def shiny(graph):
                graph.remove_node(0)
                return graph
            """,
        )
        assert len(rules_of(lint_file(path), "RPL011")) == 1

    def test_transitive_mutation_via_helper_module(
        self, tmp_path: Path
    ) -> None:
        write(
            tmp_path,
            "core/pipeline.py",
            """
            from core.helpers import peel

            def prune_stage(graph, k):
                return peel(graph, k)
            """,
        )
        write(
            tmp_path,
            "core/helpers.py",
            """
            def peel(graph, k):
                graph.remove_node(k)
                return graph
            """,
        )
        findings = rules_of(run_lint([tmp_path]), "RPL011")
        assert len(findings) == 1
        assert findings[0].path.endswith("pipeline.py")
        assert "transitively calls" in findings[0].message
        assert "peel" in findings[0].message

    def test_copy_discipline_is_pure(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/pipeline.py",
            """
            def prune_stage(graph, k):
                graph = graph.copy()
                graph.remove_node(k)
                return graph
            """,
        )
        assert rules_of(lint_file(path), "RPL011") == []

    def test_rpl004_pragma_sanctions_scratch_owner(
        self, tmp_path: Path
    ) -> None:
        """An RPL004-pragma'd mutator (audited scratch owner) does not
        count as stage impurity either — one audit trail, two rules."""
        write(
            tmp_path,
            "core/pipeline.py",
            """
            from core.helpers import peel

            def prune_stage(graph, k):
                return peel(graph, k)
            """,
        )
        write(
            tmp_path,
            "core/helpers.py",
            """
            def peel(graph, k):
                graph.remove_node(k)  # repro-lint: ignore[RPL004]
                return graph
            """,
        )
        assert rules_of(run_lint([tmp_path]), "RPL011") == []

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/pipeline.py",
            """
            _SCRATCH = {}

            def cut_stage(graph, k):
                _SCRATCH[k] = graph  # repro-lint: ignore[RPL011]
                return graph
            """,
        )
        assert rules_of(lint_file(path), "RPL011") == []


# ----------------------------------------------------------------------
# RPL012: version-keyed caches
# ----------------------------------------------------------------------

class TestUnversionedCacheKey:
    def test_flags_unversioned_insertion_in_session(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def __init__(self, graph):
                    self._graph = graph
                    self._cache = {}

                def remember(self, stage, value):
                    key = (stage, 3)
                    self._cache[key] = value
            """,
        )
        findings = rules_of(lint_file(path), "RPL012")
        assert len(findings) == 1
        assert "graph.version" in findings[0].message

    def test_versioned_key_is_sanctioned(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def __init__(self, graph):
                    self._graph = graph
                    self._cache = {}

                def remember(self, stage, value):
                    key = (self._graph.version, stage)
                    self._cache[key] = value
            """,
        )
        assert rules_of(lint_file(path), "RPL012") == []

    def test_parameter_key_is_callers_responsibility(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def _store(self, key, value):
                    self._cache[key] = value
            """,
        )
        assert rules_of(lint_file(path), "RPL012") == []

    def test_session_imported_module_is_in_scope(
        self, tmp_path: Path
    ) -> None:
        write(
            tmp_path,
            "core/session.py",
            """
            from core.memostore import remember
            """,
        )
        write(
            tmp_path,
            "core/memostore.py",
            """
            _MEMO = {}

            def remember(stage, value):
                _MEMO[(stage, 1)] = value
            """,
        )
        findings = rules_of(run_lint([tmp_path]), "RPL012")
        assert len(findings) == 1
        assert findings[0].path.endswith("memostore.py")

    def test_unreachable_module_is_out_of_scope(self, tmp_path: Path) -> None:
        write(
            tmp_path,
            "core/session.py",
            "x = 1\n",
        )
        write(
            tmp_path,
            "core/standalone.py",
            """
            _MEMO = {}

            def remember(stage, value):
                _MEMO[(stage, 1)] = value
            """,
        )
        assert rules_of(run_lint([tmp_path]), "RPL012") == []

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def __init__(self, graph):
                    self._cache = {}

                def remember(self, stage, value):
                    self._cache[(stage, 3)] = value  # repro-lint: ignore[RPL012]
            """,
        )
        assert rules_of(lint_file(path), "RPL012") == []


# ----------------------------------------------------------------------
# RPL013: process-boundary pickling
# ----------------------------------------------------------------------

class TestUnpicklableSubmission:
    def test_flags_lambda_worker(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda x: x, i) for i in items]
            """,
        )
        findings = rules_of(lint_file(path), "RPL013")
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_flags_nested_worker(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                def work(x):
                    return x
                pool = ProcessPoolExecutor()
                return [pool.submit(work, i) for i in items]
            """,
        )
        findings = rules_of(lint_file(path), "RPL013")
        assert len(findings) == 1
        assert "work()" in findings[0].message

    def test_flags_generator_expression_argument(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(worker, rows):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(worker, (r for r in rows))
            """,
        )
        findings = rules_of(lint_file(path), "RPL013")
        assert len(findings) == 1
        assert "generator expression" in findings[0].message

    def test_flags_dict_backed_class_without_getstate(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            class Component:
                def __init__(self):
                    self.adj = {}

            def work(c):
                return c

            def run(items):
                with ProcessPoolExecutor() as pool:
                    payload = Component()
                    return pool.submit(work, payload)
            """,
        )
        findings = rules_of(lint_file(path), "RPL013")
        assert len(findings) == 1
        assert "__getstate__" in findings[0].message

    def test_getstate_class_is_sanctioned(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            class Component:
                def __init__(self):
                    self.adj = {}

                def __getstate__(self):
                    return tuple(sorted(self.adj))

            def work(c):
                return c

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(work, Component())
            """,
        )
        assert rules_of(lint_file(path), "RPL013") == []

    def test_thread_pool_is_out_of_scope(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(items):
                with ThreadPoolExecutor() as pool:
                    return [pool.submit(lambda x: x, i) for i in items]
            """,
        )
        assert rules_of(lint_file(path), "RPL013") == []

    def test_flags_generator_function_result(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def stream(items):
                yield from items

            def work(it):
                return list(it)

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(work, stream(items))
            """,
        )
        findings = rules_of(lint_file(path), "RPL013")
        assert len(findings) == 1
        assert "generator" in findings[0].message

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/par.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return [
                        pool.submit(lambda x: x, i)  # repro-lint: ignore[RPL013]
                        for i in items
                    ]
            """,
        )
        assert rules_of(lint_file(path), "RPL013") == []


# ----------------------------------------------------------------------
# RPL014: component-epoch discipline
# ----------------------------------------------------------------------

class TestComponentEpochDiscipline:
    def test_flags_mutator_skipping_epoch(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "uncertain/graph.py",
            """
            class UncertainGraph:
                def add_edge(self, u, v, p):
                    self._adj.setdefault(u, {})[v] = p
                    self._adj.setdefault(v, {})[u] = p
                    self._version += 1
            """,
        )
        findings = rules_of(lint_file(path), "RPL014")
        assert len(findings) == 1
        assert "component" in findings[0].message

    def test_mutator_touching_epoch_is_sanctioned(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "uncertain/graph.py",
            """
            class UncertainGraph:
                def add_edge(self, u, v, p):
                    self._adj.setdefault(u, {})[v] = p
                    self._adj.setdefault(v, {})[u] = p
                    self._version += 1
                    self._comp_epoch[self._comp_id[u]] = self._version
            """,
        )
        assert rules_of(lint_file(path), "RPL014") == []

    def test_reader_never_flagged(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "uncertain/graph.py",
            """
            class UncertainGraph:
                def probability(self, u, v):
                    return self._adj[u][v]
            """,
        )
        assert rules_of(lint_file(path), "RPL014") == []

    def test_flags_component_key_without_epoch(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def remember(self, cid, stage, value):
                    self._cache[("c", cid, stage)] = value
            """,
        )
        findings = rules_of(lint_file(path), "RPL014")
        assert len(findings) == 1
        assert "epoch" in findings[0].message

    def test_component_key_with_epoch_is_sanctioned(
        self, tmp_path: Path
    ) -> None:
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def remember(self, cid, epoch, stage, value):
                    self._cache[("c", cid, epoch, stage)] = value
            """,
        )
        assert rules_of(lint_file(path), "RPL014") == []

    def test_store_call_key_is_inspected(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def _store(self, key, value):
                    self._cache[key] = value

                def remember(self, cid, stage, value):
                    self._store(("c", cid, stage), value)
            """,
        )
        findings = rules_of(lint_file(path), "RPL014")
        assert len(findings) == 1

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        path = write(
            tmp_path,
            "uncertain/graph.py",
            """
            class UncertainGraph:
                def scrub(self):
                    self._adj.clear()  # repro-lint: ignore[RPL014]
            """,
        )
        assert rules_of(lint_file(path), "RPL014") == []


class TestEpochKeyedCacheIsVersionSanctioned:
    def test_epoch_key_passes_rpl012(self, tmp_path: Path) -> None:
        # The component epoch is the per-component half of the version
        # vector: a key carrying it is a valid invalidation key.
        path = write(
            tmp_path,
            "core/session.py",
            """
            class PreparedGraph:
                def remember(self, cid, epoch, stage, value):
                    key = ("c", cid, epoch, stage)
                    self._cache[key] = value
            """,
        )
        assert rules_of(lint_file(path), "RPL012") == []
