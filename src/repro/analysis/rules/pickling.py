"""Process-boundary rule: RPL013 — ship compiled state across executors.

Everything handed to a :class:`~concurrent.futures.ProcessPoolExecutor`
is pickled into the worker.  Two distinct failure modes hide behind
that boundary:

* **unpicklable payloads** — lambdas, functions defined inside other
  functions, generator expressions and generator objects all raise at
  submit time, but only on the process-pool path, so a single-process
  test run never sees the crash;
* **dict-backed payloads** — a project class whose ``__init__`` builds
  mutable containers (adjacency dicts, candidate lists) pickles *all*
  of it unless the class defines ``__getstate__``.  The compiled kernel
  classes pickle CSR arrays only (``CompiledComponent.__getstate__``);
  shipping a dict-backed object instead multiplies serialization cost
  by the fan-out.

The rule tracks names bound to ``ProcessPoolExecutor`` (assignment or
``with ... as pool``) and inspects every ``.submit`` / ``.map`` on
them.  Class payloads are resolved through the project model:
:meth:`~repro.analysis.project.ProjectContext.class_ships_state`
returning ``None`` (builtin / third-party) never flags.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import (
    ClassInfo,
    ProjectContext,
    _is_mutable_container,
)
from repro.analysis.rules.base import ProjectRule, is_test_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext

__all__ = ["UnpicklableSubmission"]


def _executor_names(func: ast.AST) -> set[str]:
    """Names bound to a ``ProcessPoolExecutor`` inside ``func``."""

    def constructs_pool(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        callee = node.func
        name = (
            callee.id
            if isinstance(callee, ast.Name)
            else callee.attr
            if isinstance(callee, ast.Attribute)
            else ""
        )
        return "ProcessPool" in name

    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and constructs_pool(node.value):
            names.update(
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if constructs_pool(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
    return names


def _nested_function_names(func: ast.AST) -> set[str]:
    """Names of functions defined *inside* ``func`` (not picklable)."""
    names: set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func
        ):
            names.add(node.name)
    return names


def _stores_mutable_state(info: ClassInfo) -> bool:
    """Whether ``__init__`` assigns a mutable container onto ``self``."""
    init = info.methods.get("__init__")
    if init is None:
        return False
    for node in ast.walk(init.node):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _is_mutable_container(node.value)
            ):
                return True
    return False


def _is_generator_function(name: str, project: ProjectContext) -> bool:
    """Whether every project resolution of ``name`` is a generator."""
    infos = project.resolve_function(name)
    if not infos:
        return False
    return all(
        any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for node in ast.walk(info.node)
        )
        for info in infos
    )


class UnpicklableSubmission(ProjectRule):
    """RPL013 — an executor submission that cannot (or should not) pickle.

    Flags, per ``pool.submit(fn, *args)`` / ``pool.map(fn, it)`` on a
    tracked ``ProcessPoolExecutor`` name: lambda or locally-nested
    workers; lambda / generator-expression arguments; arguments built
    from a project class whose ``__init__`` stores mutable containers
    and which lacks ``__getstate__`` (directly or via a resolvable
    base); and arguments that are calls to project generator functions.
    """

    rule_id: ClassVar[str] = "RPL013"
    title: ClassVar[str] = "payload unsafe to cross the process boundary"

    def check_project(
        self, context: "FileContext", project: ProjectContext
    ) -> Iterator[Finding]:
        if is_test_path(context):
            return
        for info in project.functions_in(context):
            pools = _executor_names(info.node)
            if not pools:
                continue
            nested = _nested_function_names(info.node)
            locals_from: dict[str, ast.expr] = {}
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            locals_from[target.id] = node.value
            for node in ast.walk(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                ):
                    continue
                yield from self._check_submission(
                    context, node, project, nested, locals_from
                )

    def _check_submission(
        self,
        context: "FileContext",
        call: ast.Call,
        project: ProjectContext,
        nested: set[str],
        locals_from: dict[str, ast.expr],
    ) -> Iterator[Finding]:
        if not call.args:
            return
        worker, *payload = call.args
        if isinstance(worker, ast.Lambda):
            yield self.finding(
                context,
                worker,
                "lambda submitted to a process pool; lambdas cannot be "
                "pickled — use a module-level worker function",
            )
        elif isinstance(worker, ast.Name) and worker.id in nested:
            yield self.finding(
                context,
                worker,
                f"locally-defined function {worker.id}() submitted to a "
                "process pool; nested functions cannot be pickled — "
                "move the worker to module level",
            )
        keywords = [kw.value for kw in call.keywords if kw.value is not None]
        for arg in (*payload, *keywords):
            yield from self._check_payload(context, arg, project, locals_from)

    def _check_payload(
        self,
        context: "FileContext",
        arg: ast.expr,
        project: ProjectContext,
        locals_from: dict[str, ast.expr],
    ) -> Iterator[Finding]:
        if isinstance(arg, ast.Starred):
            arg = arg.value
        if isinstance(arg, ast.Lambda):
            yield self.finding(
                context,
                arg,
                "lambda passed as a worker argument; it would be "
                "pickled with the task and fail at submit time",
            )
            return
        if isinstance(arg, ast.GeneratorExp):
            yield self.finding(
                context,
                arg,
                "generator expression shipped to a process pool; "
                "generators cannot be pickled — materialize a list",
            )
            return
        # One local-assignment step: ``payload = Thing(...)`` then
        # ``pool.submit(fn, payload)`` resolves onto the constructor.
        if isinstance(arg, ast.Name):
            arg = locals_from.get(arg.id, arg)
        if not isinstance(arg, ast.Call):
            return
        callee = arg.func
        name = (
            callee.id
            if isinstance(callee, ast.Name)
            else callee.attr
            if isinstance(callee, ast.Attribute)
            else ""
        )
        if not name:
            return
        if _is_generator_function(name, project):
            yield self.finding(
                context,
                arg,
                f"{name}() returns a generator, which cannot cross the "
                "process boundary — materialize its output first",
            )
            return
        ships = project.class_ships_state(name)
        if ships is False:
            for info in project.resolve_class(name):
                if _stores_mutable_state(info):
                    yield self.finding(
                        context,
                        arg,
                        f"{name} instance shipped to a process pool but "
                        f"{name} has no __getstate__; its dict-backed "
                        "state pickles wholesale per task — define a "
                        "compiled-arrays __getstate__ like "
                        "CompiledComponent's",
                    )
                    return
