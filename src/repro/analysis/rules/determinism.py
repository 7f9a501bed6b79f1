"""Determinism rules: RPL009/RPL010 — unordered iteration must not reach
parity-critical output.

The whole performance story of this repo is gated by *bit-identity*:
a warm session must equal a cold one, a patched artifact must equal a
cold rebuild, the compiled engines must equal legacy.  One ``for u in some_set:`` whose
order leaks into a returned clique list, a merge concatenation, or a
stats counter silently breaks that oracle — with string nodes, set
iteration order depends on ``PYTHONHASHSEED``, so the "nondeterminism"
only shows up across *processes*, exactly where the parity suites do not
look.

RPL009 flags unordered (set-typed) values reaching *ordered sinks*:
``list(...)`` / ``tuple(...)`` materialization, ``induced_subgraph``
(whose node order follows argument order), list-building comprehensions,
and ``for`` loops that yield or append.  The check is flow-aware within
a function and — via the :class:`~repro.analysis.project.ProjectContext`
call graph — one level *across* functions: an unordered argument passed
to a parameter that some callee feeds into an ordered sink is flagged at
the call site.

RPL010 flags unordered *reductions*: ``sum()`` / ``math.prod()`` /
``reduce()`` over an unordered iterable of probability-like values.
Float addition and multiplication are not associative; summing a set of
probabilities in hash order produces answers that differ in the last
ulp between runs, which is precisely the difference the bit-identity
suites exist to catch.

Both rules scope themselves to library modules under ``core/`` (the
parity-critical surface); ``sorted(...)`` and ``_ordered(...)`` are the
sanctioned escapes.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, ProjectContext
from repro.analysis.rules.base import (
    ProjectRule,
    Rule,
    is_test_path,
    mentions_probability,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext

__all__ = ["UnorderedIterationFlow", "UnorderedReduction"]

#: Call names producing unordered collections.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Method names whose result is a set whenever the receiver is one.
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference", "copy"}
)

#: Consumers that neutralize iteration order (sorting or order-free
#: aggregation), so an unordered value passed to them is sanctioned.
_ORDER_NEUTRAL_CALLS = frozenset(
    {
        "sorted",
        "_ordered",
        "len",
        "sum",  # RPL010 owns float-sum hazards; sum of ints is order-free
        "min",
        "max",
        "any",
        "all",
        "set",
        "frozenset",
    }
)

#: Outermost annotation names marking a parameter as set-typed.  Only
#: the *outer* constructor counts: ``Iterable[frozenset[Node]]`` is an
#: ordered stream whose elements happen to be sets.
_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    outer = ast.unparse(annotation).split("[", 1)[0].strip()
    return outer.rsplit(".", 1)[-1] in _SET_ANNOTATIONS


def _is_unordered(node: ast.expr, unordered_names: set[str]) -> bool:
    """Whether ``node`` evaluates to an unordered (set-typed) value."""
    if isinstance(node, ast.Name):
        return node.id in unordered_names
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_unordered(func.value, unordered_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_unordered(node.left, unordered_names) or _is_unordered(
            node.right, unordered_names
        )
    if isinstance(node, ast.IfExp):
        return _is_unordered(node.body, unordered_names) or _is_unordered(
            node.orelse, unordered_names
        )
    return False


def _loop_emits(loop: ast.For) -> bool:
    """Whether a ``for`` loop's body makes iteration order observable:
    it yields, or it appends/extends an accumulator."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend")
        ):
            return True
    return False


class _FunctionScanner:
    """Statement-ordered scan of one function for unordered-flow hazards.

    Tracks which local names hold unordered values as assignments are
    encountered (rebinding a name to an ordered value releases it, the
    same discipline :class:`FrozenGraphMutation` applies to ``.copy()``),
    and reports each ordered sink an unordered value reaches.
    """

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        extra_unordered: frozenset[str] = frozenset(),
    ) -> None:
        self.unordered: set[str] = set(extra_unordered)
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                self.unordered.add(arg.arg)
        #: (node, description) pairs for every hazardous sink.
        self.sinks: list[tuple[ast.AST, str]] = []
        #: name -> unordered argument expressions at calls to it.
        self.call_args: list[tuple[str, ast.expr, int | str]] = []
        for stmt in func.body:
            self._scan(stmt)

    # -- assignment tracking -------------------------------------------

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if _is_unordered(value, self.unordered):
            self.unordered.add(target.id)
        else:
            self.unordered.discard(target.id)

    # -- recursive statement walk --------------------------------------

    def _scan(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            self._check_expr(node.value)
            for target in node.targets:
                self._bind(target, node.value)
            return
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            self._check_expr(node.value)
            self._bind(node.target, node.value)
            return
        if isinstance(node, ast.AugAssign):
            self._check_expr(node.value)
            return
        if isinstance(node, ast.For):
            self._check_expr(node.iter)
            if _is_unordered(node.iter, self.unordered) and _loop_emits(node):
                self.sinks.append(
                    (
                        node.iter,
                        "for-loop over an unordered set whose body emits "
                        "ordered output (yield/append)",
                    )
                )
            for stmt in node.body + node.orelse:
                self._scan(stmt)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested functions inherit the enclosing unordered names
            # (closure capture) but do not leak rebindings back.
            saved = set(self.unordered)
            for arg in (
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ):
                if _annotation_is_set(arg.annotation):
                    self.unordered.add(arg.arg)
            for stmt in node.body:
                self._scan(stmt)
            self.unordered = saved
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._check_expr(child)
            else:
                self._scan(child)

    # -- expression sinks ----------------------------------------------

    def _check_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            self._check_call(node)
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name in _ORDER_NEUTRAL_CALLS:
                # ``sorted(x for x in some_set)`` consumes the hash
                # order without observing it — do not descend.
                return
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            first = node.generators[0]
            if _is_unordered(first.iter, self.unordered):
                self.sinks.append(
                    (
                        first.iter,
                        "comprehension over an unordered set "
                        "materializes hash order",
                    )
                )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._check_expr(child)

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name is None:
            return
        if name in ("list", "tuple") and call.args:
            if _is_unordered(call.args[0], self.unordered):
                self.sinks.append(
                    (
                        call.args[0],
                        f"{name}(...) of an unordered set materializes "
                        "hash order",
                    )
                )
            return
        if name in _ORDER_NEUTRAL_CALLS:
            return
        if name == "induced_subgraph" and call.args:
            if _is_unordered(call.args[0], self.unordered):
                self.sinks.append(
                    (
                        call.args[0],
                        "induced_subgraph(...) of an unordered set — "
                        "subgraph node order follows argument order",
                    )
                )
            return
        # Record unordered arguments for the interprocedural pass.
        for index, arg in enumerate(call.args):
            if _is_unordered(arg, self.unordered):
                self.call_args.append((name, arg, index))
        for keyword in call.keywords:
            if keyword.arg is not None and _is_unordered(
                keyword.value, self.unordered
            ):
                self.call_args.append((name, keyword.value, keyword.arg))


def _order_sensitive_params(info: FunctionInfo) -> frozenset[str]:
    """Parameters of ``info`` that reach an ordered sink in its body.

    The one-level interprocedural summary: a caller passing an unordered
    value into one of these parameters has the same hazard as writing
    the sink expression inline.  Each parameter is probed by re-scanning
    the body with exactly that parameter marked unordered — a sink that
    fires only then is attributable to the parameter.
    """
    baseline = len(_FunctionScanner(info.node).sinks)
    sensitive: set[str] = set()
    for arg in (
        *info.node.args.posonlyargs,
        *info.node.args.args,
        *info.node.args.kwonlyargs,
    ):
        if arg.arg in ("self", "cls"):
            continue
        probe = _FunctionScanner(info.node, frozenset({arg.arg}))
        if len(probe.sinks) > baseline:
            sensitive.add(arg.arg)
    return frozenset(sensitive)


def _param_position(
    info: FunctionInfo, position: int | str
) -> str | None:
    """The parameter name a call argument lands on (``None`` if off the
    end — \\*args and friends are skipped conservatively)."""
    params = [
        arg.arg
        for arg in (
            *info.node.args.posonlyargs,
            *info.node.args.args,
            *info.node.args.kwonlyargs,
        )
    ]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    if isinstance(position, str):
        return position if position in params else None
    if 0 <= position < len(params):
        return params[position]
    return None


class UnorderedIterationFlow(ProjectRule):
    """RPL009 — set iteration order reaching parity-critical output.

    Within a function: an unordered value materialized by ``list`` /
    ``tuple``, passed to ``induced_subgraph``, driving a list-building
    comprehension, or iterated by a loop that yields/appends.  Across
    functions: an unordered argument passed to a parameter some callee
    feeds into such a sink (resolved through the project call graph).
    ``sorted(...)`` / ``_ordered(...)`` sanction the value.
    """

    rule_id: ClassVar[str] = "RPL009"
    title: ClassVar[str] = (
        "unordered set iteration flowing into ordered output"
    )

    def check_project(
        self, context: "FileContext", project: ProjectContext
    ) -> Iterator[Finding]:
        if not context.in_directory("core") or is_test_path(context):
            return
        summaries: dict[int, frozenset[str]] = {}

        def sensitive_params(callee: FunctionInfo) -> frozenset[str]:
            key = id(callee.node)
            if key not in summaries:
                summaries[key] = _order_sensitive_params(callee)
            return summaries[key]

        for info in project.functions_in(context):
            scanner = _FunctionScanner(info.node)
            for node, description in scanner.sinks:
                yield self.finding(
                    context,
                    node,
                    f"{description}; iterate in a deterministic order "
                    "(sorted(...) or graph order) before it reaches "
                    "returned/merged output",
                )
            for callee_name, arg, position in scanner.call_args:
                for callee in project.resolve_function(callee_name):
                    param = _param_position(callee, position)
                    if param is None:
                        continue
                    if param in sensitive_params(callee):
                        yield self.finding(
                            context,
                            arg,
                            "unordered set passed to "
                            f"{callee.qualname}() parameter {param!r}, "
                            "which flows into an order-sensitive sink "
                            f"in {callee.module}; pass a "
                            "deterministically ordered sequence",
                        )
                        break


#: Reduction callables whose float result depends on operand order.
_REDUCTIONS = frozenset({"sum", "prod", "fsum", "reduce"})


class UnorderedReduction(Rule):
    """RPL010 — float reduction over an unordered probability iterable.

    ``sum(prob_set)`` and friends re-associate float operations in hash
    order; across processes (``PYTHONHASHSEED``) the last-ulp result
    differs, breaking the bit-identity oracle.  Flagged whenever the
    reduced iterable is set-typed (directly, via a tracked local, or as
    the source of a generator expression) and mentions a
    probability-like name.  Reduce over a ``sorted(...)`` iterable is
    the sanctioned form.
    """

    rule_id: ClassVar[str] = "RPL010"
    title: ClassVar[str] = (
        "float reduction over an unordered probability iterable"
    )

    def check(self, context: "FileContext") -> Iterator[Finding]:
        if not context.in_directory("core") or is_test_path(context):
            return
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            scanner = _FunctionScanner(node)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if name not in _REDUCTIONS or not call.args:
                    continue
                # reduce(f, iterable) reduces its second argument.
                iterable = call.args[1] if (
                    name == "reduce" and len(call.args) > 1
                ) else call.args[0]
                source = iterable
                if isinstance(
                    iterable, (ast.GeneratorExp, ast.SetComp)
                ):
                    source = iterable.generators[0].iter
                if not _is_unordered(source, scanner.unordered):
                    continue
                if not (
                    mentions_probability(iterable)
                    or mentions_probability(source)
                ):
                    continue
                yield self.finding(
                    context,
                    call,
                    f"{name}(...) over an unordered probability set "
                    "re-associates floats in hash order; reduce over "
                    "sorted(...) operands to keep results bit-identical",
                )
