"""Phase 1 of the two-phase analyzer: the whole-program model.

Per-file AST rules cannot see that a set built in one function flows
into a cache key in another module, or that a pipeline stage calls a
helper that calls a graph mutator.  :class:`ProjectContext` is the
shared, rule-independent model of the *whole* linted tree that makes
those cross-module questions answerable:

* **module symbol tables** — every top-level function, class, import
  and assignment of every linted file, keyed by module;
* **an import graph** — which module imports which (by dotted name and
  by imported symbol), for reachability questions like "is this
  function reachable from ``session.py``";
* **a function registry** — every function and method with its
  decorators resolved to dotted names and module-level aliases
  (``dp_core = _impl``) folded in;
* **a conservative call graph** — for each function, the set of simple
  names it calls; resolution is by name across the whole project, so a
  call can resolve to *several* candidate definitions and analyses must
  treat all of them as possible (over-approximation, never silent
  under-approximation).

The model is deliberately syntactic: no imports are executed, no
modules are loaded.  Rules that need it subclass
:class:`~repro.analysis.rules.base.ProjectRule` and receive the context
alongside each :class:`~repro.analysis.engine.FileContext` in phase 2.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext

__all__ = [
    "FunctionInfo",
    "ModuleTable",
    "ProjectContext",
    "called_names",
    "decorator_name",
    "module_name_for",
]


def module_name_for(path_parts: Sequence[str]) -> str:
    """Derive a dotted module name from a file's path components.

    Anchored at the innermost ``src`` directory when one is present
    (``src/repro/core/session.py`` -> ``repro.core.session``); otherwise
    the last three components are used, which keeps fixture trees like
    ``<tmp>/core/session.py`` distinguishable without leaking absolute
    temp paths into the model.  ``__init__.py`` maps to its package.
    """
    parts = [part for part in path_parts if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[anchor + 1 :]
    else:
        parts = parts[-3:]
    return ".".join(parts)


#: Constructor calls producing mutable containers at module level.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)


def _is_mutable_container(node: ast.expr | None) -> bool:
    """Whether a module-level initializer builds a mutable container."""
    if node is None:
        return False
    if isinstance(
        node,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def decorator_name(node: ast.expr) -> str:
    """The dotted name of a decorator expression (call parens stripped).

    ``@register``, ``@registry.stage`` and ``@registry.stage("prune")``
    resolve to ``register`` / ``registry.stage``; anything unresolvable
    (a subscript, a lambda) collapses to ``""``.
    """
    if isinstance(node, ast.Call):
        node = node.func
    names: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        names.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        names.append(current.id)
        return ".".join(reversed(names))
    return ""


def called_names(node: ast.AST) -> frozenset[str]:
    """Simple names of every call target syntactically inside ``node``.

    ``helper(x)`` contributes ``helper``; ``mod.helper(x)`` and
    ``self.helper(x)`` contribute ``helper`` — attribute bases are
    dropped, which is what makes the downstream resolution conservative:
    a method call can match any same-named function in the project.
    For function definitions only the *body* is walked: decorator
    expressions are metadata, not call-graph edges.
    """
    roots: Sequence[ast.AST]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots = node.body
    else:
        roots = [node]
    names: set[str] = set()
    for root in roots:
        for current in ast.walk(root):
            if not isinstance(current, ast.Call):
                continue
            func = current.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return frozenset(names)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the linted tree."""

    #: Simple name (``prune_stage``); what call-graph edges resolve by.
    name: str
    #: ``Class.method`` for methods, the simple name otherwise.
    qualname: str
    module: str
    context: "FileContext"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Enclosing class name, ``None`` for module-level functions.
    class_name: str | None
    #: Dotted decorator names, call parentheses stripped.
    decorators: tuple[str, ...]
    #: Simple names this function's body calls (nested defs included:
    #: a closure's behaviour is part of its owner's).
    calls: frozenset[str]

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ModuleTable:
    """Symbol table of one module (top-level bindings only)."""

    module: str
    context: "FileContext"
    #: Top-level name -> the kind of its binding
    #: (``"function"`` | ``"class"`` | ``"import"`` | ``"assign"``).
    symbols: dict[str, str] = field(default_factory=dict)
    #: Modules this file imports (dotted names as written).
    imports: set[str] = field(default_factory=set)
    #: Imported symbol name -> source module (``from x import f``).
    imported_symbols: dict[str, str] = field(default_factory=dict)
    #: Module-level aliases of the form ``name = other_name``.
    aliases: dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to mutable containers (dict/list/set
    #: literals or constructor calls) — the "module-level mutable state"
    #: the purity rule polices.
    mutable_globals: set[str] = field(default_factory=set)


class ProjectContext:
    """The whole-program model rules consult in phase 2.

    Build one per lint run via :meth:`build`; identity of
    :class:`FileContext` objects ties findings back to files.
    """

    def __init__(
        self,
        files: Sequence["FileContext"],
        modules: dict[str, ModuleTable],
        functions: dict[str, tuple[FunctionInfo, ...]],
        functions_by_file: dict[int, tuple[FunctionInfo, ...]],
    ) -> None:
        self.files = list(files)
        self.modules = modules
        self._functions = functions
        self._functions_by_file = functions_by_file

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, files: Sequence["FileContext"]) -> "ProjectContext":
        """Walk every parsed file into the shared model (one pass each)."""
        modules: dict[str, ModuleTable] = {}
        functions: dict[str, list[FunctionInfo]] = {}
        by_file: dict[int, list[FunctionInfo]] = {}

        for context in files:
            module = module_name_for(context.path.parts)
            table = ModuleTable(module=module, context=context)
            modules[module] = table
            file_functions = by_file.setdefault(id(context), [])

            for stmt in context.tree.body:
                cls._index_toplevel(stmt, table)

            for info in cls._walk_definitions(context, module):
                functions.setdefault(info.name, []).append(info)
                file_functions.append(info)

        return cls(
            files,
            modules,
            {name: tuple(defs) for name, defs in functions.items()},
            {key: tuple(defs) for key, defs in by_file.items()},
        )

    @staticmethod
    def _index_toplevel(stmt: ast.stmt, table: ModuleTable) -> None:
        """Record one module-level statement in the symbol table."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table.symbols[stmt.name] = "function"
        elif isinstance(stmt, ast.ClassDef):
            table.symbols[stmt.name] = "class"
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                table.imports.add(alias.name)
                table.symbols[alias.asname or alias.name.split(".")[0]] = (
                    "import"
                )
        elif isinstance(stmt, ast.ImportFrom):
            source = "." * stmt.level + (stmt.module or "")
            table.imports.add(source)
            for alias in stmt.names:
                local = alias.asname or alias.name
                table.symbols[local] = "import"
                table.imported_symbols[local] = source
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                table.symbols[target.id] = "assign"
                value = stmt.value
                if isinstance(value, ast.Name):
                    table.aliases[target.id] = value.id
                if _is_mutable_container(value):
                    table.mutable_globals.add(target.id)

    @staticmethod
    def _walk_definitions(
        context: "FileContext", module: str
    ) -> Iterator[FunctionInfo]:
        """Yield every function and method defined in ``context``."""

        def function_info(
            node: ast.FunctionDef | ast.AsyncFunctionDef,
            class_name: str | None,
        ) -> FunctionInfo:
            qualname = (
                f"{class_name}.{node.name}" if class_name else node.name
            )
            return FunctionInfo(
                name=node.name,
                qualname=qualname,
                module=module,
                context=context,
                node=node,
                class_name=class_name,
                decorators=tuple(
                    name
                    for dec in node.decorator_list
                    if (name := decorator_name(dec))
                ),
                calls=called_names(node),
            )

        def walk(
            body: Sequence[ast.stmt], class_name: str | None
        ) -> Iterator[FunctionInfo]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield function_info(stmt, class_name)
                    # Nested defs are folded into their owner's `calls`
                    # (called_names walks the whole body), not
                    # registered as call-graph nodes of their own.
                elif isinstance(stmt, ast.ClassDef):
                    for inner in stmt.body:
                        if isinstance(
                            inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            yield function_info(inner, stmt.name)

        yield from walk(context.tree.body, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def module_of(self, context: "FileContext") -> str:
        """The dotted module name assigned to ``context``."""
        return module_name_for(context.path.parts)

    def functions_in(self, context: "FileContext") -> tuple[FunctionInfo, ...]:
        """Every function/method defined in ``context``, in source order."""
        return self._functions_by_file.get(id(context), ())

    def resolve_function(self, name: str) -> tuple[FunctionInfo, ...]:
        """All project definitions a call to ``name`` may reach.

        Module-level aliases are followed one step (``dp_core = _impl``
        resolves calls to ``dp_core`` onto ``_impl`` as well), so renamed
        registrations stay visible to transitive analyses.
        """
        direct = self._functions.get(name, ())
        aliased: tuple[FunctionInfo, ...] = ()
        for table in self.modules.values():
            target = table.aliases.get(name)
            if target is not None and target != name:
                aliased += self._functions.get(target, ())
        return direct + aliased

    def callees(self, info: FunctionInfo) -> tuple[FunctionInfo, ...]:
        """Every project function a call inside ``info`` may reach."""
        resolved: list[FunctionInfo] = []
        for name in sorted(info.calls):
            resolved.extend(self.resolve_function(name))
        return tuple(resolved)

    def transitive_callees(
        self, info: FunctionInfo, limit: int = 2000
    ) -> tuple[FunctionInfo, ...]:
        """The call-graph closure from ``info`` (``info`` excluded).

        Breadth-first over the conservative by-name edges; ``limit``
        bounds the worklist so a pathological project cannot hang the
        linter.  Deterministic: candidates expand in sorted name order.
        """
        seen: dict[tuple[str, str], FunctionInfo] = {}
        queue: list[FunctionInfo] = list(self.callees(info))
        while queue and len(seen) < limit:
            current = queue.pop(0)
            key = (current.module, current.qualname)
            if key in seen:
                continue
            seen[key] = current
            queue.extend(self.callees(current))
        return tuple(seen.values())

    def importers_of(self, module_suffix: str) -> tuple[ModuleTable, ...]:
        """Module tables that import a module whose name ends with
        ``module_suffix`` (dotted-boundary match), in module-name order."""
        hits: list[ModuleTable] = []
        for name in sorted(self.modules):
            table = self.modules[name]
            for imported in table.imports:
                if imported == module_suffix or imported.endswith(
                    "." + module_suffix
                ):
                    hits.append(table)
                    break
        return hits
