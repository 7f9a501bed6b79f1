"""Unit tests for the phase-1 whole-program model (ProjectContext)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.engine import FileContext, iter_python_files, _load_context
from repro.analysis.project import (
    ProjectContext,
    called_names,
    decorator_name,
    module_name_for,
)


def build_project(tmp_path: Path, files: dict[str, str]) -> ProjectContext:
    contexts: list[FileContext] = []
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    for path in iter_python_files([tmp_path]):
        loaded = _load_context(path)
        assert isinstance(loaded, FileContext), loaded
        contexts.append(loaded)
    return ProjectContext.build(contexts)


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------

def test_module_name_anchors_at_src() -> None:
    parts = ("home", "user", "repo", "src", "repro", "core", "session.py")
    assert module_name_for(parts) == "repro.core.session"


def test_module_name_without_src_keeps_tail() -> None:
    assert module_name_for(("tmp", "xyz", "core", "mod.py")) == "xyz.core.mod"


def test_module_name_init_maps_to_package() -> None:
    parts = ("src", "repro", "core", "__init__.py")
    assert module_name_for(parts) == "repro.core"


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------

def test_decorator_and_called_names() -> None:
    import ast

    tree = ast.parse(
        "@registry.stage('prune')\n"
        "def f(x):\n"
        "    helper(x)\n"
        "    obj.method(x)\n"
    )
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef)
    assert decorator_name(func.decorator_list[0]) == "registry.stage"
    assert called_names(func) == frozenset({"helper", "method"})


# ----------------------------------------------------------------------
# Symbol tables, registry, call graph
# ----------------------------------------------------------------------

def test_symbol_tables_and_function_registry(tmp_path: Path) -> None:
    project = build_project(
        tmp_path,
        {
            "core/a.py": """
            from core.b import helper

            CACHE = {}
            LIMIT = 3

            def outer(x):
                return helper(x)

            class Owner:
                def method(self):
                    return outer(self)
            """,
            "core/b.py": """
            def helper(x):
                return x
            """,
        },
    )
    table = next(
        t for t in project.modules.values() if t.module.endswith("core.a")
    )
    assert table.symbols["outer"] == "function"
    assert table.symbols["Owner"] == "class"
    assert table.symbols["helper"] == "import"
    assert table.symbols["CACHE"] == "assign"
    assert "CACHE" in table.mutable_globals
    assert "LIMIT" not in table.mutable_globals

    outer = project.resolve_function("outer")
    assert len(outer) == 1 and not outer[0].is_method
    method = project.resolve_function("method")
    assert method[0].qualname == "Owner.method"
    assert method[0].class_name == "Owner"

    # Conservative call graph: outer -> helper resolves cross-module.
    callees = project.callees(outer[0])
    assert [c.name for c in callees] == ["helper"]


def test_alias_resolution_one_step(tmp_path: Path) -> None:
    project = build_project(
        tmp_path,
        {
            "core/impl.py": """
            def _impl(x):
                return x

            dp_core = _impl
            """,
            "core/user.py": """
            def run(x):
                return dp_core(x)
            """,
        },
    )
    resolved = project.resolve_function("dp_core")
    assert [info.name for info in resolved] == ["_impl"]


def test_transitive_callees_cross_module(tmp_path: Path) -> None:
    project = build_project(
        tmp_path,
        {
            "core/top.py": """
            def entry(x):
                return middle(x)
            """,
            "core/mid.py": """
            from core.bottom import leaf

            def middle(x):
                return leaf(x)
            """,
            "core/bottom.py": """
            def leaf(x):
                return x
            """,
        },
    )
    entry = project.resolve_function("entry")[0]
    names = {info.name for info in project.transitive_callees(entry)}
    assert {"middle", "leaf"} <= names


def test_importers_of_suffix_match(tmp_path: Path) -> None:
    project = build_project(
        tmp_path,
        {
            "core/session.py": """
            from core import pipeline
            """,
            "core/pipeline.py": """
            x = 1
            """,
        },
    )
    importers = project.importers_of("core")
    assert any(t.module.endswith("session") for t in importers)


def test_functions_in_returns_source_order(tmp_path: Path) -> None:
    project = build_project(
        tmp_path,
        {
            "core/m.py": """
            def first():
                pass

            class C:
                def second(self):
                    pass

            def third():
                pass
            """,
        },
    )
    context = project.files[0]
    assert [f.name for f in project.functions_in(context)] == [
        "first",
        "second",
        "third",
    ]
