"""Meta-tests on the public API surface.

Keeps the packaging honest: everything exported is importable and
documented, and the package has no hidden third-party runtime imports.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_public_objects_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, str):  # __version__
                continue
            assert obj.__doc__, f"{name} lacks a docstring"

    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_subpackages_export_documented_names(self):
        import repro.core
        import repro.datasets
        import repro.uncertain

        for module in (repro.core, repro.datasets, repro.uncertain):
            for name in module.__all__:
                obj = getattr(module, name)
                assert obj.__doc__, f"{module.__name__}.{name}"


class TestNoHiddenDependencies:
    def test_every_module_imports_cleanly(self):
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            importlib.import_module(info.name)

    def test_no_third_party_imports_in_source(self):
        import pathlib

        root = pathlib.Path(repro.__file__).parent
        forbidden = ("numpy", "scipy", "networkx", "pandas")
        for path in root.rglob("*.py"):
            text = path.read_text()
            for package in forbidden:
                assert f"import {package}" not in text, (
                    f"{path} imports {package}"
                )
                assert f"from {package}" not in text, (
                    f"{path} imports {package}"
                )

    def test_every_module_has_docstring(self):
        import pathlib

        root = pathlib.Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            text = path.read_text().lstrip()
            if path.name == "py.typed":
                continue
            assert text.startswith('"""'), f"{path} lacks a docstring"


class TestPackagingConsistency:
    def test_version_matches_pyproject(self):
        import pathlib

        root = pathlib.Path(repro.__file__).resolve().parents[2]
        pyproject = (root / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_cli_entry_point_importable(self):
        from repro.cli import main

        assert callable(main)


def test_readme_imports_resolve():
    # Every ``from repro... import`` in a README python block names
    # something the package exports, so the README never advertises a
    # removed function.
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    readme = (root / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    checked = 0
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            if node.module.split(".")[0] != "repro":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"README imports {alias.name} from {node.module}"
                )
                checked += 1
    assert checked
