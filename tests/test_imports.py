"""Every module-level import in the package is read, the package
exports every domain error, and its export list is what a star import
binds."""

import ast
import inspect
import types
from pathlib import Path

import gbsr
import gbsr.errors

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gbsr").glob("*.py"))


def _imported_names(tree):
    """(name, line) for each name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_level_import_is_read():
    modules = [p for p in SOURCES if p.name != "__init__.py"]
    assert len(modules) >= 7
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [(path.name, line, name) for name, line in _imported_names(tree) if name not in read]
    assert unused == []


def test_package_exports_every_domain_error():
    errors = [
        cls for _, cls in inspect.getmembers(gbsr.errors, inspect.isclass)
        if issubclass(cls, gbsr.errors.GbsError)
    ]
    assert len(errors) > 20
    for cls in errors:
        assert cls.__name__ in gbsr.__all__, cls.__name__
        assert getattr(gbsr, cls.__name__) is cls, cls.__name__


def test_star_import_binds_exactly_the_sorted_export_list():
    namespace = {}
    exec("from gbsr import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == gbsr.__all__ == sorted(gbsr.__all__)
    assert not any(isinstance(getattr(gbsr, name), types.ModuleType) for name in gbsr.__all__)
