#!/usr/bin/env python3
"""Report imported names that a module never uses, and `__all__` entries it never binds.

    python scripts/check_imports.py src tests scripts

Reads every .py file under the given directories with the standard
library's ast module and prints one `path:line: 'name' imported but
unused` line per unused import and one `path:line: 'name' in __all__ but
never bound` line per stale export; exits 1 if there is any. A name
counts as used when the module loads it anywhere, lists it in `__all__`,
or names it in a string annotation. `__future__` imports are skipped,
and `__init__.py` files are exempt from the unused-import check, since
their imports are re-exports. A name counts as bound when a statement at
module level, outside any function or class body, defines, assigns or
imports it; a module with a star import is not checked for stale exports.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _imports(tree: ast.Module):
    """(bound name, line) of every import in the module, except __future__ ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _string_annotation_names(annotation: ast.expr):
    """Names inside the string literals of an annotation, such as -> "ChannelState"."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_string_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used.update(_string_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                  for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return used


def _module_statements(body: list[ast.stmt]):
    """The statements of a module body, with those nested in its if, try, with and loop
    blocks, but not those inside function or class bodies."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_statements(getattr(node, field, []))


def _bound_at_module_level(tree: ast.Module) -> set[str] | None:
    """Names a module binds at module level, or None when a star import binds unknown ones."""
    bound = set()
    for node in _module_statements(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    return None
                bound.add(alias.asname or alias.name.partition(".")[0])
        else:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            targets += [item.optional_vars for item in getattr(node, "items", [])]
            bound.update(n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


def stale_exports(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every `__all__` entry that the module never binds at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _bound_at_module_level(tree)
    if bound is None:
        return []
    return [(c.value, c.lineno)
            for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)
            and c.value not in bound]


def unused_imports(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every import in the file that the module never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [(name, line) for name, line in _imports(tree) if name not in used]


def main(argv: list[str]) -> int:
    found = 0
    for root in argv or ["src", "tests", "scripts"]:
        for path in sorted(Path(root).rglob("*.py")):
            if path.name != "__init__.py":
                for name, line in unused_imports(path):
                    print(f"{path}:{line}: {name!r} imported but unused")
                    found += 1
            for name, line in stale_exports(path):
                print(f"{path}:{line}: {name!r} in __all__ but never bound")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
