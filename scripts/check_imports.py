#!/usr/bin/env python3
"""Report imported names that a module never uses.

    python scripts/check_imports.py src tests scripts

Reads every .py file under the given directories with the standard
library's ast module and prints one `path:line: 'name' imported but
unused` line per unused import; exits 1 if there is any. A name counts
as used when the module loads it anywhere, lists it in `__all__`, or
names it in a string annotation. `__future__` imports are skipped, and
`__init__.py` files are exempt, since their imports are re-exports.
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


def unused_imports(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every import in the file that the module never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [(name, line) for name, line in _imports(tree) if name not in used]


def main(argv: list[str]) -> int:
    found = 0
    for root in argv or ["src", "tests", "scripts"]:
        for path in sorted(Path(root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for name, line in unused_imports(path):
                print(f"{path}:{line}: {name!r} imported but unused")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
