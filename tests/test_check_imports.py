"""The unused-import and stale-export checks in scripts/check_imports.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_imports.py"
spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
check_imports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_imports)


def test_unused_imports_are_reported_and_used_ones_are_not(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from math import inf, pi, tau\n"
        "from typing import Sequence\n"
        "from decimal import Decimal\n"
        "__all__ = ['tau']\n"
        "def f(x: 'Sequence[int]') -> \"Decimal\":\n"
        "    return os.path.join(str(pi), str(x))\n"
    )
    assert check_imports.unused_imports(module) == [("codec", 3), ("inf", 4)]


def test_init_modules_are_exempt_and_the_exit_code_counts_findings(tmp_path, capsys):
    package = tmp_path / "package"
    package.mkdir()
    (package / "__init__.py").write_text("from math import pi\n")
    assert check_imports.main([str(package)]) == 0
    (package / "other.py").write_text("import math\n")
    assert check_imports.main([str(package)]) == 1
    assert capsys.readouterr().out == f"{package / 'other.py'}:1: 'math' imported but unused\n"


def test_all_entries_the_module_never_binds_are_reported(tmp_path, capsys):
    module = tmp_path / "module.py"
    module.write_text(
        "from math import pi as tau\n"
        "LIMIT: int = 1\n"
        "if LIMIT:\n"
        "    def f():\n"
        "        local = 1\n"
        "class C:\n"
        "    attribute = 1\n"
        "__all__ = ['tau', 'LIMIT', 'f', 'C',\n"
        "           'pi', 'local', 'attribute']\n"
    )
    assert check_imports.stale_exports(module) == [("pi", 9), ("local", 9), ("attribute", 9)]
    (tmp_path / "__init__.py").write_text("__all__ = ['gone']\n")
    assert check_imports.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{tmp_path / '__init__.py'}:1: 'gone' in __all__ but never bound\n" in out
    module.write_text("from math import *\n__all__ = ['pi']\n")
    assert check_imports.stale_exports(module) == []
