"""The unused-import check in scripts/check_imports.py."""

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
