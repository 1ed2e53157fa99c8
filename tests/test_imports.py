"""Every name that a module of ``src/cycbmw`` imports is used in it.

An import kept only so that ``bench/tracer.py`` can patch the name where its
consumer reaches it is marked ``# noqa: F401`` and is exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cycbmw"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that the source never reads,
    leaving out ``__future__`` imports and lines marked ``# noqa: F401``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, name))
    return out


def test_no_unused_imports_in_src():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from math import gcd, lcm\n"
              "from json import dumps  # noqa: F401\n"
              "print(lcm(2, 3))\n")
    assert unused_imports(source) == [(2, "os"), (3, "gcd")]
