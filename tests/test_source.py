"""Source hygiene of the package: no module imports a name it never uses."""
import ast
from pathlib import Path

import mixsearch

PACKAGE_DIR = Path(mixsearch.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind but that no
    expression in it reads and its ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert {"orchestrator.py", "report.py", "cli.py"} <= {path.name for path in paths}
    unused = {
        str(path.relative_to(PACKAGE_DIR)): unused_imports(path.read_text(encoding="utf-8"))
        for path in paths
    }
    assert unused == {name: [] for name in unused}


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import csv\n"
        "import os.path\n"
        "from typing import Iterator as It, Sequence\n"
        "from .records import read_json, dump_jsonl\n"
        "__all__ = ['dump_jsonl']\n"
        "def f(rows: Sequence[str]) -> None:\n"
        "    return os.path.join(*rows)\n"
    )
    assert unused_imports(source) == ["csv", "It", "read_json"]
