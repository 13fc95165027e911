"""Source hygiene of the package: no module imports a name it never uses,
the lower layers import nothing from the upper ones, the modules'
imports form no cycle, every error class is used, only ``records``
decodes JSON, and only ``profiles`` names the metric keys, which it
derives from the dimensions."""
import ast
from graphlib import TopologicalSorter
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


# The loop's parts, which import nothing from what wires them together.
LOWER_LAYERS = {"records", "errors", "corpus", "sampler", "profiles", "pareto", "rubric"}
UPPER_LAYERS = {"fixtures", "backend", "proposer", "report", "orchestrator", "cli"}


def package_imports(path: Path) -> set[str]:
    """The top-level modules of the package that the module at ``path``
    imports (``from .x import y``, ``from . import x``, ``import mixsearch.x``),
    at any depth of its syntax tree; a name ``from . import`` takes that is
    not a module (``__version__``) comes from ``__init__``."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                imported.add(node.module.split(".")[0])
            elif node.level == 1:
                imported.update(
                    alias.name if (path.parent / f"{alias.name}.py").is_file() else "__init__"
                    for alias in node.names
                )
            elif node.module and node.module.startswith("mixsearch."):
                imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("mixsearch.")
            )
    return imported


def import_graph() -> dict[str, set[str]]:
    """Each top-level module of the package -> the package modules it imports."""
    return {path.stem: package_imports(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}


def test_lower_layers_import_no_upper_layer():
    graph = import_graph()
    assert LOWER_LAYERS | UPPER_LAYERS <= set(graph)
    upward = {module: sorted(graph[module] & UPPER_LAYERS) for module in sorted(LOWER_LAYERS)}
    assert upward == {module: [] for module in upward}


def test_the_package_imports_form_no_cycle():
    TopologicalSorter(import_graph()).prepare()  # a cycle raises CycleError naming it


def test_a_package_import_at_any_depth_is_found(tmp_path):
    (tmp_path / "records.py").write_text("", encoding="utf-8")
    (tmp_path / "rubric.py").write_text(
        "from . import __version__, records\n"
        "def f():\n"
        "    from .fixtures import data_path\n",
        encoding="utf-8",
    )
    assert package_imports(tmp_path / "rubric.py") == {"__init__", "records", "fixtures"}


def test_every_error_class_is_named_outside_errors_py():
    """Each ``MixSearchError`` subclass is named by some other module of the
    package, so no exit code is documented that nothing can produce."""
    classes = {"MixSearchError"}
    for node in ast.parse((PACKAGE_DIR / "errors.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in classes for base in node.bases
        ):
            classes.add(node.name)
    named = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    assert {"ConfigError", "DataError"} < classes
    assert sorted(classes - named) == []


JSON_READERS = {"load", "loads", "JSONDecoder"}
# Outside records.py, the functions that may decode JSON: a response text
# that is not read from a file.
JSON_READERS_ALLOWED = {("rubric.py", "_format_ok")}


def json_readers(source: str) -> list[str]:
    """The functions of ``source`` (``<module>`` at module level) that name
    ``json.load``, ``json.loads`` or ``json.JSONDecoder``, or import one
    of them from ``json``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Attribute) and node.attr in JSON_READERS
            and isinstance(node.value, ast.Name) and node.value.id == "json"
        ) or (
            isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name in JSON_READERS for alias in node.names)
        ):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_records_decodes_json():
    """Every JSON file the package reads goes through ``records.read_json``.
    The oracles are left out: they share no code with the package."""
    readers = {
        (path.name, where)
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "records.py"
        for where in json_readers(path.read_text(encoding="utf-8"))
    }
    assert json_readers((PACKAGE_DIR / "records.py").read_text(encoding="utf-8"))
    assert readers - JSON_READERS_ALLOWED == set()


def test_a_json_reader_is_found():
    source = (
        "import json\n"
        "from json import loads as parse\n"
        "DECODER = json.JSONDecoder()\n"
        "def f(path):\n"
        "    def g(handle):\n"
        "        return json.load(handle)\n"
        "    return json.dumps(json.loads(path.read_text()))\n"
    )
    assert json_readers(source) == ["<module>", "<module>", "g", "f"]


# The JSON keys of the three means, which ``profiles.METRIC_KEYS`` derives
# from the dimensions; no module spells one.
METRIC_KEY_SPELLINGS = {"safe", "benign", "if"}


def metric_key_literals(source: str) -> list[str]:
    """The string constants of ``source`` that spell a metric key, in
    syntax-tree walk order (f-string parts included)."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in METRIC_KEY_SPELLINGS
    ]


def test_no_module_spells_a_metric_key():
    spelled = {
        str(path.relative_to(PACKAGE_DIR)): metric_key_literals(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    }
    assert spelled == {name: [] for name in spelled}


def test_a_spelled_metric_key_is_found():
    source = (
        "HEADER = ['label', 'safe']\n"
        "def row(metric):\n"
        "    return f\"{'if':>9}\" + metric.to_json()[\"benign\"] + 'iff'\n"
    )
    assert sorted(metric_key_literals(source)) == ["benign", "if", "safe"]
