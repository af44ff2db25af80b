"""Static gates: every name a library module imports is used or exported,
every name a library module exports is read by the library, the benchmark,
the tools or the README's Python examples, and every tape op the gradient
oracle checks is read outside the oracle."""

import ast
import re
from pathlib import Path

import pytest

from molcontrast.autodiff import gradcheck_report

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "molcontrast").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads and
    ``__all__`` does not list; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            exported |= {e.value for e in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_gate_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "from .errors import DataError\n"
        "__all__ = ['DataError']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = os.sep\n"
    )
    assert unused_imports(source) == ["line 3: field"]


def exports(tree: ast.Module) -> list[str]:
    """The names a module's top-level ``__all__`` lists, if it has one."""
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = [e.value for e in node.value.elts]
    return exported


def unread_exports(module: str, sources: dict[str, str]) -> list[str]:
    """Names in ``__all__`` of ``sources[module]`` that no source reads.

    ``module`` reads its own names directly, outside the name's own ``def``
    or ``class``; another source reads a name it imports from ``module``
    (``from .autodiff import Tape``) or an attribute of ``module`` imported
    whole (``ad.segment_sum``).  An import alone is not a read.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    exported = exports(trees[module])
    read: set[str] = set()
    for name, tree in trees.items():
        # Local names of the exported names, and of the module itself.
        names = {e: e for e in exported} if name == module else {}
        aliases: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (node.module or "").rpartition(".")[2] == module:
                    names[alias.asname or alias.name] = alias.name
                elif alias.name == module:
                    aliases.add(alias.asname or alias.name)
        for stmt in tree.body:
            found = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(names.get(node.id))
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                ):
                    found.add(node.attr)
            if name == module and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                found.discard(stmt.name)
            read |= found
    return [e for e in exported if e not in read]


READERS = {p.stem: p for p in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))}
EXPORTERS = [p.stem for p in SOURCES if exports(ast.parse(p.read_text(encoding="utf-8")))]


def export_readers() -> dict[str, str]:
    """The sources of :data:`READERS` and ``tools/``, by module name, and the
    Python blocks of README.md as one source."""
    paths = {**READERS, **{p.stem: p for p in sorted((ROOT / "tools").glob("*.py"))}}
    sources = {name: path.read_text(encoding="utf-8") for name, path in paths.items()}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources["README"] = "\n".join(re.findall(r"```python\n(.*?)```", readme, re.S))
    return sources


@pytest.mark.parametrize("module", EXPORTERS)
def test_every_export_is_read(module):
    assert unread_exports(module, export_readers()) == []


def test_the_export_gate_reads_every_module_and_the_readme():
    assert {"autodiff", "contrastive", "encoder", "smiles", "training"} <= set(EXPORTERS)
    sources = export_readers()
    assert {"run", "tracing", "outputs"} <= set(sources)
    assert "from molcontrast.smiles import" in sources["README"]


def test_gate_flags_an_unread_export():
    sources = {
        "ops": (
            "__all__ = ['Tape', 'used', 'called_here', 'dead']\n"
            "class Tape: pass\n"
            "def used(): pass\n"
            "def called_here(): pass\n"
            "def dead(): return dead\n"
            "def helper(): return called_here()\n"
        ),
        "user": (
            "from . import ops as o\n"
            "from .ops import Tape, dead\n"
            "sum = o.used\n"
            "t: Tape = None\n"
        ),
    }
    assert unread_exports("ops", sources) == ["dead"]


def oracle_only_exports(
    module: str, sources: dict[str, str], oracle: str, keys
) -> list[str]:
    """Names in ``keys`` that ``sources[module]`` exports and that no source
    reads once the function ``oracle`` is taken out of ``module``: the ops
    that only the oracle runs."""
    tree = ast.parse(sources[module])
    tree.body = [
        stmt for stmt in tree.body
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name == oracle)
    ]
    without = dict(sources, **{module: ast.unparse(tree)})
    return [name for name in unread_exports(module, without) if name in keys]


def test_every_gradient_checked_op_is_read_outside_the_oracle():
    sources = {name: path.read_text(encoding="utf-8") for name, path in READERS.items()}
    keys = set(gradcheck_report())
    assert oracle_only_exports("autodiff", sources, "gradcheck_report", keys) == []


def test_gate_flags_an_op_that_only_the_oracle_reads():
    sources = {
        "ops": (
            "__all__ = ['used', 'checked_only', 'report']\n"
            "def used(): pass\n"
            "def checked_only(): pass\n"
            "def report():\n"
            "    return {'used': used(), 'checked_only': checked_only()}\n"
        ),
        "user": "from .ops import used, report\nused()\nreport()\n",
    }
    keys = {"used", "checked_only"}
    assert unread_exports("ops", sources) == []
    assert oracle_only_exports("ops", sources, "report", keys) == ["checked_only"]
