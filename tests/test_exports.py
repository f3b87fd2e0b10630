"""Every name in a ``flowgen`` module's ``__all__`` resolves; no module imports a name it never uses.

No function imports a module that its file already imports at top level.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import flowgen

MODULES = sorted(m.name for m in pkgutil.iter_modules(flowgen.__path__, "flowgen."))


def test_modules_are_discovered():
    assert {"flowgen.condexpr", "flowgen.edgepred", "flowgen.pipeline"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "flowgen").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never uses.

    A name is used if it appears as a ``Name`` node anywhere in the module,
    the base of an attribute such as ``llm.render_prompt`` included, or if
    the module's ``__all__`` lists it. ``__future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def _modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The modules an import statement names, relative ones led by their dots."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    base = "." * node.level + (node.module or "")
    return [base] if node.module else [base + a.name for a in node.names]


def local_reimports(source: str) -> list[str]:
    """The modules a function imports that its file already imports outside any function.

    Such an import defers nothing: the module is loaded with the file.
    """
    tree = ast.parse(source)
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    local = {
        id(n)
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(f)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    }
    top = {m for n in imports if id(n) not in local for m in _modules(n)}
    return [m for n in imports if id(n) in local for m in _modules(n) if m in top]


def test_sources_are_discovered():
    names = {path.name for path in SOURCES}
    assert {"stagepred.py", "pipeline.py", "output_digest.py", "ab.py"} <= names


def test_unused_imports_are_found():
    assert unused_imports("from a import b, c\nimport d.e\nc()\n") == ["b", "d"]
    assert unused_imports("from . import llm\nllm.render_prompt()\n") == []
    assert unused_imports('from a import b\n__all__ = ["b"]\n') == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_local_reimports_are_found():
    source = (
        "import json\nfrom .a import b\nfrom . import c\n"
        "def f():\n    import json, re\n    from .a import d\n    from . import c, e\n"
    )
    assert local_reimports(source) == ["json", ".a", ".c"]
    assert local_reimports("try:\n    import a\nexcept ImportError:\n    import b\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_imports_a_module_its_file_imports_at_top_level(path):
    assert local_reimports(path.read_text(encoding="utf-8")) == []
