"""Every name in a ``flowgen`` module's ``__all__`` resolves; no module imports a name it never uses.

No function imports a module that its file already imports at top level.
Every module-level name of ``flowgen`` is read somewhere, and the package
defines exactly the exception classes that its callers tell apart.
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


READERS = sorted(
    path for folder in ("src/flowgen", "scripts", "perfbench", "tests")
    for path in (ROOT / folder).glob("*.py")
)


def module_bindings(source: str) -> list[str]:
    """The names a module binds at its top level by ``def``, ``class`` or assignment.

    Bindings inside a top-level ``if`` or ``try`` count; imports and
    ``__all__`` do not.
    """
    names: list[str] = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.If, ast.Try)):
            stack += [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            stack += [n for h in getattr(node, "handlers", []) for n in h.body]
    return [name for name in names if name != "__all__"]


def names_read(source: str) -> set[str]:
    """The names a module reads: as a name, as an attribute, or by importing them."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_module_bindings_and_reads_are_found():
    source = (
        "import a\nX = 1\nY: int = 2\n__all__ = ['f']\ndef f():\n    return m.Z\n"
        "class C:\n    W = 3\ntry:\n    from b import V\nexcept ImportError:\n    V = 4\n"
    )
    assert module_bindings(source) == ["X", "Y", "f", "C", "V"]
    assert names_read(source) == {"int", "m", "Z", "V", "ImportError"}


def test_every_module_level_name_is_read_somewhere():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "flowgen").glob("*.py"))
        for name in module_bindings(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert unread == []


# each exception class defined under ``flowgen``, with its base
EXCEPTIONS = {
    "flowgen.InputError": "ValueError",
    "flowgen.catalog.CatalogValidationError": "InputError",
    "flowgen.condexpr.ConditionSyntaxError": "ValueError",
    "flowgen.condexpr.ConditionTypeError": "TypeError",
    "flowgen.llm.AnswerError": "Exception",
    "flowgen.llm.NoScriptMatchError": "ProviderError",
    "flowgen.llm.ProviderError": "Exception",
    "flowgen.llm.TemplateError": "ValueError",
    "flowgen.pipeline.PipelineError": "Exception",
    "flowgen.stagepred.ProtocolViolation": "AnswerError",
}


def test_exception_classes_are_one_per_failure_outcome():
    modules = [flowgen, *(importlib.import_module(name) for name in MODULES)]
    found = {
        f"{module.__name__}.{name}": ", ".join(base.__name__ for base in obj.__bases__)
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert found == EXCEPTIONS
