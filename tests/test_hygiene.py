"""Source hygiene, checked with the standard library: no module imports a name it
never uses, every `module.name` the docs cite exists, and one function makes
thread pools."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cyclobox

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cyclobox").glob("*.py"))
MODULES = {m.name: importlib.import_module(f"cyclobox.{m.name}")
           for m in pkgutil.iter_modules(cyclobox.__path__) if not m.name.startswith("_")}
# classes a doc may cite as `Class.attr`
CLASSES = {name: obj for module in MODULES.values()
           for name, obj in vars(module).items() if isinstance(obj, type)}


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import -> its line, `from __future__` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    """Names the module reads, and the strings of its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


# the package's __init__ imports its public names for its users, not for itself
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _docstrings(path: Path) -> list:
    tree = ast.parse(path.read_text())
    nodes = [tree] + [n for n in ast.walk(tree)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def _citations() -> list:
    """(source, dotted name) for every `module.name` or `Class.attr` in a backquoted span,
    the module written with or without the package prefix."""
    texts = [("README.md", (ROOT / "README.md").read_text())]
    texts += [(path.name, doc) for path in SOURCES for doc in _docstrings(path)]
    found = []
    for source, text in texts:
        text = re.sub(r"```.*?```", "", text, flags=re.S)  # fenced code is not a citation
        for span in re.findall(r"`([^`]+)`", text):
            for dotted in re.findall(r"\b\w+(?:\.\w+)+", span):
                head, *rest = dotted.removeprefix("cyclobox.").split(".")
                if head in MODULES or head in CLASSES:
                    found.append((source, head, rest))
    return found


def _resolves(head: str, rest: list) -> bool:
    obj = MODULES.get(head) or CLASSES[head]
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_docs_cite_names_that_exist():
    cited = _citations()
    assert len(cited) >= 20
    missing = [(source, ".".join([head, *rest])) for source, head, rest in cited
               if not _resolves(head, rest)]
    assert not missing, f"cited names that do not resolve: {missing}"


def _pool_references(tree: ast.AST) -> list:
    """Lines that read `ThreadPoolExecutor`, as a name or an attribute, or import it
    under another name."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor")
                  or (isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor")
                  or (isinstance(node, ast.ImportFrom)
                      and any(a.name == "ThreadPoolExecutor" and a.asname for a in node.names)))


def test_thread_pools_are_made_only_in_run_chunks():
    """One chunk runner: `kernels.run_chunks` is the only code that reads
    `ThreadPoolExecutor`, so no report grows a pool of its own."""
    kernels_tree = ast.parse((ROOT / "src" / "cyclobox" / "kernels.py").read_text())
    runner = next(node for node in kernels_tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "run_chunks")
    inside = set(_pool_references(runner))
    assert inside
    for path in SOURCES:
        allowed = inside if path.name == "kernels.py" else set()
        outside = sorted(set(_pool_references(ast.parse(path.read_text()))) - allowed)
        assert not outside, f"{path.name} reads ThreadPoolExecutor at lines {outside}"
