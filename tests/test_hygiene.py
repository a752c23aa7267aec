"""Source hygiene, checked with the standard library: no module imports a name it
never uses, every `module.name` the docs cite exists, one function makes
thread pools, one runs sampled slices, one counts bits and one lists every vertex."""

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


def _references(tree: ast.AST, name: str) -> list:
    """Lines that read `name`, as a name or an attribute, or import it under another name."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.ImportFrom)
                      and any(a.name == name and a.asname for a in node.names)))


def _read_only_in(name: str, function: str) -> None:
    """Assert that `kernels.<function>` reads `name` and that no other code does."""
    kernels_tree = ast.parse((ROOT / "src" / "cyclobox" / "kernels.py").read_text())
    body = next(node for node in kernels_tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    inside = set(_references(body, name))
    assert inside
    for path in SOURCES:
        allowed = inside if path.name == "kernels.py" else set()
        outside = sorted(set(_references(ast.parse(path.read_text()), name)) - allowed)
        assert not outside, f"{path.name} reads {name} at lines {outside}"


def test_thread_pools_are_made_only_in_run_chunks():
    """One slice runner: `kernels.run_chunks` is the only code that reads
    `ThreadPoolExecutor`, so no report grows a pool of its own."""
    _read_only_in("ThreadPoolExecutor", "run_chunks")


def test_slices_are_run_only_in_tally():
    """One sampling engine: `kernels.tally` is the only code that reads the slice
    runner, so no report grows a sampling loop of its own."""
    _read_only_in("run_chunks", "tally")


def test_run_buffers_are_read_only_in_run_chunks():
    """One owner of the buffer sets: `kernels.run_chunks` is the only code that reads
    `run_buffers`, so each thread that runs slices makes one set and no slice or
    report makes another."""
    _read_only_in("run_buffers", "run_chunks")


def test_bits_are_counted_only_in_popcount():
    """One row-sum rule: `kernels.popcount` is the only code that reads
    `np.bitwise_count`, so every kernel counts a row's bits the same way."""
    _read_only_in("bitwise_count", "popcount")


def test_vertices_are_listed_only_for_the_renderer():
    """One exact vertex law: `kernels.vertex_matrix`, the renderer's plotted cloud, is
    the only code that reads `vertex_rows`, so every exact law reads `vertex_states`
    instead of listing 2^(p-1) vertices."""
    _read_only_in("vertex_rows", "vertex_matrix")


def test_orbit_batches_are_refused_only_in_vertex_states():
    """One reach for every exact law: `kernels.vertex_states` is the only code that
    reads `require_orbit_batch`, so no exact law can build states past its guard."""
    _read_only_in("require_orbit_batch", "vertex_states")


LIMIT = re.compile(r"[A-Z0-9_]+_MAX(_P)?")


def _limits() -> set:
    """The module-level `*_MAX` and `*_MAX_P` limits, `INT64_MAX` (a fact of int64,
    not a limit) left out."""
    return {target.id for path in SOURCES for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and LIMIT.fullmatch(target.id)} - {"INT64_MAX"}


def _compared(tree: ast.AST) -> set:
    """(innermost enclosing function or class, dotted, name) for every name or attribute
    that a comparison reads."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Compare):
            found.update((where or "<module>", sub.id if isinstance(sub, ast.Name) else sub.attr)
                         for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_each_limit_is_compared_in_one_function():
    """A limit is decided in one place: every `*_MAX` or `*_MAX_P` limit is compared
    inside exactly one function, so no second check can drift from the first."""
    limits = _limits()
    assert {"VERTEX_ENUM_MAX_P", "POINT_ENUM_MAX", "EDGE_MAX"} <= limits
    where = {name: set() for name in limits}
    for path in SOURCES:
        for func, name in _compared(ast.parse(path.read_text())):
            if name in where:
                where[name].add(f"{path.name}:{func}")
    wrong = {name: sorted(places) for name, places in where.items() if len(places) != 1}
    assert not wrong, f"limits compared in other than one function: {wrong}"
