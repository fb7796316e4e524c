"""Every import in the package and its tests is used, every private
module-level name and every public function, class and method in the
package is read somewhere, and every parameter of a package function is
read in its body.

No linter ships with the project, so this scans the sources with `ast`: an
imported name counts as used when it appears as a name anywhere in the
module, quoted annotations included. A private name (`_X = ...`, `def _f`,
`class _C`) or a public definition counts as read when it is loaded as a
name or an attribute in the package or in `benchmarks/`, which reads
`scenarios._THRESHOLDS`; reads in tests do not count. A parameter counts as
read when its name is loaded anywhere in the body. A package module imports
no third-party package other than numpy at module level: any other (scipy)
is imported inside the function that needs it, so a run that never calls
that function never pays for its import.
"""

import ast
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "shadowtomo").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "benchmarks").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


def _quoted_annotation_names(tree: ast.Module):
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            # a quoted annotation such as "CopyBatch" still names its type
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_quoted_annotation_names(tree))
    return used


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            targets = [node.name]
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = [
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _reads(tree: ast.Module) -> set[str]:
    reads = set(_quoted_annotation_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@cache
def _read_anywhere() -> frozenset[str]:
    return frozenset().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in READERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    read = _read_anywhere()
    defined = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f"{name} (line {line})" for name, line in defined.items() if name not in read]
    assert not unread, f"{path.name} defines private names nothing reads: {', '.join(unread)}"


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes, and the methods of those classes."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef):
                    names[item.name] = item.lineno
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names[node.name] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("_")}


# Public names only tests read, each kept for its reason.
_TEST_ONLY_PUBLIC = {
    "entropy_report": "the per-sample information bound a Fano-ceiling gate is to read",
}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_public_names(path):
    read = _read_anywhere()
    defined = _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        f"{name} (line {line})"
        for name, line in defined.items()
        if name not in read and name not in _TEST_ONLY_PUBLIC
    ]
    assert not unread, f"{path.name} defines public names only tests read: {', '.join(unread)}"


def test_test_only_allowlist_names_unread_definitions():
    # an entry whose name the package starts reading, or stops defining, goes
    trees = (ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE)
    defined = set().union(*map(_public_definitions, trees))
    stale = [name for name in _TEST_ONLY_PUBLIC if name not in defined or name in _read_anywhere()]
    assert not stale, f"allowlisted names no longer test-only: {', '.join(stale)}"


# Signatures fixed from outside: argparse handlers and the checks that
# Scenario.check calls all take the same arguments whether or not they use them.
_FIXED_SIGNATURE_PREFIXES = ("_cmd_", "_check_")


def _only_raises_not_implemented(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """An interface method such as CopyBatch.measure_collective."""
    body = [
        s for s in fn.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
    ]
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _unread_parameters(tree: ast.Module):
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef):
            continue
        if fn.name.startswith(_FIXED_SIGNATURE_PREFIXES) or _only_raises_not_implemented(fn):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        loaded = {
            n.id
            for stmt in fn.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for arg in params:
            if arg.arg not in ("self", "cls") and arg.arg not in loaded:
                yield f"{fn.name}({arg.arg}) (line {fn.lineno})"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    unread = list(_unread_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    assert not unread, f"{path.name} has parameters its functions never read: {', '.join(unread)}"


# numpy serves every run, and the package's own modules are first-party
_MODULE_LEVEL_IMPORTS_ALLOWED = {"numpy", "shadowtomo"}


def _module_level_imports(node: ast.AST):
    """(top-level package, line) of each import run when the module loads:
    any outside a function body, class bodies and conditionals included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
            continue
        if isinstance(child, ast.Import):
            yield from ((alias.name.split(".")[0], child.lineno) for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            if child.level == 0:
                yield child.module.split(".")[0], child.lineno
        else:
            yield from _module_level_imports(child)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_third_party_import_but_numpy(path):
    found = [
        f"{path.name}:{line} imports {top}"
        for top, line in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if top not in sys.stdlib_module_names and top not in _MODULE_LEVEL_IMPORTS_ALLOWED
    ]
    assert not found, (
        f"module-level third-party imports other than numpy: {', '.join(found)}; "
        "import them inside the function that needs them"
    )
