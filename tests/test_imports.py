"""Every import in the package and its tests is used; every private
module-level name, and every public function, class, method and dataclass
field in the package, is read somewhere; every extras key a trial runner
writes is read; and every parameter of a package function is read in its
body.

No linter ships with the project, so this scans the sources with `ast`: an
imported name counts as used when it appears as a name anywhere in the
module, quoted annotations included. Reads count only in the package and in
`benchmarks/`, which reads `scenarios._THRESHOLDS`; reads in tests do not.

- A private name (`_X = ...`, `def _f`, `class _C`), and a public
  module-level function or class, counts as read when it is loaded as a
  name or an attribute.
- A method or dataclass field is matched by its owner. A read `x.member`
  counts for (class, member) when the AST shows x's class: `self` in a
  method, a parameter or a function's return annotated with the class, a
  name bound from its constructor, or a field annotated with it. It counts
  for the class's package ancestors and descendants too, since a read
  through a base may reach an override. Where the AST does not show the
  class, the read counts for every member of that bare name, and the test
  prints those fallbacks. Every field of a class read wholesale through
  `fields()` or `asdict()` counts as read. An InitVar is no field: it is a
  parameter of `__post_init__`.
- An extras key that a `_trial_*` runner, or the shadow-style body two of
  them share, writes counts as read when it is read by a subscript, an `in`
  test or a `.get`.

Each allowlist entry, a name or key only tests read, gives its reason and
fails the test once the package reads it or stops defining it. A parameter
counts as read when its name is loaded anywhere in the body. A package
module imports no third-party package other than numpy at module level: any
other (scipy) is imported inside the function that needs it, so a run that
never calls that function never pays for its import.
"""

import ast
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import NamedTuple

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    reads = _read_by_owner()
    defined = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f"{name} (line {line})" for name, line in defined.items() if not _is_read(name, reads)]
    assert not unread, f"{path.name} defines private names nothing reads: {', '.join(unread)}"


def _last_name(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _string(node: ast.AST | None) -> str | None:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _fields(cls: ast.ClassDef) -> dict[str, ast.AnnAssign]:
    """A dataclass's fields by name. An InitVar is no field: it is a
    parameter of __post_init__, which the parameter lint checks."""
    if not any(_last_name(getattr(d, "func", d)) == "dataclass" for d in cls.decorator_list):
        return {}
    return {
        item.target.id: item
        for item in cls.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and _last_name(getattr(item.annotation, "value", None)) != "InitVar"
    }


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [item for item in cls.body if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef)]


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes by name, and the methods and
    dataclass fields of those classes as `Class.member`."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update((f"{node.name}.{name}", item.lineno) for name, item in _fields(node).items())
            names.update((f"{node.name}.{fn.name}", fn.lineno) for fn in _methods(node))
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names[node.name] = node.lineno
    return {name: line for name, line in names.items() if not name.rpartition(".")[2].startswith("_")}


class _Class(NamedTuple):
    bases: list[str | None]
    members: dict[str, ast.AST | None]  # member -> what reading it gives
    fields: set[str]


@cache
def _package() -> tuple[dict[str, _Class], dict, dict, set[str]]:
    """The package's classes, its module-level functions' return
    annotations, its module-level aliases (such as `Measurement =
    Union[...]`) and its module names."""
    classes, functions, aliases = {}, {}, {}
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                fields = _fields(node)
                members = {name: item.annotation for name, item in fields.items()}
                members.update((fn.name, fn.returns) for fn in _methods(node))
                classes[node.name] = _Class([_last_name(b) for b in node.bases], members, set(fields))
            elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                functions[node.name] = node.returns
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                aliases[node.targets[0].id] = node.value
    return classes, functions, aliases, {p.stem for p in PACKAGE}


def _types(annotation: ast.AST | None) -> frozenset[str]:
    """The package classes an annotation names: through quotes, `X | Y`,
    Union, Optional and module-level aliases, but not inside a container."""
    classes, _, aliases, _ = _package()
    if _string(annotation) is not None:
        return _types(ast.parse(annotation.value, mode="eval").body)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _types(annotation.left) | _types(annotation.right)
    if isinstance(annotation, ast.Subscript) and _last_name(annotation.value) in ("Union", "Optional"):
        args = annotation.slice.elts if isinstance(annotation.slice, ast.Tuple) else [annotation.slice]
        return frozenset().union(*map(_types, args))
    name = _last_name(annotation)
    if name in classes:
        return frozenset({name})
    return _types(aliases[name]) if name in aliases else frozenset()


def _family(names: frozenset[str]) -> set[str]:
    """The classes with their package ancestors and descendants: a read
    through a base may reach an override, and one through a subclass an
    inherited member."""
    classes = _package()[0]
    up, down = names & classes.keys(), names & classes.keys()
    while True:
        more_up = {b for c in up for b in classes[c].bases if b in classes} - up
        more_down = {c for c, info in classes.items() if down & set(info.bases)} - down
        if not more_up and not more_down:
            return up | down
        up |= more_up
        down |= more_down


def _receiver(node: ast.AST, env: dict[str, frozenset[str]]) -> frozenset[str]:
    """The package classes `node` evaluates to an instance (or the class) of,
    as far as the AST shows: a bound name, a constructor, a call of a
    function or method with an annotated return, a field with an annotated
    type. Empty when unknown."""
    classes, functions, _, modules = _package()
    if isinstance(node, ast.Name):
        return env.get(node.id, frozenset({node.id} & classes.keys()))
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id not in env and func.id in functions:
            return _types(functions[func.id])
        if isinstance(func, ast.Attribute) and _last_name(func.value) in modules - env.keys():
            return _types(functions.get(func.attr))
        return _receiver(func, env)
    if isinstance(node, ast.Attribute):
        owners = _family(_receiver(node.value, env))
        return frozenset().union(
            *(_types(classes[c].members[node.attr]) for c in owners if node.attr in classes[c].members)
        )
    return frozenset()


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(body: list[ast.AST]):
    """The nodes of one scope in source order; nested scopes are yielded but
    not entered."""
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _env(scope: ast.AST, outer: dict, owner: str | None) -> dict[str, frozenset[str]]:
    """The classes each name of a scope is bound to: `self` (or `cls`) of a
    method to its class, a parameter to its annotation, a name assigned once
    or always to a known class to that class, and any other name to nothing
    known."""
    env, local, typed = dict(outer), set(), set()
    if not isinstance(scope, ast.Module):
        a = scope.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        for i, arg in enumerate(params):
            env[arg.arg] = frozenset({owner}) if owner and i == 0 else _types(arg.annotation)
            local.add(arg.arg)
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    for node in _scope_nodes(body):
        if isinstance(node, ast.Assign | ast.AnnAssign):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if isinstance(node, ast.Assign) and len(node.targets) > 1 or not isinstance(target, ast.Name):
                continue
            typed.add(target)
            name = target.id
            found = _types(node.annotation) if isinstance(node, ast.AnnAssign) else _receiver(node.value, env)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node not in typed:
            name, found = node.id, frozenset()
        else:
            continue
        # a second binding keeps the classes only if both are known
        env[name] = (env[name] | found if env[name] and found else frozenset()) if name in local else found
        local.add(name)
    return env


@dataclass
class _Reads:
    names: set = field(default_factory=set)  # names loaded, quoted annotations included
    attrs: set = field(default_factory=set)  # attributes read on a receiver of unknown class
    members: set = field(default_factory=set)  # (class, member) read on a known receiver
    whole: set = field(default_factory=set)  # classes whose fields fields() or asdict() read
    keys: set = field(default_factory=set)  # string keys read by subscript, `in` or `.get`


def _record(node: ast.AST, env: dict, reads: _Reads) -> None:
    classes = _package()[0]
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        reads.names.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        owners = [c for c in _family(_receiver(node.value, env)) if node.attr in classes[c].members]
        reads.members.update((c, node.attr) for c in owners)
        if not owners:
            reads.attrs.add(node.attr)
    elif isinstance(node, ast.Call) and node.args:
        if _last_name(node.func) in ("fields", "asdict"):
            reads.whole.update(_receiver(node.args[0], env))
        elif _last_name(node.func) == "get" and _string(node.args[0]) is not None:
            reads.keys.add(node.args[0].value)
    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        if _string(node.slice) is not None:
            reads.keys.add(node.slice.value)
    elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In | ast.NotIn):
        if _string(node.left) is not None:
            reads.keys.add(node.left.value)


def _collect(node: ast.AST, env: dict, owner: str | None, reads: _Reads) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, env, child.name, reads)
            continue
        if isinstance(child, _SCOPES):
            static = any(_last_name(d) == "staticmethod" for d in getattr(child, "decorator_list", ()))
            _collect(child, _env(child, env, None if static else owner), None, reads)
            continue
        _record(child, env, reads)
        _collect(child, env, None, reads)


@cache
def _read_by_owner() -> _Reads:
    reads = _Reads()
    for path in READERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.names.update(_quoted_annotation_names(tree))
        _collect(tree, _env(tree, {}, None), None, reads)
    return reads


def _is_read(definition: str, reads: _Reads, bare: bool = True) -> bool:
    """A module-level name is read by name or as an attribute; a member only
    as an attribute: on a receiver of its class, or of a class related to
    it, or, with `bare`, where the receiver's class is unknown, by its bare
    name."""
    owner, _, member = definition.rpartition(".")
    if not owner:
        return member in reads.names or member in reads.attrs
    return (
        (bare and member in reads.attrs)
        or (owner, member) in reads.members
        or (owner in reads.whole and member in _package()[0][owner].fields)
    )


# Public names, members as `Class.member`, that only tests read, each kept
# for its reason.
_ENTROPY_GATE = "the per-sample information bound a Fano-ceiling gate is to read (ROADMAP item 4)"
_TEST_ONLY_PUBLIC = {
    "entropy_report": _ENTROPY_GATE,
    "EntropyReport.closed_form": _ENTROPY_GATE,
    "EntropyReport.direct": _ENTROPY_GATE,
    "EntropyReport.deficit": _ENTROPY_GATE,
    "OrDecision.accept_count": "the OR decision's margin against its rounds/16 cutoff, which "
    "ROADMAP item 3(b) records",
    "Violation.invariant": "shown, through the dataclass repr, in the ValueError of an invalid "
    "DensityMatrix or Effect",
    "Violation.magnitude": "shown, through the dataclass repr, in the ValueError of an invalid "
    "DensityMatrix or Effect",
}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_public_names(path):
    reads = _read_by_owner()
    defined = _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        f"{name} (line {line})"
        for name, line in defined.items()
        if not _is_read(name, reads) and name not in _TEST_ONLY_PUBLIC
    ]
    fallbacks = [
        name
        for name in defined
        if "." in name and _is_read(name, reads) and not _is_read(name, reads, bare=False)
    ]
    if fallbacks:
        print(f"{path.name}: read only by bare name, receiver unknown: {', '.join(fallbacks)}")
    assert not unread, f"{path.name} defines public names only tests read: {', '.join(unread)}"


def test_test_only_allowlist_names_unread_definitions():
    # an entry whose name the package starts reading, or stops defining, goes
    trees = (ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE)
    defined = set().union(*map(_public_definitions, trees))
    stale = [
        name for name in _TEST_ONLY_PUBLIC if name not in defined or _is_read(name, _read_by_owner())
    ]
    assert not stale, f"allowlisted names no longer test-only: {', '.join(stale)}"


def _extras_written(tree: ast.Module) -> dict[str, int]:
    """Each string key, with its line, that a trial runner of scenarios.py
    (a `_trial_*` function, or `_shadow_style_trial`, the body two of them
    share) puts in a dict display or stores by subscript."""
    keys = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or not (
            fn.name.startswith("_trial_") or fn.name == "_shadow_style_trial"
        ):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                written = node.keys
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                written = [node.slice]
            else:
                continue
            for key in written:
                if _string(key) is not None:
                    keys.setdefault(key.value, key.lineno)
    return keys


SCENARIOS_SOURCE = ROOT / "src" / "shadowtomo" / "scenarios.py"

# Trial extras keys that only tests read, each kept for its reason.
_TEST_ONLY_EXTRAS = {
    "true_key_within_eps": "money-demo's true-key claim: tests read it, and ROADMAP item 2 "
    "names it as a gate candidate",
}


def test_every_trial_extras_key_is_read():
    written = _extras_written(ast.parse(SCENARIOS_SOURCE.read_text(encoding="utf-8")))
    read = _read_by_owner().keys
    unread = [
        f"{key} (line {line})"
        for key, line in written.items()
        if key not in read and key not in _TEST_ONLY_EXTRAS
    ]
    assert not unread, f"trial runners write extras keys nothing reads: {', '.join(unread)}"


def test_test_only_extras_allowlist_names_unread_keys():
    # an entry whose key the package starts reading, or stops writing, goes
    written = _extras_written(ast.parse(SCENARIOS_SOURCE.read_text(encoding="utf-8")))
    read = _read_by_owner().keys
    stale = [key for key in _TEST_ONLY_EXTRAS if key not in written or key in read]
    assert not stale, f"allowlisted extras keys no longer test-only: {', '.join(stale)}"


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
