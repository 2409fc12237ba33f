"""The package's export list matches the names it binds, it needs only the stdlib,
its modules share no private names and keep none unused, and they import each
other without a cycle."""

import ast
import sys
import types
from graphlib import TopologicalSorter
from pathlib import Path

import steiner_ladder


def test_all_lists_exactly_the_public_names():
    exported = steiner_ladder.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(steiner_ladder, name)] == []
    public = {
        name
        for name, obj in vars(steiner_ladder).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(exported)


def test_runtime_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; every absolute import must be stdlib
    src = Path(steiner_ladder.__file__).parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # an underscore name is private to its module; a sibling that needs it
    # should get a public name, or the code should move to where it is used
    src = Path(steiner_ladder.__file__).parent
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_package_imports_form_no_cycle():
    # every relative import is an edge, a function-local one too; a cycle
    # would let a module see a sibling half-initialised
    src = Path(steiner_ladder.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    graph = {}
    for path in sorted(src.glob("*.py")):
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.module:
                deps.add(node.module.partition(".")[0])
            else:  # "from . import name": a submodule, or a name bound by __init__
                deps.update(a.name if a.name in modules else "__init__" for a in node.names)
    assert "ladder" not in graph["dynamics"]
    TopologicalSorter(graph).prepare()  # raises CycleError, naming the cycle


def test_every_private_module_level_name_is_used():
    # a module-level underscore function, class or constant that nothing reads
    # is dead code; a private helper of a deleted public function shows up here
    src = Path(steiner_ladder.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined.update(
                (module, name) for name in names if name.startswith("_") and not name.startswith("__")
            )
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 50
    assert sorted(f"{module}: {name}" for module, name in defined if name not in read) == []
