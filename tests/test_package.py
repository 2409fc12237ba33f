"""The package's export list matches the names it binds, it needs only the stdlib,
and its modules share no private names."""

import ast
import sys
import types
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
