"""The package's export list matches the names it binds."""

import types

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
