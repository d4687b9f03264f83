import types

import kicked_ising


def test_all_matches_the_public_namespace():
    listed = kicked_ising.__all__
    assert len(set(listed)) == len(listed)
    namespace = {}
    exec("from kicked_ising import *", namespace)
    assert [name for name in listed if name not in namespace] == []
    public = {
        name
        for name, value in vars(kicked_ising).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(listed)) == []
