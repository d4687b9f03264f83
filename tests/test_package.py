import ast
import sys
import types
from pathlib import Path

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


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    # pyproject.toml declares numpy as the only run-time dependency; this
    # reads every import statement, including those in branches no test runs
    allowed = set(sys.stdlib_module_names) | {"numpy", "kicked_ising"}
    package = Path(kicked_ising.__file__).parent
    paths = sorted(package.glob("*.py"))
    assert len(paths) > 1
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert outside == []
