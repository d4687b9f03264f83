import ast
import dataclasses
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import kicked_ising
from kicked_ising import (
    CovarianceMatrix,
    DensityMatrix,
    DirectionField,
    GeometricResult,
    QfiResult,
    QuasiSpectrum,
    StateVector,
    covariance_matrix,
)


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


def _holds_array(annotation) -> bool:
    """Whether a field of this type holds an ndarray, directly, inside a
    container, or through a dataclass with such a field."""
    if annotation is np.ndarray:
        return True
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        return any(_holds_array(hints[f.name]) for f in dataclasses.fields(annotation))
    return any(_holds_array(arg) for arg in typing.get_args(annotation))


def test_result_types_holding_arrays_compare_by_identity():
    # value equality over an ndarray field raises on ==, so such a type must
    # be declared eq=False
    public = [getattr(kicked_ising, name) for name in kicked_ising.__all__]
    holders = [
        cls
        for cls in public
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and _holds_array(cls)
    ]
    assert len(holders) >= 8
    assert [cls.__name__ for cls in holders if cls.__dataclass_params__.eq] == []


def _state():
    return StateVector(1, np.array([1.0, 0.0]))


def _direction():
    return DirectionField(np.array([[0.0, 0.0, 1.0]]))


@pytest.mark.parametrize(
    "build",
    [
        _state,
        lambda: DensityMatrix(1, np.eye(2) / 2),
        lambda: covariance_matrix(_state()),
        lambda: QuasiSpectrum(np.zeros(2)),
        lambda: GeometricResult(1.0, 0.0, [np.array([1.0, 0.0])], True, True, 0),
        lambda: QfiResult(1.0, _direction(), 1, [(1, 1, False)], True, 0),
        _direction,
    ],
    ids=[
        "StateVector",
        "DensityMatrix",
        "CovarianceMatrix",
        "QuasiSpectrum",
        "GeometricResult",
        "QfiResult",
        "DirectionField",
    ],
)
def test_array_holding_results_compare_by_identity(build):
    x, y = build(), build()
    assert x == x
    assert (x == y) is False
    assert (x != y) is True
