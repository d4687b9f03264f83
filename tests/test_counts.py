"""Every public entry point that takes a count applies one rule to it: an
integer (NumPy integers pass, bools and floats do not) within inclusive
bounds, with one message for each way to break it."""

import numpy as np
import pytest

from kicked_ising.core import (
    DENSE_MAX_SITES,
    MAX_SITES,
    Axis,
    DensityMatrix,
    StateVector,
    make_ghz,
    make_polarized_state,
    make_psi_o,
)
from kicked_ising.entanglement import average_entanglement_entropy, geometric_measure
from kicked_ising.experiment import ExperimentConfig
from kicked_ising.floquet import FloquetSpec, Model, apply_floquet, symmetry_sectors
from kicked_ising.qfi import maximize_qfi, producibility_bound
from kicked_ising.spectral import detect_period, detect_period_from_thetas

Z = Axis("z", +1)


def _stored(name):
    return lambda made: getattr(made, name)


def _evolved(n):
    spec = FloquetSpec(Model.UX, 3)
    return apply_floquet(spec, make_polarized_state(3, Z), n).amplitudes.tolist()


# entry point -> (call with the count, count's name, low, high, a count
# inside the bounds, how to read back what the call stored; None when it
# stores nothing and its result is compared instead)
COUNT_TAKERS = {
    "StateVector": (
        lambda n: StateVector(n, np.eye(16)[0]), "num_sites", 1, MAX_SITES, 4,
        _stored("num_sites"),
    ),
    "DensityMatrix": (
        lambda n: DensityMatrix(n, np.eye(16) / 16), "num_sites", 1, MAX_SITES, 4,
        _stored("num_sites"),
    ),
    "make_polarized_state": (
        lambda n: make_polarized_state(n, Z), "num_sites", 1, MAX_SITES, 4,
        _stored("num_sites"),
    ),
    "make_ghz": (
        lambda n: make_ghz(n, Z), "num_sites", 2, MAX_SITES, 4, _stored("num_sites"),
    ),
    "make_psi_o": (make_psi_o, "num_sites", 4, MAX_SITES, 4, _stored("num_sites")),
    "Axis.sign": (lambda n: Axis("x", n), "sign", None, None, -1, _stored("sign")),
    "FloquetSpec": (
        lambda n: FloquetSpec(Model.U0, n), "num_sites", 2, None, 4,
        _stored("num_sites"),
    ),
    "symmetry_sectors": (
        lambda n: symmetry_sectors(n, ()), "num_sites", 1, None, 3,
        lambda sectors: sectors[0].num_sites,
    ),
    "apply_floquet": (_evolved, "n", 0, None, 2, None),
    "detect_period": (
        lambda n: detect_period(FloquetSpec(Model.U0, 2), n), "max_n", 1, None, 3,
        None,
    ),
    "detect_period_from_thetas": (
        lambda n: detect_period_from_thetas(np.zeros(2), n), "max_n", 1, None, 3,
        None,
    ),
    "average_entanglement_entropy": (
        lambda n: average_entanglement_entropy(make_ghz(4, Z), n), "l", 1, 3, 2,
        None,
    ),
    "producibility_bound.num_sites": (
        lambda n: producibility_bound(n, 1), "num_sites", 1, None, 4, None,
    ),
    "producibility_bound.k": (
        lambda n: producibility_bound(4, n), "k", 1, 4, 2, None,
    ),
    # the optimizers' seeds: SeedSequence takes 0..2**64-1 and more, but
    # the config allows only this range
    "maximize_qfi.seed": (
        lambda n: maximize_qfi(make_ghz(4, Z), seed=n), "seed", 0, 2**64 - 1, 3, None,
    ),
    "geometric_measure.seed": (
        lambda n: geometric_measure(make_ghz(4, Z), seed=n), "seed", 0, 2**64 - 1, 3,
        None,
    ),
    "ExperimentConfig.size": (
        lambda n: ExperimentConfig(Model.U0, n), "size", 2, DENSE_MAX_SITES, 4,
        _stored("size"),
    ),
    "ExperimentConfig.periods": (
        lambda n: ExperimentConfig(Model.U0, 4, periods=n), "periods", 0, None, 2,
        _stored("periods"),
    ),
}
# the config also takes each count as its decimal text
TAKES_TEXT = {"ExperimentConfig.size", "ExperimentConfig.periods"}

NON_INTEGERS = [
    pytest.param(call, name, value, id=f"{taker}-{value!r}")
    for taker, (call, name, *_) in COUNT_TAKERS.items()
    for value in ((2.5, True) if taker in TAKES_TEXT else (2.5, True, "3"))
]
JUST_OUTSIDE = [
    pytest.param(call, name, low, high, value, id=f"{taker}-{value}")
    for taker, (call, name, low, high, *_) in COUNT_TAKERS.items()
    if low is not None
    for value in ((low - 1,) if high is None else (low - 1, high + 1))
]


@pytest.mark.parametrize("call, name, value", NON_INTEGERS)
def test_a_non_integer_count_is_rejected(call, name, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{name}: must be an integer, got {value!r}"


@pytest.mark.parametrize("call, name, low, high, value", JUST_OUTSIDE)
def test_a_count_just_outside_its_bounds_is_rejected(call, name, low, high, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    bounds = f">= {low}" if high is None else f"in {low}..{high}"
    assert str(exc.value) == f"{name}: must be {bounds}, got {value}"


@pytest.mark.parametrize(
    "call, name, low, high, inside, read",
    COUNT_TAKERS.values(),
    ids=COUNT_TAKERS.keys(),
)
def test_a_numpy_count_is_taken_as_an_int(call, name, low, high, inside, read):
    made = call(np.int64(inside))
    if read is None:
        assert repr(made) == repr(call(inside))
    else:
        assert type(read(made)) is int and read(made) == inside
