"""The names the benchmark's tracer reads from the program.

``perfbench/tracer.py`` finds layers by wrapping public module-level
functions by name and reads optimizer counters from their results. A
refactor that renames or privatizes one of them would only show when the
benchmark's self-test runs; these checks fail first.
"""

import importlib
import inspect
import types
from dataclasses import fields
from pathlib import Path

import pytest

from kicked_ising.entanglement import GeometricResult
from kicked_ising.qfi import QfiResult

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SUFFIXES = (".busy_s", ".calls", ".sweeps", ".converged_frac")


# executed from its source, so no bytecode is written under perfbench/
tracer = types.ModuleType("perfbench_tracer")
exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)


def traced_functions() -> list[str]:
    """``<module>.<function>`` of every per-layer metric that names one,
    plus the function behind ``entanglement.reduced_states``."""
    names = {
        metric.rsplit(".", 1)[0]
        for metric in tracer.PER_LAYER_UNITS
        if metric.endswith(SUFFIXES) and metric.count(".") == 2
    }
    return sorted(names | {"core.partial_trace"})


def test_every_hooked_function_is_checked():
    assert set(tracer._HOOKS) <= set(traced_functions())


@pytest.mark.parametrize("name", traced_functions())
def test_metric_names_a_public_function(name):
    module_name, attr = name.split(".")
    assert module_name in tracer.MODULES
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    obj = getattr(module, attr, None)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
    assert not attr.startswith("_")


def test_hooked_results_carry_the_counted_fields():
    assert {"sweeps", "converged"} <= {f.name for f in fields(GeometricResult)}
    assert "converged" in {f.name for f in fields(QfiResult)}
