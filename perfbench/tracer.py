"""Outside-in span tracer for the ``kicked_ising`` package.

``Tracer`` wraps every public module-level function of the program's
modules, on every module attribute that holds it, so a call is recorded
whichever module the caller resolves the name through: ``experiment``
binds ``aee_report`` and ``apply_floquet`` at import, ``entanglement``
binds ``partial_trace``, ``floquet`` binds ``apply_matrix_at_site``.
No file of the program changes. Each call becomes one span
``[name, parent, start, end]`` kept in memory; ``layer_metrics`` turns the
spans of one invocation into the benchmark's per-layer metrics.

Run directly, it makes one untraced and one traced call of any CLI
command (without ``--seed``/``--out``), with the benchmark's settings and
checks, and prints the per-layer metrics (used for the baseline
cross-check):

    python3 perfbench/tracer.py measure --model U0 --size 10 --initial y+ \
        --periods 1 --measures aee
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "kicked_ising"
MODULES = ("core", "floquet", "spectral", "entanglement", "qfi", "experiment", "cli")

# Per-layer metric -> unit. A later change may add metrics; renaming one
# breaks comparison with earlier result files.
PER_LAYER_UNITS = {
    "floquet.apply_floquet.busy_s": "s",
    "floquet.apply_floquet.calls": "count",
    "floquet.period_ms": "ms",
    "floquet.build_dense.busy_s": "s",
    "spectral.quasi_energies.busy_s": "s",
    "spectral.quasi_energies.calls": "count",
    "spectral.detect_period.busy_s": "s",
    "entanglement.aee_report.busy_s": "s",
    "entanglement.reduced_states": "count",
    "core.partial_trace.busy_s": "s",
    "entanglement.entropy.busy_s": "s",
    "entanglement.geometric_measure.busy_s": "s",
    "entanglement.geometric_measure.sweeps": "count",
    "entanglement.geometric_measure.converged_frac": "fraction",
    "qfi.maximize_qfi.busy_s": "s",
    "qfi.maximize_qfi.calls": "count",
    "qfi.maximize_qfi.converged_frac": "fraction",
    "qfi.covariance_matrix.busy_s": "s",
    "core.fidelity.busy_s": "s",
    "experiment.self_s": "s",
    "experiment.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that count work; they must repeat exactly at a fixed seed.
EXACT_COUNTS = (
    "floquet.apply_floquet.calls",
    "entanglement.reduced_states",
    "qfi.maximize_qfi.calls",
    "spectral.quasi_energies.calls",
    "entanglement.geometric_measure.sweeps",
)


def _count_periods(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["floquet.periods"] += args[2] if len(args) > 2 else kwargs["n"]


def _count_geometric(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["entanglement.geometric_measure.sweeps"] += result.sweeps
    counts["entanglement.geometric_measure.converged"] += result.converged


def _count_qfi(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["qfi.maximize_qfi.converged"] += result.converged


# Counters read from a call's arguments or result, by span name.
_HOOKS = {
    "floquet.apply_floquet": _count_periods,
    "entanglement.geometric_measure": _count_geometric,
    "qfi.maximize_qfi": _count_qfi,
}


class Tracer:
    """Context manager: wraps the package's public functions while active.

    ``spans`` holds ``[name, parent_index, start, end]`` per call, in call
    order; a parent of -1 marks a root span. ``counts`` holds the counters
    the hooks read from arguments and results.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._saved.append((module, attr, obj))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end) in enumerate(spans)]


def layer_metrics(spans: list[list], counts: Counter, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (``trace.overhead_s`` excluded).

    Busy time of a function is the summed duration of its spans that are not
    nested inside a span of the same function; self time of a module is the
    summed self time of its functions' spans.
    """
    busy: Counter = Counter()
    calls: Counter = Counter()
    module_self: Counter = Counter()
    for (name, parent, start, end), own in zip(spans, self_times(spans)):
        calls[name] += 1
        module_self[name.split(".", 1)[0]] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            busy[name] += end - start

    def frac(hits: str, name: str) -> float:
        return counts[hits] / calls[name] if calls[name] else 0.0

    periods = counts["floquet.periods"]
    metrics = {
        "floquet.apply_floquet.calls": calls["floquet.apply_floquet"],
        "floquet.period_ms": (
            1e3 * busy["floquet.apply_floquet"] / periods if periods else 0.0
        ),
        "spectral.quasi_energies.calls": calls["spectral.quasi_energies"],
        "entanglement.reduced_states": calls["core.partial_trace"],
        "entanglement.geometric_measure.sweeps": counts[
            "entanglement.geometric_measure.sweeps"
        ],
        "entanglement.geometric_measure.converged_frac": frac(
            "entanglement.geometric_measure.converged", "entanglement.geometric_measure"
        ),
        "qfi.maximize_qfi.calls": calls["qfi.maximize_qfi"],
        "qfi.maximize_qfi.converged_frac": frac(
            "qfi.maximize_qfi.converged", "qfi.maximize_qfi"
        ),
        "experiment.self_s": module_self["experiment"],
        "experiment.bytes_written": bytes_written,
        "cli.self_s": module_self["cli"],
    }
    for name in PER_LAYER_UNITS:
        if name.endswith(".busy_s"):
            metrics[name] = float(busy[name[: -len(".busy_s")]])
    return {name: metrics[name] for name in PER_LAYER_UNITS if name in metrics}


if __name__ == "__main__":
    from run import OUT, Run, Workload, configure_blas, load_cli

    configure_blas()
    run = Run(load_cli(), Workload(tuple(sys.argv[1:]), ()), 0, None, OUT / "tracer")
    metrics, _ = run.layers(0)
    print(json.dumps({"argv": sys.argv[1:], "problems": run.problems, "metrics": metrics}, indent=1))
    sys.exit(1 if run.problems else 0)
