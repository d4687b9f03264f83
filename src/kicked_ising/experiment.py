"""Experiment orchestration.

Configure a chain, then evolve it one period at a time and record the
requested measures, or take its operator's quasi-energy spectrum. Once a
run has computed, it writes headered CSV files plus a JSON manifest.
Output is deterministic for a fixed config: optimizer seeds are derived
from (config seed, measure, period), so reruns are byte-identical and
rows do not depend on which other measures are enabled.
"""

from __future__ import annotations

__all__ = [
    "ExperimentConfig", "SummaryRow", "generate_summary", "run_experiment",
    "run_spectrum", "run_trajectory",
]

import csv
import enum
import json
from collections import Counter
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .core import DENSE_MAX_SITES, Axis, _as_integer, fidelity, make_polarized_state
from .entanglement import aee_report, geometric_measure
from .floquet import Boundary, FloquetSpec, Model, apply_floquet
from .qfi import maximize_qfi
from .spectral import PeriodReport, detect_period, floquet_spectrum

MEASURES = ("aee", "geom", "qfi")
SUMMARY_PERIOD_CAP = 200
# The keys ``summary`` scans: one value list each, every combination a cell.
SUMMARY_GRID = ("model", "size", "boundary", "initial")

# The settings each run reads, by subcommand: its flags and config-file
# keys, the keywords of ``generate_summary``, and a manifest's config block.
RUN_SETTINGS = {
    "spectrum": ("model", "size", "boundary", "seed", "out"),
    "evolve": ("model", "size", "boundary", "initial", "periods", "seed", "out"),
    "measure": (
        "model", "size", "boundary", "initial", "periods", "measures", "seed", "out"
    ),
    "summary": (*SUMMARY_GRID, "seed", "out"),
}


@dataclass(frozen=True)
class SummaryRow:
    """Peak certified depth over one projective period of one configuration.

    The fields are the columns of ``summary.csv``, in order.
    """

    model: Model
    size: int
    boundary: Boundary
    initial: Axis
    peak_depth: int
    peak_depth_periods: tuple[int, ...]
    projective_period: int | None
    exact_period: int | None
    notes: str


# The header of each CSV a run writes, by file name.
_HEADERS = {
    "aee": ["n", "l", "S", "S_over_l"],
    "geom": ["n", "lambda", "e_g", "converged"],
    "qfi": ["n", "f_q", "depth", "violated_ks"],
    "spectrum": ["theta", "multiplicity"],
    "trajectory": ["n", "fidelity"],
    "final_state": ["basis_index", "re", "im"],
    "summary": [f.name for f in fields(SummaryRow)],
}
_MEASURE_INDEX = {m: i for i, m in enumerate(MEASURES)}


def _fmt(x: float) -> str:
    # |x| < 1e-13 is rounding residue on an exact zero, and 11 digits keep
    # exact values on a 12-digit rounding boundary (fidelities 2^-k) from
    # following the last bits: so the text does not change with the order
    # of floating-point evaluation (checked against a per-site kernel)
    return "0" if abs(x) < 1e-13 else "%.11g" % x


def _derive_seed(base: int, measure: str, n: int) -> int:
    # SeedSequence splits each integer into 32-bit words and zero-pads the
    # pool, so the high word goes last and only when nonzero: then no two
    # (base, measure, n) share a word sequence, and seeds below 2**32 keep
    # the words [base, measure, n]
    words = [base & 0xFFFFFFFF, _MEASURE_INDEX[measure], n]
    if base >> 32:
        words.append(base >> 32)
    seq = np.random.SeedSequence(words)
    return int(seq.generate_state(1, np.uint64)[0])


def _split(text: str) -> list[str]:
    """The items of a comma list, stripped, empty ones dropped."""
    return [v.strip() for v in text.split(",") if v.strip()]


def _coerce_enum(value, enum_cls):
    if isinstance(value, enum_cls):
        return value
    text = str(value).strip()
    for member in enum_cls:
        if member.value.lower() == text.lower():
            return member
    choices = ", ".join(m.value for m in enum_cls)
    raise ValueError(f"{enum_cls.__name__.lower()}: {value!r} is not one of {choices}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: which operator, which initial state, how long, what to record.

    The fields are the CLI's keys. Every field also takes its text, as a
    config file or a flag gives it: ``size``, ``periods`` and ``seed`` as
    decimal integers, ``measures`` as a comma list. So
    ``ExperimentConfig(**parse_config_file(path))`` is a config file's run,
    and a manifest's ``config`` block reruns as keywords. Every error names
    the field it rejects.
    """

    model: Model
    size: int
    boundary: Boundary = Boundary.OPEN
    initial: Axis = Axis("z", +1)
    periods: int = 0
    measures: tuple[str, ...] = ("aee",)
    seed: int = 0
    out: Path = Path("runs")

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _coerce_enum(self.model, Model))
        object.__setattr__(self, "boundary", _coerce_enum(self.boundary, Boundary))
        if not isinstance(self.initial, Axis):
            try:
                object.__setattr__(self, "initial", Axis.parse(str(self.initial)))
            except ValueError as exc:
                raise ValueError(f"initial: {exc}") from None
        for name in ("size", "periods", "seed"):
            value = getattr(self, name)
            try:  # text by int; _as_integer then rejects floats and bools
                value = int(value) if isinstance(value, str) else value
            except ValueError:
                raise ValueError(f"{name}: expected an integer, got {value!r}") from None
            object.__setattr__(self, name, _as_integer(name, value))
        _as_integer("size", self.size, 2, DENSE_MAX_SITES)
        _as_integer("periods", self.periods, 0)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed: must be in 0..2**64-1, got {self.seed}")
        measures = self.measures
        measures = tuple(_split(measures) if isinstance(measures, str) else measures)
        if not measures:
            raise ValueError("measures: at least one measure is required")
        unknown = sorted(set(measures) - set(MEASURES))
        if unknown:
            raise ValueError(f"measures: unknown {unknown}, choose from {MEASURES}")
        repeated = sorted({m for m in measures if measures.count(m) > 1})
        if repeated:
            raise ValueError(f"measures: {repeated} listed more than once")
        object.__setattr__(self, "measures", measures)
        # Path("") is the current directory: an empty setting would write there
        if str(self.out) == "":
            raise ValueError("out: must be a nonempty path")
        object.__setattr__(self, "out", Path(self.out))

    def floquet_spec(self) -> FloquetSpec:
        return FloquetSpec(self.model, self.size, self.boundary)


def _states(config: ExperimentConfig):
    """(n, state) for n = 0..periods: the polarized chain, then one period a step."""
    spec = config.floquet_spec()
    state = make_polarized_state(config.size, config.initial)
    yield 0, state
    for n in range(1, config.periods + 1):
        state = apply_floquet(spec, state, 1)
        yield n, state


def _text(value) -> str:
    """Text of one config or summary value: enums by value, a tuple as its
    items joined by ';', None as empty, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(_text(v) for v in value)
    return value.value if isinstance(value, enum.Enum) else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_run(
    config: ExperimentConfig, run: str, tables: dict, grid: dict | None = None
) -> dict[str, Path]:
    """Create ``config.out``, write each name's rows as ``<name>.csv``, then
    manifest.json: the settings ``run`` reads, the package version and the
    seed. A summary passes the values it scanned of each ``grid`` key, which
    replace the config's one value. Returns name -> path, the manifest under
    "manifest"."""
    from . import __version__

    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, rows in tables.items():
        files[name] = out / f"{name}.csv"
        _write_csv(files[name], _HEADERS[name], rows)
    settings = {key: getattr(config, key) for key in RUN_SETTINGS[run]}
    settings.update(grid or {})
    doc = {"config": settings, "version": __version__, "seed": config.seed}
    path = files["manifest"] = out / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=_text) + "\n")
    return files


def run_spectrum(config: ExperimentConfig) -> dict[str, Path]:
    """The quasi-energy histogram of the operator: one (theta, multiplicity)
    row per degeneracy cluster. Nothing is evolved. Returns "spectrum" and
    "manifest" -> file path."""
    spectrum = floquet_spectrum(config.floquet_spec())
    rows = [[_fmt(center), str(count)] for center, count in spectrum.clusters]
    return _write_run(config, "spectrum", {"spectrum": rows})


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Evolve for n = 0..periods, appending one row per period per measure.

    Returns measure name -> file path, plus the manifest under the key
    "manifest".
    """
    rows: dict[str, list[list[str]]] = {m: [] for m in config.measures}
    for n, state in _states(config):
        if "aee" in rows:
            report = aee_report(state)
            for l in sorted(report):
                s, s_norm, _ = report[l]
                rows["aee"].append([str(n), str(l), _fmt(s), _fmt(s_norm)])
        if "geom" in rows:
            g = geometric_measure(state, seed=_derive_seed(config.seed, "geom", n))
            rows["geom"].append(
                [str(n), _fmt(g.lambda_), _fmt(g.e_g), str(g.converged).lower()]
            )
        if "qfi" in rows:
            q = maximize_qfi(state, seed=_derive_seed(config.seed, "qfi", n))
            violated = ";".join(str(k) for k, _, flag in q.bound_table if flag)
            rows["qfi"].append([str(n), _fmt(q.f_q), str(q.depth), violated])
    return _write_run(config, "measure", rows)


def run_trajectory(config: ExperimentConfig) -> dict[str, Path]:
    """Plain evolution: per-period overlap with the initial state plus a
    dump of the final amplitudes. Ignores config.measures."""
    states = _states(config)
    _, initial = next(states)
    state = initial
    rows = [["0", _fmt(1.0)]]
    for n, state in states:
        rows.append([str(n), _fmt(fidelity(initial, state))])
    final = [[str(j), _fmt(a.real), _fmt(a.imag)] for j, a in enumerate(state.amplitudes)]
    return _write_run(config, "evolve", {"trajectory": rows, "final_state": final})


def generate_summary(
    model,
    size,
    boundary=(ExperimentConfig.boundary,),
    initial=(ExperimentConfig.initial,),
    out: Path = ExperimentConfig.out,
    seed: int = ExperimentConfig.seed,
) -> tuple[list[SummaryRow], Path]:
    """Scan every (model, size, boundary, initial) cell of the four lists.

    The keys are ``SUMMARY_GRID``. A list may be given as the text of a
    comma list, and every value as text, as ``ExperimentConfig`` takes it;
    the defaults are its defaults. Each cell evolves over one detected
    projective period T (capped at SUMMARY_PERIOD_CAP periods when none is
    found) and records the peak certified entanglement depth, every period
    attaining it, and the exact period: the smallest kT, with
    k <= SUMMARY_PERIOD_CAP, such that U^{kT} = I (744 = 8 * 93 for closed
    Ux at L = 11, past the cap). Every cell is validated, and a value
    listed twice rejected, before anything is computed or written. Writes
    summary.csv and a manifest.json whose config block lists every scanned
    value of the four keys.
    """
    grid = dict(zip(SUMMARY_GRID, (model, size, boundary, initial)))
    grid = {name: _split(v) if isinstance(v, str) else v for name, v in grid.items()}
    for name, values in grid.items():
        try:
            count = len(values)
        except TypeError:
            raise ValueError(f"{name}: expected a list of values, got {values!r}") from None
        if count == 0:
            raise ValueError(f"{name}: at least one value is required")
    configs = [
        ExperimentConfig(**dict(zip(grid, cell)), seed=seed, out=out)
        for cell in product(*grid.values())
    ]
    # Of n values each fills len(configs) / n cells, after coercion: "u0"
    # repeats "U0". The manifest records each key's values after coercion,
    # in the order given.
    scanned = {}
    for name, values in grid.items():
        cells = Counter(getattr(config, name) for config in configs)
        repeated = [v for v, k in cells.items() if k * len(values) > len(configs)]
        if repeated:
            shown = [v if isinstance(v, int) else _text(v) for v in repeated]
            raise ValueError(f"{name}: {shown} listed more than once")
        scanned[name] = tuple(cells)
    # the period depends on the operator alone, so each is found once
    specs = dict.fromkeys(config.floquet_spec() for config in configs)
    reports = {spec: detect_period(spec, SUMMARY_PERIOD_CAP) for spec in specs}
    rows = [_summary_cell(config, reports[config.floquet_spec()]) for config in configs]
    table = [[_text(getattr(r, name)) for name in _HEADERS["summary"]] for r in rows]
    files = _write_run(configs[0], "summary", {"summary": table}, scanned)
    return rows, files["summary"]


def _summary_cell(config: ExperimentConfig, report: PeriodReport) -> SummaryRow:
    window = report.period if report.period is not None else SUMMARY_PERIOD_CAP
    depths = [
        maximize_qfi(state, seed=_derive_seed(config.seed, "qfi", n)).depth
        for n, state in _states(replace(config, periods=window - 1))
    ]
    peak = max(depths)
    peaks = tuple(n for n, d in enumerate(depths) if d == peak)
    if peak == 1:
        notes = "no bound violated; depth 1 is a floor, not a separability proof"
    elif 2 * peak < config.size:
        notes = "peak depth below half the chain"
    else:
        notes = ""
    return SummaryRow(
        model=config.model,
        size=config.size,
        boundary=config.boundary,
        initial=config.initial,
        peak_depth=peak,
        peak_depth_periods=peaks,
        projective_period=report.period,
        exact_period=report.exact_period,
        notes=notes,
    )
