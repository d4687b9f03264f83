"""Experiment orchestration.

Configure a chain, evolve it one period at a time, record the requested
measures, and export headered CSV files plus a JSON manifest. Output is
deterministic for a fixed config: optimizer seeds are derived from
(config seed, measure, period), so reruns are byte-identical and rows do
not depend on which other measures are enabled.
"""

from __future__ import annotations

import csv
import enum
import json
import operator
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .core import DENSE_MAX_SITES, Axis, fidelity, make_polarized_state
from .entanglement import aee_report, geometric_measure
from .floquet import Boundary, FloquetSpec, Model, apply_floquet
from .qfi import maximize_qfi
from .spectral import detect_period, floquet_spectrum

MEASURES = ("aee", "geom", "qfi", "spectrum")
SUMMARY_PERIOD_CAP = 200

_HEADERS = {
    "aee": ["n", "l", "S", "S_over_l"],
    "geom": ["n", "lambda", "e_g", "converged"],
    "qfi": ["n", "f_q", "depth", "violated_ks"],
    "spectrum": ["theta", "multiplicity"],
}
_MEASURE_INDEX = {m: i for i, m in enumerate(MEASURES)}


def _fmt(x: float) -> str:
    return "%.12g" % x


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

    String values are accepted for model, boundary and initial_axis and
    coerced, so configs can come straight from text files or flags.
    """

    model: Model
    num_sites: int
    boundary: Boundary = Boundary.OPEN
    initial_axis: Axis = Axis("z", +1)
    n_max: int = 0
    measures: tuple[str, ...] = ("aee",)
    seed: int = 0
    out_dir: Path = Path("runs")

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _coerce_enum(self.model, Model))
        object.__setattr__(self, "boundary", _coerce_enum(self.boundary, Boundary))
        if not isinstance(self.initial_axis, Axis):
            object.__setattr__(self, "initial_axis", Axis.parse(str(self.initial_axis)))
        for name in ("num_sites", "n_max", "seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name}: must be an integer, got {value!r}") from None
        if not 2 <= self.num_sites <= DENSE_MAX_SITES:
            raise ValueError(
                f"num_sites: must be in 2..{DENSE_MAX_SITES}, got {self.num_sites}"
            )
        if self.n_max < 0:
            raise ValueError(f"n_max: must be >= 0, got {self.n_max}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed: must be in 0..2**64-1, got {self.seed}")
        if isinstance(self.measures, str):
            raise ValueError(
                f"measures: expected a sequence of names, got the string {self.measures!r}"
            )
        measures = tuple(self.measures)
        if not measures:
            raise ValueError("measures: at least one measure is required")
        unknown = sorted(set(measures) - set(MEASURES))
        if unknown:
            raise ValueError(f"measures: unknown {unknown}, choose from {MEASURES}")
        repeated = sorted({m for m in measures if measures.count(m) > 1})
        if repeated:
            raise ValueError(f"measures: {repeated} listed more than once")
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    def floquet_spec(self) -> FloquetSpec:
        return FloquetSpec(self.model, self.num_sites, self.boundary)


def _states(config: ExperimentConfig):
    """(n, state) for n = 0..n_max: the polarized chain, then one period a step."""
    spec = config.floquet_spec()
    state = make_polarized_state(config.num_sites, config.initial_axis)
    yield 0, state
    for n in range(1, config.n_max + 1):
        state = apply_floquet(spec, state, 1)
        yield n, state


def _json_text(value) -> str:
    """Manifest form of the config values json cannot encode: enums by
    value, axes and paths as text."""
    return value.value if isinstance(value, enum.Enum) else str(value)


def _write_manifest(config: ExperimentConfig, out: Path, unread: tuple[str, ...]) -> Path:
    """manifest.json: the config fields the run reads (all but ``unread``),
    the package version and the seed."""
    from . import __version__

    settings = {
        f.name: getattr(config, f.name) for f in fields(config) if f.name not in unread
    }
    doc = {"config": settings, "version": __version__, "seed": config.seed}
    path = out / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=_json_text) + "\n")
    return path


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Evolve for n = 0..n_max, appending one row per period per measure.

    The spectrum, when requested, is written once (it belongs to the
    operator, not to a period); asked for alone, nothing is evolved.
    Returns measure name -> file path, plus the manifest under the key
    "manifest".
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    rows: dict[str, list[list[str]]] = {m: [] for m in config.measures}
    per_period = set(rows) != {"spectrum"}
    for n, state in _states(config) if per_period else ():
        if "aee" in rows:
            report = aee_report(state)
            for l in sorted(report.per_l):
                s, s_norm, _ = report.per_l[l]
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
    if "spectrum" in rows:
        spectrum = floquet_spectrum(config.floquet_spec())
        rows["spectrum"] = [
            [_fmt(center), str(count)] for center, count in spectrum.clusters
        ]

    files: dict[str, Path] = {}
    for measure in config.measures:
        path = out / f"{measure}.csv"
        _write_csv(path, _HEADERS[measure], rows[measure])
        files[measure] = path
    unread = () if per_period else ("initial_axis", "n_max")
    files["manifest"] = _write_manifest(config, out, unread)
    return files


def run_trajectory(config: ExperimentConfig) -> dict[str, Path]:
    """Plain evolution: per-period overlap with the initial state plus a
    dump of the final amplitudes. Ignores config.measures."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    states = _states(config)
    _, initial = next(states)
    state = initial
    rows = [["0", _fmt(1.0)]]
    for n, state in states:
        rows.append([str(n), _fmt(fidelity(initial, state))])
    trajectory = out / "trajectory.csv"
    _write_csv(trajectory, ["n", "fidelity"], rows)
    final = out / "final_state.csv"
    _write_csv(
        final,
        ["basis_index", "re", "im"],
        [
            [str(j), _fmt(a.real), _fmt(a.imag)]
            for j, a in enumerate(state.amplitudes)
        ],
    )
    files = {"trajectory": trajectory, "final_state": final}
    files["manifest"] = _write_manifest(config, out, unread=("measures",))
    return files


@dataclass(frozen=True)
class SummaryRow:
    """Peak certified depth over one projective period of one configuration."""

    model: Model
    num_sites: int
    boundary: Boundary
    initial_axis: Axis
    peak_depth: int
    peak_depth_periods: tuple[int, ...]
    detected_projective_period: int | None
    exact_identity_period: int | None
    notes: str


def generate_summary(
    models, sizes, boundaries, axes, out_dir: Path, seed: int = 0
) -> tuple[list[SummaryRow], Path]:
    """Scan every (model, size, boundary, axis) cell.

    Each cell evolves over one detected projective period (capped at
    SUMMARY_PERIOD_CAP periods when none is found) and records the peak
    certified entanglement depth and every period attaining it. Every
    cell is validated before anything is computed or written.
    """
    grid = {"models": models, "sizes": sizes, "boundaries": boundaries, "axes": axes}
    for name, values in grid.items():
        if len(values) == 0:
            raise ValueError(f"{name}: at least one value is required")
    try:
        configs = [ExperimentConfig(*cell, seed=seed) for cell in product(*grid.values())]
    except ValueError as exc:
        # A bad size is reported under this function's argument name.
        raise ValueError(str(exc).replace("num_sites:", "sizes:", 1)) from None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [_summary_cell(config) for config in configs]
    path = out_dir / "summary.csv"
    _write_csv(
        path,
        [
            "model", "size", "boundary", "initial", "peak_depth",
            "peak_depth_periods", "projective_period", "exact_period", "notes",
        ],
        [
            [
                r.model.value,
                str(r.num_sites),
                r.boundary.value,
                str(r.initial_axis),
                str(r.peak_depth),
                ";".join(str(n) for n in r.peak_depth_periods),
                "" if r.detected_projective_period is None
                else str(r.detected_projective_period),
                "" if r.exact_identity_period is None
                else str(r.exact_identity_period),
                r.notes,
            ]
            for r in rows
        ],
    )
    return rows, path


def _summary_cell(config: ExperimentConfig) -> SummaryRow:
    report = detect_period(config.floquet_spec(), SUMMARY_PERIOD_CAP)
    window = report.period if report.period is not None else SUMMARY_PERIOD_CAP
    depths = [
        maximize_qfi(state, seed=_derive_seed(config.seed, "qfi", n)).depth
        for n, state in _states(replace(config, n_max=window - 1))
    ]
    peak = max(depths)
    peaks = tuple(n for n, d in enumerate(depths) if d == peak)
    if peak == 1:
        notes = "no bound violated; depth 1 is a floor, not a separability proof"
    elif 2 * peak < config.num_sites:
        notes = "peak depth below half the chain"
    else:
        notes = ""
    return SummaryRow(
        model=config.model,
        num_sites=config.num_sites,
        boundary=config.boundary,
        initial_axis=config.initial_axis,
        peak_depth=peak,
        peak_depth_periods=peaks,
        detected_projective_period=report.period,
        exact_identity_period=report.exact_period,
        notes=notes,
    )
