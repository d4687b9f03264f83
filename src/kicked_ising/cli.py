"""Command-line front end.

Subcommands: ``spectrum`` (quasi-energy histogram), ``evolve`` (overlap
trajectory and final amplitudes), ``measure`` (per-period entanglement
measures), ``summary`` (peak-depth table over a parameter grid).
Settings come from ``--config`` key=value files and/or flags; flags win.
Exit code 0 on success, 2 with a one-line diagnostic on bad input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .core import DENSE_MAX_SITES
from .experiment import (
    MEASURES,
    ExperimentConfig,
    generate_summary,
    run_experiment,
    run_trajectory,
)


def _split(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


class _Key(NamedTuple):
    """One setting, given as a flag or as a config-file key."""

    field: str  # the ExperimentConfig field it sets; that field holds the default
    help: str
    commands: tuple[str, ...]  # the subcommands that read it
    parse: Callable[[str], object] = str
    grid: bool = False  # ``summary`` takes a comma list and scans every value


_ALL_COMMANDS = ("spectrum", "evolve", "measure", "summary")
_KEYS = {
    "model": _Key("model", "U0 or Ux", _ALL_COMMANDS, grid=True),
    "size": _Key(
        "num_sites", f"number of sites, 2..{DENSE_MAX_SITES}", _ALL_COMMANDS, int, grid=True
    ),
    "boundary": _Key("boundary", "open or closed", _ALL_COMMANDS, grid=True),
    "initial": _Key(
        "initial_axis",
        "initial product axis, e.g. z+, y-",
        ("evolve", "measure", "summary"),
        grid=True,
    ),
    "periods": _Key("n_max", "number of Floquet periods", ("evolve", "measure"), int),
    "measures": _Key(
        "measures", "comma list from: " + ", ".join(MEASURES), ("measure",), _split
    ),
    "seed": _Key("seed", "optimizer seed (64-bit integer)", _ALL_COMMANDS, int),
    "out": _Key("out_dir", "output directory", _ALL_COMMANDS),
}
_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_config_file(path: Path) -> dict[str, str]:
    """key=value per line; blank lines and #-comments are ignored."""
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


def _merge_settings(args: argparse.Namespace) -> dict[str, str]:
    """The config file, then explicit flags, over the keys the subcommand
    reads. Unset keys are left out, so the ExperimentConfig defaults apply."""
    keys = [key for key, spec in _KEYS.items() if args.command in spec.commands]
    settings: dict[str, str] = {}
    if args.config is not None:
        settings = parse_config_file(Path(args.config))
        unknown = sorted(set(settings) - set(keys))
        if unknown:
            raise ValueError(f"{args.config}: unknown keys {unknown} for {args.command}")
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
        elif key not in settings and _FIELD_DEFAULTS[_KEYS[key].field] is MISSING:
            raise ValueError(f"{key} is required (flag --{key} or config)")
    return settings


def _parse(key: str, text: str):
    try:
        return _KEYS[key].parse(text)
    except ValueError:  # only the integer keys can fail to parse
        raise ValueError(f"{key}: expected an integer, got {text!r}") from None


def _setting(settings: dict[str, str], key: str):
    """The parsed value of ``key``, or its ExperimentConfig default if unset."""
    if key not in settings:
        return _FIELD_DEFAULTS[_KEYS[key].field]
    return _parse(key, settings[key])


def _single_config(settings: dict[str, str], **fixed) -> ExperimentConfig:
    values = {
        spec.field: _parse(key, settings[key])
        for key, spec in _KEYS.items()
        if key in settings
    }
    return ExperimentConfig(**{**values, **fixed})


def _report(files: dict[str, Path]) -> None:
    for name in sorted(files):
        print(f"wrote {files[name]}")


def _cmd_spectrum(settings: dict[str, str]) -> int:
    """write the quasi-energy histogram of the operator"""
    _report(run_experiment(_single_config(settings, measures=("spectrum",))))
    return 0


def _cmd_evolve(settings: dict[str, str]) -> int:
    """evolve and record the overlap with the initial state"""
    _report(run_trajectory(_single_config(settings, measures=("aee",))))
    return 0


def _cmd_measure(settings: dict[str, str]) -> int:
    """record per-period entanglement measures"""
    _report(run_experiment(_single_config(settings)))
    return 0


def _cmd_summary(settings: dict[str, str]) -> int:
    """peak certified depth per (model, size, boundary, initial)"""
    def grid(key: str) -> list:
        if key not in settings:
            return [_setting(settings, key)]
        return [_parse(key, v) for v in _split(settings[key])]

    rows, path = generate_summary(
        models=grid("model"),
        sizes=grid("size"),
        boundaries=grid("boundary"),
        axes=grid("initial"),
        out_dir=_setting(settings, "out"),
        seed=_setting(settings, "seed"),
    )
    for row in rows:
        peaks = ",".join(str(n) for n in row.peak_depth_periods)
        print(
            f"{row.model.value} L={row.num_sites} {row.boundary.value} "
            f"{row.initial_axis}: peak depth {row.peak_depth} at n={{{peaks}}}"
        )
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "measure": _cmd_measure,
    "summary": _cmd_summary,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kicked-ising",
        description="Kicked Ising chain simulator: spectra, evolution, "
        "entanglement measures, depth summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        for key, spec in _KEYS.items():
            if name not in spec.commands:
                continue
            lists = spec.grid and name == "summary"
            suffix = " (comma list allowed)" if lists else ""
            p.add_argument(f"--{key}", help=spec.help + suffix)
        p.add_argument("--config", help="key=value settings file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _merge_settings(args)
        return _COMMANDS[args.command](settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
