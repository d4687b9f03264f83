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
    RUN_SETTINGS,
    ExperimentConfig,
    generate_summary,
    run_experiment,
    run_spectrum,
    run_trajectory,
)
from .floquet import Boundary, Model


def _split(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


class _Key(NamedTuple):
    """One setting, given as a flag or as a config-file key; the
    ExperimentConfig field of the same name holds its default, and
    ``experiment.RUN_SETTINGS`` names the subcommands that read it."""

    help: str
    parse: Callable[[str], object] = str
    grid: bool = False  # ``summary`` takes a comma list and scans every value


_KEYS = {
    "model": _Key(" or ".join(m.value for m in Model), grid=True),
    "size": _Key(f"number of sites, 2..{DENSE_MAX_SITES}", int, grid=True),
    "boundary": _Key(" or ".join(b.value for b in Boundary), grid=True),
    "initial": _Key("initial product axis, e.g. z+, y-", grid=True),
    "periods": _Key("number of Floquet periods", int),
    "measures": _Key("comma list from: " + ", ".join(MEASURES), _split),
    "seed": _Key("optimizer seed, 0..2**64-1", int),
    "out": _Key("output directory"),
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_config_file(path: Path) -> dict[str, str]:
    """key=value per line; blank lines and #-comments are ignored, and a
    key may be set only once."""
    settings: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ValueError(
                f"{path}:{lineno}: key {key!r} repeated (first set on line {set_on[key]})"
            )
        set_on[key] = lineno
        settings[key] = value
    return settings


def _merge_settings(args: argparse.Namespace) -> dict[str, str]:
    """The config file, then explicit flags, over the keys the subcommand
    reads. Unset keys are left out, so the ExperimentConfig defaults apply."""
    keys = RUN_SETTINGS[args.command]
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
        elif key not in settings and _DEFAULTS[key] is MISSING:
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
        return _DEFAULTS[key]
    return _parse(key, settings[key])


def _single_config(settings: dict[str, str]) -> ExperimentConfig:
    return ExperimentConfig(**{key: _parse(key, text) for key, text in settings.items()})


def _report(files: dict[str, Path]) -> None:
    for name in sorted(files):
        print(f"wrote {files[name]}")


def _cmd_spectrum(settings: dict[str, str]) -> int:
    """write the quasi-energy histogram of the operator"""
    _report(run_spectrum(_single_config(settings)))
    return 0


def _cmd_evolve(settings: dict[str, str]) -> int:
    """evolve and record the overlap with the initial state"""
    _report(run_trajectory(_single_config(settings)))
    return 0


def _cmd_measure(settings: dict[str, str]) -> int:
    """record per-period entanglement measures"""
    _report(run_experiment(_single_config(settings)))
    return 0


def _cmd_summary(settings: dict[str, str]) -> int:
    """peak certified depth per (model, size, boundary, initial)"""
    def value(key: str):
        if not _KEYS[key].grid:
            return _setting(settings, key)
        if key not in settings:
            return [_setting(settings, key)]
        return [_parse(key, v) for v in _split(settings[key])]

    rows, path = generate_summary(**{key: value(key) for key in RUN_SETTINGS["summary"]})
    for row in rows:
        peaks = ",".join(str(n) for n in row.peak_depth_periods)
        print(
            f"{row.model.value} L={row.size} {row.boundary.value} "
            f"{row.initial}: peak depth {row.peak_depth} at n={{{peaks}}}"
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
        for key in RUN_SETTINGS[name]:
            spec = _KEYS[key]
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
