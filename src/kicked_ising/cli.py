"""Command-line front end.

Subcommands: ``spectrum`` (quasi-energy histogram), ``evolve`` (overlap
trajectory and final amplitudes), ``measure`` (per-period entanglement
measures), ``summary`` (peak-depth table over a parameter grid).
Settings come from ``--config`` key=value files and/or flags; flags win.
The CLI only merges the two and dispatches: the merged text goes to
``ExperimentConfig`` (to ``generate_summary`` for ``summary``), which
parses and checks every value. Exit code 0 on success, 2 with a one-line
diagnostic on bad input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .core import DENSE_MAX_SITES
from .experiment import (
    MEASURES,
    RUN_SETTINGS,
    SUMMARY_GRID,
    ExperimentConfig,
    generate_summary,
    run_experiment,
    run_spectrum,
    run_trajectory,
)
from .floquet import Boundary, Model

# The help of each setting. The ExperimentConfig field of the same name
# parses it and holds its default; experiment.RUN_SETTINGS names the
# subcommands that read it.
_HELP = {
    "model": " or ".join(m.value for m in Model),
    "size": f"number of sites, 2..{DENSE_MAX_SITES}",
    "boundary": " or ".join(b.value for b in Boundary),
    "initial": "initial product axis, e.g. z+, y-",
    "periods": "number of Floquet periods",
    "measures": "comma list from: " + ", ".join(MEASURES),
    "seed": "optimizer seed, 0..2**64-1",
    "out": "output directory",
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# Each subcommand's help and its run.
_COMMANDS = {
    "spectrum": ("write the quasi-energy histogram of the operator", run_spectrum),
    "evolve": ("evolve and record the overlap with the initial state", run_trajectory),
    "measure": ("record per-period entanglement measures", run_experiment),
    "summary": (
        f"peak certified depth per ({', '.join(SUMMARY_GRID)})", generate_summary
    ),
}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kicked-ising",
        description="Kicked Ising chain simulator: spectra, evolution, "
        "entanglement measures, depth summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (about, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        for key in RUN_SETTINGS[name]:
            lists = name == "summary" and key in SUMMARY_GRID
            suffix = " (comma list allowed)" if lists else ""
            p.add_argument(f"--{key}", help=_HELP[key] + suffix)
        p.add_argument("--config", help="key=value settings file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, run = _COMMANDS[args.command]
    # call through this module's name for the run, so that a wrapper put on
    # it, as perfbench's tracer puts one, sees the call
    run = globals()[run.__name__]
    try:
        settings = _merge_settings(args)
        if run is generate_summary:
            rows, path = generate_summary(**settings)
            for row in rows:
                peaks = ",".join(str(n) for n in row.peak_depth_periods)
                print(
                    f"{row.model.value} L={row.size} {row.boundary.value} "
                    f"{row.initial}: peak depth {row.peak_depth} at n={{{peaks}}}"
                )
            files = {"summary": path}
        else:
            files = run(ExperimentConfig(**settings))
        for name in sorted(files):
            print(f"wrote {files[name]}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
