import importlib.util
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from kicked_ising import cli
from kicked_ising.cli import build_parser, main, parse_config_file
from kicked_ising.core import DENSE_MAX_SITES
from kicked_ising.experiment import (
    RUN_SETTINGS,
    SUMMARY_GRID,
    ExperimentConfig,
    SummaryRow,
    generate_summary,
    run_experiment,
)

ROOT = Path(__file__).resolve().parents[1]


def first_line(path: Path) -> str:
    return path.read_text().splitlines()[0]


class TestSubcommands:
    def test_spectrum(self, tmp_path, capsys):
        code = main(
            ["spectrum", "--model", "U0", "--size", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        assert first_line(tmp_path / "spectrum.csv") == "theta,multiplicity"
        assert (tmp_path / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "spectrum.csv" in out

    def test_evolve(self, tmp_path):
        code = main(
            [
                "evolve", "--model", "Ux", "--size", "3", "--periods", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        trajectory = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert trajectory[0] == "n,fidelity"
        assert len(trajectory) == 5
        assert first_line(tmp_path / "final_state.csv") == "basis_index,re,im"

    def test_measure(self, tmp_path):
        code = main(
            [
                "measure", "--model", "U0", "--size", "4", "--initial", "y+",
                "--periods", "2", "--measures", "aee,qfi", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert first_line(tmp_path / "aee.csv") == "n,l,S,S_over_l"
        assert first_line(tmp_path / "qfi.csv") == "n,f_q,depth,violated_ks"
        assert not (tmp_path / "geom.csv").exists()

    @pytest.mark.parametrize("axis", ["x+", "x-", "y+", "y-", "z+", "z-"])
    def test_product_states_print_zero_entropy_at_twelve_sites(self, tmp_path, axis):
        # a polarized chain has S = 0 on every cut exactly; summed reduced
        # spectra left residues above the 1e-13 that prints as 0
        argv = ["measure", "--model", "U0", "--size", "12", "--initial", axis]
        assert main([*argv, "--periods", "0", "--measures", "aee", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "aee.csv").read_text().splitlines()[1:]
        assert rows == [f"0,{l},0,0" for l in range(1, 12)]

    def test_summary(self, tmp_path, capsys):
        code = main(
            [
                "summary", "--model", "U0", "--size", "4", "--initial", "y+",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "U0 L=4 open y+: peak depth 4 at n={4,5,12,13}" in out
        assert first_line(tmp_path / "summary.csv").startswith("model,size,boundary")

    @pytest.mark.parametrize(
        "command, run",
        [("spectrum", "run_spectrum"), ("evolve", "run_trajectory"),
         ("measure", "run_experiment"), ("summary", "generate_summary")],
    )
    def test_runs_are_called_through_the_module(self, tmp_path, monkeypatch, command, run):
        # perfbench's tracer wraps each run where cli binds it
        calls = []
        real = getattr(cli, run)

        def wrapped(*args, **kwargs):
            calls.append(run)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, run, wrapped)
        assert main([command, "--model", "U0", "--size", "2", "--out", str(tmp_path)]) == 0
        assert calls == [run]

    def test_manifests_record_the_settings_each_run_reads(self, tmp_path):
        common = ["--model", "U0", "--size", "4", "--seed", "17"]
        runs = {
            "spectrum": [],
            "evolve": ["--initial", "y+", "--periods", "2"],
            "measure": ["--initial", "y+", "--periods", "2", "--measures", "aee,qfi"],
        }
        read = {
            "spectrum": "boundary model out seed size",
            "evolve": "boundary initial model out periods seed size",
            "measure": "boundary initial measures model out periods seed size",
        }
        for command, extra in runs.items():
            out = tmp_path / command
            assert main([command, *common, *extra, "--out", str(out)]) == 0
            doc = json.loads((out / "manifest.json").read_text())
            assert sorted(doc["config"]) == read[command].split(), command
            assert doc["seed"] == 17, command


class TestConfigFile:
    def write_config(self, tmp_path) -> Path:
        path = tmp_path / "run.cfg"
        path.write_text(
            "# demo configuration\n"
            "model = U0\n"
            "size = 4\n"
            "initial = y+  # start along +y\n"
            "periods = 2\n"
            "measures = aee\n"
        )
        return path

    def test_parse(self, tmp_path):
        path = self.write_config(tmp_path)
        settings = parse_config_file(path)
        assert settings == {
            "model": "U0",
            "size": "4",
            "initial": "y+",
            "periods": "2",
            "measures": "aee",
        }

    def test_config_drives_a_run(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "runs"
        code = main(["measure", "--config", str(path), "--out", str(out)])
        assert code == 0
        rows = (out / "aee.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 3

    def test_flags_override_the_file(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "runs"
        code = main(
            ["measure", "--config", str(path), "--periods", "1", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "aee.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 3

    def test_malformed_line_is_reported_with_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model = U0\nnot a setting\n")
        with pytest.raises(ValueError, match="bad.cfg:2"):
            parse_config_file(path)


class TestErrors:
    def check_error(self, capsys, argv, fragment):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err

    def test_missing_model(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["spectrum", "--size", "4", "--out", str(tmp_path)],
            "model is required",
        )

    def test_unknown_measure(self, tmp_path, capsys):
        self.check_error(
            capsys,
            [
                "measure", "--model", "U0", "--size", "4",
                "--measures", "bogus", "--out", str(tmp_path),
            ],
            "measures",
        )

    def test_bad_axis(self, tmp_path, capsys):
        self.check_error(
            capsys,
            [
                "measure", "--model", "U0", "--size", "4",
                "--initial", "q+", "--out", str(tmp_path),
            ],
            "axis",
        )

    def test_bad_integer(self, tmp_path, capsys):
        self.check_error(
            capsys,
            [
                "evolve", "--model", "U0", "--size", "4",
                "--periods", "soon", "--out", str(tmp_path),
            ],
            "periods",
        )

    @pytest.mark.parametrize("command", ["measure", "summary"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, tmp_path, capsys, command, seed):
        self.check_error(
            capsys,
            [command, "--model", "U0", "--size", "4", "--seed", seed, "--out", str(tmp_path)],
            f"seed: must be in 0..2**64-1, got {seed}",
        )

    def test_bad_integer_in_summary_list(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["summary", "--model", "U0", "--size", "4,x", "--out", str(tmp_path)],
            "size: expected an integer, got 'x'",
        )

    @pytest.mark.parametrize("key", ["model", "size", "boundary", "initial"])
    def test_empty_summary_list(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        argv = ["summary", "--model", "U0", "--size", "4", "--out", str(out)]
        self.check_error(
            capsys, [*argv, f"--{key}", ","], f"{key}: at least one value is required"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, values, message",
        [("model", "U0,u0", "model: ['U0']"), ("size", "4,4", "size: [4]"),
         ("boundary", "open,OPEN", "boundary: ['open']"),
         ("initial", "y+,Y+", "initial: ['y+']")],
    )
    def test_repeated_summary_value(self, tmp_path, capsys, key, values, message):
        out = tmp_path / "out"
        argv = ["summary", "--model", "U0", "--size", "4", "--out", str(out)]
        code = main([*argv, f"--{key}", values])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message} listed more than once\n"
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("model = U0\nsize = 4\njunk = 1\n")
        self.check_error(
            capsys,
            ["spectrum", "--config", str(path), "--out", str(tmp_path)],
            "unknown keys",
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["spectrum", "--measures", "bogus"],
            ["summary", "--periods", "soon", "--measures", "bogus"],
        ],
    )
    def test_flag_the_subcommand_ignores(self, tmp_path, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main([*extra, "--model", "U0", "--size", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(extra[1:])}" in err
        assert not any(tmp_path.iterdir())

    def test_config_key_the_subcommand_ignores(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("model = U0\nsize = 4\nperiods = 3000\n")
        self.check_error(
            capsys,
            ["spectrum", "--config", str(path), "--out", str(tmp_path / "out")],
            "unknown keys ['periods'] for spectrum",
        )
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("model = U0\nsize = 8\n# later\nsize = 10\n")
        out = tmp_path / "out"
        code = main(["spectrum", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:4: key 'size' repeated (first set on line 2)\n"
        assert not out.exists()

    def test_empty_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # "" would be Path("."), the current directory
        config = tmp_path / "e.cfg"
        config.write_text("model = U0\nsize = 4\nout =\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for argv in (["spectrum", "--config", str(config)],
                     ["spectrum", "--model", "U0", "--size", "4", "--out", ""]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: out: must be a nonempty path\n"
        assert not any(cwd.iterdir())

    def test_missing_config_file(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["spectrum", "--config", str(tmp_path / "absent.cfg")],
            "absent.cfg",
        )


ALL_FLAGS = "model size boundary initial periods measures seed out config".split()

# A bad value of each key and the error it gives; a summary grid gets it
# after a good value in its comma list.
BAD_VALUES = {
    "model": ("U0", "U9", "model: 'U9' is not one of U0, Ux"),
    "size": ("4", "13", f"size: must be in 2..{DENSE_MAX_SITES}, got 13"),
    "boundary": ("open", "ring", "boundary: 'ring' is not one of open, closed"),
    "initial": ("z+", "q", "initial: cannot parse axis from 'q'"),
    "periods": (None, "-1", "periods: must be >= 0, got -1"),
    # the spectrum is a run of its own, not a per-period measure
    "measures": (
        None,
        "spectrum",
        "measures: unknown ['spectrum'], choose from ('aee', 'geom', 'qfi')",
    ),
    "seed": (None, "-1", "seed: must be in 0..2**64-1, got -1"),
    "out": (None, "", "out: must be a nonempty path"),
}


class TestVocabulary:
    def test_one_name_per_setting(self, tmp_path):
        # a CLI key, a config-file key, a config field and a manifest key
        # are one name, and so are a summary.csv column and a SummaryRow field
        assert set(cli._HELP) == {f.name for f in fields(ExperimentConfig)}
        assert set().union(*RUN_SETTINGS.values()) == set(cli._HELP)
        argv = ["summary", "--model", "U0", "--size", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        header = first_line(tmp_path / "summary.csv").split(",")
        assert header == [f.name for f in fields(SummaryRow)]

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command, keys in RUN_SETTINGS.items() for key in keys],
    )
    def test_a_bad_value_is_reported_under_its_key(
        self, tmp_path, monkeypatch, capsys, command, key
    ):
        good, bad, message = BAD_VALUES[key]
        if command == "summary" and key in SUMMARY_GRID:
            bad = f"{good},{bad}"
        monkeypatch.chdir(tmp_path)
        argv = [command, "--model", "U0", "--size", "4", "--out", "out", f"--{key}", bad]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("spectrum", []),
            ("evolve", ["--initial", "y-", "--periods", "5"]),
            ("measure", ["--initial", "y+", "--periods", "3", "--measures", "qfi,aee"]),
            ("summary", ["--initial", "y+,z-"]),
        ],
    )
    def test_a_manifest_reruns_as_a_config_file(self, tmp_path, command, extra):
        out = tmp_path / "run"
        argv = [command, "--model", "Ux", "--size", "4", "--boundary", "closed"]
        assert main([*argv, *extra, "--seed", "9", "--out", str(out)]) == 0
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        settings = json.loads(written["manifest.json"])["config"]
        assert sorted(settings) == sorted(RUN_SETTINGS[command])
        lines = [
            f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}"
            for key, value in settings.items()
        ]
        config = tmp_path / "manifest.cfg"
        config.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(config)]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == written


def snapshot(out: Path) -> dict[str, bytes]:
    """Every file of a run's directory, which is then removed."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)
    return files


class TestOneParser:
    """``ExperimentConfig`` and ``generate_summary`` parse the settings' text,
    so a config file or a manifest runs the same from Python as from the CLI."""

    def test_a_config_file_runs_from_python(self, tmp_path):
        path = tmp_path / "run.cfg"
        out = tmp_path / "run"
        path.write_text(
            "model = Ux\nsize = 4\nboundary = closed\ninitial = y-\nperiods = 3\n"
            f"measures = qfi, aee,geom\nseed = 7\nout = {out}\n"
        )
        assert main(["measure", "--config", str(path)]) == 0
        written = snapshot(out)
        run_experiment(ExperimentConfig(**parse_config_file(path)))
        assert snapshot(out) == written

    def test_a_summary_config_file_runs_from_python(self, tmp_path):
        path = tmp_path / "grid.cfg"
        out = tmp_path / "grid"
        path.write_text(f"model = U0,Ux\nsize = 3, 4\ninitial = y+\nseed = 2\nout = {out}\n")
        assert main(["summary", "--config", str(path)]) == 0
        written = snapshot(out)
        generate_summary(**parse_config_file(path))
        assert snapshot(out) == written

    def test_a_manifest_config_block_reruns_as_keywords(self, tmp_path):
        out = tmp_path / "run"
        argv = ["--model", "U0", "--size", "5", "--initial", "x+", "--periods", "2"]
        extra = ["--measures", "geom,qfi", "--seed", "12", "--out", str(out)]
        assert main(["measure", *argv, *extra]) == 0
        written = snapshot(out)
        config = json.loads(written["manifest.json"])["config"]
        run_experiment(ExperimentConfig(**config))
        assert snapshot(out) == written

    @pytest.mark.parametrize(
        "command, names",
        [
            ("spectrum", ["manifest.json", "spectrum.csv"]),
            ("evolve", ["final_state.csv", "manifest.json", "trajectory.csv"]),
            ("measure", ["aee.csv", "manifest.json"]),
            ("summary", ["manifest.json", "summary.csv"]),
        ],
    )
    def test_defaults_write_under_runs(self, tmp_path, monkeypatch, capsys, command, names):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--model", "U0", "--size", "4"]) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["runs"]
        assert sorted(path.name for path in (tmp_path / "runs").iterdir()) == names
        wrote = [line for line in capsys.readouterr().out.splitlines() if "wrote" in line]
        shown = [n for n in names if command != "summary" or n == "summary.csv"]
        assert wrote == [f"wrote {Path('runs', name)}" for name in shown]


class TestParser:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("spectrum", "model size boundary seed out config"),
            ("evolve", "model size boundary initial periods seed out config"),
            ("measure", " ".join(ALL_FLAGS)),
            ("summary", "model size boundary initial seed out config"),
        ],
    )
    def test_flags_per_subcommand(self, command, flags):
        parser = build_parser()
        for flag in ALL_FLAGS:
            argv = [command, f"--{flag}", "v"]
            if flag in flags.split():
                assert getattr(parser.parse_args(argv), flag) == "v"
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)

    @pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in RUN_SETTINGS)])
    def test_help_through_main_is_the_full_parsers(self, capsys, argv):
        # main adds flags to the named subcommand only, which no help text may show
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, full.value.code) == (0, 0)
        assert capsys.readouterr() == want and "usage: kicked-ising" in want.out

    def test_an_unknown_flag_exits_2_with_the_full_parsers_text(self, capsys):
        argv = ["spectrum", "--periods", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        got = capsys.readouterr()
        assert got.out == "" and got.err.splitlines() == [
            "usage: kicked-ising [-h] {spectrum,evolve,measure,summary} ...",
            "kicked-ising: error: unrecognized arguments: --periods 3",
        ]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert capsys.readouterr() == got

    def test_parser_takes_every_benchmark_argv(self, monkeypatch):
        # perfbench runs these argv with its own --seed and --out appended
        bench = ROOT / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)
        spec.loader.exec_module(run)
        workloads = [*run.WORKLOADS.values(), *run.SMOKE.values()]
        assert {w.command for w in workloads} == {"spectrum", "evolve", "measure", "summary"}
        for workload in workloads:
            build_parser().parse_args([*workload.argv, "--seed", "0", "--out", "x"])


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


# Fresh interpreter: this test process already holds scipy (tests/oracles.py).
_NUMPY_ONLY_SCRIPT = """
import sys
from pathlib import Path

import kicked_ising
from kicked_ising.cli import main

out = Path(sys.argv[1])
common = ["--model", "U0", "--size", "4"]
assert main(["measure", *common, "--periods", "2", "--measures", "aee,geom,qfi",
             "--out", str(out / "measure")]) == 0
assert main(["evolve", *common, "--out", str(out / "evolve")]) == 0
assert main(["spectrum", *common, "--out", str(out / "spectrum")]) == 0
assert main(["summary", *common, "--initial", "y+", "--out", str(out / "summary")]) == 0
assert "scipy" not in sys.modules, "a subcommand imported scipy"
"""


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        result = run_python(
            ["-m", "kicked_ising", "spectrum", "--model", "U0", "--size", "2",
             "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        assert (tmp_path / "spectrum.csv").exists()

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        result = run_python(["-c", _NUMPY_ONLY_SCRIPT, str(tmp_path)])
        assert result.returncode == 0, result.stderr
        for name in ("measure/qfi.csv", "evolve/trajectory.csv", "spectrum/spectrum.csv",
                     "summary/summary.csv"):
            assert (tmp_path / name).exists(), name
