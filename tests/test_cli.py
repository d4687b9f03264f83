import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from kicked_ising.cli import build_parser, main, parse_config_file

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

    def test_bad_integer_in_summary_list(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["summary", "--model", "U0", "--size", "4,x", "--out", str(tmp_path)],
            "size: expected an integer, got 'x'",
        )

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

    def test_missing_config_file(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["spectrum", "--config", str(tmp_path / "absent.cfg")],
            "absent.cfg",
        )


ALL_FLAGS = "model size boundary initial periods measures seed out config".split()


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


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "kicked_ising", "spectrum",
                "--model", "U0", "--size", "2", "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "spectrum.csv").exists()
