import csv
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from kicked_ising import __version__, experiment, floquet
from kicked_ising.cli import main
from kicked_ising.core import DEFAULT_TOL, Axis
from kicked_ising.entanglement import geometric_measure
from kicked_ising.experiment import (
    RUN_SETTINGS,
    ExperimentConfig,
    generate_summary,
    run_experiment,
    run_spectrum,
    run_trajectory,
)
from kicked_ising.floquet import Boundary, Model
from kicked_ising.qfi import maximize_qfi
from oracles import site_operator


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def count_periods(monkeypatch) -> list[int]:
    """Record the period count of every experiment.apply_floquet call."""
    periods = []
    real = experiment.apply_floquet

    def counting(spec, state, n):
        periods.append(n)
        return real(spec, state, n)

    monkeypatch.setattr(experiment, "apply_floquet", counting)
    return periods


class TestConfig:
    def test_string_coercion(self):
        config = ExperimentConfig(
            model="u0", size=4, boundary="closed", initial="y-"
        )
        assert config.model is Model.U0
        assert config.boundary is Boundary.CLOSED
        assert config.initial == Axis("y", -1)
        spec = config.floquet_spec()
        assert spec.model is Model.U0
        assert spec.boundary is Boundary.CLOSED
        assert spec.num_sites == 4

    def test_rejects_out_of_range_size(self):
        for bad in (1, 13):
            with pytest.raises(ValueError, match="^size: must be in 2..12"):
                ExperimentConfig(model=Model.U0, size=bad)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="^periods: must be >= 0, got -1"):
            ExperimentConfig(model=Model.U0, size=4, periods=-1)

    def test_rejects_unknown_measure(self):
        # the spectrum belongs to the operator: a run of its own, not a measure
        for name in ("bogus", "spectrum"):
            with pytest.raises(ValueError, match=rf"measures: unknown \['{name}'\]"):
                ExperimentConfig(model=Model.U0, size=4, measures=(name,))
        with pytest.raises(ValueError, match=r"^measures: unknown \['bogus'\]"):
            ExperimentConfig(model=Model.U0, size=4, measures="aee,bogus")

    def test_rejects_repeated_measures(self):
        with pytest.raises(ValueError, match="measures"):
            ExperimentConfig(model=Model.U0, size=4, measures=("aee", "qfi", "aee"))

    def test_rejects_empty_measures(self):
        with pytest.raises(ValueError, match="measures"):
            ExperimentConfig(model=Model.U0, size=4, measures=())

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed: must be in 0\.\.2\*\*64-1"):
            ExperimentConfig(model=Model.U0, size=4, seed=seed)

    def test_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert ExperimentConfig(model=Model.U0, size=4, seed=seed).seed == seed

    def test_derived_seeds_do_not_wrap_at_2_63(self):
        derive = experiment._derive_seed
        assert derive(0, "geom", 3) != derive(2**63, "geom", 3)
        assert derive(2**63 - 1, "qfi", 5) != derive(2**64 - 1, "qfi", 5)
        # below 2**32 the derived seeds, and so every CSV, are as before
        assert derive(0, "geom", 3) == 10553451911785522164
        assert derive(2**32 - 1, "qfi", 0) == 831867259382209732
        # from 2**32 up the high word goes last
        assert derive(2**63 - 1, "qfi", 5) == 4237588888330252838

    def test_derived_seeds_of_different_runs_differ(self):
        # a seed's high word was padded like a missing word, so seed 5's QFI
        # at n = 1 and seed 5 + 2 * 2**32's geometric measure at n = 0 shared
        # the words (5, 2, 1) and so one derived seed
        derive = experiment._derive_seed
        assert derive(5, "qfi", 1) != derive(5 + 2 * 2**32, "geom", 0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("size", 8.0),
            ("size", True),
            ("periods", 2.0),
            ("periods", True),
            ("seed", 1.5),
            ("seed", False),
        ],
    )
    def test_rejects_non_integers_before_writing(self, tmp_path, field, bad):
        settings = dict(model=Model.U0, size=4, out=tmp_path / "run")
        settings[field] = bad
        with pytest.raises(ValueError, match=f"^{field}: must be an integer, got "):
            run_experiment(ExperimentConfig(**settings))
        assert not (tmp_path / "run").exists()

    def test_parses_text(self):
        # every field takes the text a config file or a flag gives it
        config = ExperimentConfig(
            model="ux", size=" 6 ", boundary="CLOSED", initial="y-",
            periods="3", measures=" aee, qfi,", seed="3", out="runs/x",
        )
        assert config == ExperimentConfig(
            model=Model.UX, size=6, boundary=Boundary.CLOSED, initial=Axis("y", -1),
            periods=3, measures=("aee", "qfi"), seed=3, out=Path("runs/x"),
        )
        # a string of measures is a comma list, not the sequence of its letters
        assert ExperimentConfig(model="U0", size=4, measures="aee").measures == ("aee",)
        assert ExperimentConfig(model="U0", size=4, measures="aee,qfi").measures == (
            "aee", "qfi"
        )

    @pytest.mark.parametrize("field", ["size", "periods", "seed"])
    @pytest.mark.parametrize("text", ["x", "4.0", "", "1e3"])
    def test_rejects_text_that_is_no_integer(self, tmp_path, field, text):
        settings = dict(model="U0", size="4", out=tmp_path / "run")
        settings[field] = text
        with pytest.raises(ValueError) as exc:
            run_experiment(ExperimentConfig(**settings))
        assert str(exc.value) == f"{field}: expected an integer, got {text!r}"
        assert not (tmp_path / "run").exists()

    def test_numpy_integers_reach_the_manifest_as_integers(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0,
            size=np.int64(4),
            periods=np.int64(1),
            seed=np.uint64(7),
            out=tmp_path,
        )
        assert all(
            type(value) is int for value in (config.size, config.periods, config.seed)
        )
        doc = json.loads(run_experiment(config)["manifest"].read_text())
        assert (doc["config"]["size"], doc["config"]["periods"], doc["seed"]) == (4, 1, 7)

    def test_rejects_an_empty_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="^out: must be a nonempty path$"):
            ExperimentConfig(model=Model.U0, size=4, out="")
        with pytest.raises(ValueError, match="^out: must be a nonempty path$"):
            generate_summary(["U0"], [4], ["open"], ["z+"], out="")
        assert not any(tmp_path.iterdir())

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(model="U9", size=4)

    def test_optimizers_share_one_tolerance(self):
        # both stop on core's DEFAULT_TOL and take only the state and a seed;
        # restarts and sweep cap are globals of each optimizer's own module,
        # read at call time
        budgets = {geometric_measure: (64, 500), maximize_qfi: (32, 1000)}
        for optimizer, budget in budgets.items():
            assert list(inspect.signature(optimizer).parameters) == ["state", "seed"]
            assert optimizer.__globals__["DEFAULT_TOL"] is DEFAULT_TOL
            names = ("DEFAULT_RESTARTS", "DEFAULT_MAX_ITER")
            assert set(names) <= set(optimizer.__code__.co_names)
            assert tuple(optimizer.__globals__[name] for name in names) == budget


class TestRunExperiment:
    def test_initial_product_state_rows(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0,
            size=4,
            measures=("aee", "geom", "qfi"),
            out=tmp_path,
        )
        files = run_experiment(config)
        aee = read_rows(files["aee"])
        assert len(aee) == 3
        assert all(abs(float(r["S"])) < 1e-10 for r in aee)
        geom = read_rows(files["geom"])
        assert len(geom) == 1
        assert float(geom[0]["e_g"]) == pytest.approx(0.0, abs=1e-10)
        assert geom[0]["converged"] == "true"
        qfi = read_rows(files["qfi"])
        assert len(qfi) == 1
        assert float(qfi[0]["f_q"]) == pytest.approx(4.0, abs=1e-6)
        assert qfi[0]["depth"] == "1"
        assert qfi[0]["violated_ks"] == ""

    def test_row_counts(self, tmp_path):
        config = ExperimentConfig(
            model=Model.UX,
            size=4,
            periods=3,
            measures=("aee", "qfi"),
            out=tmp_path,
        )
        files = run_experiment(config)
        assert sorted(files) == ["aee", "manifest", "qfi"]
        assert len(read_rows(files["aee"])) == 4 * 3
        assert len(read_rows(files["qfi"])) == 4

    def test_one_period_per_step(self, tmp_path, monkeypatch):
        periods = count_periods(monkeypatch)
        config = ExperimentConfig(
            model=Model.U0, size=4, periods=3, measures=("aee",), out=tmp_path
        )
        run_experiment(config)
        assert periods == [1, 1, 1]

    def test_kicked_transverse_chain_reaches_ghz(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0,
            size=4,
            initial="y+",
            periods=4,
            measures=("geom", "qfi"),
            out=tmp_path,
        )
        files = run_experiment(config)
        qfi = read_rows(files["qfi"])
        np.testing.assert_allclose(
            [float(r["f_q"]) for r in qfi], [4, 4, 8, 8, 16], atol=1e-6
        )
        assert [r["depth"] for r in qfi] == ["1", "1", "2", "2", "4"]
        assert qfi[-1]["violated_ks"] == "1;2;3"
        geom = read_rows(files["geom"])
        np.testing.assert_allclose(
            [float(r["e_g"]) for r in geom], [0, 0, 0.75, 0.75, 0.5], atol=1e-6
        )

    def test_byte_identical_reruns(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0,
            size=4,
            initial="y+",
            periods=2,
            measures=("aee", "geom", "qfi"),
            seed=7,
            out=tmp_path,
        )
        files = run_experiment(config)
        first = {name: path.read_bytes() for name, path in files.items()}
        files = run_experiment(config)
        for name, path in files.items():
            assert path.read_bytes() == first[name], name

    def test_other_measures_do_not_shift_the_stream(self, tmp_path):
        base = dict(
            model=Model.U0, size=4, initial="y+", periods=2, seed=3
        )
        files_all = run_experiment(
            ExperimentConfig(
                measures=("aee", "geom", "qfi"), out=tmp_path / "all", **base
            )
        )
        files_qfi = run_experiment(
            ExperimentConfig(measures=("qfi",), out=tmp_path / "solo", **base)
        )
        assert files_all["qfi"].read_bytes() == files_qfi["qfi"].read_bytes()

    def test_manifest_contents(self, tmp_path):
        config = ExperimentConfig(
            model=Model.UX, size=5, seed=11, out=tmp_path
        )
        files = run_experiment(config)
        doc = json.loads(files["manifest"].read_text())
        assert doc["config"]["model"] == "Ux"
        assert doc["config"]["size"] == 5
        assert doc["seed"] == 11
        assert "version" in doc
        assert list(doc) == sorted(doc)
        assert not any("time" in key.lower() or "date" in key.lower() for key in doc)

    def test_manifest_records_every_field(self, tmp_path):
        config = ExperimentConfig(
            model="Ux",
            size=5,
            boundary="closed",
            initial="x-",
            periods=2,
            measures=("qfi", "aee"),
            seed=11,
            out=tmp_path,
        )
        files = run_experiment(config)
        assert files["manifest"].read_text() == (
            "{\n"
            '  "config": {\n'
            '    "boundary": "closed",\n'
            '    "initial": "x-",\n'
            '    "measures": [\n'
            '      "qfi",\n'
            '      "aee"\n'
            "    ],\n"
            '    "model": "Ux",\n'
            f'    "out": {json.dumps(str(tmp_path))},\n'
            '    "periods": 2,\n'
            '    "seed": 11,\n'
            '    "size": 5\n'
            "  },\n"
            '  "seed": 11,\n'
            f'  "version": "{__version__}"\n'
            "}\n"
        )


class TestRunSpectrum:
    def test_evolves_nothing_and_counts_every_level(self, tmp_path, monkeypatch):
        periods = count_periods(monkeypatch)
        config = ExperimentConfig(model=Model.UX, size=4, periods=3, out=tmp_path)
        files = run_spectrum(config)
        assert periods == []
        assert sorted(files) == ["manifest", "spectrum"]
        rows = read_rows(files["spectrum"])
        assert sum(int(r["multiplicity"]) for r in rows) == 2**4
        doc = json.loads(files["manifest"].read_text())
        assert sorted(doc["config"]) == sorted(RUN_SETTINGS["spectrum"])

    def test_byte_identical_reruns(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0, size=6, boundary="closed", seed=7, out=tmp_path
        )
        files = run_spectrum(config)
        first = {name: path.read_bytes() for name, path in files.items()}
        files = run_spectrum(config)
        assert {name: path.read_bytes() for name, path in files.items()} == first


def summarize(config):
    """``generate_summary`` over the one cell of ``config``."""
    cell = ([config.model], [config.size], [config.boundary], [config.initial])
    return generate_summary(*cell, config.out)


class TestRunsWriteOnlyWhatTheyComputed:
    @pytest.mark.parametrize(
        "run, step",
        [
            (run_experiment, "aee_report"),
            (run_trajectory, "fidelity"),
            (run_spectrum, "floquet_spectrum"),
            (summarize, "detect_period"),
        ],
        ids=["measure", "evolve", "spectrum", "summary"],
    )
    def test_a_run_that_fails_leaves_no_output(self, tmp_path, monkeypatch, run, step):
        def fail(*args, **kwargs):
            raise RuntimeError("stopped")

        monkeypatch.setattr(experiment, step, fail)
        out = tmp_path / "out"
        config = ExperimentConfig(model=Model.U0, size=4, periods=2, out=out)
        with pytest.raises(RuntimeError, match="stopped"):
            run(config)
        assert not out.exists()


class TestRunTrajectory:
    def test_exact_revival(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0, size=4, periods=16, out=tmp_path
        )
        files = run_trajectory(config)
        rows = read_rows(files["trajectory"])
        assert len(rows) == 17
        assert float(rows[0]["fidelity"]) == 1.0
        assert float(rows[16]["fidelity"]) == pytest.approx(1.0, abs=1e-9)

        final = read_rows(files["final_state"])
        assert len(final) == 16
        amps = np.array(
            [complex(float(r["re"]), float(r["im"])) for r in final]
        )
        target = np.zeros(16, dtype=complex)
        target[0] = 1.0
        assert np.linalg.norm(amps - target) < 1e-8

    def test_one_period_per_step(self, tmp_path, monkeypatch):
        periods = count_periods(monkeypatch)
        config = ExperimentConfig(model=Model.UX, size=4, periods=3, out=tmp_path)
        run_trajectory(config)
        assert periods == [1, 1, 1]


class TestSummary:
    def test_single_cell(self, tmp_path):
        rows, path = generate_summary(
            ["U0"], [4], ["open"], ["y+"], out=tmp_path
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.peak_depth == 4
        assert row.peak_depth_periods == (4, 5, 12, 13)
        assert row.projective_period == 16
        assert row.exact_period == 16
        assert row.notes == ""

        table = read_rows(path)
        assert table[0]["model"] == "U0"
        assert table[0]["peak_depth"] == "4"
        assert table[0]["peak_depth_periods"] == "4;5;12;13"
        assert table[0]["projective_period"] == "16"

    def test_manifest_lists_the_scanned_values(self, tmp_path):
        _, path = generate_summary(["u0"], [4, 2], ["OPEN"], ["Y+", "z-"], tmp_path, 3)
        doc = json.loads((path.parent / "manifest.json").read_text())
        assert doc["config"] == {
            "model": ["U0"],
            "size": [4, 2],
            "boundary": ["open"],
            "initial": ["y+", "z-"],
            "seed": 3,
            "out": str(tmp_path),
        }
        assert doc["seed"] == 3

    def test_takes_text(self, tmp_path):
        # a list as the text of a comma list, every value as a config file
        # holds it; the defaults are those of ExperimentConfig
        rows, path = generate_summary(["U0", "Ux"], [3, 4], ["open"], ["z+"], tmp_path)
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert generate_summary("U0, Ux", "3,4,", out=str(tmp_path), seed="0")[0] == rows
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written

    def test_one_period_per_step(self, tmp_path, monkeypatch):
        periods = count_periods(monkeypatch)
        rows, _ = generate_summary(["U0"], [4], ["open"], ["y+"], out=tmp_path)
        window = rows[0].projective_period
        assert periods == [1] * (window - 1)

    def test_finds_each_operators_period_once(self, tmp_path, monkeypatch):
        specs = []
        real = experiment.detect_period

        def counting(spec, cap):
            specs.append(spec)
            return real(spec, cap)

        monkeypatch.setattr(experiment, "detect_period", counting)
        rows, _ = generate_summary(
            ["U0", "Ux"], [4], ["open", "closed"], ["y+", "z+", "x-"], out=tmp_path
        )
        assert len(rows) == 12
        assert len(specs) == len(set(specs)) == 4

    def test_rejects_out_of_range_size(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match=r"^size: must be in 2\.\.12, got 13$"):
            generate_summary(["U0"], [4, 13], ["open"], ["z+"], out=out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((["U0", "u0"], [4], ["open"], ["y+"]), "model: ['U0']"),
            ((["U0"], [4, 5, 4], ["open"], ["y+"]), "size: [4]"),
            ((["U0"], [4], ["open", "OPEN"], ["y+"]), "boundary: ['open']"),
            ((["U0"], [4], ["open"], ["y+", "Y+"]), "initial: ['y+']"),
        ],
    )
    def test_rejects_repeated_values(self, tmp_path, grid, message):
        out = tmp_path / "sweep"
        with pytest.raises(ValueError) as exc:
            generate_summary(*grid, out=out)
        assert str(exc.value) == f"{message} listed more than once"
        assert not out.exists()


def per_site_period(program, amps, num_sites):
    """``floquet._one_period`` with each 2x2 layer applied site by site as a
    dense ``site_operator``: the same period, another evaluation order."""
    for layer in program:
        if isinstance(layer, np.ndarray):
            amps = amps * (layer if amps.ndim == 1 else layer[:, None])
            continue
        for site in range(1, num_sites + 1):
            amps = site_operator(layer[1], site, num_sites) @ amps
    return amps


class TestCsvText:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--model", "Ux", "--size", "7", "--initial", "z+", "--periods", "120"],
            ["measure", "--model", "Ux", "--size", "6", "--boundary", "closed",
             "--initial", "y+", "--periods", "10", "--seed", "3",
             "--measures", "aee,geom,qfi"],
        ],
        ids=["evolve", "measure"],
    )
    def test_kernels_write_the_same_csvs(self, tmp_path, monkeypatch, argv):
        # rounding noise of a different kernel must not reach the text
        assert main([*argv, "--out", str(tmp_path / "block")]) == 0
        monkeypatch.setattr(floquet, "_one_period", per_site_period)
        assert main([*argv, "--out", str(tmp_path / "site")]) == 0
        written = sorted((tmp_path / "block").glob("*.csv"))
        assert len(written) == (2 if argv[0] == "evolve" else 3)
        for path in written:
            assert path.read_bytes() == (tmp_path / "site" / path.name).read_bytes(), path.name
