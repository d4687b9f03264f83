import csv
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from kicked_ising import __version__, experiment
from kicked_ising.core import DEFAULT_TOL, Axis
from kicked_ising.entanglement import geometric_measure
from kicked_ising.experiment import (
    ExperimentConfig,
    generate_summary,
    run_experiment,
    run_trajectory,
)
from kicked_ising.floquet import Boundary, Model
from kicked_ising.qfi import maximize_qfi


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
            model="u0", num_sites=4, boundary="closed", initial_axis="y-"
        )
        assert config.model is Model.U0
        assert config.boundary is Boundary.CLOSED
        assert config.initial_axis == Axis("y", -1)
        spec = config.floquet_spec()
        assert spec.model is Model.U0
        assert spec.boundary is Boundary.CLOSED
        assert spec.num_sites == 4

    def test_rejects_out_of_range_size(self):
        for bad in (1, 13):
            with pytest.raises(ValueError, match="num_sites"):
                ExperimentConfig(model=Model.U0, num_sites=bad)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="n_max"):
            ExperimentConfig(model=Model.U0, num_sites=4, n_max=-1)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="measures"):
            ExperimentConfig(model=Model.U0, num_sites=4, measures=("bogus",))
        # a bare string is one name, not the sequence of its letters
        with pytest.raises(ValueError, match="measures: expected a sequence of names"):
            ExperimentConfig(model=Model.U0, num_sites=4, measures="aee")

    def test_rejects_repeated_measures(self):
        with pytest.raises(ValueError, match="measures"):
            ExperimentConfig(model=Model.U0, num_sites=4, measures=("aee", "qfi", "aee"))

    def test_rejects_empty_measures(self):
        with pytest.raises(ValueError, match="measures"):
            ExperimentConfig(model=Model.U0, num_sites=4, measures=())

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed: must be in 0\.\.2\*\*64-1"):
            ExperimentConfig(model=Model.U0, num_sites=4, seed=seed)

    def test_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert ExperimentConfig(model=Model.U0, num_sites=4, seed=seed).seed == seed

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
            ("num_sites", 8.0),
            ("num_sites", True),
            ("n_max", 2.0),
            ("n_max", True),
            ("seed", 1.5),
            ("seed", "3"),
            ("seed", False),
        ],
    )
    def test_rejects_non_integers_before_writing(self, tmp_path, field, bad):
        settings = dict(model=Model.U0, num_sites=4, out_dir=tmp_path / "run")
        settings[field] = bad
        with pytest.raises(ValueError, match=f"^{field}: must be an integer, got "):
            run_experiment(ExperimentConfig(**settings))
        assert not (tmp_path / "run").exists()

    def test_numpy_integers_reach_the_manifest_as_integers(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0,
            num_sites=np.int64(4),
            n_max=np.int64(1),
            seed=np.uint64(7),
            out_dir=tmp_path,
        )
        assert all(
            type(value) is int for value in (config.num_sites, config.n_max, config.seed)
        )
        doc = json.loads(run_experiment(config)["manifest"].read_text())
        assert (doc["config"]["num_sites"], doc["config"]["n_max"], doc["seed"]) == (4, 1, 7)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(model="U9", num_sites=4)

    def test_optimizers_share_one_tolerance(self):
        for optimizer in (geometric_measure, maximize_qfi):
            assert inspect.signature(optimizer).parameters["tol"].default is DEFAULT_TOL


class TestRunExperiment:
    def test_initial_product_state_rows(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0,
            num_sites=4,
            measures=("aee", "geom", "qfi"),
            out_dir=tmp_path,
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

    def test_row_counts_and_spectrum(self, tmp_path):
        config = ExperimentConfig(
            model=Model.UX,
            num_sites=4,
            n_max=3,
            measures=("aee", "qfi", "spectrum"),
            out_dir=tmp_path,
        )
        files = run_experiment(config)
        assert len(read_rows(files["aee"])) == 4 * 3
        assert len(read_rows(files["qfi"])) == 4
        spectrum = read_rows(files["spectrum"])
        assert sum(int(r["multiplicity"]) for r in spectrum) == 16

    @pytest.mark.parametrize(
        "measures, calls", [(("spectrum",), 0), (("aee", "spectrum"), 3)]
    )
    def test_evolves_only_for_per_period_measures(
        self, tmp_path, monkeypatch, measures, calls
    ):
        periods = count_periods(monkeypatch)
        config = ExperimentConfig(
            model=Model.U0, num_sites=4, n_max=3, measures=measures, out_dir=tmp_path
        )
        run_experiment(config)
        assert periods == [1] * calls

    def test_kicked_transverse_chain_reaches_ghz(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0,
            num_sites=4,
            initial_axis="y+",
            n_max=4,
            measures=("geom", "qfi"),
            out_dir=tmp_path,
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
            num_sites=4,
            initial_axis="y+",
            n_max=2,
            measures=("aee", "geom", "qfi", "spectrum"),
            seed=7,
            out_dir=tmp_path,
        )
        files = run_experiment(config)
        first = {name: path.read_bytes() for name, path in files.items()}
        files = run_experiment(config)
        for name, path in files.items():
            assert path.read_bytes() == first[name], name

    def test_other_measures_do_not_shift_the_stream(self, tmp_path):
        base = dict(
            model=Model.U0, num_sites=4, initial_axis="y+", n_max=2, seed=3
        )
        files_all = run_experiment(
            ExperimentConfig(
                measures=("aee", "geom", "qfi"), out_dir=tmp_path / "all", **base
            )
        )
        files_qfi = run_experiment(
            ExperimentConfig(measures=("qfi",), out_dir=tmp_path / "solo", **base)
        )
        assert files_all["qfi"].read_bytes() == files_qfi["qfi"].read_bytes()

    def test_manifest_contents(self, tmp_path):
        config = ExperimentConfig(
            model=Model.UX, num_sites=5, seed=11, out_dir=tmp_path
        )
        files = run_experiment(config)
        doc = json.loads(files["manifest"].read_text())
        assert doc["config"]["model"] == "Ux"
        assert doc["config"]["num_sites"] == 5
        assert doc["seed"] == 11
        assert "version" in doc
        assert list(doc) == sorted(doc)
        assert not any("time" in key.lower() or "date" in key.lower() for key in doc)

    def test_manifest_records_every_field(self, tmp_path):
        config = ExperimentConfig(
            model="Ux",
            num_sites=5,
            boundary="closed",
            initial_axis="x-",
            n_max=2,
            measures=("qfi", "aee"),
            seed=11,
            out_dir=tmp_path,
        )
        files = run_experiment(config)
        assert files["manifest"].read_text() == (
            "{\n"
            '  "config": {\n'
            '    "boundary": "closed",\n'
            '    "initial_axis": "x-",\n'
            '    "measures": [\n'
            '      "qfi",\n'
            '      "aee"\n'
            "    ],\n"
            '    "model": "Ux",\n'
            '    "n_max": 2,\n'
            '    "num_sites": 5,\n'
            f'    "out_dir": {json.dumps(str(tmp_path))},\n'
            '    "seed": 11\n'
            "  },\n"
            '  "seed": 11,\n'
            f'  "version": "{__version__}"\n'
            "}\n"
        )


class TestRunTrajectory:
    def test_exact_revival(self, tmp_path):
        config = ExperimentConfig(
            model=Model.U0, num_sites=4, n_max=16, out_dir=tmp_path
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
        config = ExperimentConfig(model=Model.UX, num_sites=4, n_max=3, out_dir=tmp_path)
        run_trajectory(config)
        assert periods == [1, 1, 1]


class TestSummary:
    def test_single_cell(self, tmp_path):
        rows, path = generate_summary(
            ["U0"], [4], ["open"], ["y+"], out_dir=tmp_path
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.peak_depth == 4
        assert row.peak_depth_periods == (4, 5, 12, 13)
        assert row.detected_projective_period == 16
        assert row.exact_identity_period == 16
        assert row.notes == ""

        table = read_rows(path)
        assert table[0]["model"] == "U0"
        assert table[0]["peak_depth"] == "4"
        assert table[0]["peak_depth_periods"] == "4;5;12;13"
        assert table[0]["projective_period"] == "16"

    def test_one_period_per_step(self, tmp_path, monkeypatch):
        periods = count_periods(monkeypatch)
        rows, _ = generate_summary(["U0"], [4], ["open"], ["y+"], out_dir=tmp_path)
        window = rows[0].detected_projective_period
        assert periods == [1] * (window - 1)

    def test_rejects_out_of_range_size(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="sizes"):
            generate_summary(["U0"], [4, 13], ["open"], ["z+"], out_dir=out)
        assert not out.exists()
