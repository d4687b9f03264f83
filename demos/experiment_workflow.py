"""
From configuration to CSV tables
================================

The experiment layer wraps the library in reproducible file-based runs:
a configuration (from Python, a key=value file, or the command line)
produces one CSV per requested measure plus a manifest echoing every
setting. Identical configurations produce byte-identical files.

The same run is available from the shell as

    kicked-ising measure --model U0 --size 6 --initial y+ \
        --periods 6 --measures aee,geom,qfi --out runs/demo

and `kicked-ising summary` writes the sweep table at the end.
"""

import tempfile
from pathlib import Path

from kicked_ising import ExperimentConfig, Model, generate_summary, run_experiment

with tempfile.TemporaryDirectory(prefix="kicked_ising_demo_") as tmp:
    out = Path(tmp)

    config = ExperimentConfig(
        model=Model.U0,
        num_sites=6,
        initial_axis="y+",
        n_max=6,
        measures=("aee", "geom", "qfi"),
        seed=1,
        out_dir=out / "run",
    )
    files = run_experiment(config)
    print("single run wrote:")
    for name in sorted(files):
        print(f"  {files[name]}")

    print("\nqfi.csv:")
    print(files["qfi"].read_text())

    rows, path = generate_summary(
        models=["U0"],
        sizes=[4, 6],
        boundaries=["open"],
        axes=["y+"],
        out_dir=out / "sweep",
    )
    print("sweep table:")
    print(path.read_text())
