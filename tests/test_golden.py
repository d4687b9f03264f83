"""Golden bytes: a compact grid of CLI runs must rewrite its saved CSVs exactly.

Each directory under ``tests/golden`` holds the CSVs of one run below; the
run is repeated into a temporary directory and every CSV compared byte for
byte. After a deliberate output change, regenerate a directory with the
same argv plus ``--out tests/golden/<name>`` and delete its manifest.json.
"""

from pathlib import Path

import pytest

from kicked_ising.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    **{
        f"spectrum-{model}-{boundary}-6": [
            "spectrum", "--model", model, "--size", "6", "--boundary", boundary
        ]
        for model in ("U0", "Ux")
        for boundary in ("open", "closed")
    },
    # open U0 at larger sizes, where its levels come from the Majorana map
    **{
        f"spectrum-U0-open-{size}": ["spectrum", "--model", "U0", "--size", str(size)]
        for size in (9, 10, 12)
    },
    # a free-fermion period whose Tr U = 0 leaves the Majorana route
    "spectrum-U0-closed-2": [
        "spectrum", "--model", "U0", "--size", "2", "--boundary", "closed"
    ],
    # the sector route where its clusters are largest
    "spectrum-U0-closed-12": [
        "spectrum", "--model", "U0", "--size", "12", "--boundary", "closed"
    ],
    "spectrum-Ux-open-11": ["spectrum", "--model", "Ux", "--size", "11"],
    "spectrum-Ux-closed-10": [
        "spectrum", "--model", "Ux", "--size", "10", "--boundary", "closed"
    ],
    "evolve": ["evolve", "--model", "Ux", "--size", "7", "--initial", "z+", "--periods", "120"],
    "measure": [
        "measure", "--model", "Ux", "--size", "6", "--boundary", "closed",
        "--initial", "y+", "--periods", "10", "--seed", "3", "--measures", "aee,geom,qfi",
    ],
    "summary": ["summary", "--model", "U0,Ux", "--size", "4,6", "--initial", "y+"],
}


def test_every_run_has_a_golden_directory():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csvs_match_the_golden_bytes(tmp_path, name):
    assert main([*RUNS[name], "--out", str(tmp_path)]) == 0
    want = sorted(p.name for p in (GOLDEN / name).glob("*.csv"))
    assert want and sorted(p.name for p in tmp_path.glob("*.csv")) == want
    for file in want:
        got = (tmp_path / file).read_bytes()
        assert got == (GOLDEN / name / file).read_bytes(), f"{name}/{file}"
