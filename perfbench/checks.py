"""Correctness gate for the output directory of one CLI invocation.

Two kinds of check. Against a reference directory recorded at seed 0
(``reference/<workload>/``): same header, same row count, text columns
equal exactly, every other column equal within ``FLOAT_TOL``. Without any
reference: physical invariants of each output (see ``invariants``).

Columns that depend on the optimizer seed (``geom.csv``, ``qfi.csv``,
``summary.csv``) hold converged maxima, so they match the seed-0
reference at any seed; this was checked at seeds 0, 1, 2, 3, 99, 12345,
987654321 and 2**40 + 7, and every end-to-end run checks it again at the
CLI seed of each of its invocations.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

FLOAT_TOL = 1e-6  # absolute, for every float column

# Compared as text. Integers (n, l, depth, multiplicity, ...), lists of
# integers (violated_ks, peak_depth_periods), flags and labels.
EXACT_COLUMNS = {
    "n", "l", "depth", "multiplicity", "violated_ks", "basis_index",
    "converged", "model", "size", "boundary", "initial", "peak_depth",
    "peak_depth_periods", "projective_period", "exact_period", "notes",
}

OUTPUTS = {
    "spectrum": ("spectrum.csv",),
    "evolve": ("trajectory.csv", "final_state.csv"),
    "summary": ("summary.csv",),
}


def outputs(argv: tuple[str, ...]) -> list[str]:
    """CSV files a CLI call writes: one per measure for ``measure``."""
    if argv[0] == "measure":
        measures = argv[argv.index("--measures") + 1] if "--measures" in argv else "aee"
        return [f"{m}.csv" for m in measures.split(",")]
    return list(OUTPUTS[argv[0]])


def read_table(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def compare(
    name: str, got_header: list[str], got_rows: list[dict[str, str]], ref: Path
) -> list[str]:
    """Problems found comparing one parsed CSV with its reference file."""
    ref_header, ref_rows = read_table(ref)
    if got_header != ref_header:
        return [f"{name}: header {got_header} != reference {ref_header}"]
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(got_rows, ref_rows), start=2):
        for col in got_header:
            a, b = row[col], ref_row[col]
            if col in EXACT_COLUMNS:
                bad = a != b
            else:
                bad = not abs(float(a) - float(b)) <= FLOAT_TOL
            if bad:
                problems.append(f"{name}:{i} {col}={a!r}, reference {b!r}")
    return problems


def invariants(command: str, size: int, tables: dict[str, list[dict[str, str]]]) -> list[str]:
    """Reference-free checks: n=0 of measure is a product state, spectrum
    multiplicities sum to 2^L, fidelities lie in [0, 1] and the final state
    is normalized, summary depths lie in 1..L."""
    problems = []

    def expect(ok: bool, text: str) -> None:
        if not ok:
            problems.append(text)

    def near(a: str, b: float) -> bool:
        return abs(float(a) - b) <= FLOAT_TOL

    if command == "measure":
        for row in tables.get("aee.csv", []):
            if row["n"] == "0":
                expect(near(row["S"], 0.0), f"aee.csv: S={row['S']} at n=0, l={row['l']}")
        if "geom.csv" in tables:
            zero = [r for r in tables["geom.csv"] if r["n"] == "0"]
            expect(len(zero) == 1 and near(zero[0]["e_g"], 0.0), f"geom.csv: n=0 row {zero}")
        if "qfi.csv" in tables:
            zero = [r for r in tables["qfi.csv"] if r["n"] == "0"]
            expect(
                len(zero) == 1 and near(zero[0]["f_q"], size) and zero[0]["depth"] == "1",
                f"qfi.csv: n=0 row {zero}, expected f_q={size}, depth 1",
            )
    if "spectrum.csv" in tables:
        total = sum(int(r["multiplicity"]) for r in tables["spectrum.csv"])
        expect(total == 2**size, f"spectrum.csv: multiplicities sum to {total} != 2^{size}")
    if command == "evolve":
        rows = tables["trajectory.csv"]
        expect(bool(rows) and near(rows[0]["fidelity"], 1.0), "trajectory.csv: n=0 fidelity != 1")
        bad = [r for r in rows if not 0.0 <= float(r["fidelity"]) <= 1.0 + 1e-12]
        expect(not bad, f"trajectory.csv: fidelity outside [0, 1]: {bad[:3]}")
        amps = tables["final_state.csv"]
        norm = sum(float(r["re"]) ** 2 + float(r["im"]) ** 2 for r in amps)
        expect(len(amps) == 2**size, f"final_state.csv: {len(amps)} rows != 2^{size}")
        expect(abs(norm - 1.0) <= 1e-9, f"final_state.csv: norm {norm!r} != 1")
    if command == "summary":
        for row in tables["summary.csv"]:
            depth, sites = int(row["peak_depth"]), int(row["size"])
            expect(1 <= depth <= sites, f"summary.csv: peak depth {depth} outside 1..{sites}")
    return problems


def check_outputs(
    argv: tuple[str, ...], size: int, seed: int, out: Path, reference: Path | None
) -> list[str]:
    """Every problem found in ``out`` after the CLI call ``argv``; an empty
    list means the call is correct."""
    command = argv[0]
    problems = []
    tables = {}
    for name in outputs(argv):
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        header, tables[name] = read_table(path)
        if reference is not None:
            problems += compare(name, header, tables[name], reference / name)
    if problems:
        return problems
    if command != "summary":
        manifest = out / "manifest.json"
        recorded = json.loads(manifest.read_text()).get("seed") if manifest.is_file() else None
        if recorded != seed:
            problems.append(f"manifest.json: seed {recorded} != {seed}")
    return problems + invariants(command, size, tables)
