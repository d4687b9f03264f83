"""Self-test of the benchmark on tiny L = 4 configs.

    python3 perfbench/selftest.py

For the smoke config of each subcommand (``run.SMOKE``) it checks that an
end-to-end run and a traced run find no problem and emit every metric
that ``BENCHMARK.json`` names, with the units it names; that the exact
counts (``tracer.EXACT_COUNTS``) repeat between two traced runs at the
same seed; and that every per-layer metric is nonzero on at least one
smoke config, so no wrapper is silently missing. Exits 1 on any failure.
"""

import json
import sys

from run import END_TO_END_UNITS, OUT, ROOT, SMOKE, Run, configure_blas, load_cli
from tracer import EXACT_COUNTS, PER_LAYER_UNITS

SEED = 5
SECONDS = 0.5


def main() -> int:
    configure_blas()
    cli = load_cli()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != units:
            failures.append(f"BENCHMARK.json {key} {declared} != emitted {units}")

    nonzero = set()
    for command, workload in SMOKE.items():
        run = Run(cli, workload, SEED, None, OUT / f"selftest-{command}")
        metrics, _ = run.end_to_end(SECONDS)
        if set(metrics) != set(END_TO_END_UNITS) or min(metrics.values()) <= 0:
            failures.append(f"{command}: end-to-end metrics {metrics}")
        counts = []
        for _ in range(2):
            metrics, _ = run.layers(SECONDS)
            if set(metrics) != set(PER_LAYER_UNITS):
                failures.append(f"{command}: per-layer metrics {sorted(metrics)}")
            counts.append({name: metrics[name] for name in EXACT_COUNTS})
            nonzero |= {name for name, value in metrics.items() if value}
        if counts[0] != counts[1]:
            failures.append(f"{command}: counts differ between runs: {counts}")
        failures += [f"{command}: {p}" for p in run.problems]
        print(f"{command}: {run.attempted} invocations, counts {counts[0]}")

    missing = sorted(set(PER_LAYER_UNITS) - nonzero)
    if missing:
        failures.append(f"zero on every smoke config: {missing}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
