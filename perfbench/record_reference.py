"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every workload once at seed 0 and copies its CSV files into
``perfbench/reference/<workload>/``. The recorded files define a correct
run, so record them only from a commit whose outputs are known to be
right, and say why in the change that re-records them.
"""

import shutil
import sys

from checks import outputs
from run import HERE, OUT, WORKLOADS, Run, configure_blas, load_cli

if __name__ == "__main__":
    configure_blas()
    cli = load_cli()
    for name, workload in WORKLOADS.items():
        run = Run(cli, workload, seed=0, reference=None, out=OUT / name)
        run.invoke()
        if run.problems:
            sys.exit("\n".join(run.problems))
        target = HERE / "reference" / name
        target.mkdir(parents=True, exist_ok=True)
        for file in outputs(workload.argv):
            shutil.copyfile(run.out / file, target / file)
        print(f"recorded {target}")
