"""Set-up probe: import the CLI and fill one workload's lazy caches.

    python3 perfbench/probe.py SRC_DIR MODEL:SIZE [MODEL:SIZE ...]

``run.py`` times this script in fresh interpreters and reports the median
as ``setup_s``; a user of the command line pays this cost on every call.
"""

import sys


def fill_caches(specs: list[tuple[str, int]]) -> None:
    """One Floquet period per (model, size) fills the phase and spin tables."""
    from kicked_ising.core import Axis, make_polarized_state
    from kicked_ising.floquet import FloquetSpec, Model, apply_floquet

    for model, size in specs:
        state = make_polarized_state(size, Axis.parse("z+"))
        apply_floquet(FloquetSpec(Model(model), size), state, 1)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import kicked_ising.cli  # noqa: F401  (the import a CLI call pays)

    fill_caches([(m, int(s)) for m, s in (a.split(":") for a in sys.argv[2:])])
