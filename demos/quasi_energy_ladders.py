"""
Quasi-energy ladders and recurrence times of the two kicked chains
==================================================================

Both Floquet operators have commensurate spectra: every quasi-energy sits
on a uniform ladder, so finite powers of the operator return to (a phase
times) the identity. This script prints the ladder and the return times.
The spectra are computed one symmetry sector at a time, as the
``spectrum`` command does.
"""

import numpy as np

from kicked_ising import (
    FloquetSpec,
    Model,
    detect_period_from_thetas,
    detect_spacing,
    floquet_spectrum,
)

for model in (Model.U0, Model.UX):
    print(f"\n=== {model.value} chain, open boundary ===")
    for num_sites in (4, 6, 8):
        spectrum = floquet_spectrum(FloquetSpec(model, num_sites))
        spacing = detect_spacing(spectrum)
        report = detect_period_from_thetas(spectrum.thetas, 200)
        pitch = spacing.delta / np.pi
        offset = min(spacing.offset, spacing.delta - spacing.offset) / np.pi
        print(
            f"L={num_sites}: {len(spectrum.clusters):3d} distinct levels, "
            f"pitch {pitch:.6f} pi, offset {offset:.6f} pi"
        )
        print(
            f"      projective period {report.period} "
            f"(phase {report.phase.real:+.0f}), exact-identity period "
            f"{report.exact_period}"
        )

print("\nThe U0 ladder always has pitch pi/(2L) and no offset, which forces")
print("an exact-identity return after 4L periods with no projective")
print("shortcut. The Ux ladder can carry a half-step offset; whenever it")
print("does, every level is an odd multiple of half the pitch, the first")
print("return picks up a global phase of -1, and the exact identity takes")
print("twice as long.")
