"""Kicked Ising chain simulator.

Exact state-vector dynamics of periodically kicked Ising chains, with
quasi-energy spectra, entanglement entropies, the geometric measure of
entanglement, and quantum-Fisher-information depth certification.
"""

__version__ = "0.1.0"

from .core import (
    Axis,
    DensityMatrix,
    StateVector,
    fidelity,
    make_ghz,
    make_polarized_state,
    make_psi_o,
    partial_trace,
)
from .entanglement import (
    AeeReport,
    GeometricResult,
    aee_report,
    average_entanglement_entropy,
    detect_bell_pairs,
    entropy,
    geometric_measure,
    min_bipartition_entropy,
)
from .experiment import (
    ExperimentConfig,
    SummaryRow,
    generate_summary,
    run_experiment,
    run_spectrum,
    run_trajectory,
)
from .floquet import (
    KICK_ANGLE,
    MODEL_SYMMETRIES,
    Boundary,
    FloquetSpec,
    Model,
    Sector,
    Symmetry,
    apply_floquet,
    build_dense,
    symmetry_sectors,
)
from .qfi import (
    CovarianceMatrix,
    DirectionField,
    QfiResult,
    covariance_matrix,
    maximize_qfi,
    producibility_bound,
)
from .spectral import (
    PeriodReport,
    QuasiSpectrum,
    SpacingResult,
    detect_period,
    detect_period_from_thetas,
    detect_spacing,
    floquet_spectrum,
    quasi_energies,
)

__all__ = [
    "Axis",
    "DensityMatrix",
    "StateVector",
    "fidelity",
    "make_ghz",
    "make_polarized_state",
    "make_psi_o",
    "partial_trace",
    "AeeReport",
    "GeometricResult",
    "aee_report",
    "average_entanglement_entropy",
    "detect_bell_pairs",
    "entropy",
    "geometric_measure",
    "min_bipartition_entropy",
    "ExperimentConfig",
    "SummaryRow",
    "generate_summary",
    "run_experiment",
    "run_spectrum",
    "run_trajectory",
    "KICK_ANGLE",
    "MODEL_SYMMETRIES",
    "Boundary",
    "FloquetSpec",
    "Model",
    "Sector",
    "Symmetry",
    "apply_floquet",
    "build_dense",
    "symmetry_sectors",
    "CovarianceMatrix",
    "DirectionField",
    "QfiResult",
    "covariance_matrix",
    "maximize_qfi",
    "producibility_bound",
    "PeriodReport",
    "QuasiSpectrum",
    "SpacingResult",
    "detect_period",
    "detect_period_from_thetas",
    "detect_spacing",
    "floquet_spectrum",
    "quasi_energies",
    "__version__",
]
