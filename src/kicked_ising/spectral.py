"""Quasi-energy spectra of Floquet operators.

Eigenvalues of a Floquet unitary lie on the unit circle, e^{-i*theta_k};
the phases theta_k in (-pi, pi] are the quasi-energies. This module
extracts them, clusters degeneracies, detects a common level spacing, and
finds stroboscopic periods (smallest n with U^n proportional to the
identity) directly from the spectrum.

``floquet_spectrum`` diagonalizes one symmetry-sector block at a time
(``floquet.MODEL_SYMMETRIES``): reflection and Z parity for U_0, four
blocks of about 2^L/4; reflection only for U_x, whose x field and y kick
anticommute with Z parity, two blocks of about 2^L/2. Each block is
built, checked and diagonalized, and released before the next is built,
so one block and (d, chunk) work arrays are alive at a time.
``build_dense`` checks each block's sector leak as d - ||block||_F^2,
which holds because U is unitary (every phase-table entry has modulus
1); here each block is checked unitary, and its eigenvalues against its
traces. The eigensolver
costs O(d^3) per block of dimension d: about 1/16 of the whole-matrix
cost for U_0, 1/4 for U_x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .floquet import _BUILD_CHUNK, FloquetSpec, build_dense

CLUSTER_TOLERANCE = 1e-7
# Cluster centers closer to zero than this are rounding noise of a level
# at exactly zero, and are reported as 0.0.
ZERO_SNAP = 1e-12
SPACING_TOLERANCE = 1e-6
PERIOD_TOLERANCE = 1e-7


@dataclass(frozen=True, eq=False)
class QuasiSpectrum:
    """Sorted quasi-energies with degeneracy clusters.

    ``clusters`` is a list of (center, multiplicity) sorted by center,
    formed on first read; multiplicities add up to the Hilbert-space
    dimension 2^L.
    """

    thetas: np.ndarray = field(repr=False)

    @cached_property
    def clusters(self) -> list[tuple[float, int]]:
        return _cluster_circular(self.thetas)


@dataclass(frozen=True)
class SpacingResult:
    """A uniform ladder fit: centers sit at offset + m*delta for integers m."""

    delta: float
    offset: float
    max_residual: float


@dataclass(frozen=True)
class PeriodReport:
    """Projective and exact-identity recurrence of a Floquet operator.

    ``period`` is the smallest n <= max_n with U^n = phase * I within
    ``PERIOD_TOLERANCE`` in Frobenius norm. ``exact_period`` is the
    smallest k * period, with k <= max_n, such that U^{k * period} = I;
    it may exceed max_n. Either is None when none is found.
    """

    period: int | None
    phase: complex
    deviation: float
    exact_period: int | None
    exact_deviation: float


def _cluster_circular(thetas: np.ndarray) -> list[tuple[float, int]]:
    """Group sorted phases into clusters, merging across the +-pi seam."""
    groups: list[list[float]] = [[float(thetas[0])]]
    for t in thetas[1:]:
        if float(t) - groups[-1][-1] > CLUSTER_TOLERANCE:
            groups.append([float(t)])
        else:
            groups[-1].append(float(t))
    # theta is defined mod 2pi, so a level at exactly pi can split into
    # values near -pi and near +pi; fold the last group onto the first.
    if len(groups) > 1 and groups[0][0] + 2 * np.pi - groups[-1][-1] <= CLUSTER_TOLERANCE:
        folded = [t - 2 * np.pi for t in groups.pop()]
        groups[0] = folded + groups[0]
    clusters = []
    for g in groups:
        center = float(np.mean(g))
        if center <= -np.pi + CLUSTER_TOLERANCE / 2:
            center += 2 * np.pi
        if abs(center) < ZERO_SNAP:
            center = 0.0
        clusters.append((center, len(g)))
    return sorted(clusters)


def quasi_energies(blocks: Sequence[np.ndarray]) -> QuasiSpectrum:
    """Quasi-energies theta_k = -arg(lambda_k) in (-pi, pi], sorted ascending.

    ``blocks`` are the square diagonal blocks of one unitary (a whole
    operator is the one-block list); their phases are pooled before
    sorting and clustering within ``CLUSTER_TOLERANCE``.
    """
    if len(blocks) == 0:
        raise ValueError("quasi_energies needs at least one block")
    return QuasiSpectrum(np.sort(np.concatenate([_block_thetas(b) for b in blocks])))


def _block_thetas(block: np.ndarray) -> np.ndarray:
    """Phases of one block B from its eigenvalues alone, checked on the way.

    ||B^H B - I||_F^2 is summed over row slices of the Gram product, its
    upper triangle only, so no d x d temporary is formed; B is rejected
    above 1e-10 before the eigensolver runs. A unitary B is normal, so by
    Bauer-Fike the backward stable QR of ``eigvals`` gives each eigenvalue
    within about eps*d with no eigenvectors; the power sums sum(lam) = Tr B
    and sum(lam^2) = Tr B^2, matched within 1e-9 in O(d^2), tie the
    returned multiset to this block.
    """
    mat = np.asarray(block, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {mat.shape}")
    dev2 = 0.0
    for start in range(0, len(mat), _BUILD_CHUNK):
        # rows start.. of B^H B - I from the diagonal on; the matrix is
        # Hermitian, so each entry right of the slice's square stands for two
        gram = mat[:, start : start + _BUILD_CHUNK].conj().T @ mat[:, start:]
        rows = np.arange(len(gram))
        gram[rows, rows] -= 1
        sq = gram.real**2 + gram.imag**2
        dev2 += 2 * sq.sum() - sq[:, : len(gram)].sum()
    dev = float(np.sqrt(dev2))
    if dev > 1e-10:
        raise ValueError(f"matrix is not unitary: ||U^H U - I|| = {dev:.3e}")
    lam = np.linalg.eigvals(mat)
    trace2 = np.einsum("ij,ji->", mat, mat)  # Tr B^2 with no d x d product
    miss = max(abs(lam.sum() - np.trace(mat)), abs(np.sum(lam**2) - trace2))
    if miss > 1e-9:
        raise ValueError(f"eigenvalue power sums miss the traces by {miss:.3e}")
    thetas = -np.angle(lam)
    thetas[thetas <= -np.pi + 1e-15] += 2 * np.pi
    return thetas


def floquet_spectrum(spec: FloquetSpec) -> QuasiSpectrum:
    """Quasi-energies of the operator built from ``spec`` (L <= 12), one
    symmetry-sector block at a time: each block is dropped once its
    phases are read, and the pooled phases are clustered once."""
    parts = [quasi_energies([build_dense(spec, sector=s)]).thetas for s in spec.sectors()]
    return QuasiSpectrum(np.sort(np.concatenate(parts)))


def _real_gcd(a: float, b: float) -> float:
    """Greatest common divisor of two positive reals up to ``SPACING_TOLERANCE``."""
    a, b = abs(a), abs(b)
    while b > SPACING_TOLERANCE:
        a, b = b, abs(a - b * round(a / b))
    return a


def detect_spacing(spectrum: QuasiSpectrum) -> SpacingResult | None:
    """Fit cluster centers to a uniform ladder offset + m*delta.

    Returns None when no consistent spacing exists within
    ``SPACING_TOLERANCE``.
    """
    centers = np.array([c for c, _ in spectrum.clusters], dtype=float)
    if centers.size < 2:
        raise ValueError("spacing detection needs at least 2 distinct clusters")
    gaps = np.diff(centers)
    delta = gaps[0]
    for g in gaps[1:]:
        delta = _real_gcd(delta, float(g))
    if delta <= SPACING_TOLERANCE:
        return None
    residues = centers % delta
    # Residues near 0 and near delta are the same offset; unwrap before
    # averaging.
    if residues.max() - residues.min() > delta / 2:
        residues = np.where(residues > delta / 2, residues - delta, residues)
    offset = float(np.mean(residues)) % delta
    steps = np.round((centers - offset) / delta)
    max_residual = float(np.abs(centers - offset - steps * delta).max())
    if max_residual > SPACING_TOLERANCE:
        return None
    return SpacingResult(delta=float(delta), offset=offset, max_residual=max_residual)


def detect_period_from_thetas(thetas: np.ndarray, max_n: int) -> PeriodReport:
    """Find recurrences of a spectrum: U^n = phase*I iff all n*theta_k agree.

    The Frobenius distance of U^n from phase*I equals
    sqrt(sum_k |e^{-i n theta_k} - phase|^2) because U is normal, so the
    scan needs only the quasi-energies, never a matrix power. U^n is
    proportional to I only at multiples of the projective period T, so
    ``exact_period`` is the smallest kT, with k <= max_n, such that U^{kT} = I.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    th = np.asarray(thetas, dtype=float)
    for period in range(1, max_n + 1):
        z = np.exp(-1j * period * th)
        mean = z.mean()
        if abs(mean) > 1e-12:
            phase = mean / abs(mean)
            deviation = float(np.sqrt(np.sum(np.abs(z - phase) ** 2)))
            if deviation < PERIOD_TOLERANCE:
                break
    else:
        return PeriodReport(None, complex(1.0), float("inf"), None, float("inf"))
    for n in range(period, (max_n + 1) * period, period):
        z = np.exp(-1j * n * th)
        exact_deviation = float(np.sqrt(np.sum(np.abs(z - 1.0) ** 2)))
        if exact_deviation < PERIOD_TOLERANCE:
            return PeriodReport(period, complex(phase), deviation, n, exact_deviation)
    return PeriodReport(period, complex(phase), deviation, None, float("inf"))


def detect_period(spec: FloquetSpec, max_n: int) -> PeriodReport:
    """Period detection for a Floquet operator built from ``spec`` (L <= 12)."""
    return detect_period_from_thetas(floquet_spectrum(spec).thetas, max_n)
