"""Quasi-energy spectra of Floquet operators.

Eigenvalues of a Floquet unitary lie on the unit circle, e^{-i*theta_k};
the phases theta_k in (-pi, pi] are the quasi-energies. This module
extracts them, clusters degeneracies in one array pass (``_runs``: split
the sorted levels at gaps over ``CLUSTER_TOLERANCE``, mean each run by
``np.add.reduceat``; the run at +pi folds onto the one at -pi), detects a
common level spacing, and finds stroboscopic periods (smallest n with U^n
proportional to the identity) directly from the spectrum.

``floquet_spectrum`` reads the levels of a period of Majorana pair
rotations (open U_0) from its single-particle map, with no dense block
(``_majorana_thetas``). Any other period goes one symmetry-sector block
at a time (``floquet.MODEL_SYMMETRIES``): reflection and Z parity for
U_0, four blocks of about 2^L/4; reflection only for U_x, whose x field
and y kick anticommute with Z parity, two blocks of about 2^L/2. Each
block is built, checked and diagonalized, and released before the next
is built, so one block and (d, chunk) work arrays are alive at a time.
``build_dense`` checks each block's sector leak as d - ||block||_F^2,
which holds because U is unitary (every phase-table entry has modulus
1); here each block is checked unitary on two fixed probe vectors and
one read from its entries, and its eigenvalues against its traces, both
in O(d^2).

Each block is taken in time-reversal form (``floquet._symmetric_block``),
complex symmetric, so its real and imaginary parts X and Y commute. Its
levels come from two values-only real ``eigvalsh`` calls, of X and of
cot(phi) X - Y, about 4/3 d^3 flops each: several times less than the
complex QR of ``numpy.linalg.eigvals`` (about 1/16 of the whole-matrix
cost for U_0, 1/4 for U_x), which stays the route of any other block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import _as_integer
from .floquet import _BUILD_CHUNK, FloquetSpec, _dense_form, _majorana_map, _symmetric_block

CLUSTER_TOLERANCE = 1e-7
# Cluster centers closer to zero than this are rounding noise of a level
# at exactly zero, and are reported as 0.0.
ZERO_SNAP = 1e-12
SPACING_TOLERANCE = 1e-6
PERIOD_TOLERANCE = 1e-7

# Largest ||B^H B R - R||_F on the three probe columns R of ``_probes``
# and ``_entry_probe``. Their entries have modulus 1, so over random
# phases ||(B^H B - I) r||^2 averages ||B^H B - I||_F^2: the bound keeps
# the scale of a Frobenius check on B^H B without forming it. Model blocks
# read at most 2.6e-13 at L = 12.
_UNITARY_TOLERANCE = 1e-10
# A block with ||B - B^T||_F at most this takes the symmetric route. Its
# eigensolves read one triangle, so this also bounds their error; the
# symmetrized model blocks read at most 7e-15 at L = 12.
_SYMMETRY_TOLERANCE = 1e-13
# Sorted eigenvalues of X closer than this are one value of cos(theta);
# model blocks spread by at most 4e-14 at L = 12. The levels of a cluster
# share its mean, which moves each theta by a few times this, far inside
# CLUSTER_TOLERANCE.
_COS_TOLERANCE = 1e-12
# Least distance between the predictions of two cos clusters. A level
# lies within about sqrt(2 * _COS_TOLERANCE) = 1.4e-6 of its own
# prediction (sin(theta) from cos(theta) loses half the digits near
# theta = 0 and pi), so beyond this gap its nearest prediction is its own.
_PAIR_GAP = 1e-5
# Angles phi tried for the second eigensolve: |sin(phi)| >= 0.29, and no
# phi a rational multiple of pi, where the levels of the models lie.
_PAIR_ANGLES = 0.3 + np.arange(16) * (np.pi - 0.6) / 15


@dataclass(frozen=True, eq=False)
class QuasiSpectrum:
    """Sorted quasi-energies with degeneracy clusters.

    ``thetas`` must be a nonempty 1-D array of finite values, sorted
    ascending. ``clusters`` is a list of (center, multiplicity) sorted by
    center, formed on first read; multiplicities add up to the
    Hilbert-space dimension 2^L.
    """

    thetas: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        if thetas.ndim != 1 or thetas.size == 0:
            raise ValueError(f"thetas: expected a nonempty 1-D array, got {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise ValueError("thetas: holds NaN or inf")
        if (thetas[1:] < thetas[:-1]).any():
            raise ValueError("thetas: must be sorted ascending")
        object.__setattr__(self, "thetas", thetas)

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


def _runs(values: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and means of the runs of sorted ``values`` split at gaps over ``tolerance``."""
    starts = np.r_[0, np.flatnonzero(np.diff(values) > tolerance) + 1]
    counts = np.diff(np.r_[starts, len(values)])
    return counts, np.add.reduceat(values, starts) / counts


def _cluster_circular(thetas: np.ndarray) -> list[tuple[float, int]]:
    """Group sorted phases into clusters, merging across the +-pi seam."""
    counts, centers = _runs(thetas, CLUSTER_TOLERANCE)
    # theta is defined mod 2pi, so a level at exactly pi can split into
    # values near -pi and near +pi; fold the last run onto the first.
    if len(counts) > 1 and thetas[0] + 2 * np.pi - thetas[-1] <= CLUSTER_TOLERANCE:
        last = len(thetas) - counts[-1]
        counts, centers = _runs(np.r_[thetas[last:] - 2 * np.pi, thetas[:last]], CLUSTER_TOLERANCE)
    centers[centers <= -np.pi + CLUSTER_TOLERANCE / 2] += 2 * np.pi
    centers[np.abs(centers) < ZERO_SNAP] = 0.0
    return sorted(zip(centers.tolist(), counts.tolist()))


def quasi_energies(blocks: Sequence[np.ndarray]) -> QuasiSpectrum:
    """Quasi-energies theta_k = -arg(lambda_k) in (-pi, pi], sorted ascending.

    ``blocks`` are the square diagonal blocks of one unitary (a whole
    operator is the one-block list); their phases are pooled before
    sorting and clustering within ``CLUSTER_TOLERANCE``. A block holding
    NaN or inf, or failing the probe check of unitarity, is rejected.
    A complex symmetric block (||B - B^T||_F <= 1e-13, as
    ``floquet_spectrum`` makes every sector block) takes the values-only
    real-symmetric route of ``_symmetric_thetas``; any other block, and a
    symmetric one whose levels that route cannot pair, takes
    ``numpy.linalg.eigvals``.
    """
    if len(blocks) == 0:
        raise ValueError("quasi_energies needs at least one block")
    return QuasiSpectrum(np.sort(np.concatenate([_block_thetas(b) for b in blocks])))


def _probes(dim: int) -> np.ndarray:
    """Two fixed (dim, 2) probe columns, entries e^{2 pi i k a} for a the
    golden ratio and sqrt(2), so every entry has modulus 1."""
    steps = np.arange(dim)[:, None] * np.array([0.6180339887498949, 0.4142135623730951])
    return np.exp(2j * np.pi * (steps % 1))


def _entry_probe(mat: np.ndarray) -> np.ndarray:
    """A third probe e^{2 pi i k s}, s in [0, 1) from the sum of B's entries as
    64-bit words: not fixed in advance, so a defect shaped for fixed probes shows."""
    words = int(np.ascontiguousarray(mat).view(np.uint64).sum(dtype=np.uint64))
    return np.exp(2j * np.pi * (np.arange(len(mat)) * (words % 2**53 / 2**53) % 1))


def _probe_deviation(mat: np.ndarray) -> float:
    """||B^H B R - R||_F on the three probes R, by two products with B."""
    probes = np.column_stack([_probes(len(mat)), _entry_probe(mat)])
    image = (mat @ probes).conj().T @ mat  # R^H B^H B, with no d x d temporary
    return float(np.linalg.norm(image.conj().T - probes))


def _asymmetry(mat: np.ndarray) -> float:
    """||B - B^T||_F over row slices of ``_BUILD_CHUNK``, with no d x d temporary."""
    total = 0.0
    for start in range(0, len(mat), _BUILD_CHUNK):
        rows = slice(start, start + _BUILD_CHUNK)
        diff = mat[rows] - mat[:, rows].T
        total += np.vdot(diff, diff).real
    return float(np.sqrt(total))


def _block_thetas(block: np.ndarray) -> np.ndarray:
    """Phases of one block B from its eigenvalues alone, checked on the way.

    B must hold finite values only, and ||B^H B R - R||_F on two fixed
    probe columns and one read from B (``_probes``, ``_entry_probe``) must
    be at most 1e-10, in O(d^2) before any eigensolver runs. A symmetric B
    goes to ``_symmetric_thetas``; otherwise, or when that route cannot
    pair its levels, the general ``eigvals`` runs. A unitary B is normal,
    so by Bauer-Fike either backward stable eigensolver gives each
    eigenvalue within about eps*d with no eigenvectors; the power sums
    sum(lam) = Tr B and sum(lam^2) = Tr B^2 of lam = e^{-i theta}, matched
    within 1e-9 in O(d^2), tie the returned multiset to this block.
    """
    mat = np.asarray(block, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {mat.shape}")
    # by row slices: a d x d mask would raise the peak RSS of the spectrum
    rows = range(0, len(mat), _BUILD_CHUNK)
    if not all(np.isfinite(mat[r : r + _BUILD_CHUNK]).all() for r in rows):
        raise ValueError("block holds NaN or inf")
    dev = _probe_deviation(mat)
    if not dev <= _UNITARY_TOLERANCE:
        raise ValueError(f"matrix is not unitary: ||(U^H U - I) R|| = {dev:.3e} on the probes")
    thetas = _symmetric_thetas(mat) if _asymmetry(mat) <= _SYMMETRY_TOLERANCE else None
    if thetas is None:
        thetas = -np.angle(np.linalg.eigvals(mat))
    # unit-modulus lam, so a block with eigenvalues off the circle misses
    # the traces even where the probes cannot see it
    lam = np.exp(-1j * thetas)
    trace2 = np.einsum("ij,ji->", mat, mat)  # Tr B^2 with no d x d product
    miss = max(abs(lam.sum() - np.trace(mat)), abs(np.sum(lam**2) - trace2))
    if not miss <= 1e-9:
        raise ValueError(f"eigenvalue power sums miss the traces by {miss:.3e}")
    thetas[thetas <= -np.pi + 1e-15] += 2 * np.pi
    return thetas


def _symmetric_thetas(mat: np.ndarray) -> np.ndarray | None:
    """Phases of a complex symmetric unitary B = X + iY, or None.

    B^H B = I with B = B^T gives X^2 + Y^2 = I and XY = YX, so X and Y
    share real eigenvectors, with eigenvalues cos(theta) and -sin(theta)
    on each. ``eigvalsh(X)`` gives cos(theta), clustered within
    ``_COS_TOLERANCE``; a cluster of mean c holds levels at
    +-arccos(c). G = cot(phi) X - Y, which is (cos(phi) X - sin(phi) Y)
    / sin(phi), has eigenvalues g = cot(phi) cos(theta) + sin(theta), and
    a level at +-arccos(c) predicts g = cot(phi) c +- sqrt(1 - c^2). phi is
    the ``_PAIR_ANGLES`` entry whose predictions of different clusters lie
    furthest apart; each value of ``eigvalsh(G)`` is paired with its
    nearest prediction, which names its cluster only, and then
    sin(theta) = g - cot(phi) c and theta = atan2(sin(theta), c). The
    sign comes from g; the prediction, with its arccos error near 0 and
    pi, never enters a level.

    Returns None, and leaves the block to ``eigvals``, when the
    predictions of two clusters lie within ``_PAIR_GAP`` for every phi, or
    when the pairing does not give each cluster its multiplicity.
    """
    cos = np.linalg.eigvalsh(mat.real)
    counts, centers = _runs(cos, _COS_TOLERANCE)
    sines = np.sqrt(1 - np.clip(centers, -1, 1) ** 2)
    cots = 1 / np.tan(_PAIR_ANGLES)[:, None]
    predictions = np.hstack([cots * centers + sines, cots * centers - sines])
    order = np.argsort(predictions, axis=1)
    predictions = np.take_along_axis(predictions, order, axis=1)
    labels = np.r_[np.arange(len(centers)), np.arange(len(centers))][order]
    # the least distance between different clusters' predictions is
    # always between neighbors in sorted order
    apart = labels[:, 1:] != labels[:, :-1]
    gaps = np.where(apart, np.diff(predictions, axis=1), np.inf).min(axis=1)
    best = int(np.argmax(gaps))
    if not gaps[best] > _PAIR_GAP:
        return None
    cot, predictions, labels = cots[best, 0], predictions[best], labels[best]
    g = mat.real * cot
    g -= mat.imag
    values = np.linalg.eigvalsh(g)
    right = np.clip(np.searchsorted(predictions, values), 1, len(predictions) - 1)
    nearer = np.where(
        values - predictions[right - 1] <= predictions[right] - values, right - 1, right
    )
    cluster = labels[nearer]
    if not np.array_equal(np.bincount(cluster, minlength=len(centers)), counts):
        return None
    c = centers[cluster]
    return np.arctan2(values - cot * c, c)


def _majorana_thetas(spec: FloquetSpec, rot: np.ndarray) -> np.ndarray:
    """Unsorted phases of U from its Majorana map R: each cos(eps_j) of R's
    eigenvalues e^{+-i eps_j} is a pair of values of ``eigvalsh((R + R^T) / 2)``,
    U's 2^L levels are phi + sum_j +-eps_j / 2, and the exact
    Tr U = e^{-i phi} prod_j 2 cos(eps_j / 2) fixes phi."""
    dev = np.abs(rot.T @ rot - np.eye(len(rot))).max()
    cos = np.linalg.eigvalsh((rot + rot.T) / 2)
    spread = np.abs(cos[1::2] - cos[::2]).max()
    if not (dev <= 1e-12 and spread <= _COS_TOLERANCE):
        raise ValueError(f"Majorana map: |R^T R - I| {dev:.3e}, cos pairs {spread:.3e} apart")
    half = np.arccos(np.clip((cos[::2] + cos[1::2]) / 2, -1, 1)) / 2
    left, kernel, right, _ = _dense_form(spec)
    trace = kernel[0] * np.dot(left, right)  # two Hadamards: U[a, a] = kernel[0]
    weight = np.prod(2 * np.cos(half))
    if not (abs(abs(trace) - weight) <= 1e-9 and weight > 1e-6):
        raise ValueError(f"|Tr U| = {abs(trace):.3e}, but prod 2cos(eps/2) = {weight:.3e}")
    levels = np.array([-np.angle(trace)])
    for h in half:
        levels = np.r_[levels - h, levels + h]
    return np.pi - (np.pi - levels) % (2 * np.pi)  # in (-pi, pi]


def floquet_spectrum(spec: FloquetSpec) -> QuasiSpectrum:
    """Quasi-energies of the operator built from ``spec`` (L <= 12): from its
    Majorana map if it has one, else from one time-reversal-form block at a time."""
    sectors = spec.sectors()  # first: it enforces the dense cap
    if (rot := _majorana_map(spec)) is not None:
        return QuasiSpectrum(np.sort(_majorana_thetas(spec, rot)))
    parts = [quasi_energies([_symmetric_block(spec, s)]).thetas for s in sectors]
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
    max_n = _as_integer("max_n", max_n, 1)
    th = np.asarray(thetas, dtype=float)
    if th.size == 0:
        raise ValueError("detect_period_from_thetas needs at least one quasi-energy")
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
    """Period detection for a Floquet operator built from ``spec`` (L <= 12);
    ``max_n`` is checked before the spectrum is paid for."""
    max_n = _as_integer("max_n", max_n, 1)
    return detect_period_from_thetas(floquet_spectrum(spec).thetas, max_n)
