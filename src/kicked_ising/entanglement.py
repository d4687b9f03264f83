"""Entanglement measures for pure states of the chain.

Three families: von Neumann entropy of reduced states, the average
entanglement entropy (AEE) over all subsystems of a given size, and the
geometric measure E_g = 1 - Lambda^2 where Lambda is the largest overlap
with any fully product state. Lambda is computed by alternating local
maximization (higher-order power iteration) over batched random restarts.
Entropies are in bits (log base 2), so one Bell pair contributes exactly
1 bit to any cut that splits it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, DensityMatrix, StateVector, partial_trace

DEFAULT_RESTARTS = 64
DEFAULT_MAX_ITER = 500


def entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Von Neumann entropy -sum(p log2 p) in bits, with 0 log 0 = 0.

    Eigenvalues in [-1e-8, 0) are treated as rounding noise and clamped
    to 0; anything below -1e-8 is rejected as non-physical.
    """
    mat = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho)
    evals = np.linalg.eigvalsh(mat)
    low = float(evals.min())
    if low < -1e-8:
        raise ValueError(f"density matrix has eigenvalue {low:.3e} < -1e-8")
    evals = evals[evals > 0.0]
    return float(-(evals * np.log2(evals)).sum())


@dataclass(frozen=True)
class AeeReport:
    """AEE for every subsystem size l in 1..L-1.

    ``per_l`` maps l to (S(l) in bits, S(l)/l, number of partitions
    averaged). The partition count is always C(L, l): the average is an
    exact enumeration, never a sample.
    """

    num_sites: int
    per_l: dict[int, tuple[float, float, int]]


def average_entanglement_entropy(state: StateVector, l: int) -> tuple[float, float]:
    """Mean entropy over all C(L, l) site subsets of size l: (S(l), S(l)/l)."""
    num_sites = state.num_sites
    if not 1 <= l <= num_sites - 1:
        raise ValueError(f"subsystem size {l} not in 1..{num_sites - 1}")
    total = 0.0
    count = 0
    for subset in itertools.combinations(range(1, num_sites + 1), l):
        total += entropy(partial_trace(state, subset))
        count += 1
    assert count == math.comb(num_sites, l)
    mean = total / count
    return mean, mean / l


def aee_report(state: StateVector) -> AeeReport:
    per_l = {}
    for l in range(1, state.num_sites):
        s, s_norm = average_entanglement_entropy(state, l)
        per_l[l] = (s, s_norm, math.comb(state.num_sites, l))
    return AeeReport(num_sites=state.num_sites, per_l=per_l)


def min_bipartition_entropy(state: StateVector) -> float:
    """Minimum cut entropy over all nonempty proper site subsets.

    By complement symmetry of pure states only subsets of size <= L/2 are
    scanned; at size exactly L/2 only subsets containing site 1.
    """
    num_sites = state.num_sites
    if num_sites < 2:
        raise ValueError("bipartitions need at least 2 sites")
    best = float("inf")
    for l in range(1, num_sites // 2 + 1):
        for subset in itertools.combinations(range(1, num_sites + 1), l):
            if 2 * l == num_sites and subset[0] != 1:
                continue
            best = min(best, entropy(partial_trace(state, subset)))
    return best


def detect_bell_pairs(
    state: StateVector, tol: float = 1e-6
) -> list[tuple[int, int]] | None:
    """Recover a pairing from zero-entropy two-site cuts, if one exists.

    Returns site pairs (i, j) such that every pair is internally pure,
    every site is entangled with its partner, and the pairs tile the
    chain. None when the state has no such structure.
    """
    num_sites = state.num_sites
    pairs = []
    for i, j in itertools.combinations(range(1, num_sites + 1), 2):
        if entropy(partial_trace(state, (i, j))) < tol:
            if entropy(partial_trace(state, (i,))) > 1 - tol:
                pairs.append((i, j))
    covered = [s for p in pairs for s in p]
    if len(covered) != num_sites or len(set(covered)) != num_sites:
        return None
    return sorted(pairs)


@dataclass(frozen=True)
class GeometricResult:
    """Outcome of the product-overlap maximization.

    ``lambda_`` is the achieved max overlap, ``e_g = 1 - lambda_**2``,
    ``product_state`` the winning single-site vectors (site order), and
    ``lambda_history`` the winning restart's per-sweep overlap sequence
    (non-decreasing by construction of the exact local updates).
    """

    lambda_: float
    e_g: float
    product_state: list[np.ndarray] = field(repr=False)
    restarts_used: int
    converged: bool
    sweeps: int
    lambda_history: np.ndarray = field(repr=False)


def _initial_product_batch(
    amplitudes: np.ndarray, num_sites: int, restarts: int, rng: np.random.Generator
) -> np.ndarray:
    """(L, R, 2) unit site vectors: restart 0 is the largest-amplitude
    basis state (so the ascent limit can never fall below max|psi_j|),
    the rest are uniform on the Bloch sphere."""
    raw = rng.normal(size=(num_sites, restarts, 2, 2))
    phis = raw[..., 0] + 1j * raw[..., 1]
    phis /= np.linalg.norm(phis, axis=-1, keepdims=True)
    top = int(np.argmax(np.abs(amplitudes)))
    for site in range(num_sites):
        bit = (top >> (num_sites - 1 - site)) & 1
        phis[site, 0] = np.eye(2)[bit]
    return phis


def geometric_measure(
    state: StateVector,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> GeometricResult:
    """Maximize |<Phi|psi>| over product states Phi = phi_1 x ... x phi_L.

    One sweep updates each site in turn to the exact local maximizer: the
    normalized contraction of psi with the other sites' current vectors.
    Each update can only increase the overlap, so the per-restart overlap
    sequence is monotone; a decrease beyond rounding noise is a bug and
    raises. Restarts run batched; the best one is returned.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    num_sites = state.num_sites
    psi = state.amplitudes
    rng = np.random.default_rng(seed)
    phis = _initial_product_batch(psi, num_sites, restarts, rng)

    lam = np.zeros(restarts)
    history: list[np.ndarray] = []
    converged_at = np.full(restarts, -1)
    sweeps = 0
    for sweep in range(max_iter):
        sweeps = sweep + 1
        prefixed = np.broadcast_to(psi, (restarts, psi.size))
        for site in range(num_sites):
            env = prefixed
            for other in range(num_sites - 1, site, -1):
                env = np.einsum(
                    "rab,rb->ra", env.reshape(restarts, -1, 2), phis[other].conj()
                )
            norms = np.linalg.norm(env, axis=1)
            ok = norms > 1e-300
            phis[site] = np.where(
                ok[:, None], env / np.maximum(norms, 1e-300)[:, None], phis[site]
            )
            prefixed = np.einsum(
                "rac,ra->rc", prefixed.reshape(restarts, 2, -1), phis[site].conj()
            )
        new_lam = prefixed[:, 0].real
        if np.any(new_lam < lam - 1e-9):
            raise AssertionError("overlap decreased during an exact local update")
        delta = new_lam - lam
        lam = new_lam
        history.append(lam.copy())
        newly = (delta < tol) & (converged_at < 0)
        converged_at[newly] = sweeps
        if np.all(converged_at >= 0):
            break

    best = int(np.argmax(lam))
    # rounding can push an overlap a few ulp above 1; 1 is the true ceiling
    lam_best = min(float(lam[best]), 1.0)
    return GeometricResult(
        lambda_=lam_best,
        e_g=1.0 - lam_best**2,
        product_state=[phis[site, best].copy() for site in range(num_sites)],
        restarts_used=restarts,
        converged=bool(converged_at[best] >= 0),
        sweeps=sweeps,
        lambda_history=np.array([h[best] for h in history]),
    )
