"""Quantum Fisher information of site-local collective observables.

For O = (1/2) sum_i n_i . sigma_i with unit 3-vectors n_i, a pure state
gives F_Q(O) = 4 Var(O) = n^T Gamma n where Gamma is the 3L x 3L Pauli
covariance matrix. Maximizing over the n_i certifies entanglement depth:
F_Q above the k-producibility ceiling kappa(k) requires clusters of more
than k entangled spins.
"""

from __future__ import annotations

__all__ = [
    "CovarianceMatrix", "DirectionField", "QfiResult", "covariance_matrix",
    "maximize_qfi", "producibility_bound",
]

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, StateVector, _as_integer

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 1000
DEFAULT_SLACK = 1e-8


@dataclass(frozen=True, eq=False)
class DirectionField:
    """One unit 3-vector per site, stored as an (L, 3) real array."""

    n_hats: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.n_hats, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise ValueError(f"expected (L, 3) directions, got shape {arr.shape}")
        norms = np.linalg.norm(arr, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if not worst <= 1e-12:  # NaN fails every comparison
            raise ValueError(f"direction norms deviate from 1 by {worst:.3e}")
        object.__setattr__(self, "n_hats", arr)

    @property
    def num_sites(self) -> int:
        return self.n_hats.shape[0]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """gamma[(i,a),(j,b)] = (1/2)<{sigma_i^a, sigma_j^b}> - <sigma_i^a><sigma_j^b>.

    Same-site 3x3 blocks are I - m_i m_i^T by the Pauli algebra; the whole
    matrix is symmetric positive semidefinite, and F_Q(n) = n^T gamma n.
    ``top_vector`` is the top eigenvector from the PSD check's decomposition.
    """

    gamma: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    top_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gamma, means = self.gamma, self.means
        dim = means.size
        if gamma.shape != (dim, dim) or dim % 3 != 0:
            raise ValueError(f"inconsistent shapes {gamma.shape} / {means.shape}")
        # a non-finite entry fails before inf - inf is ever formed
        if not (np.isfinite(gamma).all() and np.abs(gamma - gamma.T).max() <= 1e-12):
            raise ValueError("covariance matrix is not symmetric")
        for i in range(dim // 3):
            m = means[3 * i : 3 * i + 3]
            block = gamma[3 * i : 3 * i + 3, 3 * i : 3 * i + 3]
            dev = float(np.abs(block - (np.eye(3) - np.outer(m, m))).max())
            if not dev <= 1e-10:
                raise ValueError(f"site {i + 1} diagonal block off by {dev:.3e}")
        evals, evecs = np.linalg.eigh(gamma)
        low = float(evals.min())
        if not low >= -1e-9:
            raise ValueError(f"covariance matrix has eigenvalue {low:.3e}")
        object.__setattr__(self, "top_vector", evecs[:, -1])

    @property
    def num_sites(self) -> int:
        return self.means.size // 3


@dataclass(frozen=True, eq=False)
class QfiResult:
    """Maximized QFI with its certifying data.

    ``bound_table`` lists (k, kappa(k), violated) for k = 1..L; ``depth``
    is 1 + the largest violated k (1 when none is violated); ``sweeps`` is
    the number of ascent sweeps run.
    """

    f_q: float
    direction: DirectionField
    depth: int
    bound_table: list[tuple[int, int, bool]]
    converged: bool
    sweeps: int


def covariance_matrix(state: StateVector) -> CovarianceMatrix:
    """Gamma of ``state``; row 3(i-1) + a holds sigma^a, a = x, y, z, of site i.

    Each Pauli acts on the z-basis amplitudes by index arithmetic: sigma^x
    flips the site's bit, sigma^z multiplies by (-1)^bit, and
    sigma^y = -i sigma^z sigma^x.
    """
    num_sites = state.num_sites
    psi = state.amplitudes
    vecs = np.empty((3 * num_sites, psi.size), dtype=complex)
    sign = np.array([[1.0], [-1.0]])  # (-1)^bit
    for site in range(num_sites):
        # axis 1 of the view is the bit of site + 1 (site 1 is the most significant)
        view = psi.reshape(2**site, 2, -1)
        x, y, z = vecs[3 * site : 3 * site + 3].reshape(3, *view.shape)
        x[...] = view[:, ::-1]
        y[...] = -1j * sign * x
        z[...] = sign * view
    means = (vecs @ psi.conj()).real
    gram = (vecs.conj() @ vecs.T).real
    gamma = gram - np.outer(means, means)
    gamma = 0.5 * (gamma + gamma.T)
    return CovarianceMatrix(gamma=gamma, means=means)


def producibility_bound(num_sites: int, k: int) -> int:
    """kappa(k) = floor(L/k) k^2 + (L - floor(L/k) k)^2, the max QFI of
    any k-producible state."""
    num_sites = _as_integer("num_sites", num_sites, 1)
    k = _as_integer("k", k, 1, num_sites)
    full = num_sites // k
    rest = num_sites - full * k
    return full * k * k + rest * rest


def _certify(f_q: float, num_sites: int) -> tuple[list, int]:
    """The bound table (k, kappa(k), violated) for k = 1..L and the depth
    it certifies. f_q violates kappa(k) when it exceeds it by more than
    ``DEFAULT_SLACK``; the depth is 1 + the largest violated k, 1 when none is."""
    if f_q < 0:
        raise ValueError(f"QFI must be nonnegative, got {f_q}")
    kappas = [(k, producibility_bound(num_sites, k)) for k in range(1, num_sites + 1)]
    table = [(k, kappa, f_q > kappa + DEFAULT_SLACK) for k, kappa in kappas]
    return table, 1 + max((k for k, _, violated in table if violated), default=0)


def _initial_directions(top_vector: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(R, L, 3) unit starts for R = ``DEFAULT_RESTARTS``: axis-aligned fields
    and the per-site normalized top eigenvector of Gamma first, then uniform
    random."""
    num_sites = top_vector.size // 3
    fixed = np.empty((4, num_sites, 3))
    fixed[:3] = np.eye(3)[:, None]
    top = top_vector.reshape(num_sites, 3)
    norms = np.linalg.norm(top, axis=1, keepdims=True)
    fixed[3] = np.where(norms > 1e-12, top / np.maximum(norms, 1e-300), fixed[2])
    raw = rng.normal(size=(max(DEFAULT_RESTARTS - 4, 0), num_sites, 3))
    random = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    return np.concatenate([fixed[:DEFAULT_RESTARTS], random])


def maximize_qfi(state: StateVector, seed: int = 0) -> QfiResult:
    """Maximize F(n) = n^T Gamma n over per-site unit directions.

    Generalized power method (Journee, Nesterov, Richtarik & Sepulchre,
    JMLR 11 (2010) 517): each sweep moves every site at once to
    n_i' = (Gamma n)_i / |(Gamma n)_i|, keeping n_i where (Gamma n)_i = 0.
    Gamma is positive semidefinite (``CovarianceMatrix`` checks it), so F is
    convex and lies above its tangent: F(n') >= F(n) + 2 (Gamma n)^T (n' - n),
    and the step maximizes the linear term site by site, so F(n') >= F(n)
    within a restart; a decrease beyond rounding noise raises.
    ``DEFAULT_RESTARTS`` restarts run for at most ``DEFAULT_MAX_ITER``
    sweeps. The best restart wins; converged restarts are preferred.
    """
    seed = _as_integer("seed", seed, 0, 2**64 - 1)
    num_sites = state.num_sites
    restarts = DEFAULT_RESTARTS
    cov = covariance_matrix(state)
    gamma = cov.gamma
    dirs = _initial_directions(cov.top_vector, np.random.default_rng(seed))

    flat = dirs.reshape(restarts, 3 * num_sites)
    objective = np.einsum("ri,ij,rj->r", flat, gamma, flat)
    converged = np.zeros(restarts, dtype=bool)
    for sweeps in range(1, DEFAULT_MAX_ITER + 1):
        g = (flat @ gamma).reshape(restarts, num_sites, 3)
        norms = np.linalg.norm(g, axis=2, keepdims=True)
        dirs[...] = np.where(norms > 0, g / np.where(norms > 0, norms, 1.0), dirs)
        new_objective = np.einsum("ri,ij,rj->r", flat, gamma, flat)
        if np.any(new_objective < objective - 1e-9):
            raise AssertionError("objective decreased during a power step")
        delta = new_objective - objective
        objective = new_objective
        converged |= delta < DEFAULT_TOL
        if np.all(converged):
            break

    pool = np.flatnonzero(converged) if np.any(converged) else np.arange(restarts)
    best = int(pool[np.argmax(objective[pool])])
    f_q = float(objective[best])
    table, depth = _certify(f_q, num_sites)
    return QfiResult(
        f_q=f_q,
        direction=DirectionField(n_hats=dirs[best]),
        depth=depth,
        bound_table=table,
        converged=bool(converged[best]),
        sweeps=sweeps,
    )
