"""Quantum Fisher information of site-local collective observables.

For O = (1/2) sum_i n_i . sigma_i with unit 3-vectors n_i, a pure state
gives F_Q(O) = 4 Var(O) = n^T Gamma n where Gamma is the 3L x 3L Pauli
covariance matrix. Maximizing over the n_i certifies entanglement depth:
F_Q above the k-producibility ceiling kappa(k) requires clusters of more
than k entangled spins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    apply_matrix_at_site,
)

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 1000
DEFAULT_SLACK = 1e-8

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


@dataclass(frozen=True)
class DirectionField:
    """One unit 3-vector per site, stored as an (L, 3) real array."""

    n_hats: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.n_hats, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise ValueError(f"expected (L, 3) directions, got shape {arr.shape}")
        norms = np.linalg.norm(arr, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > 1e-12:
            raise ValueError(f"direction norms deviate from 1 by {worst:.3e}")
        object.__setattr__(self, "n_hats", arr)

    @property
    def num_sites(self) -> int:
        return self.n_hats.shape[0]

    def flat(self) -> np.ndarray:
        return self.n_hats.reshape(-1)


@dataclass(frozen=True)
class CovarianceMatrix:
    """gamma[(i,a),(j,b)] = (1/2)<{sigma_i^a, sigma_j^b}> - <sigma_i^a><sigma_j^b>.

    Same-site 3x3 blocks are I - m_i m_i^T by the Pauli algebra; the whole
    matrix is symmetric positive semidefinite, and F_Q(n) = n^T gamma n.
    """

    gamma: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        gamma, means = self.gamma, self.means
        dim = means.size
        if gamma.shape != (dim, dim) or dim % 3 != 0:
            raise ValueError(f"inconsistent shapes {gamma.shape} / {means.shape}")
        if float(np.abs(gamma - gamma.T).max()) > 1e-12:
            raise ValueError("covariance matrix is not symmetric")
        for i in range(dim // 3):
            m = means[3 * i : 3 * i + 3]
            block = gamma[3 * i : 3 * i + 3, 3 * i : 3 * i + 3]
            dev = float(np.abs(block - (np.eye(3) - np.outer(m, m))).max())
            if dev > 1e-10:
                raise ValueError(f"site {i + 1} diagonal block off by {dev:.3e}")
        low = float(np.linalg.eigvalsh(gamma).min())
        if low < -1e-9:
            raise ValueError(f"covariance matrix has eigenvalue {low:.3e}")

    @property
    def num_sites(self) -> int:
        return self.means.size // 3


@dataclass(frozen=True)
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
    num_sites = state.num_sites
    psi = state.amplitudes
    vecs = np.empty((3 * num_sites, psi.size), dtype=complex)
    for site in range(1, num_sites + 1):
        for a, pauli in enumerate(_PAULIS):
            vecs[3 * (site - 1) + a] = apply_matrix_at_site(
                psi, num_sites, site, pauli
            )
    means = (vecs @ psi.conj()).real
    gram = (vecs.conj() @ vecs.T).real
    gamma = gram - np.outer(means, means)
    gamma = 0.5 * (gamma + gamma.T)
    return CovarianceMatrix(gamma=gamma, means=means)


def qfi_for_direction(state: StateVector, dirs: DirectionField) -> float:
    """F_Q = n^T Gamma n = 4 Var((1/2) sum n_i . sigma_i)."""
    if dirs.num_sites != state.num_sites:
        raise ValueError(
            f"direction field covers {dirs.num_sites} sites, state has "
            f"{state.num_sites}"
        )
    n = dirs.flat()
    return float(n @ covariance_matrix(state).gamma @ n)


def producibility_bound(num_sites: int, k: int) -> int:
    """kappa(k) = floor(L/k) k^2 + (L - floor(L/k) k)^2, the max QFI of
    any k-producible state."""
    if not 1 <= k <= num_sites:
        raise ValueError(f"cluster size {k} not in 1..{num_sites}")
    full = num_sites // k
    rest = num_sites - full * k
    return full * k * k + rest * rest


def _certify(f_q: float, num_sites: int, slack: float) -> tuple[list, int]:
    """The bound table (k, kappa(k), violated) for k = 1..L and the depth
    it certifies. f_q violates kappa(k) when it exceeds it by more than
    ``slack``; the depth is 1 + the largest violated k, 1 when none is."""
    if f_q < 0:
        raise ValueError(f"QFI must be nonnegative, got {f_q}")
    kappas = [(k, producibility_bound(num_sites, k)) for k in range(1, num_sites + 1)]
    table = [(k, kappa, f_q > kappa + slack) for k, kappa in kappas]
    return table, 1 + max((k for k, _, violated in table if violated), default=0)


def entanglement_depth(f_q: float, num_sites: int, slack: float = DEFAULT_SLACK) -> int:
    """1 + the largest k whose bound kappa(k) is exceeded by more than
    ``slack``; 1 when no bound is violated. Equality does not violate."""
    return _certify(f_q, num_sites, slack)[1]


def _initial_directions(
    gamma: np.ndarray, num_sites: int, restarts: int, rng: np.random.Generator
) -> np.ndarray:
    """(R, L, 3) unit starts: axis-aligned fields and the per-site
    normalized top eigenvector of Gamma first, then uniform random."""
    starts = []
    for axis in range(3):
        d = np.zeros((num_sites, 3))
        d[:, axis] = 1.0
        starts.append(d)
    _, top_vecs = np.linalg.eigh(gamma)
    top = top_vecs[:, -1].reshape(num_sites, 3)
    norms = np.linalg.norm(top, axis=1, keepdims=True)
    z_field = starts[2]
    starts.append(np.where(norms > 1e-12, top / np.maximum(norms, 1e-300), z_field))
    dirs = np.empty((restarts, num_sites, 3))
    for r in range(restarts):
        if r < len(starts):
            dirs[r] = starts[r]
        else:
            raw = rng.normal(size=(num_sites, 3))
            dirs[r] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return dirs


def maximize_qfi(
    state: StateVector,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    slack: float = DEFAULT_SLACK,
) -> QfiResult:
    """Maximize F(n) = n^T Gamma n over per-site unit directions.

    Generalized power method (Journee, Nesterov, Richtarik & Sepulchre,
    JMLR 11 (2010) 517): each sweep moves every site at once to
    n_i' = (Gamma n)_i / |(Gamma n)_i|, keeping n_i where (Gamma n)_i = 0.
    Gamma is positive semidefinite (``CovarianceMatrix`` checks it), so F is
    convex and lies above its tangent: F(n') >= F(n) + 2 (Gamma n)^T (n' - n),
    and the step maximizes the linear term site by site, so F(n') >= F(n)
    within a restart; a decrease beyond rounding noise raises. The best
    restart wins; converged restarts are preferred.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    num_sites = state.num_sites
    gamma = covariance_matrix(state).gamma
    rng = np.random.default_rng(seed)
    dirs = _initial_directions(gamma, num_sites, restarts, rng)

    flat = dirs.reshape(restarts, 3 * num_sites)
    objective = np.einsum("ri,ij,rj->r", flat, gamma, flat)
    converged = np.zeros(restarts, dtype=bool)
    for sweeps in range(1, max_iter + 1):
        g = (flat @ gamma).reshape(restarts, num_sites, 3)
        norms = np.linalg.norm(g, axis=2, keepdims=True)
        dirs[...] = np.where(norms > 0, g / np.where(norms > 0, norms, 1.0), dirs)
        new_objective = np.einsum("ri,ij,rj->r", flat, gamma, flat)
        if np.any(new_objective < objective - 1e-9):
            raise AssertionError("objective decreased during a power step")
        delta = new_objective - objective
        objective = new_objective
        converged |= delta < tol
        if np.all(converged):
            break

    pool = np.flatnonzero(converged) if np.any(converged) else np.arange(restarts)
    best = int(pool[np.argmax(objective[pool])])
    f_q = float(objective[best])
    table, depth = _certify(f_q, num_sites, slack)
    return QfiResult(
        f_q=f_q,
        direction=DirectionField(n_hats=dirs[best]),
        depth=depth,
        bound_table=table,
        converged=bool(converged[best]),
        sweeps=sweeps,
    )
