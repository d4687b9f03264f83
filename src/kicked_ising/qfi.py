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
DEFAULT_MAX_ITER = 300
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
    is 1 + the largest violated k (1 when none is violated).
    """

    f_q: float
    direction: DirectionField
    depth: int
    bound_table: list[tuple[int, int, bool]]
    converged: bool


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


def entanglement_depth(f_q: float, num_sites: int, slack: float = DEFAULT_SLACK) -> int:
    """1 + the largest k whose bound kappa(k) is exceeded by more than
    ``slack``; 1 when no bound is violated. Equality does not violate."""
    if f_q < 0:
        raise ValueError(f"QFI must be nonnegative, got {f_q}")
    depth = 1
    for k in range(1, num_sites + 1):
        if f_q > producibility_bound(num_sites, k) + slack:
            depth = k + 1
    return depth


def _max_quadratic_on_sphere(
    w: np.ndarray, v: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact max of u^T A u + 2 b^T u over unit 3-vectors u, batched over
    rows of b, for A = v diag(w) v^T (w ascending).

    The stationary condition (lam I - A) u = b with lam >= w_max pins lam
    by the secular equation sum_a beta_a^2/(lam - w_a)^2 = 1 (beta = V^T b),
    solved by bisection on (w_max, w_max + |b|]. When beta has no component
    on the top eigenspace and the remaining sum stays below 1 (the
    degenerate case), u is padded along the top eigenvector instead.
    """
    rows = b.shape[0]
    beta = b @ v
    wmax = w[-1]
    top = w > wmax - 1e-12
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_top = np.linalg.norm(beta[:, top], axis=1)
        scale = np.maximum(np.linalg.norm(beta, axis=1), 1.0)
        # residual secular sum at lam = w_max using only non-top components
        gap = np.where(top, np.inf, wmax - w)
        resid = ((beta / gap) ** 2).sum(axis=1)
        hard = (s_top <= 1e-13 * scale) & (resid < 1.0)

        lo = np.full(rows, wmax)
        hi = wmax + np.linalg.norm(beta, axis=1) + 1e-30
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            g = ((beta / (mid[:, None] - w[None, :])) ** 2).sum(axis=1)
            go_right = g > 1.0
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
        lam = 0.5 * (lo + hi)

        u = beta / (lam[:, None] - w[None, :])
        u = np.where(np.isfinite(u), u, 0.0)
        if np.any(hard):
            u_hard = np.where(top, 0.0, beta / gap)
            pad = np.sqrt(np.clip(1.0 - (u_hard**2).sum(axis=1), 0.0, None))
            u_hard[:, np.flatnonzero(top)[-1]] = pad
            u = np.where(hard[:, None], u_hard, u)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    value = (w * u**2).sum(axis=1) + 2.0 * (beta * u).sum(axis=1)
    return u @ v.T, value


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
    """Maximize n^T Gamma n over per-site unit directions.

    Block-coordinate ascent: with all other sites fixed, site i sees the
    objective n_i^T A n_i + 2 b_i^T n_i (A the diagonal block, b_i the
    coupling to the rest), which is solved exactly, so the objective is
    monotone within a restart; a decrease beyond rounding noise raises.
    The best restart wins; converged restarts are preferred.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    num_sites = state.num_sites
    cov = covariance_matrix(state)
    gamma = cov.gamma
    rng = np.random.default_rng(seed)
    dirs = _initial_directions(gamma, num_sites, restarts, rng)

    blocks = []
    for i in range(num_sites):
        a_block = gamma[3 * i : 3 * i + 3, 3 * i : 3 * i + 3]
        w, v = np.linalg.eigh(a_block)
        blocks.append((a_block, w, v))

    flat = dirs.reshape(restarts, 3 * num_sites)
    objective = np.einsum("ri,ij,rj->r", flat, gamma, flat)
    converged = np.zeros(restarts, dtype=bool)
    for _ in range(max_iter):
        for i, (a_block, w, v) in enumerate(blocks):
            cols = slice(3 * i, 3 * i + 3)
            b = flat @ gamma[:, cols] - flat[:, cols] @ a_block
            u, _ = _max_quadratic_on_sphere(w, v, b)
            flat[:, cols] = u
        new_objective = np.einsum("ri,ij,rj->r", flat, gamma, flat)
        if np.any(new_objective < objective - 1e-9):
            raise AssertionError("objective decreased during an exact block update")
        delta = new_objective - objective
        objective = new_objective
        converged |= delta < tol
        if np.all(converged):
            break

    pool = np.flatnonzero(converged) if np.any(converged) else np.arange(restarts)
    best = int(pool[np.argmax(objective[pool])])
    f_q = float(objective[best])
    direction = DirectionField(n_hats=dirs[best])
    table = [
        (k, producibility_bound(num_sites, k), f_q > producibility_bound(num_sites, k) + slack)
        for k in range(1, num_sites + 1)
    ]
    return QfiResult(
        f_q=f_q,
        direction=direction,
        depth=entanglement_depth(f_q, num_sites, slack),
        bound_table=table,
        converged=bool(converged[best]),
    )
