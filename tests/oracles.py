"""Independent reference implementations used by the tests.

Everything here recomputes expected values by a different route than the
package: dense matrix exponentials instead of the matrix-free kernel,
explicit grids instead of ascent optimizers, combinatorial closed forms
instead of entropy sums. Deliberately slow and simple. Where a routine
was rewritten for speed with its arithmetic unchanged, its earlier form
is kept here verbatim, and the rewrite must match it bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from kicked_ising.core import DEFAULT_TOL, StateVector, partial_trace
from kicked_ising.entanglement import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    GeometricResult,
    _cuts,
    _initial_product_batch,
)
from kicked_ising.floquet import (
    _BUILD_CHUNK,
    LEAK_TOLERANCE,
    PERIOD_LAYERS,
    Boundary,
    FloquetSpec,
    Model,
    Sector,
    _block_program,
    _one_period,
    symmetry_sectors,
)
from kicked_ising.spectral import PERIOD_TOLERANCE, PeriodReport


# The one-site Hadamard, which changes between the z and x bases.
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def pauli_rotation(letter: str, angle: float) -> np.ndarray:
    """The 2x2 matrix exp(-i * angle * sigma^letter)."""
    return np.cos(angle) * np.eye(2, dtype=complex) - 1j * np.sin(angle) * PAULI[letter]


def site_operator(op: np.ndarray, site: int, num_sites: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for s in range(1, num_sites + 1):
        out = np.kron(out, op if s == site else np.eye(2))
    return out


def dense_floquet_oracle(spec: FloquetSpec) -> np.ndarray:
    """One period as a product of dense matrix exponentials."""
    num_sites = spec.num_sites

    def field_sum(op):
        return sum(site_operator(op, s, num_sites) for s in range(1, num_sites + 1))

    hxx = sum(
        site_operator(PAULI_X, i, num_sites) @ site_operator(PAULI_X, j, num_sites)
        for i, j in spec.bonds()
    )

    def expo(h):
        return scipy.linalg.expm(-0.25j * np.pi * h)

    if spec.model is Model.U0:
        return expo(hxx) @ expo(field_sum(PAULI_Z))
    return expo(hxx + field_sum(PAULI_X)) @ expo(field_sum(PAULI_Y))


def sector_columns(sector: Sector, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Dense (2^L, stop - start) array of basis columns start..stop-1."""
    index, weight = sector.index[:, start:stop], sector.weight[:, start:stop]
    cols = np.zeros((2 ** sector.num_sites, index.shape[1]), dtype=complex)
    k = np.arange(index.shape[1])
    cols[index[0], k] = weight[0]
    cols[index[1], k] += weight[1]
    return cols


def sector_project(sector: Sector, amps: np.ndarray) -> np.ndarray:
    """B^H amps for a (2^L, batch) array: gathers two rows per column of B."""
    w0, w1 = sector.weight[:, :, None]
    return w0 * amps[sector.index[0]] + w1 * amps[sector.index[1]]


# ``floquet.build_dense`` as it was before it gathered each block from the
# closed form of U, kept verbatim (only the name and the two ``Sector``
# methods, now the functions above, differ): one period runs on a chunk of
# basis columns at a time and the rows are gathered back onto the sector.
# The arithmetic differs, so the closed form must match it within 1e-13.
def matrix_free_build_oracle(spec: FloquetSpec, sector: Sector | None = None) -> np.ndarray:
    """The (d, d) block B^H U B of one period on a sector's basis B.

    One period runs on the columns of B and the rows are gathered back
    onto B; without ``sector``, B is the trivial sector and the block is U.
    The block holds all of U B only if U leaves the sector invariant, so
    the leaked weight ||U B||_F^2 - ||B^H U B||_F^2 must vanish. Bases come
    from ``symmetry_sectors``, which enforces ``DENSE_MAX_SITES``.
    """
    L = spec.num_sites
    sector = sector or symmetry_sectors(L, ())[0]
    if sector.num_sites != L:
        raise ValueError(f"sector is for {sector.num_sites} sites but spec has {L}")
    d = sector.dim
    out = np.empty((d, d), dtype=complex)
    leak = 0.0
    for start in range(0, d, _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, d)
        image = _one_period(_block_program(spec), sector_columns(sector, start, stop), L)
        block = sector_project(sector, image)
        out[:, start:stop] = block
        leak += np.vdot(image, image).real - np.vdot(block, block).real
    if leak > LEAK_TOLERANCE:
        raise ValueError(
            f"sector {sector.label} is not invariant under {spec.model.value}: "
            f"leaked weight {leak:.3e}"
        )
    return out


def split_floquet_oracle(spec: FloquetSpec) -> np.ndarray:
    """U_x split into three dense exponentials, E[H_xx] . E[H_x] . E[H_y];
    it equals the combined form because H_xx commutes with H_x."""
    num_sites = spec.num_sites
    sites = range(1, num_sites + 1)
    hxx = sum(
        site_operator(PAULI_X, i, num_sites) @ site_operator(PAULI_X, j, num_sites)
        for i, j in spec.bonds()
    )
    hx = sum(site_operator(PAULI_X, s, num_sites) for s in sites)
    hy = sum(site_operator(PAULI_Y, s, num_sites) for s in sites)

    def expo(h):
        return scipy.linalg.expm(-0.25j * np.pi * h)

    return expo(hxx) @ expo(hx) @ expo(hy)


# A Pauli string as (coefficient, x bits, z bits), meaning
# coefficient * prod_s X_s^x_s Z_s^z_s with site 1 first; Y = i X Z.
_LETTER_BITS = {"x": (1, 0), "y": (1, 1), "z": (0, 1)}


def pauli(letter: str, site: int, num_sites: int) -> tuple:
    """The Pauli sigma^letter on one 1-based site, as (coefficient, x, z)."""
    x, z = np.zeros(num_sites, dtype=int), np.zeros(num_sites, dtype=int)
    x[site - 1], z[site - 1] = _LETTER_BITS[letter]
    return (1j if letter == "y" else 1, x, z)


def pauli_product(a: tuple, b: tuple) -> tuple:
    """a . b, moving each Z of a past each X of b at the cost of a sign."""
    (ca, xa, za), (cb, xb, zb) = a, b
    return (ca * cb * (-1) ** int(za @ xb), xa ^ xb, za ^ zb)


def pauli_dense(p: tuple) -> np.ndarray:
    """The 2^L x 2^L matrix of a (coefficient, x, z) Pauli string."""
    coefficient, x, z = p
    out = np.array([[coefficient]], dtype=complex)
    for xs, zs in zip(x, z):
        site = (PAULI_X if xs else np.eye(2)) @ (PAULI_Z if zs else np.eye(2))
        out = np.kron(out, site)
    return out


def conjugate_through_period(p: tuple, spec: FloquetSpec) -> tuple:
    """U p U^H for one period U, read off ``PERIOD_LAYERS`` by Clifford rules.

    A gate exp(-i*pi/4*Q) maps p to -i Q p when p anticommutes with Q and
    leaves it alone otherwise; the Hadamard swaps X and Z (Y -> -Y).
    """
    L = spec.num_sites

    def rotate(p, q):
        (_, x, z), (_, qx, qz) = p, q
        if (x @ qz + z @ qx) % 2 == 0:
            return p
        coefficient, x, z = pauli_product(q, p)
        return (-1j * coefficient, x, z)

    for layer in PERIOD_LAYERS[spec.model]:
        if layer == "hadamard":
            coefficient, x, z = p
            p = (coefficient * (-1) ** int(x @ z), z, x)
        elif layer[0] == "rotate":
            for s in range(1, L + 1):
                p = rotate(p, pauli(layer[1], s, L))
        else:
            # one gate per bond (the closed two-site chain lists its bond
            # twice) and one per site; all of them commute
            for i, j in spec.bonds() if "ising" in layer[1] else ():
                p = rotate(p, pauli_product(pauli("z", i, L), pauli("z", j, L)))
            for s in range(1, L + 1) if "field" in layer[1] else ():
                p = rotate(p, pauli("z", s, L))
    return p


def _trace_slices(model: Model) -> list[tuple[int, int, np.ndarray]]:
    """One period for ``transfer_trace_oracle``, stated by hand as slices
    (J, h, G) in the order they act: the z-basis phase
    exp(-i*pi/4*(J sum z_i z_j + h sum z_s)), then the 2x2 gate G at every
    site.

    U_0 = E[H_xx] E[H_z] = H E[H_zz] H E[H_z], with H the Hadamard at every
    site. U_x = H E[H_zz + H_z] H E[H_y]; moving its leading H to the end
    of the product changes no Tr(U_x^n), and leaves one slice per period:
    the gate H E[H_y] H, then the phase.
    """
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if model is Model.U0:
        return [(0, 1, had), (1, 0, had)]
    kick = scipy.linalg.expm(-0.25j * np.pi * PAULI_Y)
    return [(1, 1, had @ kick @ had)]


def transfer_trace_oracle(spec: FloquetSpec, n: int) -> complex:
    """Tr(U^n) of an open chain, transferred along space over columns of spins.

    Tr(U^n) sums over the z-basis spins before each of the m*n slices of n
    periods, one column of N = m*n spins per site. A column carries the
    weights of its own site, the field phases and the gate entries
    G[b_{q+1}, b_q] (cyclic in q), and two neighboring columns the Ising
    phases exp(-i*pi/4*J_q z_q z'_q) of their bond, slice by slice. So the
    sum is a product of L site weights and L - 1 bond transfers, each bond
    a 2x2 matrix on every one of the N column axes: O(L N 2^N), with no
    2^L array (Akila, Waltner, Gutkin & Guhr, J. Phys. A 49, 375101 (2016)).
    """
    assert spec.boundary is Boundary.OPEN, "the transfer runs along an open chain"
    slices = _trace_slices(spec.model) * n
    N = len(slices)
    bits = (np.arange(2**N)[:, None] >> np.arange(N - 1, -1, -1)) & 1
    z = 1 - 2 * bits
    site = np.exp(-0.25j * np.pi * z @ np.array([h for _, h, _ in slices]))
    for q, (_, _, gate) in enumerate(slices):
        site = site * gate[bits[:, (q + 1) % N], bits[:, q]]
    site = site.reshape((2,) * N)
    bonds = [np.exp(-0.25j * np.pi * J * np.outer([1, -1], [1, -1])) for J, _, _ in slices]
    column = site
    for _ in range(spec.num_sites - 1):
        for q, bond in enumerate(bonds):
            column = np.moveaxis(np.tensordot(bond, column, axes=([0], [q])), 0, q)
        column = column * site
    return complex(column.sum())


def random_state(rng: np.random.Generator, num_sites: int) -> np.ndarray:
    raw = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return raw / np.linalg.norm(raw)


def unitarity_deviation(u: np.ndarray) -> float:
    """||U^H U - I||_F, formed directly."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))


def schur_thetas(block: np.ndarray) -> np.ndarray:
    """Quasi-energies -arg(lambda) read off the diagonal of the complex
    Schur form of ``block``."""
    return -np.angle(np.diag(scipy.linalg.schur(block, output="complex")[0]))


def scan_period_oracle(thetas: np.ndarray, max_n: int) -> PeriodReport:
    """Both recurrences by testing every n = 1..max_n for U^n = phase*I and
    for U^n = I, so an exact period past max_n is never found."""
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    th = np.asarray(thetas, dtype=float)
    period = exact_period = None
    phase = complex(1.0)
    deviation = exact_deviation = float("inf")
    for n in range(1, max_n + 1):
        z = np.exp(-1j * n * th)
        mean = z.mean()
        if abs(mean) > 1e-12:
            best = mean / abs(mean)
            dev = float(np.sqrt(np.sum(np.abs(z - best) ** 2)))
            if period is None and dev < PERIOD_TOLERANCE:
                period, phase, deviation = n, complex(best), dev
            dev1 = float(np.sqrt(np.sum(np.abs(z - 1.0) ** 2)))
            if exact_period is None and dev1 < PERIOD_TOLERANCE:
                exact_period, exact_deviation = n, dev1
        if period is not None and exact_period is not None:
            break
    return PeriodReport(
        period=period,
        phase=phase,
        deviation=deviation,
        exact_period=exact_period,
        exact_deviation=exact_deviation,
    )


def nn_bell_product(num_sites: int) -> np.ndarray:
    """Bell pairs on (1,2), (3,4), ..., as amplitudes."""
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    out = np.array([1.0 + 0j])
    for _ in range(num_sites // 2):
        out = np.kron(out, bell)
    return out


def broken_pair_aee(num_sites: int, l: int) -> float:
    """Closed form for the AEE of L/2 disjoint Bell pairs: the expected
    number of pairs split by a uniformly random size-l site subset."""
    total = math.comb(num_sites, l)
    kept = math.comb(num_sites - 2, l)
    if l >= 2:
        kept += math.comb(num_sites - 2, l - 2)
    return (num_sites // 2) * (1.0 - kept / total)


def broken_pair_count_mean(num_sites: int, l: int, pairs) -> float:
    """The same expectation by direct subset enumeration, no entropies."""
    total = 0
    for subset in itertools.combinations(range(1, num_sites + 1), l):
        chosen = set(subset)
        total += sum((a in chosen) != (b in chosen) for a, b in pairs)
    return total / math.comb(num_sites, l)


def _bloch_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """(N, 2) qubit states over the theta x phi grid."""
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    vecs = np.stack(
        [np.cos(t / 2) + 0j, np.exp(1j * p) * np.sin(t / 2)], axis=-1
    )
    return vecs.reshape(-1, 2)


def _best_product_overlap_given_site1(
    vecs: np.ndarray, amplitudes: np.ndarray, num_sites: int
) -> np.ndarray:
    """Max overlap per site-1 candidate; sites 2.. are optimized exactly
    (vector norm for one remaining site, top singular value for two)."""
    contracted = vecs.conj() @ amplitudes.reshape(2, -1)
    if num_sites == 2:
        return np.linalg.norm(contracted, axis=1)
    if num_sites == 3:
        return np.linalg.svd(contracted.reshape(-1, 2, 2), compute_uv=False)[:, 0]
    raise ValueError(f"grid oracle supports 2 or 3 sites, got {num_sites}")


def grid_max_overlap(
    amplitudes: np.ndarray, num_sites: int, step: float = np.pi / 200
) -> float:
    """Brute-force Lambda: site-1 Bloch grid at ``step``, then a local
    10x finer patch around the winner to remove discretization bias."""
    if num_sites == 1:
        return float(np.linalg.norm(amplitudes))
    thetas = np.arange(0.0, np.pi + step / 2, step)
    phis = np.arange(0.0, 2 * np.pi, step)
    vals = _best_product_overlap_given_site1(
        _bloch_vectors(thetas, phis), amplitudes, num_sites
    )
    best = int(np.argmax(vals))
    t0 = thetas[best // phis.size]
    p0 = phis[best % phis.size]
    fine_t = np.clip(np.linspace(t0 - step, t0 + step, 21), 0.0, np.pi)
    fine_p = np.linspace(p0 - step, p0 + step, 21)
    fine = _best_product_overlap_given_site1(
        _bloch_vectors(fine_t, fine_p), amplitudes, num_sites
    )
    return float(max(vals[best], fine.max()))


def max_schmidt_coefficient(amplitudes: np.ndarray, num_sites: int) -> float:
    """Upper bound on every product overlap: the largest Schmidt
    coefficient of each bipartition, minimized over every cut. Each cut A
    (holding site 1) is one SVD of psi reshaped to 2^|A| x 2^(L-|A|)."""
    tensor = np.asarray(amplitudes).reshape((2,) * num_sites)
    rest = range(1, num_sites)
    best = math.inf
    for size in range(0, num_sites - 1):
        for others in itertools.combinations(rest, size):
            kept = (0, *others)
            moved = np.moveaxis(tensor, kept, range(len(kept)))
            top = np.linalg.svd(moved.reshape(2 ** len(kept), -1), compute_uv=False)[0]
            best = min(best, float(top))
    return best


def subset_entropy(amplitudes: np.ndarray, num_sites: int, subset) -> float:
    """S(A) in bits from the Schmidt coefficients of psi reshaped to
    2^|A| x 2^(L-|A|), one SVD; ``subset`` holds 1-based sites."""
    tensor = np.asarray(amplitudes).reshape((2,) * num_sites)
    kept = [site - 1 for site in subset]
    moved = np.moveaxis(tensor, kept, range(len(kept)))
    probs = np.linalg.svd(moved.reshape(2 ** len(kept), -1), compute_uv=False) ** 2
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


def gamma_oracle(amplitudes: np.ndarray, num_sites: int) -> np.ndarray:
    """Pauli covariance matrix from dense operators and expectation values."""
    ops = [
        site_operator(op, site, num_sites)
        for site in range(1, num_sites + 1)
        for op in (PAULI_X, PAULI_Y, PAULI_Z)
    ]
    means = np.array([np.vdot(amplitudes, op @ amplitudes).real for op in ops])
    dim = 3 * num_sites
    gamma = np.empty((dim, dim))
    for p in range(dim):
        for q in range(dim):
            anti = ops[p] @ ops[q] + ops[q] @ ops[p]
            gamma[p, q] = 0.5 * np.vdot(amplitudes, anti @ amplitudes).real
    return gamma - np.outer(means, means)


def solve_sphere_quadratic(
    w: np.ndarray, v: np.ndarray, b: np.ndarray, iters: int = 90
) -> tuple[np.ndarray, np.ndarray]:
    """max of u^T A u + 2 b^T u over unit u for A = v diag(w) v^T, batched
    over rows of b; returns (u, value)."""
    beta = b @ v
    lo = np.full(b.shape[0], w[-1])
    hi = lo + np.linalg.norm(beta, axis=1) + 1e-30
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = ((beta / (mid[:, None] - w)) ** 2).sum(axis=1)
        grow = ~np.isfinite(s) | (s > 1.0)
        lo = np.where(grow, mid, lo)
        hi = np.where(grow, hi, mid)
    lam = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = beta / (lam[:, None] - w)
    u = np.where(np.isfinite(u), u, 0.0)
    norms = np.linalg.norm(u, axis=1)
    short = norms < 1.0 - 1e-9
    if np.any(short):
        pad = np.sqrt(np.clip(1.0 - norms**2, 0.0, None))
        u[short, -1] = u[short, -1] + pad[short]
        norms = np.linalg.norm(u, axis=1)
    u /= np.maximum(norms, 1e-300)[:, None]
    value = (w * u**2).sum(axis=1) + 2.0 * (beta * u).sum(axis=1)
    return u @ v.T, value


def _sphere_dirs(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    return np.stack(
        [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1
    ).reshape(-1, 3)


def _best_qfi_given_site1(
    dirs: np.ndarray, gamma: np.ndarray, num_sites: int
) -> np.ndarray:
    """Max of n^T Gamma n per site-1 candidate; remaining sites are
    optimized exactly (one site) or by alternating exact solves from
    deterministic starts (two sites)."""
    if num_sites == 1:
        return np.einsum("ni,ij,nj->n", dirs, gamma, dirs)
    base = np.einsum("ni,ij,nj->n", dirs, gamma[0:3, 0:3], dirs)
    if num_sites == 2:
        a = gamma[3:6, 3:6]
        w, v = np.linalg.eigh(a)
        _, val = solve_sphere_quadratic(w, v, dirs @ gamma[0:3, 3:6])
        return base + val
    if num_sites != 3:
        raise ValueError(f"grid oracle supports 1..3 sites, got {num_sites}")
    rows = dirs.shape[0]
    w2, v2 = np.linalg.eigh(gamma[3:6, 3:6])
    w3, v3 = np.linalg.eigh(gamma[6:9, 6:9])
    # 36 bisection steps locate the right basin; the patch pass and the
    # final exact solves take care of the remaining digits
    bisect = 36 if rows > 2000 else 90
    best = np.full(rows, -np.inf)
    for axis in range(3):
        n2 = np.zeros((rows, 3))
        n2[:, axis] = 1.0
        n3 = n2.copy()
        for _ in range(16):
            b2 = dirs @ gamma[0:3, 3:6] + n3 @ gamma[6:9, 3:6]
            n2, _ = solve_sphere_quadratic(w2, v2, b2, iters=bisect)
            b3 = dirs @ gamma[0:3, 6:9] + n2 @ gamma[3:6, 6:9]
            n3, _ = solve_sphere_quadratic(w3, v3, b3, iters=bisect)
        val = (
            base
            + np.einsum("ni,ij,nj->n", n2, gamma[3:6, 3:6], n2)
            + np.einsum("ni,ij,nj->n", n3, gamma[6:9, 6:9], n3)
            + 2.0 * np.einsum("ni,ij,nj->n", dirs, gamma[0:3, 3:6], n2)
            + 2.0 * np.einsum("ni,ij,nj->n", dirs, gamma[0:3, 6:9], n3)
            + 2.0 * np.einsum("ni,ij,nj->n", n2, gamma[3:6, 6:9], n3)
        )
        best = np.maximum(best, val)
    return best


def grid_max_qfi(
    amplitudes: np.ndarray, num_sites: int, step: float = np.pi / 100
) -> float:
    """Brute-force max QFI: site-1 direction grid at ``step`` plus a local
    10x finer patch around the winner."""
    gamma = gamma_oracle(amplitudes, num_sites)
    thetas = np.arange(0.0, np.pi + step / 2, step)
    phis = np.arange(0.0, 2 * np.pi, step)
    vals = _best_qfi_given_site1(_sphere_dirs(thetas, phis), gamma, num_sites)
    best = int(np.argmax(vals))
    t0 = thetas[best // phis.size]
    p0 = phis[best % phis.size]
    fine_t = np.clip(np.linspace(t0 - step, t0 + step, 21), 0.0, np.pi)
    fine_p = np.linspace(p0 - step, p0 + step, 21)
    fine = _best_qfi_given_site1(_sphere_dirs(fine_t, fine_p), gamma, num_sites)
    return float(max(vals[best], fine.max()))


# The ascent of ``entanglement.geometric_measure`` as it was before its sweep
# was rewritten to issue fewer NumPy calls, kept verbatim with the cut scan
# it read (only the ascent's name differs): the rewrite must reproduce every
# field of its result bit for bit.
def _balanced_cut_tops(state: StateVector):
    """Yield the largest eigenvalue of each balanced cut's reduced state
    (the squared largest Schmidt coefficient), 32 cuts per reduction, so a
    scan that finds a witness early reduces few cuts."""
    cuts, _ = _cuts(state.num_sites, state.num_sites // 2)
    for start in range(0, len(cuts), 32):
        yield partial_trace(state, cuts[start : start + 32]).eigenvalues[:, -1]


def geometric_measure_oracle(state: StateVector, seed: int = 0) -> GeometricResult:
    """Maximize |<Phi|psi>| over product states Phi = phi_1 x ... x phi_L.

    One sweep updates each site in turn to the exact local maximizer: the
    normalized contraction of psi with the other sites' current vectors.
    Each update can only increase the overlap, so the per-restart overlap
    sequence is monotone; a decrease beyond rounding noise is a bug and
    raises. ``DEFAULT_RESTARTS`` restarts run batched for at most
    ``DEFAULT_MAX_ITER`` sweeps, and a restart leaves the batch once one
    sweep raises its overlap by less than ``DEFAULT_TOL``; the best one is
    returned.

    No product overlap exceeds the largest Schmidt coefficient of any cut.
    So while some restarts still sweep, each rise of the best converged
    overlap lambda_c is tested against the balanced cuts (floor(L/2) sites),
    scanned in chunks: the first cut whose top reduced eigenvalue is at most
    (lambda_c + DEFAULT_TOL)^2 proves lambda_c is the maximum within
    ``DEFAULT_TOL``, and the ascent stops with the best converged restart as
    the winner. A balanced cut's top eigenvalue is at least 2^-floor(L/2),
    so no cut is reduced while (lambda_c + DEFAULT_TOL)^2 * 2^floor(L/2) < 1.
    An overlap above an examined cut's coefficient is a bug and raises.
    """
    num_sites = state.num_sites
    psi = state.amplitudes
    phis = _initial_product_batch(state, np.random.default_rng(seed))
    lam = np.zeros(DEFAULT_RESTARTS)
    done = np.zeros(DEFAULT_RESTARTS, dtype=bool)
    half = num_sites // 2
    tops = _balanced_cut_tops(state)
    witness = math.inf  # smallest top eigenvalue of the cuts examined so far
    tested = -math.inf  # lambda_c at the last certificate test
    certified = False
    for sweeps in range(1, DEFAULT_MAX_ITER + 1):
        active = np.flatnonzero(~done)
        batch = active.size
        local = phis[:, active]
        # suffix[k] = conj(phi_k) x ... x conj(phi_L) of the old vectors, suffix[L] = 1
        suffix = [np.ones((batch, 1), dtype=complex)] * (num_sites + 1)
        for site in range(num_sites - 1, 0, -1):
            outer = local[site].conj()[:, :, None] * suffix[site + 1][:, None, :]
            suffix[site] = outer.reshape(batch, -1)
        # psi contracted with the new conj(phi) of the sites already updated
        prefixed = psi[None, :]
        for site in range(num_sites):
            left = prefixed.reshape(-1, 2, 2 ** (num_sites - site - 1))
            env = (left @ suffix[site + 1][:, :, None])[:, :, 0]
            norms = np.sqrt((env.real**2 + env.imag**2).sum(axis=1, keepdims=True))
            ok = norms > 1e-300
            local[site] = np.where(ok, env / np.maximum(norms, 1e-300), local[site])
            prefixed = (local[site].conj()[:, None, :] @ left)[:, 0]
        phis[:, active] = local
        new_lam = prefixed[:, 0].real
        if np.any(new_lam < lam[active] - 1e-9):
            raise AssertionError("overlap decreased during an exact local update")
        done[active[new_lam - lam[active] < DEFAULT_TOL]] = True
        lam[active] = new_lam
        if done.all():
            break
        lam_c = float(lam[done].max()) if done.any() else -math.inf
        if lam_c <= tested:
            continue
        tested = lam_c
        bound = (lam_c + DEFAULT_TOL) ** 2
        if half == 0 or bound * 2**half < 1:
            continue
        while witness > bound:
            top = next(tops, None)
            if top is None:
                break
            witness = min(witness, float(top.min()))
        if lam.max() > math.sqrt(witness) + 1e-9:
            raise AssertionError("overlap exceeds a cut's largest Schmidt coefficient")
        if witness <= bound:
            certified = True
            break

    best = int(np.argmax(np.where(done, lam, -np.inf) if certified else lam))
    # rounding can push an overlap a few ulp above 1; 1 is the true ceiling
    lam_best = min(float(lam[best]), 1.0)
    return GeometricResult(
        lambda_=lam_best,
        e_g=1.0 - lam_best**2,
        product_state=[phis[site, best].copy() for site in range(num_sites)],
        converged=bool(done[best]),
        certified=certified,
        sweeps=sweeps,
    )
