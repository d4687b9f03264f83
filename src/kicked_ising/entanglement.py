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

__all__ = [
    "GeometricResult", "aee_report", "average_entanglement_entropy",
    "detect_bell_pairs", "entropy", "geometric_measure", "min_bipartition_entropy",
]

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, DensityMatrix, StateVector, _as_integer, _bit_table
from .core import partial_trace

DEFAULT_RESTARTS = 64
DEFAULT_MAX_ITER = 500
# a pair is pure, and a site maximally mixed, within this many bits
BELL_TOLERANCE = 1e-6
_CUT_CHUNK = 64  # cuts per partial_trace call of a cut scan


def entropy(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy -sum(p log2 p) in bits, with 0 log 0 = 0.

    A stack of matrices gives one entropy per matrix; a single matrix gives
    a float. Eigenvalues in [-1e-8, 0) are treated as rounding noise and
    clamped to 0; anything below -1e-8 is rejected as non-physical. A
    ``DensityMatrix`` brings the eigenvalues its PSD check computed.
    """
    evals = rho.eigenvalues if isinstance(rho, DensityMatrix) else np.linalg.eigvalsh(rho)
    low = float(evals.min())
    if low < -1e-8:
        raise ValueError(f"density matrix has eigenvalue {low:.3e} < -1e-8")
    positive = evals > 0.0
    terms = np.where(positive, evals * np.log2(np.where(positive, evals, 1.0)), 0.0)
    values = -terms.sum(axis=-1)
    return float(values) if values.ndim == 0 else values


@functools.cache
def _subsets(num_sites: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(C(L, l), l) array of all size-l site subsets, in combinations order,
    and the bitmask of each (site s is bit L - s, as in the basis labels).
    Built once per (L, l); both arrays are read-only."""
    subsets = np.array(
        list(itertools.combinations(range(1, num_sites + 1), l)), dtype=int
    ).reshape(-1, l)
    masks = (1 << (num_sites - subsets)).sum(axis=1)
    subsets.flags.writeable = masks.flags.writeable = False
    return subsets, masks


@functools.cache
def _cuts(num_sites: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Size-l subsets and their bitmasks, one per bipartition: at l = L/2
    only those holding site 1. Built once per (L, l); read-only."""
    subsets, masks = _subsets(num_sites, l)
    if 2 * l == num_sites:
        holds_one = subsets[:, 0] == 1
        subsets, masks = subsets[holds_one], masks[holds_one]
        subsets.flags.writeable = masks.flags.writeable = False
    return subsets, masks


def _reduced_cuts(state: StateVector, k: int):
    """Yield (bitmasks, stacked reduced states) of the size-k cuts of
    ``_cuts``, ``_CUT_CHUNK`` cuts per ``partial_trace`` call, so a scan
    that stops early reduces few cuts."""
    cuts, masks = _cuts(state.num_sites, k)
    for start in range(0, len(cuts), _CUT_CHUNK):
        chunk = slice(start, start + _CUT_CHUNK)
        yield masks[chunk], partial_trace(state, cuts[chunk])


def _pauli_masks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and z bitmasks of each Pauli row (x | z) of an (L, 2L) array;
    site s is bit L - s, as in the basis labels."""
    num_sites = rows.shape[0]
    weights = 1 << np.arange(num_sites - 1, -1, -1)
    return rows[:, :num_sites] @ weights, rows[:, num_sites:] @ weights


def _supports(rows: np.ndarray) -> np.ndarray:
    """Support bitmask of each of the 2^L products of L Pauli rows, by XOR
    doubling: product k holds row j when bit j of k is set."""
    x = z = np.zeros(1, dtype=np.int64)
    for gx, gz in zip(*_pauli_masks(rows)):
        x, z = np.concatenate([x, x ^ gx]), np.concatenate([z, z ^ gz])
    return x | z


def _stabilizer_table(state: StateVector) -> np.ndarray:
    """S(A) = |A| - log2 #{g in G : supp g within A} for every site subset A
    of a stabilizer state with group G (Fattal et al., quant-ph/0406168),
    indexed by bitmask: the counts are a subset-sum transform of the support
    histogram. Each generator g must have |<psi|g|psi>| = 1 and the identity
    must occur once in G, which together prove that G is the state's group;
    otherwise ``ValueError``."""
    num_sites, amps = state.num_sites, state.amplitudes
    labels = np.arange(2**num_sites)
    sizes = _bit_table(num_sites).sum(axis=1)
    xs, zs = (masks[:, None] for masks in _pauli_masks(state.stabilizers))
    # X^x Z^z sends amplitude b, with sign (-1)^|z & b|, to label b ^ x
    signs = 1 - 2 * (sizes[labels & zs] & 1)
    low = np.abs((amps[labels ^ xs].conj() * signs * amps).sum(axis=1)).min()
    if not low >= 1 - 1e-9:
        raise ValueError(f"a stabilizer row has |<psi|g|psi>| = {low:.3e}")
    counts = np.bincount(_supports(state.stabilizers), minlength=labels.size)
    if counts[0] != 1:
        raise ValueError("the stabilizer rows are not independent")
    for bit in range(num_sites):
        halves = counts.reshape(-1, 2, 2**bit)
        halves[:, 1] += halves[:, 0]
    return sizes - np.log2(counts)


def _entropy_table(state: StateVector, max_size: int) -> np.ndarray:
    """S(A) in bits for every site subset A, indexed by the bitmask of A.

    A state that carries stabilizer generators fills every entry from them
    (``_stabilizer_table``). Otherwise entries with min(|A|, L - |A|) <=
    ``max_size`` are filled, the rest are NaN; the empty set and the whole
    chain hold 0. A pure state has S(A) = S(complement of A), so each
    bipartition is reduced once, on its smaller side, by ``_reduced_cuts``,
    and fills both entries.
    """
    if state.stabilizers is not None:
        return _stabilizer_table(state)
    num_sites = state.num_sites
    full = (1 << num_sites) - 1
    table = np.full(full + 1, np.nan)
    table[[0, full]] = 0.0
    for k in range(1, min(max_size, num_sites // 2) + 1):
        for masks, rho in _reduced_cuts(state, k):
            table[masks] = table[full ^ masks] = entropy(rho)
    return table


def _size_mean(table: np.ndarray, num_sites: int, l: int) -> float:
    """Mean table entry over the size-l subsets, as a running total from 0.0
    in combinations order."""
    values = table[_subsets(num_sites, l)[1]]
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1]) / values.size


def average_entanglement_entropy(state: StateVector, l: int) -> tuple[float, float]:
    """Mean entropy over all C(L, l) site subsets of size l: (S(l), S(l)/l)."""
    num_sites = state.num_sites
    l = _as_integer("l", l, 1, num_sites - 1)
    s = _size_mean(_entropy_table(state, min(l, num_sites - l)), num_sites, l)
    return s, s / l


def aee_report(state: StateVector) -> dict[int, tuple[float, float, int]]:
    """The AEE at every subsystem size, read from one entropy table.

    Returns {l: (S(l) in bits, S(l)/l, C(L, l))} for l = 1..L-1 in order;
    C(L, l) is the number of subsets averaged, since the average is an
    exact enumeration, never a sample.
    """
    num_sites = state.num_sites
    table = _entropy_table(state, num_sites // 2)
    report = {}
    for l in range(1, num_sites):
        s = _size_mean(table, num_sites, l)
        report[l] = (s, s / l, math.comb(num_sites, l))
    return report


def min_bipartition_entropy(state: StateVector) -> float:
    """Minimum cut entropy over all nonempty proper site subsets."""
    if state.num_sites < 2:
        raise ValueError("bipartitions need at least 2 sites")
    return float(_entropy_table(state, state.num_sites // 2)[1:-1].min())


def detect_bell_pairs(state: StateVector) -> list[tuple[int, int]] | None:
    """Recover a pairing from zero-entropy two-site cuts, if one exists.

    Returns site pairs (i, j) such that every pair is internally pure,
    every site is entangled with its partner, and the pairs tile the
    chain, all within ``BELL_TOLERANCE``. None when the state has no such
    structure.
    """
    num_sites = state.num_sites
    if num_sites < 2:
        return None
    table = _entropy_table(state, 2)
    pairs, masks = _subsets(num_sites, 2)
    pure = table[masks] < BELL_TOLERANCE
    entangled = table[1 << (num_sites - pairs[:, 0])] > 1 - BELL_TOLERANCE
    pairs = pairs[pure & entangled]
    covered = pairs.ravel().tolist()
    if len(covered) != num_sites or len(set(covered)) != num_sites:
        return None
    return [tuple(pair) for pair in pairs.tolist()]


@dataclass(frozen=True, eq=False)
class GeometricResult:
    """Outcome of the product-overlap maximization.

    ``lambda_`` is the achieved max overlap, ``e_g = 1 - lambda_**2``,
    ``product_state`` the winning single-site vectors (site order), and
    ``converged`` whether the winning restart's last sweep raised its
    overlap by less than ``DEFAULT_TOL``. ``certified`` is true when the
    ascent stopped because a balanced cut's largest Schmidt coefficient, an
    upper bound on every product overlap, is within ``DEFAULT_TOL`` of
    ``lambda_``. ``sweeps`` is the number of ascent sweeps run.
    """

    lambda_: float
    e_g: float
    product_state: list[np.ndarray] = field(repr=False)
    converged: bool
    certified: bool
    sweeps: int


def _initial_product_batch(state: StateVector, rng: np.random.Generator) -> np.ndarray:
    """(L, R, 2) unit site vectors for R = ``DEFAULT_RESTARTS``: restart 0 is
    the largest-amplitude basis state (so the ascent limit can never fall
    below max|psi_j|), the rest are uniform on the Bloch sphere."""
    num_sites = state.num_sites
    raw = rng.normal(size=(num_sites, DEFAULT_RESTARTS, 2, 2))
    phis = raw[..., 0] + 1j * raw[..., 1]
    phis /= np.linalg.norm(phis, axis=-1, keepdims=True)
    top = int(np.argmax(np.abs(state.amplitudes)))
    phis[:, 0] = np.eye(2)[(top >> np.arange(num_sites - 1, -1, -1)) & 1]
    return phis


def _sweep(psi: np.ndarray, old: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of every restart in ``old`` (L, B, 2): each site in turn
    becomes the normalized contraction of psi with the other sites' vectors,
    the new ones before it and the old ones after it. A site whose
    contraction vanishes keeps its old vector. Returns the new vectors and
    each restart's overlap.
    """
    num_sites, batch = old.shape[:2]
    conj = old.conj()[:, :, :, None, None]
    # suffix[k] = conj(phi_k) x ... x conj(phi_L) of the old vectors, suffix[L] = 1
    suffix = [np.ones((batch, 1, 1), dtype=complex)] * (num_sites + 1)
    for site in range(num_sites - 1, 0, -1):
        suffix[site] = (conj[site] * suffix[site + 1][:, None]).reshape(batch, -1, 1)
    new = old.copy()
    # psi contracted with the new conj(phi) of the sites already updated
    prefixed = psi
    for site in range(num_sites):
        left = prefixed.reshape(-1, 2, 2 ** (num_sites - site - 1))
        env = (left @ suffix[site + 1])[:, :, 0]
        sq = env.real**2 + env.imag**2
        norm = np.sqrt(sq[:, :1] + sq[:, 1:])
        np.divide(env, norm, out=new[site], where=norm > 1e-300)
        prefixed = new[site].conj()[:, None, :] @ left
    return new, prefixed[:, 0, 0].real


def geometric_measure(state: StateVector, seed: int = 0) -> GeometricResult:
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
    So while some restarts still sweep, each time one stops the best
    converged overlap lambda_c is tested against the balanced cuts
    (floor(L/2) sites). Their scan runs until a cut's top reduced eigenvalue
    is at most (lambda_c + DEFAULT_TOL)^2, which proves lambda_c is the
    maximum within ``DEFAULT_TOL`` and stops the ascent with the best
    converged restart as the winner, or until no cut is left. A balanced
    cut's top eigenvalue is at least 2^-floor(L/2), so no cut is reduced
    while (lambda_c + DEFAULT_TOL)^2 * 2^floor(L/2) < 1. An overlap above
    an examined cut's coefficient is a bug and raises.
    """
    seed = _as_integer("seed", seed, 0, 2**64 - 1)
    num_sites = state.num_sites
    psi = state.amplitudes
    phis = _initial_product_batch(state, np.random.default_rng(seed))
    lam = np.zeros(DEFAULT_RESTARTS)
    done = np.zeros(DEFAULT_RESTARTS, dtype=bool)
    # the batch of restarts still sweeping, gathered only when it shrinks
    active = np.arange(DEFAULT_RESTARTS)
    local, lam_active = phis[:, active], lam[active]
    half = num_sites // 2
    balanced = _reduced_cuts(state, half)
    witness = math.inf  # smallest top eigenvalue of the cuts examined so far
    certified = False
    for sweeps in range(1, DEFAULT_MAX_ITER + 1):
        new, new_lam = _sweep(psi, local)
        if (new_lam < lam_active - 1e-9).any():
            raise AssertionError("overlap decreased during an exact local update")
        stalled = new_lam - lam_active < DEFAULT_TOL
        local, lam_active = new, new_lam
        # the best converged overlap lambda_c can only rise when a restart stops
        if not stalled.any():
            continue
        phis[:, active] = local
        lam[active] = lam_active
        done[active[stalled]] = True
        active = active[~stalled]
        local, lam_active = local[:, ~stalled], lam_active[~stalled]
        if done.all():
            break
        lam_c = float(lam[done].max())
        bound = (lam_c + DEFAULT_TOL) ** 2
        if half == 0 or bound * 2**half < 1:
            continue
        while witness > bound:
            _, rho = next(balanced, (None, None))
            if rho is None:
                break
            witness = min(witness, float(rho.eigenvalues[:, -1].min()))
        if lam.max() > math.sqrt(witness) + 1e-9:
            raise AssertionError("overlap exceeds a cut's largest Schmidt coefficient")
        if witness <= bound:
            certified = True
            break
    phis[:, active] = local
    lam[active] = lam_active

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
