"""Basis conventions, state construction, partial trace.

Conventions fixed here and relied on everywhere else:

* Basis states are labeled by integers whose binary digits give the
  z-basis configuration, with site 1 stored in the most significant bit.
* Bit value b at a site means the sigma^z eigenvalue (-1)^b.
* sigma^y eigenvectors are |y+-> = (|0> +- i|1>)/sqrt(2).
"""

from __future__ import annotations

__all__ = [
    "Axis", "DensityMatrix", "StateVector", "fidelity", "make_ghz",
    "make_polarized_state", "make_psi_o", "partial_trace",
]

import functools
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Size limits, in sites. A state vector holds 2^L amplitudes; a dense
# operator holds 4^L entries. Only spectrum and summary build one, yet
# ExperimentConfig caps every run at DENSE_MAX_SITES (see ROADMAP item 9).
MAX_SITES = 14
DENSE_MAX_SITES = 12

# Convergence tolerance of both optimizers (geometric measure and QFI): a
# restart has converged once one sweep raises its objective by less.
DEFAULT_TOL = 1e-12


def _as_integer(name: str, value, low=None, high=None) -> int:
    """``value`` by ``operator.index`` (NumPy integers pass, bools do not),
    within the inclusive bounds given: ``low`` alone, or ``low`` and ``high``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: must be an integer, got {value!r}") from None
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name}: must be in {low}..{high}, got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name}: must be >= {low}, got {value}")
    return value


_EIGENVECTORS = {
    ("x", +1): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("x", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("y", +1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
    ("z", +1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
}

@dataclass(frozen=True)
class Axis:
    """A signed Pauli axis: one of x, y, z together with a +-1 sign."""

    letter: str
    sign: int = +1

    def __post_init__(self) -> None:
        if self.letter not in ("x", "y", "z"):
            raise ValueError(f"axis letter must be x, y or z, got {self.letter!r}")
        object.__setattr__(self, "sign", _as_integer("sign", self.sign))
        if self.sign not in (+1, -1):
            raise ValueError(f"axis sign must be +1 or -1, got {self.sign!r}")

    @classmethod
    def parse(cls, text: str) -> "Axis":
        """Parse strings like 'z', 'z+', 'y-' (case insensitive)."""
        t = text.strip().lower()
        if t and t[0] in "xyz":
            if len(t) == 1:
                return cls(t, +1)
            if len(t) == 2 and t[1] in "+-":
                return cls(t[0], +1 if t[1] == "+" else -1)
        raise ValueError(f"cannot parse axis from {text!r}")

    def eigenvector(self) -> np.ndarray:
        """The normalized single-qubit eigenvector of sigma^letter with this sign."""
        return _EIGENVECTORS[(self.letter, self.sign)].copy()

    def __str__(self) -> str:
        return self.letter + ("+" if self.sign > 0 else "-")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of an L-site chain as 2^L complex amplitudes (z basis)."""

    num_sites: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        num_sites = _as_integer("num_sites", self.num_sites, 1, MAX_SITES)
        object.__setattr__(self, "num_sites", num_sites)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.num_sites,):
            raise ValueError(
                f"expected {2 ** self.num_sites} amplitudes, got shape {amps.shape}"
            )
        nrm2 = float(np.vdot(amps, amps).real)
        if not abs(nrm2 - 1.0) <= 1e-9:  # NaN fails every comparison
            raise ValueError(f"state is not normalized: |psi|^2 = {nrm2!r}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced state of l sites: Hermitian, unit-trace, PSD 2^l x 2^l matrix.

    ``elements`` may also be a (C, 2^l, 2^l) stack of such matrices, one per
    subset; each check then holds for every matrix and runs once over the
    whole stack. ``eigenvalues`` keeps the ascending spectrum (one row per
    matrix of a stack) that the PSD check computed.
    """

    num_sites: int
    elements: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num_sites = _as_integer("num_sites", self.num_sites, 1, MAX_SITES)
        object.__setattr__(self, "num_sites", num_sites)
        rho = np.asarray(self.elements, dtype=complex)
        d = 2 ** self.num_sites
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
            raise ValueError(
                f"expected a {d}x{d} matrix or a stack of them, got shape {rho.shape}"
            )
        # a non-finite entry fails before inf - inf is ever formed
        if not (
            np.isfinite(rho).all()
            and np.abs(rho - rho.conj().swapaxes(-1, -2)).max() <= 1e-12
        ):
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(rho, axis1=-2, axis2=-1).ravel()
        worst = complex(tr[np.abs(tr - 1.0).argmax()])
        if not abs(worst - 1.0) <= 1e-12:
            raise ValueError(f"density matrix trace is {worst!r}, expected 1")
        evals = np.linalg.eigvalsh(rho)
        if not float(evals.min()) >= -1e-10:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "elements", rho)
        object.__setattr__(self, "eigenvalues", evals)


def _kron_power(v: np.ndarray, n: int) -> np.ndarray:
    out = np.ones((1,) * v.ndim, dtype=complex)
    for _ in range(n):
        out = np.kron(out, v)
    return out


def make_polarized_state(num_sites: int, axis: Axis) -> StateVector:
    """Product state with every site in the chosen sigma^alpha eigenstate."""
    num_sites = _as_integer("num_sites", num_sites, 1, MAX_SITES)
    return StateVector(num_sites, _kron_power(axis.eigenvector(), num_sites))


def make_ghz(num_sites: int, axis: Axis) -> StateVector:
    """(|a+ ... a+> + |a- ... a->)/sqrt(2) in the z basis, a = axis.letter.

    The sign carried by ``axis`` is irrelevant here; both branches enter
    with a real positive coefficient.
    """
    num_sites = _as_integer("num_sites", num_sites, 2, MAX_SITES)
    plus = _kron_power(Axis(axis.letter, +1).eigenvector(), num_sites)
    minus = _kron_power(Axis(axis.letter, -1).eigenvector(), num_sites)
    return StateVector(num_sites, (plus + minus) / np.sqrt(2))


def make_psi_o(num_sites: int) -> StateVector:
    """Product of two z-basis GHZ blocks on sites 1..L/2 and L/2+1..L."""
    num_sites = _as_integer("num_sites", num_sites, 4, MAX_SITES)
    if num_sites % 2 != 0:
        raise ValueError(f"num_sites: must be even, got {num_sites}")
    half = num_sites // 2
    block = np.zeros(2 ** half, dtype=complex)
    block[0] = block[-1] = 1 / np.sqrt(2)
    return StateVector(num_sites, np.kron(block, block))


def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) binary digits of 0..2^n-1, most significant first."""
    return (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


@functools.lru_cache(maxsize=128)
def _gather_tables(
    num_sites: int, shape: tuple[int, int], sites: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column offsets of each subset's reduced matrix, for a (C, l)
    int64 array of subsets given by its bytes: rows (C, 2^l, 1) and columns
    (C, 1, 2^(L-l)), whose sums index the amplitudes. Read-only, built once
    per content."""
    L = num_sites
    subsets = np.frombuffer(sites, dtype=np.int64).reshape(shape)
    count, l = shape
    rest_mask = np.ones((count, L), dtype=bool)
    np.put_along_axis(rest_mask, subsets - 1, False, axis=1)
    rest = np.nonzero(rest_mask)[1].reshape(count, L - l) + 1
    # row a, column b of subset c's matrix is the amplitude whose kept sites
    # spell a and whose other sites spell b, both most significant first
    rows = (_bit_table(l) @ (1 << (L - subsets)).T).T[:, :, None]
    cols = (_bit_table(L - l) @ (1 << (L - rest)).T).T[:, None, :]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def partial_trace(
    state: StateVector, kept_sites: Sequence[int] | np.ndarray
) -> DensityMatrix:
    """Reduced density matrix on ``kept_sites`` (1-based, strictly increasing).

    ``kept_sites`` may also be a (C, l) array of such subsets; the result
    then holds the (C, 2^l, 2^l) stack of their reduced matrices, computed
    by one gather of the amplitudes and one batched product.
    """
    kept = np.asarray(kept_sites)
    L = state.num_sites
    if kept.size == 0:
        raise ValueError("kept_sites must be nonempty")
    if kept.ndim not in (1, 2) or kept.dtype.kind not in "iu":
        raise ValueError(f"kept_sites must be site numbers, got {kept.tolist()}")
    # int64, so that neither the checks nor 1 << (L - site) wrap around in a
    # narrow or unsigned integer type
    subsets = np.atleast_2d(kept).astype(np.int64, copy=False)
    if ((subsets < 1) | (subsets > L)).any():
        raise ValueError(f"kept_sites must lie in [1, {L}], got {kept.tolist()}")
    if (np.diff(subsets, axis=1) <= 0).any():
        raise ValueError(f"kept_sites must be strictly increasing, got {kept.tolist()}")
    rows, cols = _gather_tables(L, subsets.shape, subsets.tobytes())
    mats = state.amplitudes[rows + cols]
    rho = mats @ mats.conj().swapaxes(-1, -2)
    return DensityMatrix(subsets.shape[1], rho if kept.ndim == 2 else rho[0])


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; equals 1 exactly when the states agree up to a global phase."""
    if a.num_sites != b.num_sites:
        raise ValueError(
            f"states live on different chains: {a.num_sites} vs {b.num_sites} sites"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
