"""Floquet operators of the kicked Ising chain.

Two driving protocols are implemented. Writing E[H] for exp(-i*(pi/4)*H),
with H_xx the Ising coupling sum(sx_i sx_{i+1}) over the bond list and
H_a = sum(sa_i) the uniform fields:

* the kicked transverse-field chain  U_x = E[H_xx + H_x] . E[H_y]
* the plain kicked chain             U_0 = E[H_xx] . E[H_z]

Operator products act right to left, so each period starts with the kick.
U_x also admits an exactly equivalent split form E[H_xx] . E[H_z] . E[H_x].

Everything is matrix-free: each protocol is one "period program", a
list of layers that are either a 2x2 rotation at every site or a diagonal
phase (H_xx and H_x are both diagonal in the x basis, H_z in the z
basis), so one period costs O(L * 2^L). The same loop runs the program on
state vectors and on the basis columns of ``build_dense``, which feeds
the spectral module.

Symmetry sectors. Both operators commute with the site reflection
i <-> L+1-i (basis index j <-> its bit reversal), for either boundary and
either factorization. U_0 also commutes with the Z parity prod(s^z_i),
which commutes with H_xx and H_z; U_x does not, because the parity
anticommutes with s^x and s^y and so flips the sign of H_x and H_y.
``MODEL_SYMMETRIES`` records this, and ``build_dense`` can build the
operator one sector block at a time (``FloquetSpec.sectors``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    DENSE_MAX_SITES,
    EQUIVALENCE_MAX_SITES,
    StateVector,
    apply_matrix_at_site,
    pauli_rotation,
)

# Kick angle and, equally, the phase per unit Ising coupling. The model is
# fixed at unit interaction strength, so this one constant scales every
# exponential in both protocols.
KICK_ANGLE = np.pi / 4

# Largest weight ||U B||_F^2 - ||B^H U B||_F^2 a sector block may leak. The
# two norms agree to ~1e-13 at 2^12 columns, far below any real leak (a
# broken symmetry leaks weight of order the sector dimension).
LEAK_TOLERANCE = 1e-9

_HALF = 1 / np.sqrt(2)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class Model(enum.Enum):
    """Driving protocol: U0 (kicked Ising) or UX (kicked transverse-field Ising)."""

    U0 = "U0"
    UX = "Ux"


class Symmetry(enum.Enum):
    """A Z2 symmetry that splits the Hilbert space into sectors."""

    REFLECTION = "R"  # site i <-> L+1-i
    Z_PARITY = "P"  # prod_i sigma^z_i


# Symmetries each period operator commutes with, for any boundary and
# factorization (see the module docstring for why U_x has no Z parity).
MODEL_SYMMETRIES = {
    Model.U0: (Symmetry.REFLECTION, Symmetry.Z_PARITY),
    Model.UX: (Symmetry.REFLECTION,),
}


class Boundary(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


class Factorization(enum.Enum):
    """How U_x is factorized: one combined Ising+field exponential followed by
    the y kick, or the split x-rotation / z-kick / Ising product."""

    COMBINED = "combined"
    SPLIT = "split"


@dataclass(frozen=True)
class FloquetSpec:
    """Immutable description of one Floquet operator."""

    model: Model
    num_sites: int
    boundary: Boundary = Boundary.OPEN
    factorization: Factorization = Factorization.COMBINED

    def __post_init__(self) -> None:
        if self.num_sites < 2:
            raise ValueError(f"num_sites must be at least 2, got {self.num_sites}")

    def bonds(self) -> list[tuple[int, int]]:
        """Ising bond list; closed chains add the wrap-around bond (L, 1)."""
        L = self.num_sites
        out = [(i, i + 1) for i in range(1, L)]
        if self.boundary is Boundary.CLOSED:
            out.append((L, 1))
        return out

    def sectors(self) -> tuple[Sector, ...]:
        """The symmetry sectors of this operator (``MODEL_SYMMETRIES``)."""
        return symmetry_sectors(self.num_sites, MODEL_SYMMETRIES[self.model])


@dataclass(frozen=True, eq=False)
class Sector:
    """Orthonormal basis B of one symmetry sector of an L-site chain.

    Column k of B is weight[0, k] e_{index[0, k]} + weight[1, k] e_{index[1, k]}:
    either a basis state e_j (weights 1, 0 and index[1, k] = j) or a
    mirror pair (e_j +- e_Rj)/sqrt(2). ``charges`` holds the eigenvalue
    of each symmetry on the sector.
    """

    num_sites: int
    charges: tuple[tuple[Symmetry, int], ...]
    index: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.index.shape[1]

    @property
    def label(self) -> str:
        return " ".join(sym.value + "+-"[charge < 0] for sym, charge in self.charges)

    def columns(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Dense (2^L, stop - start) array of basis columns start..stop-1."""
        index, weight = self.index[:, start:stop], self.weight[:, start:stop]
        cols = np.zeros((2 ** self.num_sites, index.shape[1]), dtype=complex)
        k = np.arange(index.shape[1])
        cols[index[0], k] = weight[0]
        cols[index[1], k] += weight[1]
        return cols

    def project(self, amps: np.ndarray) -> np.ndarray:
        """B^H amps for a (2^L, batch) array: gathers two rows per column of B."""
        w0, w1 = self.weight[:, :, None]
        return w0 * amps[self.index[0]] + w1 * amps[self.index[1]]


@lru_cache(maxsize=None)
def symmetry_sectors(
    num_sites: int, symmetries: tuple[Symmetry, ...]
) -> tuple[Sector, ...]:
    """Nonempty sectors of the given symmetries; their dimensions sum to 2^L."""
    spins = _spin_values(num_sites)
    idx = np.arange(2 ** num_sites)
    reflect = Symmetry.REFLECTION in symmetries
    # Bit reversal: the bit of site s moves to the place of site L+1-s.
    bits = (1 - spins) // 2
    mirror = (bits << np.arange(num_sites)[:, None]).sum(axis=0) if reflect else idx
    parity = spins.prod(axis=0)
    out = []
    for p in (+1, -1) if Symmetry.Z_PARITY in symmetries else (None,):
        keep = np.ones(idx.size, dtype=bool) if p is None else parity == p
        fixed = idx[keep & (mirror == idx)]
        low = idx[keep & (idx < mirror)]
        for r in (+1, -1) if reflect else (+1,):
            # Mirror-symmetric states span R = +1 alone; each mirror pair
            # (e_j +- e_Rj)/sqrt(2) gives one state to each reflection sector.
            own = fixed if r > 0 else fixed[:0]
            ones, halves = np.ones(own.size), np.full(low.size, _HALF)
            index = np.array([np.r_[own, low], np.r_[own, mirror[low]]])
            weight = np.array([np.r_[ones, halves], np.r_[0 * ones, r * halves]])
            charges = ((Symmetry.Z_PARITY, p),) if p is not None else ()
            charges += ((Symmetry.REFLECTION, r),) if reflect else ()
            if index.shape[1]:
                out.append(Sector(num_sites, charges, index, weight))
    return tuple(out)


def check_unitary(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a complex array, after checking it is square and unitary."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dev = float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))
    if dev > 1e-10:
        raise ValueError(f"matrix is not unitary: ||U^H U - I|| = {dev:.3e}")
    return mat


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense unitary of an L-site chain, validated on construction: the whole
    2^L x 2^L operator, or its square block on ``sector``."""

    num_sites: int
    matrix: np.ndarray = field(repr=False)
    sector: Sector | None = None

    def __post_init__(self) -> None:
        d = 2 ** self.num_sites if self.sector is None else self.sector.dim
        shape = np.shape(self.matrix)
        if shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {shape}")
        object.__setattr__(self, "matrix", check_unitary(self.matrix))


@lru_cache(maxsize=None)
def _spin_values(num_sites: int) -> np.ndarray:
    """(L, 2^L) array of sigma^z values (-1)^bit per site, site 1 first."""
    idx = np.arange(2 ** num_sites)
    rows = [1 - 2 * ((idx >> (num_sites - s)) & 1) for s in range(1, num_sites + 1)]
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def _period_program(spec: FloquetSpec) -> tuple[np.ndarray, ...]:
    """One period as layers, in the order they act.

    A 2x2 layer is applied at every site; a 2^L layer is a diagonal phase
    exp(-i*KICK_ANGLE*E) that multiplies the amplitudes, with E the Ising
    energy sum over ``spec.bonds()`` and/or the field sum(s_i) of the
    current basis (z, or x between two Hadamard layers).
    """
    s = _spin_values(spec.num_sites)
    ising = sum(s[i - 1] * s[j - 1] for i, j in spec.bonds())
    field = s.sum(axis=0)

    def phase(energy: np.ndarray) -> np.ndarray:
        table = np.exp(-1j * KICK_ANGLE * energy)
        table.setflags(write=False)
        return table

    if spec.model is Model.U0:
        # z kick first (diagonal in the z basis), then the Ising phase in x.
        return (phase(field), _HADAMARD, phase(ising), _HADAMARD)
    if spec.factorization is Factorization.COMBINED:
        # y kick first, then one combined Ising+field phase in the x basis.
        kick = pauli_rotation("y", KICK_ANGLE)
        return (kick, _HADAMARD, phase(ising + field), _HADAMARD)
    # Split form: x rotation, then z kick, then the bare Ising phase.
    kick = pauli_rotation("x", KICK_ANGLE)
    return (kick, phase(field), _HADAMARD, phase(ising), _HADAMARD)


def _one_period(spec: FloquetSpec, amps: np.ndarray) -> np.ndarray:
    """Advance a (2^L,) or (2^L, batch) amplitude array by one period."""
    L = spec.num_sites
    for layer in _period_program(spec):
        if layer.ndim == 1:
            amps = amps * (layer if amps.ndim == 1 else layer[:, None])
        else:
            for site in range(1, L + 1):
                amps = apply_matrix_at_site(amps, L, site, layer)
    return amps


def apply_floquet(spec: FloquetSpec, state: StateVector, n: int) -> StateVector:
    """State after n Floquet periods."""
    if spec.num_sites != state.num_sites:
        raise ValueError(
            f"spec is for {spec.num_sites} sites but state has {state.num_sites}"
        )
    if n < 0:
        raise ValueError(f"period count must be nonnegative, got {n}")
    amps = state.amplitudes
    for _ in range(n):
        amps = _one_period(spec, amps)
    return StateVector(state.num_sites, amps)


def build_dense(
    spec: FloquetSpec, chunk: int = 512, sector: Sector | None = None
) -> UnitaryMatrix:
    """Dense matrix whose column j is one period applied to basis state j.

    With ``sector`` it is the block B^H U B on that sector's basis B: one
    period runs on the columns of B and the rows are gathered back onto B.
    The block holds all of U B only if U leaves the sector invariant, so
    the leaked weight ||U B||_F^2 - ||B^H U B||_F^2 must vanish.
    """
    L = spec.num_sites
    if L > DENSE_MAX_SITES:
        raise ValueError(
            f"dense construction is capped at {DENSE_MAX_SITES} sites, got {L}"
        )
    basis = symmetry_sectors(L, ())[0] if sector is None else sector
    if basis.num_sites != L:
        raise ValueError(f"sector is for {basis.num_sites} sites but spec has {L}")
    d = basis.dim
    out = np.empty((d, d), dtype=complex)
    leak = 0.0
    for start in range(0, d, chunk):
        stop = min(start + chunk, d)
        image = _one_period(spec, basis.columns(start, stop))
        if sector is None:
            out[:, start:stop] = image
            continue
        block = sector.project(image)
        out[:, start:stop] = block
        leak += np.vdot(image, image).real - np.vdot(block, block).real
    if leak > LEAK_TOLERANCE:
        raise ValueError(
            f"sector {sector.label} is not invariant under {spec.model.value}: "
            f"leaked weight {leak:.3e}"
        )
    return UnitaryMatrix(L, out, sector)


@dataclass(frozen=True)
class FactorizationCheck:
    """Distance between the two U_x factorizations, minimized over a phase."""

    deviation: float
    phase: complex


def check_factorization_equivalence(
    num_sites: int, boundary: Boundary = Boundary.OPEN, allow_phase: bool = True
) -> FactorizationCheck:
    """Frobenius distance between the combined and split forms of U_x.

    With ``allow_phase`` the distance is minimized over a global phase
    e^{i*phi} on the split form and the optimal phase is reported;
    otherwise the raw distance with phase 1 is returned.
    """
    if num_sites > EQUIVALENCE_MAX_SITES:
        raise ValueError(
            f"equivalence check is capped at {EQUIVALENCE_MAX_SITES} sites, got {num_sites}"
        )
    u1 = build_dense(FloquetSpec(Model.UX, num_sites, boundary, Factorization.COMBINED))
    u3 = build_dense(FloquetSpec(Model.UX, num_sites, boundary, Factorization.SPLIT))
    phase = complex(1.0)
    if allow_phase:
        overlap = complex(np.trace(u3.matrix.conj().T @ u1.matrix))
        if abs(overlap) > 1e-12:
            phase = overlap / abs(overlap)
    dev = float(np.linalg.norm(u1.matrix - phase * u3.matrix))
    return FactorizationCheck(deviation=dev, phase=phase)
