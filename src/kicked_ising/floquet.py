"""Floquet operators of the kicked Ising chain.

Two driving protocols are implemented. Writing E[H] for exp(-i*(pi/4)*H),
with H_xx the Ising coupling sum(sx_i sx_{i+1}) over the bond list and
H_a = sum(sa_i) the uniform fields:

* the kicked transverse-field chain  U_x = E[H_xx + H_x] . E[H_y]
* the plain kicked chain             U_0 = E[H_xx] . E[H_z]

Operator products act right to left, so each period starts with the kick.

``PERIOD_LAYERS`` states each period once, as symbolic layers in the order
they act: a Pauli rotation or a Hadamard at every site, or a diagonal
phase (H_xx and H_x are diagonal in the x basis, H_z in the z basis).
Every layer is a Clifford gate. ``_block_program`` turns the symbols into
numbers, and everything runs matrix-free: a 2x2 layer M runs as one
product per block of up to four sites with its Kronecker power M (x) ...
(x) M, so one period costs O(L * 2^L). The same loop runs the program on
state vectors and on the basis columns of ``build_dense``.

Symmetry sectors. Both operators commute with the site reflection
i <-> L+1-i (basis index j <-> its bit reversal), for either boundary.
U_0 also commutes with the Z parity prod(s^z_i), which commutes with H_xx
and H_z; U_x does not, because the parity anticommutes with s^x and s^y
and so flips the sign of H_x and H_y. ``MODEL_SYMMETRIES`` records this.
``build_dense`` builds the operator one sector block at a time
(``FloquetSpec.sectors``) as a plain array, and rejects a sector that U
does not leave invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    DENSE_MAX_SITES,
    StateVector,
    _as_integer,
    _bit_table,
    _kron_power,
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

# Columns per step of the two dense loops: the basis columns ``build_dense``
# advances through one period at a time, and the Gram slices of
# ``spectral._block_thetas``. It bounds their (2^L, chunk) and (d, chunk)
# work arrays. A multiple of the BLAS column tile gives bit-identical
# blocks at any value; sizes such as 1 or 7 move the last bits.
_BUILD_CHUNK = 64

# Most sites one 2^w x 2^w product of a rotation layer acts on.
_BLOCK_SITES = 4

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


# Symmetries each period operator commutes with, for either boundary (see
# the module docstring for why U_x has no Z parity).
MODEL_SYMMETRIES = {
    Model.U0: (Symmetry.REFLECTION, Symmetry.Z_PARITY),
    Model.UX: (Symmetry.REFLECTION,),
}

# One period of each model, layer by layer in the order the layers act.
# ("rotate", a) is exp(-i*KICK_ANGLE*s^a) at every site; "hadamard" changes
# between the z and x bases; ("phase", terms) is the diagonal
# exp(-i*KICK_ANGLE*E), with E summing the Ising bonds of ``spec.bonds()``
# ("ising") and/or the uniform field ("field") of the current basis.
PERIOD_LAYERS = {
    # z kick first, then the Ising phase in the x basis
    Model.U0: (("phase", ("field",)), "hadamard", ("phase", ("ising",)), "hadamard"),
    # y kick first, then one combined Ising+field phase in the x basis
    Model.UX: (("rotate", "y"), "hadamard", ("phase", ("ising", "field")), "hadamard"),
}


class Boundary(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class FloquetSpec:
    """Immutable description of one Floquet operator."""

    model: Model
    num_sites: int
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self) -> None:
        # Members are tested by identity downstream, so a bare string such
        # as "U0" would silently run another model or drop a bond.
        for name, kind in (("model", Model), ("boundary", Boundary)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name}: must be a {kind.__name__}, got {value!r}")
        object.__setattr__(self, "num_sites", _as_integer("num_sites", self.num_sites))
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
    """Nonempty sectors of the given symmetries; their dimensions sum to 2^L.

    Every dense build starts here, so the dense size cap is checked here,
    before any 2^L table is built or cached.
    """
    if num_sites > DENSE_MAX_SITES:
        raise ValueError(
            f"dense construction is capped at {DENSE_MAX_SITES} sites, got {num_sites}"
        )
    bits = _bit_table(num_sites)
    idx = np.arange(2 ** num_sites)
    reflect = Symmetry.REFLECTION in symmetries
    # Bit reversal: the bit of site s moves to the place of site L+1-s.
    mirror = bits @ (1 << np.arange(num_sites)) if reflect else idx
    parity = 1 - 2 * (bits.sum(axis=1) & 1)
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


def _site_powers(matrix: np.ndarray) -> tuple[np.ndarray, ...]:
    """M (x) ... (x) M with w factors at index w, w = 0.._BLOCK_SITES, of a 2x2 M."""
    return tuple(_kron_power(matrix, w) for w in range(_BLOCK_SITES + 1))


@lru_cache(maxsize=None)
def _block_program(spec: FloquetSpec) -> tuple:
    """``PERIOD_LAYERS`` of the spec's model as numbers, in the order they act.

    A rotation or Hadamard layer is the ``_site_powers`` of its 2x2 matrix.
    A phase layer is the read-only table exp(-i*KICK_ANGLE*E) that multiplies
    the 2^L amplitudes, with E summed in int8 from the sigma^z values (-1)^bit.
    """
    L = spec.num_sites
    idx = np.arange(2**L)
    spins = [1 - 2 * ((idx >> (L - s)) & 1).astype(np.int8) for s in range(1, L + 1)]
    program = []
    for layer in PERIOD_LAYERS[spec.model]:
        if layer == "hadamard":
            program.append(_site_powers(_HADAMARD))
        elif layer[0] == "rotate":
            program.append(_site_powers(pauli_rotation(layer[1], KICK_ANGLE)))
        else:
            energy = np.zeros(2**L, dtype=np.int8)
            if "ising" in layer[1]:
                energy += sum(spins[i - 1] * spins[j - 1] for i, j in spec.bonds())
            if "field" in layer[1]:
                energy += sum(spins)
            table = np.exp(-1j * KICK_ANGLE * energy)
            table.setflags(write=False)
            program.append(table)
    return tuple(program)


def _one_period(program: tuple, amps: np.ndarray, num_sites: int) -> np.ndarray:
    """Advance a (2^L,) or (2^L, batch) amplitude array through a ``_block_program``."""
    shape = amps.shape
    for layer in program:
        if isinstance(layer, np.ndarray):
            amps = amps * (layer if amps.ndim == 1 else layer[:, None])
            continue
        for start in range(0, num_sites, _BLOCK_SITES):
            power = layer[min(_BLOCK_SITES, num_sites - start)]
            amps = (power @ amps.reshape(2**start, len(power), -1)).reshape(shape)
    return amps


def apply_floquet(spec: FloquetSpec, state: StateVector, n: int) -> StateVector:
    """State after n Floquet periods."""
    if spec.num_sites != state.num_sites:
        raise ValueError(
            f"spec is for {spec.num_sites} sites but state has {state.num_sites}"
        )
    n = _as_integer("n", n)
    if n < 0:
        raise ValueError(f"period count must be nonnegative, got {n}")
    amps, program = state.amplitudes, _block_program(spec)
    for _ in range(n):
        amps = _one_period(program, amps, spec.num_sites)
    return StateVector(state.num_sites, amps)


def build_dense(spec: FloquetSpec, sector: Sector | None = None) -> np.ndarray:
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
        image = _one_period(_block_program(spec), sector.columns(start, stop), L)
        block = sector.project(image)
        out[:, start:stop] = block
        leak += np.vdot(image, image).real - np.vdot(block, block).real
    if leak > LEAK_TOLERANCE:
        raise ValueError(
            f"sector {sector.label} is not invariant under {spec.model.value}: "
            f"leaked weight {leak:.3e}"
        )
    return out
