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
Every layer is a Clifford gate, and at the kick angle pi/4 each period
reduces to diagonal phases separated by Hadamard layers H = H_1 (x) ...
(x) H_L (Dehaene & De Moor, PRA 68, 042318 (2003)). ``_block_program``
derives this Walsh-Hadamard normal form: a rotation about z is the field
phase, about x the field phase between two Hadamards, and about y the
parity phase (-1)^#down followed by a Hadamard, since
exp(-i*pi/4*s^y) = H Z. Adjacent Hadamards cancel and adjacent phases
add, so U_0 = H D_I H D_F (two tables, two Hadamards) and
U_x = H D Z^(x)L with Z^(x)L folded into D (one table, one Hadamard).
States run through the program matrix-free: a Hadamard layer runs as one
product per block of up to four sites with its Kronecker power, so one
period costs O(L * 2^L).

``build_dense`` needs no period run at all. Writing |a & b| for the
number of sites where both a and b have bit 1, with m Hadamards:

* m = 1, U = D_1 H D_0:     U[a, b] = D_1(a) 2^(-L/2) (-1)^|a & b| D_0(b)
* m = 2, U = D_2 H D_1 H D_0: U[a, b] = D_2(a) c(a XOR b) D_0(b)

with c = H D_1 H e_0, one period's middle run once on the basis state 0.
A sector block B^H U B is then gathered entry by entry.

Symmetry sectors. Both operators commute with the site reflection
i <-> L+1-i (basis index j <-> its bit reversal), for either boundary.
U_0 also commutes with the Z parity prod(s^z_i), which commutes with H_xx
and H_z; U_x does not, because the parity anticommutes with s^x and s^y
and so flips the sign of H_x and H_y. ``MODEL_SYMMETRIES`` records this.
``build_dense`` builds the operator one sector block at a time
(``FloquetSpec.sectors``) as a plain array, and rejects a sector that U
does not leave invariant: as U is unitary, ||U B||_F^2 = d, so the
weight a d-dimensional block leaks is d - ||B^H U B||_F^2.

Time reversal. Both kernels are symmetric in (a, b), so a diagonal
unitary similarity turns U into a complex symmetric V with the same
spectrum; ``_symmetric_block`` gives the sector blocks of V.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import DENSE_MAX_SITES, StateVector, _as_integer, _bit_table, _kron_power

# Kick angle and, equally, the phase per unit Ising coupling. The model is
# fixed at unit interaction strength, so this one constant scales every
# exponential in both protocols.
KICK_ANGLE = np.pi / 4

# Largest weight d - ||B^H U B||_F^2 a d-dimensional sector block may leak.
# The two agree within 5e-13 at L = 12, far below any real leak (a broken
# symmetry leaks weight of order the sector dimension).
LEAK_TOLERANCE = 1e-9

# Columns per step of the dense loops: the block columns ``build_dense``
# gathers at a time, and the row slices of the finiteness and symmetry
# tests in ``spectral._block_thetas``. It bounds their (d, chunk) work
# arrays. Every entry of a block is computed on its own, so the value
# moves no bit of any block.
_BUILD_CHUNK = 64

# Most sites one 2^w x 2^w product of a Hadamard layer acts on.
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
    """``PERIOD_LAYERS`` of the spec's model in Walsh-Hadamard normal form.

    The layers, in the order they act, are phase tables separated by
    Hadamard layers (see the module docstring). A phase is summed in int8
    energies, in units of KICK_ANGLE, from the sigma^z values (-1)^bit, and
    becomes the read-only table exp(-i*KICK_ANGLE*E) that multiplies the
    2^L amplitudes. A Hadamard layer is the ``_site_powers`` of the 2x2
    Hadamard.
    """
    L = spec.num_sites
    idx = np.arange(2**L)
    spins = [1 - 2 * ((idx >> (L - s)) & 1).astype(np.int8) for s in range(1, L + 1)]
    field = sum(spins)

    def steps(layer) -> list:
        """One symbolic layer as int8 energies and "hadamard", in order."""
        if layer == "hadamard":
            return ["hadamard"]
        if layer[0] == "rotate":
            if layer[1] == "z":
                return [field]
            if layer[1] == "x":
                return ["hadamard", field, "hadamard"]
            # Z^(x)L = (-1)^#down, the energy 4 #down = 2 (L - field)
            return [2 * (L - field), "hadamard"]
        energy = np.zeros(2**L, dtype=np.int8)
        if "ising" in layer[1]:
            energy += sum(spins[i - 1] * spins[j - 1] for i, j in spec.bonds())
        if "field" in layer[1]:
            energy += field
        return [energy]

    layers: list = []
    for step in (step for layer in PERIOD_LAYERS[spec.model] for step in steps(layer)):
        same = bool(layers) and isinstance(step, str) == isinstance(layers[-1], str)
        if same and isinstance(step, str):
            layers.pop()
        elif same:
            layers[-1] = layers[-1] + step
        else:
            layers.append(step)
    hadamards = _site_powers(_HADAMARD)
    program = []
    for layer in layers:
        if isinstance(layer, str):
            program.append(hadamards)
        else:
            table = np.exp(-1j * KICK_ANGLE * layer)
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


@lru_cache(maxsize=None)
def _dense_form(spec: FloquetSpec) -> tuple:
    """(left, kernel, right, combine): U[a, b] = left[a] kernel[combine(a, b)] right[b].

    The closed forms of the module docstring, read off the spec's
    ``_block_program``; an outer phase table the program lacks is all ones.
    The tables are read-only.
    """
    L = spec.num_sites
    program = _block_program(spec)
    cuts = [k for k, layer in enumerate(program) if not isinstance(layer, np.ndarray)]
    if len(cuts) not in (1, 2):
        raise ValueError(
            f"{spec.model.value}: no closed-form dense build for a period of "
            f"{len(cuts)} Hadamard layers, only of 1 or 2"
        )
    first, last = cuts[0], cuts[-1]
    ones = np.ones(2**L, dtype=complex)
    right = program[0] if first == 1 else ones
    left = program[-1] if last == len(program) - 2 else ones
    if first == last:
        parity = _bit_table(L).sum(axis=1) & 1
        kernel, combine = (1 - 2 * parity) * 2 ** (-L / 2), np.bitwise_and
    else:
        zero = np.zeros(2**L, dtype=complex)
        zero[0] = 1
        kernel, combine = _one_period(program[first : last + 1], zero, L), np.bitwise_xor
    ones.setflags(write=False)
    kernel.setflags(write=False)
    return left, kernel, right, combine


def build_dense(spec: FloquetSpec, sector: Sector | None = None) -> np.ndarray:
    """The (d, d) block B^H U B of one period on a sector's basis B.

    Each entry is gathered from the closed form of U (``_dense_form``), a
    chunk of ``_BUILD_CHUNK`` columns at a time; without ``sector``, B is
    the trivial sector and the block is U. The block holds all of U B only
    if U leaves the sector invariant, so the leaked weight
    d - ||B^H U B||_F^2 must vanish. Bases come from ``symmetry_sectors``,
    which enforces ``DENSE_MAX_SITES``.
    """
    L = spec.num_sites
    sector = sector or symmetry_sectors(L, ())[0]
    if sector.num_sites != L:
        raise ValueError(f"sector is for {sector.num_sites} sites but spec has {L}")
    left, kernel, right, combine = _dense_form(spec)
    # Column k of B is sum_p weight[p, k] e_{index[p, k]}, so each pair of
    # terms (p, q) adds weight[p] left[index[p]] kernel[...] right[index[q]]
    # weight[q]; a term whose weights are all zero adds nothing.
    terms = [
        (index, weight * left[index], weight * right[index])
        for index, weight in zip(sector.index, sector.weight)
        if weight.any()
    ]
    d = sector.dim
    out = np.zeros((d, d), dtype=complex)
    for start in range(0, d, _BUILD_CHUNK):
        cols = slice(start, start + _BUILD_CHUNK)
        for rows, row_factor, _ in terms:
            for columns, _, column_factor in terms:
                gathered = kernel[combine(rows[:, None], columns[cols])]
                out[:, cols] += row_factor[:, None] * gathered * column_factor[cols]
    leak = d - np.vdot(out, out).real
    if leak > LEAK_TOLERANCE:
        raise ValueError(
            f"sector {sector.label} is not invariant under {spec.model.value}: "
            f"leaked weight {leak:.3e}"
        )
    return out


def _symmetric_block(spec: FloquetSpec, sector: Sector) -> np.ndarray:
    """``build_dense``'s block in time-reversal form, B^H P U P^-1 B.

    With U[a, b] = left[a] kernel[combine(a, b)] right[b] (``_dense_form``)
    and p = sqrt(left * right) / left, V = diag(p) U diag(p)^-1 has the
    entries s[a] kernel[combine(a, b)] s[b], s = sqrt(left * right), so V is
    complex symmetric. Both phase tables are mirror symmetric, so p is
    equal on each mirror pair and B^H P = diag(p[index[0]]) B^H: the block
    of V is diag(p) (B^H U B) diag(conj(p)), scaled in place, a unitary
    similarity that keeps the block's eigenvalues.
    """
    block = build_dense(spec, sector)
    left, _, right, _ = _dense_form(spec)
    j = sector.index[0]
    p = np.sqrt(left[j] * right[j]) / left[j]
    block *= p[:, None]
    block *= p.conj()
    return block
