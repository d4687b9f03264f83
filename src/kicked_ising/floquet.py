"""Floquet operators of the kicked Ising chain.

Two driving protocols are implemented. Writing E[H] for exp(-i*(pi/4)*H),
with H_xx the Ising coupling sum(sx_i sx_{i+1}) over the bond list and
H_a = sum(sa_i) the uniform fields:

* the kicked transverse-field chain  U_x = E[H_xx + H_x] . E[H_y]
* the plain kicked chain             U_0 = E[H_xx] . E[H_z]

Operator products act right to left, so each period starts with the kick.

``PERIOD_LAYERS`` states each period once, as symbolic layers in the order
they act: a y rotation or a Hadamard at every site, or a diagonal phase
(H_xx and H_x are diagonal in the x basis, H_z in the z basis). All are
Clifford gates, and at the kick angle pi/4 a period is phase tables
separated by Hadamard layers H = H_1 (x) ... (x) H_L, U = D_m H ... H D_1
H D_0 (Dehaene & De Moor, PRA 68, 042318 (2003)). ``_block_program`` folds
the layers into this normal form (D_0, ..., D_m): a phase adds to the
current table; a Hadamard starts a new table, or cancels the one before it
when no phase lies between; the y rotation is the parity phase
(-1)^#down and a Hadamard, as exp(-i*pi/4*s^y) = H Z. So U_0 = H D_I H D_F
and U_x = H D, with Z^(x)L folded into D. States run through it
matrix-free, a Hadamard layer as one product per block of up to four
sites, so one period costs O(L * 2^L).

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

Free fermions. With m_{2j-1} = (prod_{k<j} Z_k) X_j, m_{2j} = (prod_{k<j} Z_k) Y_j,
a z-basis field Z_j = -i m_{2j-1} m_{2j} and an x-basis Ising term
X_i X_{i+1} = -i m_{2i} m_{2i+1} each turn one Majorana plane by pi/2 (Lieb,
Schultz & Mattis, Ann. Phys. 16, 407 (1961)); ``_majorana_map`` composes them
into a real orthogonal 2L x 2L R from the z basis, a Hadamard toggling it.
A y rotation, an x-basis field, a z-basis Ising term, the wrap bond X_L X_1 =
-P (-i m_{2L} m_1) (P the Z parity) or a period ending in x leaves no R.

Time reversal. Both kernels are symmetric in (a, b), so a diagonal
unitary similarity turns U into a complex symmetric V with the same
spectrum; ``_symmetric_block`` gives the sector blocks of V.
"""

from __future__ import annotations

__all__ = [
    "KICK_ANGLE", "MODEL_SYMMETRIES", "Boundary", "FloquetSpec", "Model", "Sector",
    "Symmetry", "apply_floquet", "build_dense", "symmetry_sectors",
]

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
# H (x) ... (x) H with w factors at index w, w = 0.._BLOCK_SITES: the
# products one Hadamard layer runs as.
_HADAMARD_POWERS = tuple(
    _kron_power(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), w)
    for w in range(_BLOCK_SITES + 1)
)


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
# ("rotate", "y") is exp(-i*KICK_ANGLE*s^y) at every site; "hadamard" changes
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
        object.__setattr__(self, "num_sites", _as_integer("num_sites", self.num_sites, 2))

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


# typed: 2.0 and True must not hit the entries of 2 and 1 before the checks
@lru_cache(maxsize=None, typed=True)
def symmetry_sectors(
    num_sites: int, symmetries: tuple[Symmetry, ...]
) -> tuple[Sector, ...]:
    """Nonempty sectors of the given symmetries; their dimensions sum to 2^L.

    Every dense build starts here, so the dense size cap is checked here,
    after the arguments and before any 2^L table is built or cached.
    """
    num_sites = _as_integer("num_sites", num_sites, 1)
    if not all(isinstance(sym, Symmetry) for sym in symmetries):
        raise ValueError(f"symmetries: must be Symmetry members, got {symmetries!r}")
    _as_integer("num_sites", num_sites, 1, DENSE_MAX_SITES)
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


@lru_cache(maxsize=None)
def _block_program(spec: FloquetSpec) -> tuple:
    """``PERIOD_LAYERS`` of the spec's model in Walsh-Hadamard normal form:
    the read-only phase tables (D_0, ..., D_m) of U = D_m H ... H D_1 H D_0,
    None for an identity table (see the module docstring). Energies are
    summed in int8, in units of KICK_ANGLE, from the sigma^z values (-1)^bit,
    before one exp. A layer with no rule here raises ``ValueError``.
    """
    bits = _bit_table(spec.num_sites).astype(np.int8)
    spins = 1 - 2 * bits.T
    terms = {
        "ising": sum(spins[i - 1] * spins[j - 1] for i, j in spec.bonds()),
        "field": spins.sum(axis=0, dtype=np.int8),
    }
    steps: list = []  # energies, and None for a Hadamard
    for layer in PERIOD_LAYERS[spec.model]:
        match layer:
            case "hadamard":
                steps.append(None)
            case ("rotate", "y"):  # exp(-i*pi/4*s^y) = H Z, Z^(x)L = (-1)^#down
                steps += [4 * bits.sum(axis=1, dtype=np.int8), None]
            case ("phase", names) if set(names) <= terms.keys():
                steps += [terms[name] for name in names]
            case _:
                raise ValueError(f"{spec.model.value}: unsupported layer {layer!r}")
    energies: list = [None]
    for step in steps:
        if step is not None:
            energies[-1] = step if energies[-1] is None else energies[-1] + step
        elif energies[-1] is None and len(energies) > 1:
            energies.pop()  # H H = I
        else:
            energies.append(None)
    tables = tuple(None if e is None else np.exp(-1j * KICK_ANGLE * e) for e in energies)
    for table in (t for t in tables if t is not None):
        table.setflags(write=False)
    return tables


def _majorana_map(spec: FloquetSpec) -> np.ndarray | None:
    """One period's map R on the Majoranas, row k for m_{k+1}, or None (see the module
    docstring). Each term turns its disjoint planes (a, b) at once: m_a to -m_b, m_b to m_a."""
    firsts = {("field", "z"): np.arange(0, 2 * spec.num_sites, 2)}  # plane (a, a + 1)
    if all(j == i + 1 for i, j in spec.bonds()):  # no wrap bond
        firsts["ising", "x"] = np.arange(1, 2 * spec.num_sites - 1, 2)
    rot, basis = np.eye(2 * spec.num_sites), "z"
    for layer in PERIOD_LAYERS[spec.model]:
        match layer:
            case "hadamard":
                basis = "x" if basis == "z" else "z"
            case ("phase", names) if all((name, basis) in firsts for name in names):
                for a in (firsts[name, basis] for name in names):
                    rot[np.r_[a, a + 1]] = np.r_[-rot[a + 1], rot[a]]
            case _:
                return None
    return rot if basis == "z" else None


def _one_period(program: tuple, amps: np.ndarray, num_sites: int) -> np.ndarray:
    """Advance a (2^L,) or (2^L, batch) amplitude array through a
    ``_block_program``, with a Hadamard layer between each two tables."""
    shape = amps.shape
    for k, table in enumerate(program):
        for start in range(0, num_sites, _BLOCK_SITES) if k else ():
            power = _HADAMARD_POWERS[min(_BLOCK_SITES, num_sites - start)]
            amps = (power @ amps.reshape(2**start, len(power), -1)).reshape(shape)
        if table is not None:
            amps = amps * (table if amps.ndim == 1 else table[:, None])
    return amps


def apply_floquet(spec: FloquetSpec, state: StateVector, n: int) -> StateVector:
    """State after n Floquet periods."""
    if spec.num_sites != state.num_sites:
        raise ValueError(
            f"spec is for {spec.num_sites} sites but state has {state.num_sites}"
        )
    n = _as_integer("n", n, 0)
    amps, program = state.amplitudes, _block_program(spec)
    for _ in range(n):
        amps = _one_period(program, amps, spec.num_sites)
    return StateVector(state.num_sites, amps)


@lru_cache(maxsize=None)
def _dense_form(spec: FloquetSpec) -> tuple:
    """(left, kernel, right, combine): U[a, b] = left[a] kernel[combine(a, b)] right[b].

    The closed forms of the module docstring, read off the spec's
    ``_block_program``; an identity (None) outer table is all ones.
    The tables are read-only.
    """
    L = spec.num_sites
    program = _block_program(spec)
    m = len(program) - 1
    if m not in (1, 2):
        raise ValueError(
            f"{spec.model.value}: no closed-form dense build for a period of "
            f"{m} Hadamard layers, only of 1 or 2"
        )
    ones = np.ones(2**L, dtype=complex)
    right, left = (ones if t is None else t for t in (program[0], program[-1]))
    if m == 1:
        parity = _bit_table(L).sum(axis=1) & 1
        kernel, combine = (1 - 2 * parity) * 2 ** (-L / 2), np.bitwise_and
    else:
        zero = np.zeros(2**L, dtype=complex)
        zero[0] = 1
        kernel, combine = _one_period((None, program[1], None), zero, L), np.bitwise_xor
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
