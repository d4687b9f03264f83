import itertools

import numpy as np
import pytest

from kicked_ising import core
from kicked_ising.core import (
    Axis,
    DensityMatrix,
    StateVector,
    fidelity,
    make_ghz,
    make_polarized_state,
    make_psi_o,
    partial_trace,
)

from oracles import PAULI, pauli_rotation, random_state, site_operator


def reduced_by_reshape(amplitudes: np.ndarray, num_sites: int, kept) -> np.ndarray:
    """The reduced matrix on ``kept`` from psi as a tensor, kept axes first."""
    tensor = np.moveaxis(
        amplitudes.reshape((2,) * num_sites), [s - 1 for s in kept], range(len(kept))
    )
    mat = tensor.reshape(2 ** len(kept), -1)
    return mat @ mat.conj().T


class TestAxis:
    def test_parse(self):
        assert Axis.parse("z+") == Axis("z", +1)
        assert Axis.parse("Y-") == Axis("y", -1)
        assert Axis.parse("x") == Axis("x", +1)

    def test_parse_rejects_junk(self):
        for bad in ("", "q+", "z*", "xx", "+z"):
            with pytest.raises(ValueError):
                Axis.parse(bad)

    def test_str(self):
        assert str(Axis("y", -1)) == "y-"

    # True == 1 and -1.0 == -1, so the +-1 test alone stored them as given
    @pytest.mark.parametrize("sign", [True, -1.0], ids=repr)
    def test_sign_must_be_an_integer(self, sign):
        message = f"^sign: must be an integer, got {sign!r}$"
        with pytest.raises(ValueError, match=message):
            Axis("z", sign)

    def test_stores_a_numpy_sign_as_an_int(self):
        axis = Axis("z", np.int64(-1))
        assert type(axis.sign) is int and axis == Axis("z", -1)

    def test_eigenvectors(self):
        for letter in "xyz":
            for sign in (+1, -1):
                axis = Axis(letter, sign)
                v = axis.eigenvector()
                np.testing.assert_allclose(
                    PAULI[axis.letter] @ v, sign * v, atol=1e-15
                )
        np.testing.assert_allclose(
            Axis("y", +1).eigenvector(), [1 / np.sqrt(2), 1j / np.sqrt(2)]
        )


# every taker of a site count, called with the count alone
SITE_COUNT_TAKERS = {
    "StateVector": lambda n: StateVector(n, np.eye(16)[0]),
    "DensityMatrix": lambda n: DensityMatrix(n, np.eye(16) / 16),
    "make_polarized_state": lambda n: make_polarized_state(n, Axis.parse("z+")),
    "make_ghz": lambda n: make_ghz(n, Axis.parse("z")),
    "make_psi_o": make_psi_o,
}


class TestSiteCount:
    @pytest.mark.parametrize("bad", [2.0, True, "4"], ids=repr)
    @pytest.mark.parametrize(
        "make", SITE_COUNT_TAKERS.values(), ids=SITE_COUNT_TAKERS.keys()
    )
    def test_rejects_a_non_integer(self, make, bad):
        with pytest.raises(ValueError, match="num_sites"):
            make(bad)

    @pytest.mark.parametrize(
        "make", SITE_COUNT_TAKERS.values(), ids=SITE_COUNT_TAKERS.keys()
    )
    def test_stores_a_numpy_integer_as_an_int(self, make):
        made = make(np.int64(4))
        assert type(made.num_sites) is int and made.num_sites == 4


class TestStateVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3) / np.sqrt(3))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            StateVector(0, np.array([1.0]))
        with pytest.raises(ValueError):
            StateVector(15, np.zeros(2**15))

    # NaN fails every comparison, so a check written as "deviation > tol"
    # passes it
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("where", [slice(None), slice(0, 1)])
    def test_rejects_non_finite_amplitudes(self, bad, where):
        amps = np.full(4, 0.5, dtype=complex)
        amps[where] = bad
        with pytest.raises(ValueError, match="^state is not normalized"):
            StateVector(2, amps)


    @pytest.mark.parametrize("rows", [np.zeros((2, 4)), np.zeros((3, 3)), 2 * np.eye(3, 6)])
    def test_rejects_malformed_stabilizers(self, rows):
        with pytest.raises(ValueError, match="^stabilizers: expected 3 rows of 2L bits$"):
            StateVector(3, make_polarized_state(3, Axis("z")).amplitudes, rows)


class TestStabilizers:
    @pytest.mark.parametrize("axis", ["x+", "x-", "y+", "y-", "z+", "z-"])
    def test_polarized_rows_are_the_axis_at_each_site(self, axis):
        # row s is sigma^axis at site s, which fixes the state
        state = make_polarized_state(3, Axis.parse(axis))
        x, z = {"x": (1, 0), "y": (1, 1), "z": (0, 1)}[axis[0]]
        eye = np.eye(3, dtype=int)
        assert state.stabilizers.tolist() == np.hstack([x * eye, z * eye]).tolist()
        assert not state.stabilizers.flags.writeable
        for site in range(1, 4):
            fixed = site_operator(PAULI[axis[0]], site, 3) @ state.amplitudes
            assert np.allclose(fixed, int(axis[1] + "1") * state.amplitudes)

    def test_other_states_carry_none(self):
        psi = make_polarized_state(4, Axis("y"))
        for state in (make_ghz(4, Axis("x")), make_psi_o(4), StateVector(4, psi.amplitudes)):
            assert state.stabilizers is None


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermitian"),
            (np.eye(2), "trace"),
            (np.diag([1.5, -0.5]), "negative"),
        ],
    )
    def test_one_bad_matrix_in_a_stack(self, bad, message):
        stack = np.stack([np.eye(2) / 2, bad, np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match=message):
            DensityMatrix(1, stack)

    # inf - inf would warn before the rejection
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(Ellipsis,), (0, 0), (1, 0)])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_rejects_non_finite_entries(self, bad, where, stacked):
        rho = np.eye(2, dtype=complex) / 2
        rho[where] = bad
        if stacked:
            rho = np.stack([np.eye(2) / 2, rho])
        with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
            DensityMatrix(1, rho)

    def test_accepts_a_stack(self):
        stack = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
        assert DensityMatrix(1, stack).elements.shape == (2, 2, 2)


class TestConstructors:
    def test_polarized_z_plus(self):
        np.testing.assert_allclose(
            make_polarized_state(1, Axis.parse("z+")).amplitudes, [1, 0]
        )

    def test_polarized_x_plus_two_sites(self):
        np.testing.assert_allclose(
            make_polarized_state(2, Axis.parse("x+")).amplitudes, np.full(4, 0.5)
        )

    def test_polarized_y_plus(self):
        np.testing.assert_allclose(
            make_polarized_state(1, Axis.parse("y+")).amplitudes,
            [1 / np.sqrt(2), 1j / np.sqrt(2)],
        )

    def test_polarized_size_errors(self):
        with pytest.raises(ValueError):
            make_polarized_state(0, Axis.parse("z+"))
        with pytest.raises(ValueError):
            make_polarized_state(15, Axis.parse("z+"))

    def test_ghz_z(self):
        np.testing.assert_allclose(
            make_ghz(2, Axis.parse("z")).amplitudes,
            [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)],
        )
        amps3 = make_ghz(3, Axis.parse("z")).amplitudes
        expected = np.zeros(8)
        expected[[0, 7]] = 1 / np.sqrt(2)
        np.testing.assert_allclose(amps3, expected)

    def test_ghz_x_matches_sitewise_rotation(self):
        # |x+-> = exp(-i pi/4 sigma_y)|z+->, so the x GHZ is the sitewise
        # rotation of the z GHZ
        amps = make_ghz(2, Axis.parse("z")).amplitudes
        for site in (1, 2):
            amps = site_operator(pauli_rotation("y", np.pi / 4), site, 2) @ amps
        state = StateVector(2, amps)
        assert fidelity(state, make_ghz(2, Axis.parse("x"))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_ghz_size_error(self):
        with pytest.raises(ValueError):
            make_ghz(1, Axis.parse("z"))

    def test_psi_o_four_sites(self):
        amps = make_psi_o(4).amplitudes
        expected = np.zeros(16)
        expected[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
        np.testing.assert_allclose(amps, expected)

    def test_psi_o_marginals_maximally_mixed(self):
        state = make_psi_o(4)
        for site in range(1, 5):
            rho = partial_trace(state, (site,))
            np.testing.assert_allclose(rho.elements, np.eye(2) / 2, atol=1e-12)

    def test_psi_o_six_sites_support(self):
        amps = make_psi_o(6).amplitudes
        support = np.flatnonzero(np.abs(amps) > 1e-12)
        np.testing.assert_array_equal(
            support, [0b000000, 0b000111, 0b111000, 0b111111]
        )

    def test_psi_o_rejects_odd_or_small(self):
        for bad in (3, 5, 2):
            with pytest.raises(ValueError):
                make_psi_o(bad)


class TestGates:
    def test_site_rotation_x_on_zero(self):
        amps = make_polarized_state(1, Axis.parse("z+")).amplitudes
        out = site_operator(pauli_rotation("x", np.pi / 4), 1, 1) @ amps
        np.testing.assert_allclose(
            out, [1 / np.sqrt(2), -1j / np.sqrt(2)], atol=1e-15
        )

    def test_site_rotation_zero_angle(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 3)
        out = site_operator(pauli_rotation("y", 0.0), 2, 3) @ psi
        np.testing.assert_allclose(out, psi, atol=1e-15)

    def test_site_rotation_z_phase(self):
        amps = make_polarized_state(1, Axis.parse("z+")).amplitudes
        out = site_operator(pauli_rotation("z", np.pi / 4), 1, 1) @ amps
        np.testing.assert_allclose(
            out, [np.exp(-1j * np.pi / 4), 0], atol=1e-15
        )

    def test_inverse_rotation_recovers_z(self):
        # every polarized state rotates back onto z+ with one site-wise
        # inverse rotation
        inverse = {
            "x+": ("y", -np.pi / 4),
            "x-": ("y", np.pi / 4),
            "y+": ("x", np.pi / 4),
            "y-": ("x", -np.pi / 4),
            "z+": ("x", 0.0),
            "z-": ("x", np.pi / 2),
        }
        target = make_polarized_state(3, Axis.parse("z+"))
        for name, (letter, angle) in inverse.items():
            amps = make_polarized_state(3, Axis.parse(name)).amplitudes
            for site in (1, 2, 3):
                amps = site_operator(pauli_rotation(letter, angle), site, 3) @ amps
            state = StateVector(3, amps)
            assert fidelity(state, target) == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = partial_trace(bell, (1,))
        np.testing.assert_allclose(rho.elements, np.eye(2) / 2, atol=1e-14)

    def test_product_marginal_is_pure(self):
        state = make_polarized_state(3, Axis.parse("z+"))
        rho = partial_trace(state, (2,))
        np.testing.assert_allclose(rho.elements, np.diag([1.0, 0.0]), atol=1e-14)

    def test_ghz_two_site_marginal(self):
        rho = partial_trace(make_ghz(4, Axis.parse("z")), (1, 2))
        np.testing.assert_allclose(
            rho.elements, np.diag([0.5, 0, 0, 0.5]), atol=1e-14
        )

    def test_keep_all_reproduces_projector(self):
        rng = np.random.default_rng(4)
        psi = random_state(rng, 3)
        rho = partial_trace(StateVector(3, psi), (1, 2, 3))
        np.testing.assert_allclose(rho.elements, np.outer(psi, psi.conj()), atol=1e-12)

    def test_rejects_bad_subsets(self):
        state = make_polarized_state(3, Axis.parse("z+"))
        for bad in ((), (0,), (4,), (2, 2), (3, 1), [[1, 2], [2, 1]], [[1], [4]]):
            with pytest.raises(ValueError):
                partial_trace(state, bad)

    def test_stack_of_subsets(self):
        rng = np.random.default_rng(7)
        psi = StateVector(4, random_state(rng, 4))
        subsets = np.array([[1, 3], [2, 4], [1, 2]])
        stack = partial_trace(psi, subsets)
        assert stack.num_sites == 2
        assert stack.elements.shape == (3, 4, 4)
        for rho, subset in zip(stack.elements, subsets):
            np.testing.assert_allclose(
                rho, partial_trace(psi, tuple(subset)).elements, atol=1e-15
            )

    def test_gather_tables_are_read_only(self):
        psi = StateVector(4, random_state(np.random.default_rng(8), 4))
        partial_trace(psi, [[1, 3], [2, 4]])
        subsets = np.array([[1, 3], [2, 4]], dtype=np.int64)
        for table in core._gather_tables(4, subsets.shape, subsets.tobytes()):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_tables_are_keyed_by_content(self):
        # the caller's array changes in place between calls: the second
        # reduction is that of the new subsets, not a stale cache entry
        psi = StateVector(5, random_state(np.random.default_rng(9), 5))
        kept = np.array([[1, 2], [3, 5]])
        first = partial_trace(psi, kept).elements
        kept[0] = [2, 4]
        second = partial_trace(psi, kept).elements
        np.testing.assert_array_equal(first[1], second[1])
        assert not np.array_equal(first[0], second[0])
        np.testing.assert_allclose(
            second[0], reduced_by_reshape(psi.amplitudes, 5, (2, 4)), atol=1e-14
        )

    @pytest.mark.parametrize("num_sites", range(2, 11))
    def test_cached_and_uncached_reductions_are_bit_identical(self, num_sites):
        psi = StateVector(num_sites, random_state(np.random.default_rng(10), num_sites))
        # every subset of each size the program reduces (its cuts' smaller sides)
        for l in range(1, num_sites // 2 + 1):
            subsets = np.array(list(itertools.combinations(range(1, num_sites + 1), l)))
            core._gather_tables.cache_clear()
            built = partial_trace(psi, subsets)
            hits = core._gather_tables.cache_info().hits
            cached = partial_trace(psi, subsets)
            assert core._gather_tables.cache_info().hits == hits + 1
            assert cached.elements.tobytes() == built.elements.tobytes()
            assert cached.eigenvalues.tobytes() == built.eigenvalues.tobytes()

    def test_narrow_integer_subsets(self):
        # site numbers of any integer type reduce as int64 ones do; uint8
        # once shifted 1 << 9 out of range at L = 10, and an unsigned
        # difference hid a decreasing subset
        psi = StateVector(10, random_state(np.random.default_rng(11), 10))
        for dtype in (np.uint8, np.int8, np.uint16, np.int32):
            narrow = partial_trace(psi, np.array([[1, 3], [2, 10]], dtype=dtype))
            wide = partial_trace(psi, np.array([[1, 3], [2, 10]]))
            assert narrow.elements.tobytes() == wide.elements.tobytes()
            with pytest.raises(ValueError, match="strictly increasing"):
                partial_trace(psi, np.array([3, 1], dtype=dtype))

    def test_complement_entropy_symmetry(self):
        # pure-state Schmidt symmetry: both halves of any cut have the
        # same spectrum
        rng = np.random.default_rng(5)
        for num_sites in (2, 4, 6):
            psi = StateVector(num_sites, random_state(rng, num_sites))
            keep = tuple(range(1, num_sites // 2 + 1))
            rest = tuple(range(num_sites // 2 + 1, num_sites + 1))
            ev_a = np.linalg.eigvalsh(partial_trace(psi, keep).elements)
            ev_b = np.linalg.eigvalsh(partial_trace(psi, rest).elements)
            np.testing.assert_allclose(ev_a, ev_b, atol=1e-10)


class TestFidelity:
    def test_global_phase_invariance(self):
        rng = np.random.default_rng(6)
        psi = random_state(rng, 2)
        a = StateVector(2, psi)
        b = StateVector(2, np.exp(0.7j) * psi)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = make_polarized_state(1, Axis.parse("z+"))
        one = make_polarized_state(1, Axis.parse("z-"))
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-15)

    def test_half_overlap(self):
        zero = make_polarized_state(1, Axis.parse("z+"))
        plus = make_polarized_state(1, Axis.parse("x+"))
        assert fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_size_error(self):
        rng = np.random.default_rng(7)
        a = StateVector(2, random_state(rng, 2))
        b = StateVector(2, random_state(rng, 2))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)
        with pytest.raises(ValueError):
            fidelity(a, make_polarized_state(1, Axis.parse("z+")))
