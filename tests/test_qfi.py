import hashlib

import numpy as np
import pytest

from kicked_ising.core import Axis, StateVector, make_ghz, make_polarized_state, make_psi_o
from kicked_ising.floquet import FloquetSpec, Model, apply_floquet
from kicked_ising.qfi import (
    CovarianceMatrix,
    DirectionField,
    covariance_matrix,
    entanglement_depth,
    maximize_qfi,
    producibility_bound,
    qfi_for_direction,
)

from oracles import grid_max_qfi, random_state, site_operator

PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def uniform_field(num_sites, direction):
    return DirectionField(np.tile(np.asarray(direction, dtype=float), (num_sites, 1)))


class TestDirectionField:
    def test_accepts_unit_rows(self):
        field = uniform_field(3, [0, 0, 1])
        assert field.num_sites == 3
        assert field.flat().shape == (9,)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DirectionField(np.array([0.0, 0.0, 1.0]))

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError):
            DirectionField(np.array([[0.0, 0.0, 1.1]]))


class TestCovarianceMatrix:
    def test_single_site_z_plus(self):
        cov = covariance_matrix(make_polarized_state(1, Axis.parse("z+")))
        np.testing.assert_allclose(cov.gamma, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(cov.means, [0.0, 0.0, 1.0], atol=1e-12)

    def test_diagonal_blocks_on_random_states(self):
        rng = np.random.default_rng(30)
        for num_sites in (2, 4, 5):
            cov = covariance_matrix(
                StateVector(num_sites, random_state(rng, num_sites))
            )
            for i in range(num_sites):
                block = cov.gamma[3 * i : 3 * i + 3, 3 * i : 3 * i + 3]
                m = cov.means[3 * i : 3 * i + 3]
                np.testing.assert_allclose(
                    block, np.eye(3) - np.outer(m, m), atol=1e-10
                )
                assert np.trace(block) == pytest.approx(3 - m @ m, abs=1e-10)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(31)
        cov = covariance_matrix(StateVector(4, random_state(rng, 4)))
        assert np.linalg.eigvalsh(cov.gamma).min() > -1e-9

    def test_construction_validates_symmetry(self):
        good = covariance_matrix(make_ghz(2, Axis.parse("z")))
        bad = good.gamma.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(ValueError):
            CovarianceMatrix(gamma=bad, means=good.means)

    def test_construction_validates_diagonal_blocks(self):
        good = covariance_matrix(make_ghz(2, Axis.parse("z")))
        bad = good.gamma.copy()
        bad[0, 0] += 1e-6
        with pytest.raises(ValueError):
            CovarianceMatrix(gamma=bad, means=good.means)


class TestQfiForDirection:
    def test_product_state_transverse(self):
        state = make_polarized_state(5, Axis.parse("z+"))
        assert qfi_for_direction(state, uniform_field(5, [1, 0, 0])) == pytest.approx(
            5.0, abs=1e-10
        )

    def test_ghz_longitudinal(self):
        state = make_ghz(4, Axis.parse("z"))
        assert qfi_for_direction(state, uniform_field(4, [0, 0, 1])) == pytest.approx(
            16.0, abs=1e-10
        )
        assert qfi_for_direction(
            make_ghz(2, Axis.parse("z")), uniform_field(2, [0, 0, 1])
        ) == pytest.approx(4.0, abs=1e-10)

    def test_ghz_pair_longitudinal(self):
        state = make_psi_o(4)
        assert qfi_for_direction(state, uniform_field(4, [0, 0, 1])) == pytest.approx(
            8.0, abs=1e-10
        )

    def test_matches_direct_variance(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            num_sites = int(rng.integers(2, 7))
            psi = random_state(rng, num_sites)
            dirs = rng.normal(size=(num_sites, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            generator = sum(
                0.5 * dirs[i, a] * site_operator(PAULIS[letter], i + 1, num_sites)
                for i in range(num_sites)
                for a, letter in enumerate("xyz")
            )
            mean = (psi.conj() @ generator @ psi).real
            second = (psi.conj() @ generator @ generator @ psi).real
            direct = 4 * (second - mean**2)
            got = qfi_for_direction(
                StateVector(num_sites, psi), DirectionField(dirs)
            )
            assert got == pytest.approx(direct, abs=1e-10)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            qfi_for_direction(
                make_ghz(3, Axis.parse("z")), uniform_field(2, [0, 0, 1])
            )


class TestBounds:
    def test_partition_bound_values(self):
        assert producibility_bound(10, 1) == 10
        assert producibility_bound(10, 2) == 20
        assert producibility_bound(10, 3) == 28
        assert producibility_bound(10, 10) == 100
        assert producibility_bound(4, 3) == 10

    def test_partition_bound_range_errors(self):
        for bad in (0, 11):
            with pytest.raises(ValueError):
                producibility_bound(10, bad)

    def test_depth_from_qfi(self):
        assert entanglement_depth(100.0, 10) == 10
        assert entanglement_depth(16.0, 4) == 4
        assert entanglement_depth(10.0, 10) == 1
        assert entanglement_depth(20.0, 10) == 2
        assert entanglement_depth(12.0, 10) == 2

    def test_depth_equality_does_not_violate(self):
        assert entanglement_depth(10.0 + 1e-9, 10) == 1
        assert entanglement_depth(10.0 + 1e-6, 10) == 2

    def test_depth_rejects_negative(self):
        with pytest.raises(ValueError):
            entanglement_depth(-1.0, 4)


class TestMaximizeQfi:
    def test_ghz_reaches_heisenberg_limit(self):
        for num_sites in (4, 6):
            result = maximize_qfi(make_ghz(num_sites, Axis.parse("y")))
            assert result.f_q == pytest.approx(num_sites**2, abs=1e-8)
            assert result.depth == num_sites
            assert result.converged

    def test_ghz_pair_half_heisenberg(self):
        result = maximize_qfi(make_psi_o(4))
        assert result.f_q == pytest.approx(8.0, abs=1e-8)
        assert result.depth == 2

        result6 = maximize_qfi(make_psi_o(6))
        assert result6.f_q == pytest.approx(18.0, abs=1e-8)
        assert result6.depth == 3

    def test_reported_direction_achieves_the_maximum(self):
        rng = np.random.default_rng(33)
        state = StateVector(4, random_state(rng, 4))
        result = maximize_qfi(state, restarts=8)
        assert qfi_for_direction(state, result.direction) == pytest.approx(
            result.f_q, abs=1e-9
        )

    def test_never_exceeds_heisenberg(self):
        rng = np.random.default_rng(34)
        for num_sites in (2, 3, 4):
            psi = StateVector(num_sites, random_state(rng, num_sites))
            result = maximize_qfi(psi, restarts=8)
            assert result.f_q <= num_sites**2 + 1e-8

    def test_bound_table_is_consistent(self):
        result = maximize_qfi(make_ghz(4, Axis.parse("z")))
        assert [k for k, _, _ in result.bound_table] == [1, 2, 3, 4]
        assert [b for _, b, _ in result.bound_table] == [4, 8, 10, 16]
        violated = [k for k, _, flag in result.bound_table if flag]
        assert result.depth == max(violated) + 1

    def test_seed_determinism(self):
        rng = np.random.default_rng(35)
        state = StateVector(3, random_state(rng, 3))
        a = maximize_qfi(state, seed=9)
        b = maximize_qfi(state, seed=9)
        assert a.f_q == b.f_q

    def test_matches_grid_search_small(self):
        rng = np.random.default_rng(36)
        assert maximize_qfi(make_ghz(3, Axis.parse("z"))).f_q == pytest.approx(
            9.0, abs=1e-8
        )
        assert grid_max_qfi(make_ghz(3, Axis.parse("z")).amplitudes, 3) == (
            pytest.approx(9.0, abs=1e-3)
        )
        for num_sites in (2, 3):
            psi = random_state(rng, num_sites)
            result = maximize_qfi(StateVector(num_sites, psi), restarts=16)
            grid = grid_max_qfi(psi, num_sites)
            assert result.f_q == pytest.approx(grid, abs=1e-3)

    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError):
            maximize_qfi(make_ghz(2, Axis.parse("z")), restarts=0)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            maximize_qfi(make_ghz(2, Axis.parse("z")), max_iter=0)

    def test_counts_its_sweeps(self):
        rng = np.random.default_rng(37)
        state = StateVector(4, random_state(rng, 4))
        full = maximize_qfi(state, restarts=8)
        assert full.converged and full.sweeps > 2
        capped = maximize_qfi(state, restarts=8, max_iter=full.sweeps - 1)
        assert capped.sweeps == full.sweeps - 1

    def test_ghz_build_up_is_pinned(self):
        # f_q, depth, convergence and the winning direction's bytes for the
        # U0 L=8 build-up from y+ at seed 0, as computed by the simultaneous
        # power step; any change to the step's arithmetic shows up here
        expected = [
            ("7.9999999999999982", 1, "ef3b3c1993a66749d82f77eddb3d2f3a2c4f3b18a61993c52dfbac96c4b04dd6"),
            ("7.9999999999999876", 1, "848ffef6a4fd5b2c78b2c2e27680c41eea98afea8277a6bdd03594d413a1970c"),
            ("11.999999999999917", 2, "e8021f778099de6385887cfccd1fd122ddc1def14cd0fbcabfee3c4786a96a6e"),
            ("7.9999999999999112", 1, "edf68ad71365c1360a93d10d8ec58c4bed0cee7cdc28bf3679b20c004a9d007e"),
            ("7.9999999999998961", 1, "262a267239f2bed18e3eb330fbc7ee1457816d0e43038363b08b404d883b22e4"),
            ("7.9999999999998872", 1, "e19d21c84344900b1b654002a5ce7c08658c9888a5b57bfa26af219e1d27440a"),
            ("11.99999999999978", 2, "cf8d8281b264341b952ae2c8a0813f12638f88ebe5c9d02e3cfbb0777c6fda7e"),
            ("7.9999999999998392", 1, "890364ae3a6953c70b9a49e38129fa788ab07069ec0e51b58add981b4ee98479"),
            ("63.999999999998288", 8, "98e9a0309943795ea1a5db146dcced440ff7ce353fdc63bd13f762c71dbfa081"),
        ]
        spec = FloquetSpec(Model.U0, 8)
        state = make_polarized_state(8, Axis.parse("y+"))
        for n, (f_q, depth, digest) in enumerate(expected):
            if n:
                state = apply_floquet(spec, state, 1)
            result = maximize_qfi(state, seed=0)
            direction = hashlib.sha256(result.direction.n_hats.tobytes()).hexdigest()
            assert ("%.17g" % result.f_q, result.depth, result.converged, direction) == (
                f_q,
                depth,
                True,
                digest,
            ), f"n={n}"
