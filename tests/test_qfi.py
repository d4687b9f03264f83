import hashlib

import numpy as np
import pytest

from kicked_ising import qfi
from kicked_ising.core import Axis, StateVector, make_ghz, make_polarized_state, make_psi_o
from kicked_ising.floquet import Boundary, FloquetSpec, Model, apply_floquet
from kicked_ising.qfi import (
    CovarianceMatrix,
    DirectionField,
    _certify,
    covariance_matrix,
    maximize_qfi,
    producibility_bound,
)

from oracles import gamma_oracle, grid_max_qfi, random_state, site_operator

PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def uniform_field(num_sites, direction):
    return DirectionField(np.tile(np.asarray(direction, dtype=float), (num_sites, 1)))


def qfi_along(state, dirs):
    """F_Q = n^T Gamma n for the direction field ``dirs``."""
    n = dirs.n_hats.reshape(-1)
    return float(n @ covariance_matrix(state).gamma @ n)


def depth(f_q, num_sites):
    return _certify(f_q, num_sites)[1]


class TestDirectionField:
    def test_accepts_unit_rows(self):
        field = uniform_field(3, [0, 0, 1])
        assert field.num_sites == 3
        assert field.n_hats.shape == (3, 3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DirectionField(np.array([0.0, 0.0, 1.0]))

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError):
            DirectionField(np.array([[0.0, 0.0, 1.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(Ellipsis,), (0, 2)])
    def test_rejects_non_finite_rows(self, bad, where):
        arr = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        arr[where] = bad
        with pytest.raises(ValueError, match="^direction norms deviate from 1"):
            DirectionField(arr)


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

    def test_matches_the_dense_oracle_entry_by_entry(self):
        rng = np.random.default_rng(33)
        states = [StateVector(L, random_state(rng, L)) for L in range(1, 7)]
        start = make_polarized_state(5, Axis.parse("y+"))
        for model in Model:
            for boundary in Boundary:
                spec = FloquetSpec(model, 5, boundary)
                states += [apply_floquet(spec, start, n) for n in (1, 2, 3)]
        for state in states:
            L, amps = state.num_sites, state.amplitudes
            cov = covariance_matrix(state)
            means = [
                np.vdot(amps, site_operator(PAULIS[letter], site, L) @ amps).real
                for site in range(1, L + 1)
                for letter in "xyz"
            ]
            assert np.abs(cov.means - means).max() < 1e-12
            assert np.abs(cov.gamma - gamma_oracle(amps, L)).max() < 1e-12

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

    # inf - inf would warn before the rejection
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (0, 0), (Ellipsis,)])
    def test_construction_rejects_non_finite_entries(self, bad, where):
        good = covariance_matrix(make_ghz(2, Axis.parse("z")))
        gamma = good.gamma.copy()
        gamma[where] = bad
        with pytest.raises(ValueError, match="^covariance matrix is not symmetric$"):
            CovarianceMatrix(gamma=gamma, means=good.means)

    def test_construction_validates_diagonal_blocks(self):
        good = covariance_matrix(make_ghz(2, Axis.parse("z")))
        bad = good.gamma.copy()
        bad[0, 0] += 1e-6
        with pytest.raises(ValueError):
            CovarianceMatrix(gamma=bad, means=good.means)


class TestQfiForDirection:
    def test_product_state_transverse(self):
        state = make_polarized_state(5, Axis.parse("z+"))
        assert qfi_along(state, uniform_field(5, [1, 0, 0])) == pytest.approx(
            5.0, abs=1e-10
        )

    def test_ghz_longitudinal(self):
        state = make_ghz(4, Axis.parse("z"))
        assert qfi_along(state, uniform_field(4, [0, 0, 1])) == pytest.approx(
            16.0, abs=1e-10
        )
        assert qfi_along(
            make_ghz(2, Axis.parse("z")), uniform_field(2, [0, 0, 1])
        ) == pytest.approx(4.0, abs=1e-10)

    def test_ghz_pair_longitudinal(self):
        state = make_psi_o(4)
        assert qfi_along(state, uniform_field(4, [0, 0, 1])) == pytest.approx(
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
            got = qfi_along(
                StateVector(num_sites, psi), DirectionField(dirs)
            )
            assert got == pytest.approx(direct, abs=1e-10)


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

    # unchecked, 2.5 gave kappa = 8.5 and True the kappa of k = 1
    @pytest.mark.parametrize("k", [2.5, True], ids=repr)
    def test_partition_bound_rejects_a_non_integer_k(self, k):
        with pytest.raises(ValueError, match=f"^k: must be an integer, got {k!r}$"):
            producibility_bound(4, k)

    def test_depth_from_qfi(self):
        assert depth(100.0, 10) == 10
        assert depth(16.0, 4) == 4
        assert depth(10.0, 10) == 1
        assert depth(20.0, 10) == 2
        assert depth(12.0, 10) == 2

    def test_depth_equality_does_not_violate(self):
        assert depth(10.0 + 1e-9, 10) == 1
        assert depth(10.0 + 1e-6, 10) == 2

    def test_depth_rejects_negative(self):
        with pytest.raises(ValueError):
            _certify(-1.0, 4)


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
        result = maximize_qfi(state)
        assert qfi_along(state, result.direction) == pytest.approx(
            result.f_q, abs=1e-9
        )

    def test_never_exceeds_heisenberg(self):
        rng = np.random.default_rng(34)
        for num_sites in (2, 3, 4):
            psi = StateVector(num_sites, random_state(rng, num_sites))
            result = maximize_qfi(psi)
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
            result = maximize_qfi(StateVector(num_sites, psi))
            grid = grid_max_qfi(psi, num_sites)
            assert result.f_q == pytest.approx(grid, abs=1e-3)

    def test_history_is_monotone(self, monkeypatch):
        # one restart, so the winner is always the same ascent; rerunning under
        # each sweep cap reads its objective after every sweep
        state = StateVector(4, random_state(np.random.default_rng(20), 4))
        monkeypatch.setattr(qfi, "DEFAULT_RESTARTS", 1)
        full = maximize_qfi(state)
        assert full.converged and full.sweeps > 2
        history = []
        for cap in range(1, full.sweeps + 1):
            monkeypatch.setattr(qfi, "DEFAULT_MAX_ITER", cap)
            history.append(maximize_qfi(state).f_q)
        assert (np.diff(history) > -1e-9).all()
        assert history[-1] == full.f_q

    def test_counts_its_sweeps(self, monkeypatch):
        rng = np.random.default_rng(37)
        state = StateVector(4, random_state(rng, 4))
        full = maximize_qfi(state)
        assert full.converged and full.sweeps > 2
        monkeypatch.setattr(qfi, "DEFAULT_MAX_ITER", full.sweeps - 1)
        assert maximize_qfi(state).sweeps == full.sweeps - 1

    def test_decomposes_gamma_once(self, monkeypatch):
        # the PSD check's eigendecomposition also gives the top-eigenvector start
        rng = np.random.default_rng(38)
        state = StateVector(4, random_state(rng, 4))
        calls = []
        real_eigh = np.linalg.eigh

        def counted_eigh(a):
            calls.append(a.shape)
            return real_eigh(a)

        def no_eigvalsh(_):
            raise AssertionError("Gamma decomposed a second time")

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        maximize_qfi(state)
        assert calls == [(12, 12)]

    def test_ghz_build_up_is_pinned(self):
        # f_q, depth, convergence and the winning direction's bytes for the
        # U0 L=8 build-up from y+ at seed 0, as computed by the simultaneous
        # power step; any change to the step's arithmetic shows up here
        expected = [
            ("7.9999999999999982", 1, "ef3b3c1993a66749d82f77eddb3d2f3a2c4f3b18a61993c52dfbac96c4b04dd6"),
            ("7.9999999999999787", 1, "22189dcb972d0b71a0b459f9841aada4f07d891db3edb6cf60fd830565cb3239"),
            ("11.999999999999917", 2, "8fc9708fdd2427ca1c1fe307d9a785fc9b3b9d5d3232e5ed678661c8b7f51c4a"),
            ("7.9999999999999067", 1, "ac0f926f61e268053dbc5b2e69936b1b57b991bd8bc5075a5c67b3f0f16d2567"),
            ("7.999999999999897", 1, "4294a2b0a026ecc82da4d67f4ce892cdd05f19d83e14d488541fe54688465d8c"),
            ("7.9999999999998863", 1, "8807a0612be46f5ee0139e377a8b3ea9c196daa07099f02afd8898c5bd60489d"),
            ("11.999999999999783", 2, "94589e3fc155ae0fb37f5e321dcc44727702a6cb6cc6b7a1ab3134a2f9c6a564"),
            ("7.9999999999998401", 1, "ea4907f9b0b6576c667888135ca375980ddc48d831591742df6ad53ee9f71657"),
            ("63.999999999998288", 8, "eba0c3d69ce6d42e6699bbede2911afd12f32f9672fc5deb83a032ee4f08ced3"),
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
