import itertools

import numpy as np
import pytest
import scipy.linalg

from kicked_ising.core import Axis, PAULI_X, StateVector, fidelity, make_polarized_state
from kicked_ising.floquet import (
    Boundary,
    DENSE_MAX_SITES,
    Factorization,
    FloquetSpec,
    KICK_ANGLE,
    Model,
    UnitaryMatrix,
    _period_program,
    apply_floquet,
    build_dense,
    check_factorization_equivalence,
)

from oracles import dense_floquet_oracle, random_state, site_operator


def test_kick_angle():
    assert KICK_ANGLE == np.pi / 4


class TestSpec:
    def test_bond_lists(self):
        assert FloquetSpec(Model.U0, 4).bonds() == [(1, 2), (2, 3), (3, 4)]
        assert FloquetSpec(Model.U0, 4, Boundary.CLOSED).bonds() == [
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 1),
        ]

    def test_closed_two_sites_doubles_the_bond(self):
        assert FloquetSpec(Model.UX, 2, Boundary.CLOSED).bonds() == [(1, 2), (2, 1)]

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            FloquetSpec(Model.U0, 1)


class TestUnitaryMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(1, np.array([[1.0, 0.0], [0.0, 1.1]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(2, np.eye(2))

    def test_sector_block_has_the_sector_dimension(self):
        sector = FloquetSpec(Model.U0, 3).sectors()[0]
        assert UnitaryMatrix(3, np.eye(sector.dim), sector).matrix.shape == (3, 3)
        with pytest.raises(ValueError):
            UnitaryMatrix(3, np.eye(8), sector)


class TestAgainstExponentialOracle:
    @pytest.mark.parametrize("num_sites", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CLOSED])
    def test_matrix_free_matches_expm(self, num_sites, model, boundary):
        spec = FloquetSpec(model, num_sites, boundary)
        oracle = dense_floquet_oracle(spec)
        rng = np.random.default_rng(100 + num_sites)
        for _ in range(20):
            psi = random_state(rng, num_sites)
            got = apply_floquet(spec, StateVector(num_sites, psi), 1).amplitudes
            assert np.linalg.norm(got - oracle @ psi) < 1e-11

    @pytest.mark.parametrize("num_sites", [2, 3])
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    def test_dense_build_matches_expm(self, num_sites, model):
        spec = FloquetSpec(model, num_sites)
        got = build_dense(spec).matrix
        assert np.abs(got - dense_floquet_oracle(spec)).max() < 1e-12

    def test_split_form_matches_expm_product(self):
        # the split factorization multiplies the x rotation, the z kick
        # and the Ising coupling as three separate exponentials
        for num_sites in (2, 3, 4):
            spec = FloquetSpec(Model.UX, num_sites, factorization=Factorization.SPLIT)
            hxx = sum(
                site_operator(PAULI_X, i, num_sites)
                @ site_operator(PAULI_X, j, num_sites)
                for i, j in spec.bonds()
            )
            hx = sum(
                site_operator(PAULI_X, s, num_sites) for s in range(1, num_sites + 1)
            )
            hy = sum(
                site_operator(
                    np.array([[0, -1j], [1j, 0]]), s, num_sites
                )
                for s in range(1, num_sites + 1)
            )
            def expo(h):
                return scipy.linalg.expm(-0.25j * np.pi * h)

            oracle = expo(hxx) @ expo(hx) @ expo(hy)
            assert np.abs(build_dense(spec).matrix - oracle).max() < 1e-12


class TestPeriodProgram:
    SPECS = [
        FloquetSpec(model, num_sites, boundary)
        for model in (Model.U0, Model.UX)
        for boundary in (Boundary.OPEN, Boundary.CLOSED)
        for num_sites in range(2, 7)
    ] + [
        FloquetSpec(Model.UX, num_sites, boundary, Factorization.SPLIT)
        for boundary in (Boundary.OPEN, Boundary.CLOSED)
        for num_sites in range(2, 7)
    ]

    @pytest.mark.parametrize(
        "spec", SPECS, ids=lambda s: f"{s.model.value}-{s.factorization.value}-"
        f"{s.boundary.value}-{s.num_sites}"
    )
    def test_layers_multiply_out_to_the_oracle(self, spec):
        # a 2x2 layer acts on every site, a vector layer is a diagonal phase
        product = np.eye(2**spec.num_sites, dtype=complex)
        for layer in _period_program(spec):
            if layer.ndim == 1:
                dense = np.diag(layer)
            else:
                dense = np.array([[1.0]])
                for _ in range(spec.num_sites):
                    dense = np.kron(dense, layer)
            product = dense @ product
        assert np.abs(product - dense_floquet_oracle(spec)).max() < 1e-12


class TestKernelProperties:
    def test_semigroup(self):
        spec = FloquetSpec(Model.UX, 5, Boundary.CLOSED)
        rng = np.random.default_rng(11)
        psi = StateVector(5, random_state(rng, 5))
        for a, b in [(1, 1), (2, 3), (0, 4)]:
            whole = apply_floquet(spec, psi, a + b)
            parts = apply_floquet(spec, apply_floquet(spec, psi, a), b)
            assert (
                np.linalg.norm(whole.amplitudes - parts.amplitudes) < 1e-11
            )

    def test_zero_periods_is_identity(self):
        rng = np.random.default_rng(12)
        psi = StateVector(4, random_state(rng, 4))
        out = apply_floquet(FloquetSpec(Model.U0, 4), psi, 0)
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    def test_norm_drift_over_many_periods(self):
        spec = FloquetSpec(Model.UX, 8, Boundary.CLOSED)
        rng = np.random.default_rng(13)
        psi = StateVector(8, random_state(rng, 8))
        out = apply_floquet(spec, psi, 10_000)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-8

    def test_batched_columns_match_single_states(self):
        for model in (Model.U0, Model.UX):
            spec = FloquetSpec(model, 5)
            dense = build_dense(spec).matrix
            rng = np.random.default_rng(14)
            for _ in range(5):
                psi = random_state(rng, 5)
                got = apply_floquet(spec, StateVector(5, psi), 1).amplitudes
                assert np.linalg.norm(got - dense @ psi) < 1e-12

    def test_apply_floquet_argument_errors(self):
        psi = make_polarized_state(4, Axis.parse("z+"))
        with pytest.raises(ValueError):
            apply_floquet(FloquetSpec(Model.U0, 5), psi, 1)
        with pytest.raises(ValueError):
            apply_floquet(FloquetSpec(Model.U0, 4), psi, -1)

    def test_build_dense_size_cap(self):
        with pytest.raises(ValueError):
            build_dense(FloquetSpec(Model.U0, DENSE_MAX_SITES + 1))


class TestFactorization:
    def test_ising_and_field_exponentials_commute(self):
        # sigma^x sigma^x bonds commute with the uniform sigma^x field, so
        # the combined exponential factors exactly
        for num_sites, boundary in itertools.product(
            (2, 4, 6), (Boundary.OPEN, Boundary.CLOSED)
        ):
            spec = FloquetSpec(Model.UX, num_sites, boundary)
            hxx = sum(
                site_operator(PAULI_X, i, num_sites)
                @ site_operator(PAULI_X, j, num_sites)
                for i, j in spec.bonds()
            )
            hx = sum(
                site_operator(PAULI_X, s, num_sites) for s in range(1, num_sites + 1)
            )
            combined = scipy.linalg.expm(-0.25j * np.pi * (hxx + hx))
            product = scipy.linalg.expm(-0.25j * np.pi * hxx) @ scipy.linalg.expm(
                -0.25j * np.pi * hx
            )
            assert np.abs(combined - product).max() < 1e-12

    @pytest.mark.parametrize("num_sites", [2, 3, 4, 6])
    def test_combined_and_split_agree_exactly(self, num_sites):
        report = check_factorization_equivalence(num_sites)
        assert report.deviation < 1e-10
        assert report.phase == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_agreement_holds_without_phase_freedom(self):
        report = check_factorization_equivalence(4, allow_phase=False)
        assert report.phase == 1.0
        assert report.deviation < 1e-10

    def test_closed_boundary_agrees_too(self):
        report = check_factorization_equivalence(4, Boundary.CLOSED)
        assert report.deviation < 1e-10

    def test_equivalence_check_size_cap(self):
        with pytest.raises(ValueError):
            check_factorization_equivalence(11)


class TestDynamicsPins:
    def test_u0_identity_period_forty_at_ten_sites(self):
        spec = FloquetSpec(Model.U0, 10)
        psi = make_polarized_state(10, Axis.parse("z+"))
        out = apply_floquet(spec, psi, 40)
        assert fidelity(out, psi) > 1 - 1e-8
        # the return is exact, not just projective: amplitudes match with
        # global phase +1
        assert np.linalg.norm(out.amplitudes - psi.amplitudes) < 1e-8

    def test_ux_identity_period_twentyfour_at_four_sites(self):
        spec = FloquetSpec(Model.UX, 4)
        rng = np.random.default_rng(15)
        psi = StateVector(4, random_state(rng, 4))
        out = apply_floquet(spec, psi, 24)
        assert np.linalg.norm(out.amplitudes - psi.amplitudes) < 1e-8
        # half the exact period returns every state only up to the global
        # phase -1
        half = apply_floquet(spec, psi, 12)
        assert np.linalg.norm(half.amplitudes + psi.amplitudes) < 1e-8
