import itertools
import re

import numpy as np
import pytest
import scipy.linalg

from kicked_ising import floquet
from kicked_ising.core import Axis, StateVector, fidelity, make_ghz, make_polarized_state
from kicked_ising.floquet import (
    Boundary,
    DENSE_MAX_SITES,
    FloquetSpec,
    KICK_ANGLE,
    MODEL_SYMMETRIES,
    Model,
    Symmetry,
    _block_program,
    apply_floquet,
    build_dense,
)
from kicked_ising.spectral import quasi_energies

from oracles import (
    HADAMARD,
    PAULI_X,
    conjugate_through_period,
    dense_floquet_oracle,
    matrix_free_build_oracle,
    pauli,
    pauli_dense,
    random_state,
    site_operator,
    split_floquet_oracle,
)


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

    # members are compared by identity, so unchecked, "U0" would run the Ux
    # program and "closed" would drop the bond (L, 1)
    @pytest.mark.parametrize(
        "name, value",
        [("model", "U0"), ("boundary", "closed")],
    )
    def test_rejects_plain_strings(self, name, value):
        kwargs = {"model": Model.U0, "num_sites": 4, name: value}
        with pytest.raises(ValueError, match=f"^{name}: "):
            FloquetSpec(**kwargs)

    def test_rejects_non_integer_sites(self):
        # unchecked, a float fails only later, in bonds(), and "4" in the
        # size comparison
        for value in (4.5, 4.0, "4", True):
            message = f"^num_sites: must be an integer, got {value!r}$"
            with pytest.raises(ValueError, match=message):
                FloquetSpec(Model.U0, value)
        assert FloquetSpec(Model.U0, np.int64(4)) == FloquetSpec(Model.U0, 4)


class TestUnitaryMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            quasi_energies([np.array([[1.0, 0.0], [0.0, 1.1]])])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="square"):
            quasi_energies([np.ones((2, 3))])

    def test_sector_block_has_the_sector_dimension(self):
        spec = FloquetSpec(Model.U0, 3)
        sector = spec.sectors()[0]
        assert build_dense(spec, sector).shape == (sector.dim, sector.dim)
        with pytest.raises(ValueError, match="sector is for 3 sites"):
            build_dense(FloquetSpec(Model.U0, 4), sector)


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

    @pytest.mark.parametrize("num_sites", [2, 3, 4, 5])
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    def test_dense_build_matches_expm(self, num_sites, model):
        spec = FloquetSpec(model, num_sites)
        got = build_dense(spec)
        assert np.abs(got - dense_floquet_oracle(spec)).max() < 1e-12


class TestPeriodProgram:
    SPECS = [
        FloquetSpec(model, num_sites, boundary)
        for model in (Model.U0, Model.UX)
        for boundary in (Boundary.OPEN, Boundary.CLOSED)
        for num_sites in range(2, 7)
    ]

    @pytest.mark.parametrize(
        "spec", SPECS, ids=lambda s: f"{s.model.value}-{s.boundary.value}-{s.num_sites}"
    )
    def test_layers_multiply_out_to_the_oracle(self, spec):
        # the tables are diagonals (None is the identity), with H^(x)L
        # between each two
        hadamard = np.array([[1.0]])
        for _ in range(spec.num_sites):
            hadamard = np.kron(hadamard, HADAMARD)
        product = np.eye(2**spec.num_sites, dtype=complex)
        for k, table in enumerate(_block_program(spec)):
            if k:
                product = hadamard @ product
            if table is not None:
                product = np.diag(table) @ product
        assert np.abs(product - dense_floquet_oracle(spec)).max() < 1e-12

    @pytest.mark.parametrize(
        "model, tables, hadamards", [(Model.U0, 2, 2), (Model.UX, 1, 1)]
    )
    def test_normal_form_sizes(self, model, tables, hadamards):
        # U_0 = H D_I H D_F; the y kick is H Z, so U_x = H D with Z folded into D
        for spec in self.SPECS:
            if spec.model is model:
                program = _block_program(spec)
                phases = sum(table is not None for table in program)
                assert (phases, len(program) - 1) == (tables, hadamards)
                for table in program:
                    assert table is None or not table.flags.writeable

    @pytest.mark.parametrize(
        "layer",
        [
            ("rotate", "x"),  # a rotation no model uses
            ("rotate", "q"),  # no such axis
            ("phase", ("isin",)),  # a misspelt term
            ("phase", "ising"),  # letters, not term names
            ("swap", "z"),
            "hadamrd",
        ],
    )
    def test_rejects_an_unsupported_layer(self, monkeypatch, layer):
        monkeypatch.setitem(floquet.PERIOD_LAYERS, Model.UX, (layer, "hadamard"))
        spec = FloquetSpec(Model.UX, 3)
        _block_program.cache_clear()
        try:
            message = f"^Ux: unsupported layer {re.escape(repr(layer))}$"
            with pytest.raises(ValueError, match=message):
                _block_program(spec)
        finally:
            _block_program.cache_clear()

    def test_hadamard_pairs_cancel(self, monkeypatch):
        # H H = I: the phases on either side of a pair share one table, and
        # a period opening with H has the identity as D_0
        field, ising = ("phase", ("field",)), ("phase", ("ising",))
        layers = ("hadamard", field, "hadamard", "hadamard", ising, "hadamard")
        spec = FloquetSpec(Model.U0, 4, Boundary.CLOSED)
        d_field, d_ising, _ = _block_program(spec)
        monkeypatch.setitem(floquet.PERIOD_LAYERS, Model.U0, layers)
        _block_program.cache_clear()
        try:
            program = _block_program(spec)
        finally:
            _block_program.cache_clear()
        assert len(program) == 3 and program[0] is None and program[2] is None
        assert np.abs(program[1] - d_field * d_ising).max() < 1e-15


class TestClosedFormBlocks:
    # the closed-form gathers against one period run on the sector's basis
    # columns, for the whole operator and every sector block
    @pytest.mark.parametrize("num_sites", range(2, 11))
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CLOSED])
    def test_blocks_match_the_matrix_free_build(self, num_sites, model, boundary):
        spec = FloquetSpec(model, num_sites, boundary)
        for sector in (None, *spec.sectors()):
            got = build_dense(spec, sector)
            assert np.abs(got - matrix_free_build_oracle(spec, sector)).max() < 1e-13

    def test_rejects_three_hadamard_layers(self, monkeypatch):
        # no closed form is derived past two Hadamards; one period still runs
        field, ising = ("phase", ("field",)), ("phase", ("ising",))
        three = (field, "hadamard", ising, "hadamard", field, "hadamard")
        monkeypatch.setitem(floquet.PERIOD_LAYERS, Model.UX, three)
        spec = FloquetSpec(Model.UX, 3, Boundary.CLOSED)
        _block_program.cache_clear()
        floquet._dense_form.cache_clear()
        try:
            psi = make_polarized_state(3, Axis.parse("z+"))
            assert apply_floquet(spec, psi, 1).num_sites == 3
            message = (
                "^Ux: no closed-form dense build for a period of 3 Hadamard layers, "
                "only of 1 or 2$"
            )
            with pytest.raises(ValueError, match=message):
                build_dense(spec)
        finally:
            _block_program.cache_clear()
            floquet._dense_form.cache_clear()


class TestCliffordTable:
    # conjugating by the symbolic layers must match the dense oracle, which
    # never reads the table, so a wrong symbol fails here
    @pytest.mark.parametrize("num_sites", range(2, 7))
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CLOSED])
    def test_paulis_conjugate_as_the_oracle(self, num_sites, model, boundary):
        spec = FloquetSpec(model, num_sites, boundary)
        u = dense_floquet_oracle(spec)
        for letter, site in itertools.product("xz", range(1, num_sites + 1)):
            p = pauli(letter, site, num_sites)
            want = u @ pauli_dense(p) @ u.conj().T
            got = pauli_dense(conjugate_through_period(p, spec))
            assert np.abs(got - want).max() < 1e-12


class TestModelSymmetries:
    # an unlisted symmetry wastes block structure and a listed one the period
    # lacks mixes sectors, so both directions are checked
    @pytest.mark.parametrize("num_sites", range(3, 7))
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CLOSED])
    def test_listed_exactly_when_the_period_has_them(self, num_sites, model, boundary):
        spec = FloquetSpec(model, num_sites, boundary)
        listed = MODEL_SYMMETRIES[model]
        parity = (1, np.zeros(num_sites, dtype=int), np.ones(num_sites, dtype=int))
        coefficient, x, z = conjugate_through_period(parity, spec)
        keeps_parity = coefficient == 1 and not x.any() and z.all()
        assert keeps_parity == (Symmetry.Z_PARITY in listed)
        mirror = [int(f"{j:0{num_sites}b}"[::-1], 2) for j in range(2**num_sites)]
        u = build_dense(spec)
        reflects = np.abs(u[np.ix_(mirror, mirror)] - u).max() < 1e-12
        assert reflects == (Symmetry.REFLECTION in listed)


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
            dense = build_dense(spec)
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

    @pytest.mark.parametrize("n", [True, 2.5, 1.0, "1"])
    def test_apply_floquet_rejects_non_integer_periods(self, n):
        # as FloquetSpec's num_sites: True would run one period, 2.5 fail in range
        psi = make_polarized_state(4, Axis.parse("z+"))
        spec = FloquetSpec(Model.U0, 4)
        with pytest.raises(ValueError, match=f"^n: must be an integer, got {n!r}$"):
            apply_floquet(spec, psi, n)
        assert np.array_equal(
            apply_floquet(spec, psi, np.int64(2)).amplitudes,
            apply_floquet(spec, psi, 2).amplitudes,
        )

    def test_build_dense_size_cap(self):
        with pytest.raises(ValueError):
            build_dense(FloquetSpec(Model.U0, DENSE_MAX_SITES + 1))

    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CLOSED])
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    def test_chunk_size_changes_no_bit(self, monkeypatch, model, boundary):
        # Every entry of a block is gathered and summed on its own, in the
        # same order whatever the chunk, so every chunk size gives the same
        # bytes, including widths such as 1 or 7 that divide no column tile.
        for num_sites in range(2, 9):
            spec = FloquetSpec(model, num_sites, boundary)
            sectors = (None, *spec.sectors())
            built = {}
            for chunk in (1, 7, 64, 512, 4096):
                monkeypatch.setattr(floquet, "_BUILD_CHUNK", chunk)
                built[chunk] = [build_dense(spec, s) for s in sectors]
            for chunk, blocks in built.items():
                for block, ref in zip(blocks, built[4096]):
                    assert block.tobytes() == ref.tobytes(), (num_sites, chunk)


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

    @staticmethod
    def max_gap(num_sites, boundary):
        """max |U - U_split| over entries, with no phase freedom."""
        spec = FloquetSpec(Model.UX, num_sites, boundary)
        return np.abs(build_dense(spec) - split_floquet_oracle(spec)).max()

    @pytest.mark.parametrize("num_sites", [2, 3, 4, 6])
    def test_combined_and_split_agree_exactly(self, num_sites):
        assert self.max_gap(num_sites, Boundary.OPEN) < 1e-10

    def test_closed_boundary_agrees_too(self):
        assert self.max_gap(4, Boundary.CLOSED) < 1e-10


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

    @pytest.mark.parametrize("axis", ["x+", "x-", "y+", "y-", "z+", "z-"])
    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CLOSED])
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    def test_half_chain_entropy_grows_by_c_bits_a_period(self, model, boundary, axis):
        # ROADMAP item 21: across the cut between sites L//2 and L//2 + 1,
        # S(n) = c (n - n0) for n0 <= n <= n0 + (L//2) // c, with c = 1 on
        # open and 2 on closed chains; only the growth is pinned, not the
        # saturated value
        c = 1 if boundary is Boundary.OPEN else 2
        n0 = 1 if (model, axis[0]) in ((Model.U0, "y"), (Model.UX, "z")) else 0
        for num_sites in range(4, 15):
            spec, half = FloquetSpec(model, num_sites, boundary), num_sites // 2
            state = make_polarized_state(num_sites, Axis.parse(axis))
            for n in range(n0 + half // c + 1):
                if n:
                    state = apply_floquet(spec, state, 1)
                # site 1 is the most significant bit, so rows are sites 1..L//2
                weights = np.linalg.svd(
                    state.amplitudes.reshape(2**half, -1), compute_uv=False
                ) ** 2
                weights = weights[weights > 0]
                s = -np.sum(weights * np.log2(weights))
                if n >= n0:
                    assert abs(s - c * (n - n0)) <= 1e-9, (num_sites, n, s)

    @pytest.mark.parametrize("num_sites", range(4, 13))
    def test_u0_ghz_up_to_one_rotation_on_site_one(self, num_sites):
        # acceptance criterion 05's verdict: open U0 from y+ after L periods
        # is the y-GHZ state up to exp(-i pi/4 sigma^y) on site 1, and the
        # opposite rotation takes it to a state orthogonal to that target
        ghz = make_ghz(num_sites, Axis("y"))
        start = make_polarized_state(num_sites, Axis.parse("y+"))
        state = apply_floquet(FloquetSpec(Model.U0, num_sites), start, num_sites)
        assert fidelity(state, ghz) == pytest.approx(0.5, abs=1e-12)
        for sign, target in ((+1, 1.0), (-1, 0.0)):
            # exp(-i sign pi/4 sigma^y) = (I - i sign sigma^y) / sqrt(2)
            turn = np.array([[1, -sign], [sign, 1]]) / np.sqrt(2)
            turned = (turn @ state.amplitudes.reshape(2, -1)).ravel()
            assert fidelity(StateVector(num_sites, turned), ghz) == pytest.approx(
                target, abs=1e-12
            )
