import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from kicked_ising import entanglement, floquet
from kicked_ising.core import (
    Axis,
    StateVector,
    make_ghz,
    make_polarized_state,
    make_psi_o,
    partial_trace,
)
from kicked_ising.entanglement import (
    aee_report,
    average_entanglement_entropy,
    detect_bell_pairs,
    entropy,
    geometric_measure,
    min_bipartition_entropy,
)
from kicked_ising.floquet import Boundary, FloquetSpec, Model, apply_floquet

import oracles
from oracles import (
    PAULI,
    broken_pair_aee,
    broken_pair_count_mean,
    grid_max_overlap,
    max_schmidt_coefficient,
    nn_bell_product,
    random_state,
    site_operator,
)

W3 = StateVector(3, np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))


def mirror_bell_product_4() -> StateVector:
    # Bell pairs on (1,4) and (2,3)
    amps = np.zeros(16, dtype=complex)
    amps[[0b0000, 0b0110, 0b1001, 0b1111]] = 0.5
    return StateVector(4, amps)


class TestEntropy:
    def test_pure_state_is_zero(self):
        assert entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_mixture(self):
        assert entropy(np.diag([0.5, 0.0, 0.0, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_density_matrix_objects(self):
        rho = partial_trace(make_ghz(3, Axis.parse("z")), (2,))
        assert entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_density_matrix_reuses_its_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(24)
        rho = partial_trace(StateVector(6, random_state(rng, 6)), [[1, 2, 3], [2, 4, 6]])
        expected = entropy(rho.elements)

        def no_second_decomposition(_):
            raise AssertionError("entropy decomposed a DensityMatrix again")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_second_decomposition)
        assert np.array_equal(entropy(rho), expected)

    def test_rounding_negatives_are_clamped(self):
        assert entropy(np.diag([1.0, -1e-11])) == 0.0

    def test_rejects_significant_negatives(self):
        with pytest.raises(ValueError):
            entropy(np.diag([1.5, -0.5]))

    def test_complement_symmetry(self):
        rng = np.random.default_rng(20)
        for num_sites in (3, 5, 6):
            psi = StateVector(num_sites, random_state(rng, num_sites))
            for l in range(1, num_sites):
                keep = tuple(range(1, l + 1))
                rest = tuple(range(l + 1, num_sites + 1))
                s_keep = entropy(partial_trace(psi, keep))
                s_rest = entropy(partial_trace(psi, rest))
                assert abs(s_keep - s_rest) < 1e-9


def evolved_from_y(model: Model, boundary: Boundary, num_sites: int) -> StateVector:
    spec = FloquetSpec(model, num_sites, boundary)
    return apply_floquet(spec, make_polarized_state(num_sites, Axis.parse("y+")), 3)


def without_generators(state: StateVector) -> StateVector:
    """The same amplitudes with no stabilizer rows, so that every entropy
    comes from reduced states: the oracle of the stabilizer table."""
    return StateVector(state.num_sites, state.amplitudes)


AXES = ["x+", "x-", "y+", "y-", "z+", "z-"]


EVOLVED_CASES = [
    (model, boundary, num_sites)
    for model in Model
    for boundary in Boundary
    for num_sites in range(2, 11)
]


class TestStackedPath:
    @pytest.mark.parametrize("model, boundary, num_sites", EVOLVED_CASES)
    def test_stack_matches_one_subset_at_a_time(self, model, boundary, num_sites):
        state = evolved_from_y(model, boundary, num_sites)
        for l in range(1, num_sites // 2 + 1):
            subsets = list(itertools.combinations(range(1, num_sites + 1), l))
            stacked = entropy(partial_trace(state, np.array(subsets)))
            one_by_one = [entropy(partial_trace(state, s)) for s in subsets]
            np.testing.assert_allclose(stacked, one_by_one, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model, boundary, num_sites", EVOLVED_CASES)
    def test_size_and_complement_size_agree(self, model, boundary, num_sites):
        state = evolved_from_y(model, boundary, num_sites)
        for l in range(1, num_sites):
            s, _ = average_entanglement_entropy(state, l)
            s_rest, _ = average_entanglement_entropy(state, num_sites - l)
            assert abs(s - s_rest) < 1e-12

    @pytest.mark.parametrize("model", list(Model))
    def test_chunked_table_matches_one_call_per_size(self, monkeypatch, model):
        # L = 10 reduces up to 210 cuts per size, so 64-cut chunks split it
        state = without_generators(evolved_from_y(model, Boundary.OPEN, 10))
        chunked = entanglement._entropy_table(state, 5)
        monkeypatch.setattr(entanglement, "_CUT_CHUNK", 10**9)
        whole = entanglement._entropy_table(state, 5)
        assert chunked.tobytes() == whole.tobytes()

    def test_single_matrix_gives_a_float(self):
        assert isinstance(entropy(np.eye(2) / 2), float)
        assert entropy(np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])).shape == (2,)

    def test_rejects_significant_negatives_anywhere_in_a_stack(self):
        with pytest.raises(ValueError):
            entropy(np.stack([np.eye(2) / 2, np.diag([1.5, -0.5])]))


def checked_periods(num_sites: int, k: int) -> list[int]:
    """Periods at which the stabilizer table of axis ``AXES[k]`` is compared
    with the reduced states: every n <= 2L up to L = 8; every n with
    n = k mod 6 at L = 9, 10, so each period is seen once per model and
    boundary; and n = L alone, for axis L mod 6, at L = 11, 12, where one
    oracle table takes 0.1 and 0.5 s."""
    periods = range(2 * num_sites + 1)
    if num_sites <= 8:
        return list(periods)
    if num_sites <= 10:
        return [n for n in periods if n % 6 == k]
    return [num_sites] if num_sites % 6 == k else []


class TestStabilizerTable:
    @pytest.mark.parametrize("num_sites", range(2, 13))
    def test_matches_the_state_vector_path(self, num_sites):
        for model, boundary in itertools.product(Model, Boundary):
            spec = FloquetSpec(model, num_sites, boundary)
            for k, axis in enumerate(AXES):
                state = make_polarized_state(num_sites, Axis.parse(axis))
                done = 0
                for n in checked_periods(num_sites, k):
                    state, done = apply_floquet(spec, state, n - done), n
                    assert state.stabilizers is not None
                    got = entanglement._entropy_table(state, 1)
                    want = entanglement._entropy_table(
                        without_generators(state), num_sites // 2
                    )
                    assert np.abs(got - want).max() < 1e-12, (model, boundary, axis, n)

    @pytest.mark.parametrize("model, boundary", itertools.product(Model, Boundary))
    def test_a_wrong_period_map_raises_at_read_time(self, monkeypatch, model, boundary):
        # with the identity as the period map the rows stay those of the
        # start: a read raises unless every site is back in an eigenstate of
        # the start's Pauli, and then the table is right
        num_sites = 6
        identity = np.eye(2 * num_sites, dtype=np.uint8)
        monkeypatch.setattr(floquet, "_pauli_map", lambda spec: identity)
        spec = FloquetSpec(model, num_sites, boundary)
        for axis in AXES:
            paulis = [
                site_operator(PAULI[axis[0]], site, num_sites)
                for site in range(1, num_sites + 1)
            ]
            state, kept = make_polarized_state(num_sites, Axis.parse(axis)), []
            for n in range(1, 2 * num_sites + 1):
                state = apply_floquet(spec, state, 1)
                psi = state.amplitudes
                if min(abs(np.vdot(psi, p @ psi)) for p in paulis) > 1 - 1e-9:
                    kept.append(n)
                    assert (entanglement._entropy_table(state, 3) == 0).all()
                else:
                    with pytest.raises(ValueError, match="stabilizer row has"):
                        aee_report(state)
            assert 1 not in kept and len(kept) <= 4, (axis, kept)

    def test_dependent_rows_raise(self):
        # every row fixes the state, but the third is the product of the
        # first two, so the rows span only part of the group
        state = apply_floquet(
            FloquetSpec(Model.UX, 5), make_polarized_state(5, Axis.parse("z+")), 3
        )
        rows = state.stabilizers.copy()
        rows[2] = rows[0] ^ rows[1]
        dependent = StateVector(5, state.amplitudes, rows)
        for read in (aee_report, min_bipartition_entropy, detect_bell_pairs):
            with pytest.raises(ValueError, match="not independent"):
                read(dependent)


class TestAverageEntropy:
    def test_product_state_is_zero(self):
        state = make_polarized_state(5, Axis.parse("x+"))
        for l in range(1, 5):
            s, s_norm = average_entanglement_entropy(state, l)
            assert abs(s) < 1e-10
            assert abs(s_norm) < 1e-10

    def test_ghz_is_one_bit_for_every_cut(self):
        state = make_ghz(5, Axis.parse("z"))
        for l in range(1, 5):
            s, s_norm = average_entanglement_entropy(state, l)
            assert s == pytest.approx(1.0, abs=1e-10)
            assert s_norm == pytest.approx(1.0 / l, abs=1e-10)

    @pytest.mark.parametrize("num_sites", [4, 6, 8])
    def test_bell_pairs_match_broken_pair_count(self, num_sites):
        state = StateVector(num_sites, nn_bell_product(num_sites))
        pairs = [(2 * k + 1, 2 * k + 2) for k in range(num_sites // 2)]
        for l in range(1, num_sites):
            s, _ = average_entanglement_entropy(state, l)
            assert s == pytest.approx(broken_pair_aee(num_sites, l), abs=1e-10)
            assert s == pytest.approx(
                broken_pair_count_mean(num_sites, l, pairs), abs=1e-10
            )

    def test_pairing_geometry_does_not_matter(self):
        # mirror pairing and nearest-neighbor pairing give identical
        # subset-averaged entropies
        nn = StateVector(4, nn_bell_product(4))
        mirror = mirror_bell_product_4()
        for l in range(1, 4):
            s_nn, _ = average_entanglement_entropy(nn, l)
            s_mirror, _ = average_entanglement_entropy(mirror, l)
            assert s_nn == pytest.approx(s_mirror, abs=1e-10)

    def test_rejects_bad_subsystem_size(self):
        state = make_ghz(4, Axis.parse("z"))
        for bad in (0, 4, 5):
            with pytest.raises(ValueError):
                average_entanglement_entropy(state, bad)

    # unchecked, 2.0 failed with a TypeError deep inside and True ran as l = 1
    @pytest.mark.parametrize("l", [2.0, True], ids=repr)
    def test_rejects_a_non_integer_subsystem_size(self, l):
        state = make_ghz(4, Axis.parse("z"))
        with pytest.raises(ValueError, match=f"^l: must be an integer, got {l!r}$"):
            average_entanglement_entropy(state, l)

    def test_report_collects_all_sizes(self):
        state = make_ghz(4, Axis.parse("z"))
        report = aee_report(state)
        assert sorted(report) == [1, 2, 3]
        assert report[2][2] == 6
        s, s_norm = average_entanglement_entropy(state, 2)
        assert report[2][0] == pytest.approx(s, abs=1e-12)
        assert report[2][1] == pytest.approx(s_norm, abs=1e-12)

    @pytest.mark.parametrize("num_sites, l", [(6, 2), (6, 3), (7, 3)])
    def test_cut_tables_are_built_once_and_read_only(self, num_sites, l):
        subsets, masks = entanglement._subsets(num_sites, l)
        cuts, cut_masks = entanglement._cuts(num_sites, l)
        assert entanglement._cuts(num_sites, l)[0] is cuts
        expected = list(itertools.combinations(range(1, num_sites + 1), l))
        assert subsets.tolist() == [list(c) for c in expected]
        assert masks.tolist() == [sum(1 << (num_sites - s) for s in c) for c in expected]
        halves = [list(c) for c in expected if 2 * l != num_sites or c[0] == 1]
        assert cuts.tolist() == halves
        assert cut_masks.tolist() == [sum(1 << (num_sites - s) for s in c) for c in halves]
        for table in (subsets, masks, cuts, cut_masks):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    @pytest.mark.parametrize("num_sites", [7, 8])
    def test_report_reduces_each_size_once(self, num_sites, monkeypatch):
        # sizes l and L - l share one reduction, with bit-equal averages
        state = StateVector(num_sites, random_state(np.random.default_rng(25), num_sites))
        calls = []

        def counting(state, kept_sites):
            calls.append(np.shape(kept_sites))
            return partial_trace(state, kept_sites)

        monkeypatch.setattr(entanglement, "partial_trace", counting)
        report = aee_report(state)
        assert len(calls) == num_sites // 2
        for l, (s, s_norm, count) in report.items():
            assert (s, s_norm) == average_entanglement_entropy(state, l)


class TestMinBipartition:
    def test_product_state(self):
        state = make_polarized_state(4, Axis.parse("y-"))
        assert min_bipartition_entropy(state) < 1e-10

    def test_ghz_pair_of_blocks_has_a_zero_cut(self):
        assert min_bipartition_entropy(make_psi_o(4)) < 1e-10

    def test_ghz_every_cut_is_one_bit(self):
        assert min_bipartition_entropy(make_ghz(4, Axis.parse("z"))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_single_site_rejected(self):
        with pytest.raises(ValueError):
            min_bipartition_entropy(make_polarized_state(1, Axis.parse("z+")))

    def test_one_kick_entangles_the_block_cut(self):
        evolved = apply_floquet(FloquetSpec(Model.UX, 4), make_psi_o(4), 1)
        assert min_bipartition_entropy(evolved) == pytest.approx(1.0, abs=1e-8)


class TestBellPairDetection:
    def test_nearest_neighbor_pairs(self):
        state = StateVector(4, nn_bell_product(4))
        assert detect_bell_pairs(state) == [(1, 2), (3, 4)]

    def test_mirror_pairs(self):
        assert detect_bell_pairs(mirror_bell_product_4()) == [(1, 4), (2, 3)]

    def test_ghz_has_no_pair_structure(self):
        assert detect_bell_pairs(make_ghz(4, Axis.parse("z"))) is None

    def test_product_state_has_no_pairs(self):
        assert detect_bell_pairs(make_polarized_state(4, Axis.parse("x+"))) is None

    def test_half_period_of_the_kicked_ising_chain(self):
        # n = L/2 periods of U0 from z+ build Bell pairs between mirror
        # sites
        evolved = apply_floquet(
            FloquetSpec(Model.U0, 6), make_polarized_state(6, Axis.parse("z+")), 3
        )
        assert detect_bell_pairs(evolved) == [(1, 6), (2, 5), (3, 4)]
        for l in range(1, 6):
            s, _ = average_entanglement_entropy(evolved, l)
            assert s == pytest.approx(broken_pair_aee(6, l), abs=1e-8)


class TestGeometricMeasure:
    def test_product_state(self):
        result = geometric_measure(make_polarized_state(4, Axis.parse("y+")))
        assert result.lambda_ == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= result.e_g < 1e-10
        assert result.converged

    def test_ghz(self):
        result = geometric_measure(make_ghz(4, Axis.parse("z")))
        assert result.lambda_ == pytest.approx(1 / np.sqrt(2), abs=1e-8)
        assert result.e_g == pytest.approx(0.5, abs=1e-6)

    def test_pair_of_ghz_blocks(self):
        result = geometric_measure(make_psi_o(4))
        assert result.e_g == pytest.approx(0.75, abs=1e-6)

    def test_w_state(self):
        result = geometric_measure(W3)
        assert result.lambda_ == pytest.approx(2 / 3, abs=1e-8)

    def test_history_is_monotone(self, monkeypatch):
        # a capped ascent is a prefix of the full one, so rerunning under each
        # sweep cap reads the overlap after every sweep
        state = StateVector(4, random_state(np.random.default_rng(20), 4))
        full = geometric_measure(state)
        assert not full.certified and full.sweeps > 2
        history = []
        for cap in range(1, full.sweeps + 1):
            monkeypatch.setattr(entanglement, "DEFAULT_MAX_ITER", cap)
            history.append(geometric_measure(state).lambda_)
        assert (np.diff(history) > -1e-9).all()
        assert history[-1] == full.lambda_

    def test_winning_product_state_reproduces_lambda(self):
        rng = np.random.default_rng(21)
        psi = random_state(rng, 3)
        result = geometric_measure(StateVector(3, psi))
        folded = psi.reshape(2, -1)
        for phi in result.product_state[:-1]:
            folded = np.tensordot(phi.conj(), folded, axes=(0, 0)).reshape(2, -1)
        amp = result.product_state[-1].conj() @ folded.ravel()
        assert abs(amp) == pytest.approx(result.lambda_, abs=1e-9)

    @pytest.mark.parametrize(
        "model, boundary, num_sites",
        [(Model.UX, Boundary.CLOSED, 10), (Model.U0, Boundary.OPEN, 12)],
    )
    def test_larger_chains_reproduce_lambda(self, model, boundary, num_sites):
        # the site vectors contracted one at a time from site 1, the most
        # significant bit, give back the overlap the optimizer reports
        spec = FloquetSpec(model, num_sites, boundary)
        state = apply_floquet(spec, make_polarized_state(num_sites, Axis.parse("y+")), 3)
        result = geometric_measure(state)
        folded = state.amplitudes
        for phi in result.product_state:
            folded = phi.conj() @ folded.reshape(2, -1)
        assert abs(folded[0]) == pytest.approx(result.lambda_, abs=1e-12)
        assert result.lambda_ >= np.abs(state.amplitudes).max()

    def test_largest_amplitude_lower_bound(self):
        rng = np.random.default_rng(22)
        for num_sites in (2, 3, 4):
            psi = random_state(rng, num_sites)
            result = geometric_measure(StateVector(num_sites, psi))
            assert result.lambda_ >= np.abs(psi).max() - 1e-9

    def test_seed_determinism(self):
        rng = np.random.default_rng(23)
        psi = StateVector(3, random_state(rng, 3))
        a = geometric_measure(psi, seed=5)
        b = geometric_measure(psi, seed=5)
        assert a.lambda_ == b.lambda_

    @pytest.mark.parametrize("num_sites", [2, 3])
    def test_matches_grid_search(self, num_sites):
        rng = np.random.default_rng(24)
        for _ in range(3):
            psi = random_state(rng, num_sites)
            result = geometric_measure(StateVector(num_sites, psi))
            grid = grid_max_overlap(psi, num_sites)
            assert result.lambda_ == pytest.approx(grid, abs=2e-4)
            assert result.lambda_ >= grid - 2e-4

    def test_grid_agrees_on_w_state(self):
        assert grid_max_overlap(W3.amplitudes, 3) == pytest.approx(2 / 3, abs=2e-4)

    def test_counts_its_sweeps(self, monkeypatch):
        # the n = 4 state of the build-up cannot be certified, so its ascent
        # runs until every restart has converged, or until the sweep cap
        state = u0_build_up()[4]
        full = geometric_measure(state)
        assert full.converged and not full.certified and full.sweeps > 2
        monkeypatch.setattr(entanglement, "DEFAULT_MAX_ITER", full.sweeps - 1)
        assert geometric_measure(state).sweeps == full.sweeps - 1

    def test_ghz_build_up_is_pinned(self):
        # sweeps, convergence and overlaps of the U0 L=8 build-up from y+
        # at seed 0; where a balanced cut certifies the best converged
        # overlap (n = 2, 3, 6, 7, 8) the ascent stops there, and elsewhere
        # every restart sweeps until the last one converged
        expected = [
            (2, "1"),
            (2, "1"),
            (5, "0.25"),
            (5, "0.25"),
            (80, "0.181277312263"),
            (445, "0.181277312263"),
            (5, "0.25"),
            (4, "0.25"),
            (3, "0.707106781187"),
        ]
        for n, (sweeps, lam) in enumerate(expected):
            result = geometric_measure(u0_build_up()[n], seed=0)
            assert (result.sweeps, result.converged, "%.12g" % result.lambda_) == (
                sweeps,
                True,
                lam,
            ), f"n={n}"

    def test_certified_overlap_is_the_global_maximum(self):
        # the bound over every cut, not only the balanced ones, is met
        certified = []
        for n, state in enumerate(u0_build_up()):
            result = geometric_measure(state, seed=0)
            if result.certified:
                certified.append(n)
                bound = max_schmidt_coefficient(state.amplitudes, 8)
                assert result.lambda_ == pytest.approx(bound, abs=1e-12), f"n={n}"
        assert certified == [2, 3, 6, 7, 8]

    @pytest.mark.parametrize(
        "state, lam",
        [(make_ghz(6, Axis.parse("z")), 1 / np.sqrt(2)), (make_psi_o(8), 0.5)],
        ids=["ghz6", "psi_o8"],
    )
    def test_ghz_states_certify(self, state, lam):
        result = geometric_measure(state)
        assert result.certified and result.converged
        assert result.lambda_ == pytest.approx(lam, abs=1e-12)

    def test_no_test_when_every_restart_converges_together(self):
        # all restarts of psi_o(4) converge in the same sweep, so the ascent
        # ends before any restart waits on another
        result = geometric_measure(make_psi_o(4))
        assert not result.certified
        assert result.converged

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 7])
    @pytest.mark.parametrize(
        "states",
        [
            lambda: u0_build_up(),
            lambda: build_up(FloquetSpec(Model.UX, 6, Boundary.CLOSED), "z+"),
            lambda: [
                StateVector(n, random_state(np.random.default_rng(40 + n), n))
                for n in range(2, 8)
            ],
            lambda: [make_ghz(6, Axis.parse("z")), make_psi_o(8)],
        ],
        ids=["u0_y+_8", "ux_z+_6_closed", "random_2_7", "ghz6_psi_o8"],
    )
    def test_matches_the_earlier_ascent(self, states, seed):
        for n, state in enumerate(states()):
            assert_same_result(
                geometric_measure(state, seed=seed),
                oracles.geometric_measure_oracle(state, seed=seed),
                f"state {n}",
            )

    def test_a_zero_contraction_keeps_the_old_vector(self, monkeypatch):
        # restart 1 starts orthogonal to |0000> at site 2, so its first site
        # contracts to zero and keeps its old vector
        real = entanglement._initial_product_batch

        def orthogonal_at_site_2(state, rng):
            phis = real(state, rng)
            phis[1, 1] = [0, 1]
            return phis

        for module in (entanglement, oracles):
            monkeypatch.setattr(module, "_initial_product_batch", orthogonal_at_site_2)
        state = make_polarized_state(4, Axis.parse("z+"))
        result = geometric_measure(state)
        assert_same_result(result, oracles.geometric_measure_oracle(state), "z+")
        assert not np.isnan(np.array(result.product_state)).any()

    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # the cut scan runs until a cut certifies or none is left, so how
        # many cuts one reduction holds changes no result
        states = build_up(FloquetSpec(Model.U0, 8), "y+", 16) + build_up(
            FloquetSpec(Model.UX, 6, Boundary.CLOSED), "z+", 12
        )
        runs = []
        for chunk in (1, 7, 64):
            monkeypatch.setattr(entanglement, "_CUT_CHUNK", chunk)
            results = [geometric_measure(state) for state in states]
            tables = [entanglement._entropy_table(s, 4).tobytes() for s in states]
            runs.append((results, tables))
        (want, want_tables), *others = runs
        assert sum(result.certified for result in want) == 20
        for results, tables in others:
            for n, (got, expected) in enumerate(zip(results, want)):
                assert_same_result(got, expected, f"state {n}")
            assert tables == want_tables

    def test_overlap_above_a_cut_bound_raises(self, monkeypatch):
        # a cut whose Schmidt coefficient lies below a found overlap means
        # the reduced states or the overlaps are wrong
        fake = SimpleNamespace(eigenvalues=np.array([[0.01]]))
        monkeypatch.setattr(
            entanglement, "_reduced_cuts", lambda state, k: iter([(None, fake)])
        )
        with pytest.raises(AssertionError, match="Schmidt"):
            geometric_measure(make_ghz(6, Axis.parse("z")))


def build_up(
    spec: FloquetSpec, axis: str, periods: int | None = None
) -> list[StateVector]:
    """The chain polarized along ``axis``, after n = 0..``periods`` periods
    of ``spec`` (L by default)."""
    states = [make_polarized_state(spec.num_sites, Axis.parse(axis))]
    for _ in range(spec.num_sites if periods is None else periods):
        states.append(apply_floquet(spec, states[-1], 1))
    return states


def u0_build_up() -> list[StateVector]:
    """The U0 L=8 chain from y+, after n = 0..8 periods."""
    return build_up(FloquetSpec(Model.U0, 8), "y+")


def assert_same_result(new, old, label: str) -> None:
    """Every field equal bit for bit, the product state by its bytes."""
    assert (new.lambda_, new.e_g, new.converged, new.certified, new.sweeps) == (
        old.lambda_,
        old.e_g,
        old.converged,
        old.certified,
        old.sweeps,
    ), label
    assert [phi.tobytes() for phi in new.product_state] == [
        phi.tobytes() for phi in old.product_state
    ], label
