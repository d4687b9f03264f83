import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kicked_ising import floquet, spectral
from kicked_ising.core import DENSE_MAX_SITES
from kicked_ising.experiment import _fmt
from kicked_ising.floquet import (
    Boundary,
    FloquetSpec,
    Model,
    Symmetry,
    _block_program,
    _majorana_map,
    _symmetric_block,
    build_dense,
    symmetry_sectors,
)
from kicked_ising.spectral import (
    CLUSTER_TOLERANCE,
    QuasiSpectrum,
    _block_thetas,
    _cluster_circular,
    _majorana_thetas,
    _symmetric_thetas,
    detect_period,
    detect_period_from_thetas,
    detect_spacing,
    floquet_spectrum,
    quasi_energies,
)

from oracles import (
    cluster_circular_oracle,
    dense_floquet_oracle,
    scan_period_oracle,
    schur_thetas,
    sector_columns,
    sector_project,
    transfer_trace_oracle,
)


ROOT = Path(__file__).resolve().parents[1]


def ladder(centers, counts):
    return QuasiSpectrum(np.repeat(np.asarray(centers, dtype=float), counts))


def whole(matrix):
    """A whole operator as the one-block list ``quasi_energies`` takes."""
    return [matrix]


def on_circle(angles):
    # compare phases on the circle; the 0.1 shift keeps the wrap seam away
    # from the pi/4 lattice the quasi-energies live on
    return np.sort((np.asarray(angles) - 0.1) % (2 * np.pi))


def circle_distance(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


def assert_same_clusters(clusters, expected, atol=1e-12):
    assert [m for _, m in clusters] == [m for _, m in expected]
    assert circle_distance([c for c, _ in clusters], [c for c, _ in expected]).max() < atol


def symmetric_unitary(rng, thetas):
    """Q diag(e^{-i theta}) Q^T for a random real orthogonal Q."""
    q, _ = np.linalg.qr(rng.normal(size=(len(thetas), len(thetas))))
    v = (q * np.exp(-1j * np.asarray(thetas))) @ q.T
    return (v + v.T) / 2


def level_sets(rng, dim):
    """Named level sets of ``dim`` levels each: +-theta pairs, 0 and pi,
    degenerate and near-degenerate levels."""
    special = [0.0, np.pi, 0.7, -0.7, 1.3, 1.3 + 1e-13, -2.1, -2.1, -2.1]
    return {
        # few distinct levels, far apart in cos and in the pairing
        "ladder": np.r_[special, 2 * np.pi / 9 * rng.integers(-4, 5, size=dim)][:dim],
        "random": np.r_[special, rng.uniform(-np.pi, np.pi, size=dim)][:dim],
        # two levels 1e-9 apart (one cluster) and two 1e-6 apart (two)
        "near": np.r_[[0.4, 0.4 + 1e-9, 2.0, 2.0 + 1e-6], special, rng.uniform(-3, 3, dim)][:dim],
    }


class TestQuasiEnergies:
    def test_identity_spectrum(self):
        spectrum = quasi_energies(whole(np.eye(4, dtype=complex)))
        np.testing.assert_allclose(spectrum.thetas, np.zeros(4), atol=1e-12)
        assert spectrum.clusters == [(0.0, 4)]

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            quasi_energies(whole(1.1 * np.eye(4, dtype=complex)))

    def test_rejects_a_jordan_block(self):
        # unit eigenvalues, so only the Gram deviation ||B^H B - I|| shows it
        with pytest.raises(ValueError, match="not unitary"):
            quasi_energies(whole(np.array([[1.0, 1.0], [0.0, 1.0]])))

    def test_rejects_a_slightly_scaled_unitary(self):
        u = build_dense(FloquetSpec(Model.UX, 3))
        quasi_energies(whole(u))
        with pytest.raises(ValueError, match="not unitary"):
            quasi_energies(whole((1 + 1e-9) * u))

    @pytest.mark.parametrize("moves", [[1e-6], [1e-6, -1e-6]])
    def test_rejects_eigenvalues_that_miss_the_traces(self, monkeypatch, moves):
        # one move shifts Tr B; a pair of opposite moves keeps Tr B and
        # shifts only Tr B^2
        eigvals = np.linalg.eigvals

        def moved(mat):
            lam = eigvals(mat)
            lam[: len(moves)] += moves
            return lam

        u = build_dense(FloquetSpec(Model.UX, 3))
        monkeypatch.setattr(np.linalg, "eigvals", moved)
        with pytest.raises(ValueError, match="power sums"):
            quasi_energies(whole(u))

    @pytest.mark.parametrize("call", [0, 1])
    @pytest.mark.parametrize("moves", [[1e-6], [1e-6, -1e-6]])
    def test_rejects_eigvalsh_values_that_miss_the_traces(self, monkeypatch, moves, call):
        # the twin of the test above on the symmetric route: moving values
        # of either eigensolve, of Re B (call 0) or of the pairing matrix
        # (call 1), moves levels off the traces
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def moved(mat):
            values = eigvalsh(mat)
            if len(calls) == call:
                values[: len(moves)] += moves
            calls.append(call)
            return values

        spec = FloquetSpec(Model.UX, 3)
        block = _symmetric_block(spec, spec.sectors()[0])
        # six simple values of cos(theta), so no move splits a cluster
        assert np.diff(np.linalg.eigvalsh(block.real)).min() > 0.09
        monkeypatch.setattr(np.linalg, "eigvalsh", moved)
        with pytest.raises(ValueError, match="power sums"):
            quasi_energies([block])
        assert len(calls) == 2

    def test_a_pairing_that_misses_a_multiplicity_falls_back(self, monkeypatch):
        # a value of the pairing matrix moved onto another cluster's
        # prediction leaves one cluster short, so eigvals takes the block
        spec = FloquetSpec(Model.UX, 3)
        block = _symmetric_block(spec, spec.sectors()[0])
        expected = quasi_energies([block]).thetas
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def moved(mat):
            values = eigvalsh(mat)
            if calls:
                values[0] = values[-1]
            calls.append(mat)
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", moved)
        assert _symmetric_thetas(block) is None
        calls.clear()
        np.testing.assert_allclose(quasi_energies([block]).thetas, expected, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_rejects_non_finite_entries(self, value, symmetric):
        # on either route, before any check runs and with no warning
        spec = FloquetSpec(Model.UX, 3)
        block = _symmetric_block(spec, spec.sectors()[0]) if symmetric else build_dense(spec)
        assert (spectral._asymmetry(block) <= spectral._SYMMETRY_TOLERANCE) == symmetric
        block[1, 2] = block[2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or inf"):
                quasi_energies([block])

    @pytest.mark.parametrize("mutation", ["pair", "scale"])
    def test_rejects_a_symmetric_block_that_is_not_unitary(self, mutation):
        spec = FloquetSpec(Model.U0, 6)
        block = _symmetric_block(spec, spec.sectors()[0])
        quasi_energies([block])
        if mutation == "pair":
            block[1, 4] += 1e-3
            block[4, 1] += 1e-3
        else:
            block *= 1 + 1e-9
        assert spectral._asymmetry(block) <= spectral._SYMMETRY_TOLERANCE
        with pytest.raises(ValueError, match="not unitary"):
            quasi_energies([block])

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_rejects_a_non_unitary_block_the_probes_cannot_see(self, monkeypatch, symmetric):
        # I + 1e-3 z z^H with z orthogonal to both fixed probes passes the
        # probe check once the probe read from B is one of them, but its
        # eigenvalue 1.001 is off the circle, so the unit e^{-i theta} miss
        # Tr B on either route; a real z makes the block symmetric
        monkeypatch.setattr(spectral, "_entry_probe", lambda mat: spectral._probes(len(mat))[:, 0])
        dim = 8
        probes = spectral._probes(dim)
        basis = np.column_stack([probes.real, probes.imag, np.eye(dim)])
        a, b = np.linalg.qr(basis)[0][:, 4:6].T
        z = a if symmetric else (a + 1j * b) / np.sqrt(2)
        block = np.eye(dim) + 1e-3 * np.outer(z, z.conj())
        assert spectral._probe_deviation(block) < 1e-14
        assert (spectral._asymmetry(block) <= spectral._SYMMETRY_TOLERANCE) == symmetric
        with pytest.raises(ValueError, match="power sums"):
            quasi_energies([block])

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_rejects_a_defect_the_fixed_probes_cannot_see(self, symmetric):
        # B = I + 1e-3 N with N = a b^T, or the symmetric c c^T with
        # c = (a + ib) / sqrt(2), for real unit a ⊥ b ⊥ both fixed probes:
        # B^H B - I is blind to them, and N^2 = 0 with Tr N = 0, so every
        # eigenvalue is 1 and both power sums match. The probe read from
        # B's entries sees it, whichever route B would take.
        dim = 8
        probes = spectral._probes(dim)
        basis = np.column_stack([probes.real, probes.imag, np.eye(dim)])
        a, b = np.linalg.qr(basis)[0][:, 4:6].T
        c = (a + 1j * b) / np.sqrt(2)
        block = np.eye(dim) + 1e-3 * (np.outer(c, c) if symmetric else np.outer(a, b))
        gram = block.conj().T @ block - np.eye(dim)
        assert np.linalg.norm(gram) > 1e-3
        assert np.linalg.norm(gram @ probes) < 1e-14
        assert abs(np.trace(block) - dim) < 1e-14
        assert abs(np.trace(block @ block) - dim) < 1e-14
        assert (spectral._asymmetry(block) <= spectral._SYMMETRY_TOLERANCE) == symmetric
        with pytest.raises(ValueError, match="not unitary"):
            quasi_energies([block])

    def test_the_entry_probe_follows_the_entries(self):
        # unit modulus, the same for the same entries (in either memory
        # order), and another once one entry moves
        block = np.eye(8, dtype=complex)
        block[2, 6] = 0.25j
        probe = spectral._entry_probe(block)
        np.testing.assert_allclose(np.abs(probe), 1, atol=1e-15)
        assert np.array_equal(spectral._entry_probe(np.asfortranarray(block)), probe)
        block[3, 5] = 1e-3
        assert np.abs(spectral._entry_probe(block) - probe).max() > 1e-3

    @pytest.mark.parametrize("dim", [1, 2, 3, 17, 64, 129])
    def test_random_symmetric_unitaries_give_the_oracle_clusters(self, monkeypatch, dim):
        # through whichever route each takes, and never raising; a well
        # spaced ladder pairs on the symmetric route, and a pair of levels
        # 1e-9 apart falls back to eigvals
        rng = np.random.default_rng(dim)
        routes = []
        pair = spectral._symmetric_thetas

        def recording(mat):
            thetas = pair(mat)
            routes.append(thetas is not None)
            return thetas

        monkeypatch.setattr(spectral, "_symmetric_thetas", recording)
        for name, thetas in level_sets(rng, dim).items():
            v = symmetric_unitary(rng, thetas)
            routes.clear()
            spectrum = quasi_energies([v])
            assert_same_clusters(spectrum.clusters, _cluster_circular(np.sort(schur_thetas(v))))
            if name == "ladder":
                assert routes == [True]
            if name == "near" and dim >= 2:
                assert routes == [False]

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match="square"):
            quasi_energies(whole(np.stack([np.eye(2), np.eye(2)])))

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="at least one block"):
            quasi_energies([])

    def test_diagonal_phases_recovered(self):
        phases = np.array([0.3, -1.2, 2.5, 0.3])
        u = np.diag(np.exp(1j * phases))
        spectrum = quasi_energies(whole(u))
        np.testing.assert_allclose(spectrum.thetas, np.sort(-phases), atol=1e-12)

    def test_seam_cluster_merges(self):
        eps = 1e-9
        u = np.diag(np.exp(1j * np.array([np.pi - eps, -np.pi + eps, 0.0, 0.0])))
        spectrum = quasi_energies(whole(u))
        assert len(spectrum.clusters) == 2
        centers = [c for c, _ in spectrum.clusters]
        counts = [m for _, m in spectrum.clusters]
        assert counts == [2, 2]
        assert centers[0] == pytest.approx(0.0, abs=1e-8)
        assert abs(centers[1]) == pytest.approx(np.pi, abs=1e-8)

    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    def test_multiplicities_sum_to_dimension(self, model):
        spectrum = quasi_energies([build_dense(FloquetSpec(model, 4))])
        assert sum(m for _, m in spectrum.clusters) == 16

    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_power_shifts_spectrum(self, n):
        u = build_dense(FloquetSpec(Model.UX, 3))
        base = quasi_energies(whole(u)).thetas
        powered = quasi_energies(whole(np.linalg.matrix_power(u, n))).thetas
        np.testing.assert_allclose(on_circle(powered), on_circle(n * base), atol=1e-9)

    def test_center_at_zero_is_snapped(self):
        # rounding noise around a level at zero prints as 0, never as a
        # tiny number or as -0
        for noise in ([3e-15, -7e-15, -1e-13], [0.0, 0.0, 0.0]):
            u = np.diag(np.exp(1j * np.array([1.0, *noise])))
            spectrum = quasi_energies(whole(u))
            assert spectrum.clusters == [(-1.0, 1), (0.0, 3)]
            assert math.copysign(1.0, spectrum.clusters[1][0]) == 1.0

    def test_blocks_pool_into_one_spectrum(self):
        a = np.diag(np.exp(1j * np.array([0.3, -1.2])))
        b = np.diag(np.exp(1j * np.array([0.3, 2.0])))
        spectrum = quasi_energies([a, b])
        np.testing.assert_allclose(
            spectrum.thetas, [-2.0, -0.3, -0.3, 1.2], atol=1e-12
        )
        assert [m for _, m in spectrum.clusters] == [1, 2, 1]


SECTOR_SPECS = [
    (Model.U0, Boundary.OPEN),
    (Model.U0, Boundary.CLOSED),
    (Model.UX, Boundary.OPEN),
    (Model.UX, Boundary.CLOSED),
]


class TestQuasiSpectrum:
    @pytest.mark.parametrize(
        "thetas, message",
        [
            ([1.0, 0.0, 1.0], "^thetas: must be sorted ascending$"),
            ([0.0, np.nan, 1.0], "^thetas: holds NaN or inf$"),
            ([np.nan], "^thetas: holds NaN or inf$"),
            ([0.0, np.inf], "^thetas: holds NaN or inf$"),  # would fold into one cluster
            ([-np.inf, 0.0], "^thetas: holds NaN or inf$"),
            ([], r"^thetas: expected a nonempty 1-D array, got \(0,\)$"),
            (np.zeros((2, 2)), r"^thetas: expected a nonempty 1-D array, got \(2, 2\)$"),
            (0.0, r"^thetas: expected a nonempty 1-D array, got \(\)$"),
        ],
    )
    def test_rejects_thetas_it_cannot_cluster(self, thetas, message):
        with pytest.raises(ValueError, match=message):
            QuasiSpectrum(thetas)

    def test_keeps_sorted_thetas_as_a_float_array(self):
        spectrum = QuasiSpectrum([-1, 0, 0])
        assert spectrum.thetas.dtype == float
        assert spectrum.clusters == [(-1.0, 1), (0.0, 2)]
        thetas = np.array([0.0, 0.5])
        assert QuasiSpectrum(thetas).thetas is thetas


def assert_clusters_match_the_oracle(thetas):
    """The array clustering against the per-level loop it replaced: equal
    multiplicities, equal ``spectrum.csv`` text and centers within 1e-15."""
    got, want = _cluster_circular(thetas), cluster_circular_oracle(thetas)
    assert [n for _, n in got] == [n for _, n in want]
    assert [_fmt(c) for c, _ in got] == [_fmt(c) for c, _ in want]
    assert max(abs(c - w) for (c, _), (w, _) in zip(got, want)) <= 1e-15
    assert all(type(c) is float and type(n) is int for c, n in got)


# 20 gaps of 0.9 CLUSTER_TOLERANCE: each joins, and the run spans 18 tolerances
CHAIN = np.cumsum(np.r_[0.0, np.full(20, 0.9 * CLUSTER_TOLERANCE)])

HAND_BUILT = {
    "both sides of the seam": [-np.pi + 3e-8, -1.0, 0.5, np.pi - 2e-8, np.pi - 1e-8],
    "pi and near -pi": [-np.pi + 1e-9, 0.0, np.pi],
    "near -pi alone": [-np.pi + 1e-8, -np.pi + 2e-8, 1.0],
    "a gap of exactly the tolerance": [-1.0, 0.0, CLUSTER_TOLERANCE, 1.0],
    "chain": np.r_[-2.0, 1.0 + CHAIN, 2.5],
    "chain across the seam": np.r_[-np.pi + 1e-9 + CHAIN[:8], 0.0, np.pi - CHAIN[8::-1]],
    "lone level": [0.3],
    "all equal": np.full(7, 1.1),
    "zero noise": [-3e-13, -1e-14, 0.0, 2e-13, 5e-13, 0.7],
    "just past zero snap": [-1.0, 2e-12, 3e-12],
}


class TestClusteringOracle:
    @pytest.mark.parametrize("num_sites", range(2, 11))
    @pytest.mark.parametrize("model, boundary", SECTOR_SPECS)
    def test_every_model_spectrum(self, model, boundary, num_sites):
        spectrum = floquet_spectrum(FloquetSpec(model, num_sites, boundary))
        assert_clusters_match_the_oracle(spectrum.thetas)

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built_levels(self, name):
        thetas = np.sort(np.asarray(HAND_BUILT[name], dtype=float))
        assert_clusters_match_the_oracle(thetas)

    def test_the_hand_built_cases_hit_their_branches(self):
        def clusters(name):
            return _cluster_circular(np.sort(np.asarray(HAND_BUILT[name], dtype=float)))

        assert [n for _, n in clusters("both sides of the seam")] == [1, 1, 3]
        assert clusters("pi and near -pi")[-1][1] == 2
        assert clusters("near -pi alone")[-1] == (pytest.approx(np.pi + 1.5e-8, abs=1e-14), 2)
        assert [n for _, n in clusters("a gap of exactly the tolerance")] == [1, 2, 1]
        assert [n for _, n in clusters("chain")] == [1, 21, 1]
        assert [n for _, n in clusters("chain across the seam")] == [1, 17]
        assert clusters("zero noise")[0] == (0.0, 5)
        assert clusters("just past zero snap")[1] == (pytest.approx(2.5e-12, rel=1e-12), 2)


class TestSymmetrySectors:
    @pytest.mark.parametrize("num_sites", range(2, 11))
    @pytest.mark.parametrize("model, boundary", SECTOR_SPECS)
    def test_sector_path_matches_dense(self, model, boundary, num_sites):
        spec = FloquetSpec(model, num_sites, boundary)
        dense = quasi_energies([build_dense(spec)])
        blocked = floquet_spectrum(spec)
        assert circle_distance(on_circle(blocked.thetas), on_circle(dense.thetas)).max() < 1e-12
        assert [m for _, m in blocked.clusters] == [m for _, m in dense.clusters]
        centers = [c for c, _ in blocked.clusters]
        assert circle_distance(centers, [c for c, _ in dense.clusters]).max() < 1e-12

    @pytest.mark.parametrize("num_sites", range(2, 10))
    @pytest.mark.parametrize("model, boundary", SECTOR_SPECS)
    def test_block_phases_match_the_schur_oracle(self, model, boundary, num_sites):
        spec = FloquetSpec(model, num_sites, boundary)
        blocks = [build_dense(spec, sector=sector) for sector in spec.sectors()]
        oracle = []
        for block in blocks:
            oracle.append(schur_thetas(block))
            ours = _block_thetas(block)
            assert circle_distance(on_circle(ours), on_circle(oracle[-1])).max() < 1e-12
        # one block at a time gives the bytes of all blocks at once, each
        # in its time-reversal form; open U0 reads its Majorana map instead,
        # so closed U0, with the same sectors, stands in for it here
        spectrum = floquet_spectrum(spec)
        routed = spec
        if _majorana_map(spec) is not None:
            routed = dataclasses.replace(spec, boundary=Boundary.CLOSED)
        symmetric = [_symmetric_block(routed, sector) for sector in routed.sectors()]
        by_block = floquet_spectrum(routed).thetas.tobytes()
        assert by_block == quasi_energies(symmetric).thetas.tobytes()
        clusters = spectrum.clusters
        expected = _cluster_circular(np.sort(np.concatenate(oracle)))
        assert [m for _, m in clusters] == [m for _, m in expected]
        assert circle_distance([c for c, _ in clusters], [c for c, _ in expected]).max() < 1e-12

    @pytest.mark.parametrize("num_sites", range(2, 11))
    @pytest.mark.parametrize("model, boundary", SECTOR_SPECS)
    def test_values_only_route_matches_the_schur_oracle(self, model, boundary, num_sites):
        # every sector block pairs on the symmetric route, and its levels
        # are those of the block before the similarity
        spec = FloquetSpec(model, num_sites, boundary)
        for sector in spec.sectors():
            thetas = _symmetric_thetas(_symmetric_block(spec, sector))
            assert thetas is not None
            expected = _cluster_circular(np.sort(schur_thetas(build_dense(spec, sector))))
            assert_same_clusters(_cluster_circular(np.sort(thetas)), expected)

    @pytest.mark.parametrize("num_sites", range(2, 11))
    @pytest.mark.parametrize("model", [Model.U0, Model.UX])
    def test_sectors_split_the_space_orthonormally(self, model, num_sites):
        sectors = FloquetSpec(model, num_sites).sectors()
        assert sum(s.dim for s in sectors) == 2**num_sites
        assert all(s.dim > 0 for s in sectors)
        assert len({s.label for s in sectors}) == len(sectors)
        basis = np.hstack([sector_columns(s) for s in sectors])
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2**num_sites), atol=1e-14)
        for s in sectors:
            np.testing.assert_allclose(
                sector_project(s, basis[:, :3]), sector_columns(s).T @ basis[:, :3]
            )

    def test_sector_dimensions_at_ten_sites(self):
        dims = [s.dim for s in FloquetSpec(Model.U0, 10).sectors()]
        assert dims == [272, 240, 256, 256]
        assert [s.dim for s in FloquetSpec(Model.UX, 10).sectors()] == [528, 496]

    def test_size_cap_fires_before_any_table_is_cached(self):
        def cached():
            return [f.cache_info().currsize for f in (symmetry_sectors, _block_program)]

        before = cached()
        message = f"^num_sites: must be in 2..{DENSE_MAX_SITES}, got {DENSE_MAX_SITES + 1}$"
        with pytest.raises(ValueError, match=message):
            floquet_spectrum(FloquetSpec(Model.U0, DENSE_MAX_SITES + 1))
        assert cached() == before

    @pytest.mark.parametrize(
        "num_sites, message",
        [
            (2.0, "^num_sites: must be an integer, got 2.0$"),
            (True, "^num_sites: must be an integer, got True$"),
            ("3", "^num_sites: must be an integer, got '3'$"),
            (0, "^num_sites: must be >= 1, got 0$"),
            (-1, "^num_sites: must be >= 1, got -1$"),
        ],
    )
    def test_rejects_a_bad_site_count(self, num_sites, message):
        # the cached entries of 2 and 1 must not answer for 2.0 and True
        symmetry_sectors(2, ()), symmetry_sectors(1, ())
        with pytest.raises(ValueError, match=message):
            symmetry_sectors(num_sites, ())

    @pytest.mark.parametrize(
        "symmetries", [("R",), (Symmetry.REFLECTION, "P"), "R", (None,)]
    )
    def test_rejects_a_symmetry_that_is_not_a_member(self, symmetries):
        message = f"^symmetries: must be Symmetry members, got {re.escape(repr(symmetries))}$"
        with pytest.raises(ValueError, match=message):
            symmetry_sectors(3, symmetries)
        # checked before the size cap
        with pytest.raises(ValueError, match="^symmetries: "):
            symmetry_sectors(DENSE_MAX_SITES + 1, symmetries)

    def test_the_size_cap_is_the_integer_rule(self):
        message = f"^num_sites: must be in 1..{DENSE_MAX_SITES}, got {DENSE_MAX_SITES + 1}$"
        with pytest.raises(ValueError, match=message):
            symmetry_sectors(DENSE_MAX_SITES + 1, ())

    def test_one_site_and_numpy_integers(self):
        assert [s.dim for s in symmetry_sectors(1, (Symmetry.REFLECTION,))] == [2]
        assert [s.dim for s in symmetry_sectors(np.int64(3), (Symmetry.REFLECTION,))] == [6, 2]

    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CLOSED])
    def test_ux_leaks_out_of_parity_sectors(self, boundary):
        spec = FloquetSpec(Model.UX, 6, boundary)
        wrong = symmetry_sectors(6, (Symmetry.REFLECTION, Symmetry.Z_PARITY))
        with pytest.raises(ValueError, match="not invariant"):
            build_dense(spec, sector=wrong[0])


class TestOneBlockAtATime:
    def test_working_set_is_one_block(self):
        # tracemalloc sees numpy's arrays but not the LAPACK workspace inside
        # eigvals, so this bounds the numpy arrays only: about one block and
        # a few (2^L, 64) work arrays, whatever the chunk constant says;
        # closed U0 has open U0's sectors and no Majorana map
        spec = FloquetSpec(Model.U0, 10, Boundary.CLOSED)
        spec.sectors(), _block_program(spec)  # cached tables are not work
        block_bytes = max(sector.dim for sector in spec.sectors()) ** 2 * 16
        chunk_bytes = 2**spec.num_sites * 64 * 16
        tracemalloc.start()
        try:
            floquet_spectrum(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block_bytes + 4 * chunk_bytes

    def test_one_call_per_block_and_one_clustering(self, monkeypatch):
        # each sector block is built by its own build_dense call and goes
        # through its own quasi_energies call, and only the pooled phases
        # are clustered, on first read (closed U0: open U0's sectors, and no
        # Majorana map); the benchmark's per-layer metrics of both calls
        # come from this route
        spec = FloquetSpec(Model.U0, 6, Boundary.CLOSED)
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapped(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapped)

        counting(floquet, "build_dense")
        counting(spectral, "quasi_energies")
        counting(spectral, "_cluster_circular")
        spectrum = floquet_spectrum(spec)
        assert calls == ["build_dense", "quasi_energies"] * len(spec.sectors())
        assert spectrum.clusters is spectrum.clusters
        assert sum(m for _, m in spectrum.clusters) == 2**6
        assert calls.count("_cluster_circular") == 1

    def test_spectrum_loads_no_numpy_random(self):
        # loading numpy.random adds about 6 MB to a fresh process's peak
        # RSS; NumPy 2 loads it on first use only, and the spectrum path
        # must not be that use
        code = (
            "import sys, numpy\n"
            "print('numpy.random' in sys.modules)\n"
            "from kicked_ising.floquet import FloquetSpec, Model\n"
            "from kicked_ising.spectral import floquet_spectrum\n"
            "floquet_spectrum(FloquetSpec(Model.UX, 6))\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        by_numpy, after = result.stdout.split()
        assert after == by_numpy

    @pytest.mark.parametrize("dim", [1, 2, 64, 129])
    def test_probe_check_near_its_bound_at_every_column(self, dim):
        # ||B^H B R - R||_F on the two probe columns R is rejected above
        # 1e-10; a change to any one column is rejected once the deviation,
        # formed here from a dense B^H B, is over the bound, and accepted
        # while it is under
        rng = np.random.default_rng(dim)

        def gaussian(cols):
            return rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))

        def deviation(u):
            return np.linalg.norm((u.conj().T @ u) @ probes - probes)

        q, _ = np.linalg.qr(gaussian(dim))
        probes = spectral._probes(dim)
        bound = spectral._UNITARY_TOLERANCE
        quasi_energies([q])
        for col in range(dim):
            direction = gaussian(1)[:, 0]
            u = q.copy()
            u[:, col] += 1e-6 * direction
            slope = deviation(u) / 1e-6
            outcomes = []
            for factor in (0.5, 2.0):
                u = q.copy()
                u[:, col] += factor * bound / slope * direction
                if deviation(u) > 1.01 * bound:
                    with pytest.raises(ValueError, match="not unitary"):
                        quasi_energies([u])
                    outcomes.append("rejected")
                elif deviation(u) < 0.99 * bound:
                    quasi_energies([u])
                    outcomes.append("accepted")
            assert outcomes == ["accepted", "rejected"]


def majorana_rotations(num_sites, planes):
    """R from (a, b, sign) quarter turns in order: m_a -> -sign m_b and
    m_b -> sign m_a, stated here apart from ``floquet._majorana_map``."""
    rot = np.eye(2 * num_sites)
    for a, b, sign in planes:
        rot[[a, b]] = sign * np.array([-rot[b], rot[a]])
    return rot


def u0_planes(num_sites):
    """Open U0: a field turn on every site's pair, then one on every bond's."""
    field = [(2 * j, 2 * j + 1, 1) for j in range(num_sites)]
    return field + [(2 * i + 1, 2 * i + 2, 1) for i in range(num_sites - 1)]


class TestMajoranaRoute:
    # the closed two-site U0 has one too: its bonds (1, 2) and (2, 1)
    # compose to the bilinear -i X_1 X_2
    @pytest.mark.parametrize("num_sites", range(2, 9))
    def test_only_open_u0_has_a_map(self, num_sites):
        for model, boundary in SECTOR_SPECS:
            has_map = _majorana_map(FloquetSpec(model, num_sites, boundary)) is not None
            closed_pair = (model, boundary, num_sites) == (Model.U0, Boundary.CLOSED, 2)
            assert has_map == ((model, boundary) == (Model.U0, Boundary.OPEN) or closed_pair)

    def test_closed_two_sites_take_the_sector_route(self):
        # eps = 0 and pi give Tr U = 0, which fixes no phi, so the levels
        # come from the sector blocks
        spec = FloquetSpec(Model.U0, 2, Boundary.CLOSED)
        assert _majorana_thetas(spec, _majorana_map(spec)) is None
        blocks = quasi_energies([_symmetric_block(spec, s) for s in spec.sectors()])
        assert_same_clusters(floquet_spectrum(spec).clusters, blocks.clusters)
        assert_same_clusters(blocks.clusters, [(-np.pi / 2, 2), (np.pi / 2, 2)])

    @pytest.mark.parametrize("num_sites", range(2, 13))
    def test_map_is_the_stated_rotations(self, num_sites):
        rot = _majorana_map(FloquetSpec(Model.U0, num_sites))
        assert np.array_equal(rot, majorana_rotations(num_sites, u0_planes(num_sites)))

    @pytest.mark.parametrize("num_sites", [*range(2, 40), 64, 128, 257])
    def test_majorana_mirror(self, num_sites):
        # R is a signed permutation, R^L sends each m_k to +-m_{2L+1-k} and
        # R^{2L} = -I, composed exactly on the 2L Majoranas: no 2^L array
        rot = _majorana_map(FloquetSpec(Model.U0, num_sites))
        assert np.isin(rot, (-1.0, 0.0, 1.0)).all()
        assert ((rot != 0).sum(axis=0) == 1).all() and ((rot != 0).sum(axis=1) == 1).all()
        perm, signs = np.abs(rot).argmax(axis=1), rot.sum(axis=1)
        # row k of R^n is sign[k] times row image[k] of I
        image, sign = np.arange(2 * num_sites), np.ones(2 * num_sites)
        for n in range(1, 2 * num_sites + 1):
            image, sign = perm[image], sign * signs[image]
            if n == num_sites:
                assert np.array_equal(image, np.arange(2 * num_sites)[::-1])
        assert np.array_equal(image, np.arange(2 * num_sites)) and (sign == -1).all()

    @pytest.mark.parametrize("num_sites", range(2, 17))
    def test_single_particle_phases(self, num_sites):
        # eps_j = (2j - 1) pi / (2L), each once as a pair e^{+-i eps_j}
        rot = _majorana_map(FloquetSpec(Model.U0, num_sites))
        cos = np.linalg.eigvalsh((rot + rot.T) / 2)
        eps = (2 * np.arange(num_sites, 0, -1) - 1) * np.pi / (2 * num_sites)
        np.testing.assert_allclose(cos, np.repeat(np.cos(eps), 2), rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.arccos(cos[::2]), eps, rtol=0, atol=1e-14)

    def test_no_dense_build_no_eigensolve_and_one_clustering(self, monkeypatch):
        def barred(*args):
            raise AssertionError("ran")

        clusterings = []

        def counting(thetas):
            clusterings.append(len(thetas))
            return _cluster_circular(thetas)

        monkeypatch.setattr(floquet, "build_dense", barred)
        monkeypatch.setattr(spectral, "quasi_energies", barred)
        monkeypatch.setattr(np.linalg, "eigvals", barred)
        monkeypatch.setattr(spectral, "_cluster_circular", counting)
        spectrum = floquet_spectrum(FloquetSpec(Model.U0, 8))
        assert spectrum.clusters is spectrum.clusters
        assert sum(m for _, m in spectrum.clusters) == 2**8
        assert clusterings == [2**8]

    def test_builds_no_sector_table(self, monkeypatch):
        def barred(*args):
            raise AssertionError("ran")

        monkeypatch.setattr(floquet, "symmetry_sectors", barred)
        spectrum = floquet_spectrum(FloquetSpec(Model.U0, DENSE_MAX_SITES))
        assert len(spectrum.thetas) == 2**DENSE_MAX_SITES

    @pytest.mark.parametrize("num_sites", range(2, 13))
    def test_matches_the_sector_blocks(self, num_sites):
        spec = FloquetSpec(Model.U0, num_sites)
        spectrum = floquet_spectrum(spec)
        blocks = quasi_energies([_symmetric_block(spec, s) for s in spec.sectors()])
        assert len(spectrum.thetas) == 2**num_sites
        assert_same_clusters(spectrum.clusters, blocks.clusters)

    @pytest.mark.parametrize("mutation", ["shifted-pair", "half-turn", "dropped-term"])
    @pytest.mark.parametrize("num_sites", [2, 3, 6, 9])
    def test_a_wrong_map_fails_the_trace_check(self, mutation, num_sites):
        # term k's pair moved up by one Majorana, turned twice (by pi), or
        # dropped, for every k; the last field pair would move onto
        # (m_2L, m_1), which relabels the Majorana chain one step round and
        # swaps the order of its two layers, and AB has the levels of BA
        spec = FloquetSpec(Model.U0, num_sites)
        planes = u0_planes(num_sites)
        for k, (a, b, sign) in enumerate(planes):
            if mutation == "shifted-pair" and b + 1 == 2 * num_sites:
                continue
            wrong = {
                "shifted-pair": [*planes[:k], (a + 1, b + 1, sign), *planes[k + 1 :]],
                "half-turn": [*planes[: k + 1], *planes[k:]],
                "dropped-term": [*planes[:k], *planes[k + 1 :]],
            }[mutation]
            with pytest.raises(ValueError, match="Tr U"):
                _majorana_thetas(spec, majorana_rotations(num_sites, wrong))

    @pytest.mark.parametrize("num_sites", [2, 3, 6, 9])
    def test_a_reflected_term_fails_the_pairing(self, num_sites):
        # m_a <-> m_b on one term: an R of determinant -1, whose cos values
        # +1 and -1 come unpaired
        spec = FloquetSpec(Model.U0, num_sites)
        for k, (a, b, _) in enumerate(u0_planes(num_sites)):
            wrong = majorana_rotations(num_sites, u0_planes(num_sites)[:k])
            wrong[[a, b]] = wrong[[b, a]]
            wrong = majorana_rotations(num_sites, u0_planes(num_sites)[k + 1 :]) @ wrong
            with pytest.raises(ValueError, match="cos pairs"):
                _majorana_thetas(spec, wrong)

    @pytest.mark.parametrize("num_sites", [2, 3, 6, 9])
    def test_a_reversed_quarter_turn_is_a_gauge(self, num_sites):
        # a -pi/2 turn on one term flips the sign of that term alone, which
        # conjugation by a Pauli string does too (X_j for a field Z_j,
        # Z_{i+1}...Z_L for a bond X_i X_{i+1}): the levels are those of U
        spec = FloquetSpec(Model.U0, num_sites)
        planes = u0_planes(num_sites)
        levels = _majorana_thetas(spec, _majorana_map(spec))
        for k, (a, b, _) in enumerate(planes):
            flipped = majorana_rotations(num_sites, [*planes[:k], (a, b, -1), *planes[k + 1 :]])
            ours = on_circle(_majorana_thetas(spec, flipped))
            assert circle_distance(ours, on_circle(levels)).max() < 1e-12

    def test_a_map_that_is_not_orthogonal_is_rejected(self):
        spec = FloquetSpec(Model.U0, 4)
        with pytest.raises(ValueError, match=r"\|R\^T R - I\| 2\.001e-03,"):
            _majorana_thetas(spec, 1.001 * _majorana_map(spec))


class TestSpaceTimeTraces:
    @pytest.mark.parametrize("num_sites", range(2, 9))
    @pytest.mark.parametrize("model", list(Model))
    def test_oracle_matches_dense_powers(self, model, num_sites):
        spec = FloquetSpec(model, num_sites)
        u = dense_floquet_oracle(spec)
        power = np.eye(2**num_sites)
        for n in range(1, 7):
            power = u @ power
            assert abs(transfer_trace_oracle(spec, n) - np.trace(power)) < 1e-12

    @pytest.mark.parametrize("model, num_sites", [(Model.U0, 12), (Model.UX, 11)])
    def test_spectrum_matches_the_traces(self, monkeypatch, model, num_sites):
        # sum_k m_k e^{-i n theta_k} = Tr U^n for n = 1..8, with eigvals
        # barred, so every block took the values-only route
        def barred(mat):
            raise AssertionError("eigvals ran")

        monkeypatch.setattr(np.linalg, "eigvals", barred)
        spec = FloquetSpec(model, num_sites)
        clusters = floquet_spectrum(spec).clusters
        centers = np.array([c for c, _ in clusters])
        counts = np.array([m for _, m in clusters])
        for n in range(1, 9):
            traced = np.sum(counts * np.exp(-1j * n * centers))
            assert abs(traced - transfer_trace_oracle(spec, n)) < 1e-10


    @pytest.mark.parametrize("num_sites", range(13, 17))
    def test_majorana_levels_match_the_traces_past_the_cap(self, num_sites):
        # sum_k e^{-i n theta_k} = Tr U^n for n = 1..6, on the 2^L levels
        # of the Majorana map, beyond the sizes any dense path runs
        spec = FloquetSpec(Model.U0, num_sites)
        thetas = _majorana_thetas(spec, _majorana_map(spec))
        assert len(thetas) == 2**num_sites
        for n in range(1, 7):
            traced = np.sum(np.exp(-1j * n * thetas))
            assert abs(traced - transfer_trace_oracle(spec, n)) < 1e-9


class TestSpacing:
    def test_u0_four_sites(self):
        spectrum = quasi_energies([build_dense(FloquetSpec(Model.U0, 4))])
        result = detect_spacing(spectrum)
        assert result is not None
        assert result.delta == pytest.approx(np.pi / 8, abs=1e-9)
        assert min(result.offset, result.delta - result.offset) < 1e-9

    def test_u0_six_sites(self):
        spectrum = quasi_energies([build_dense(FloquetSpec(Model.U0, 6))])
        result = detect_spacing(spectrum)
        assert result is not None
        assert result.delta == pytest.approx(np.pi / 12, abs=1e-9)
        assert min(result.offset, result.delta - result.offset) < 1e-9

    def test_ux_four_sites_offset_ladder(self):
        spectrum = quasi_energies([build_dense(FloquetSpec(Model.UX, 4))])
        result = detect_spacing(spectrum)
        assert result is not None
        assert result.delta == pytest.approx(np.pi / 6, abs=1e-9)
        assert result.offset == pytest.approx(np.pi / 12, abs=1e-9)

    def test_synthetic_ladder_with_offset(self):
        delta, offset = 0.35, 0.1
        centers = offset + delta * np.array([-3, -1, 0, 2, 5])
        result = detect_spacing(ladder(centers, [1] * 5))
        assert result is not None
        assert result.delta == pytest.approx(delta, abs=1e-9)
        assert result.offset == pytest.approx(offset, abs=1e-9)
        assert result.max_residual < 1e-9

    def test_collapsed_pitch_returns_none(self):
        # gaps whose common divisor falls below the tolerance floor cannot
        # support a ladder claim
        centers = [0.0, 5e-7, 1.2e-6]
        assert detect_spacing(ladder(centers, [1] * 3)) is None

    def test_near_miss_folds_into_finer_pitch(self):
        # a center off the coarse ladder by 1e-3 is reported as a ladder
        # with the refined common-divisor pitch, not rejected
        result = detect_spacing(ladder([0.0, 0.35, 0.701], [1] * 3))
        assert result is not None
        assert result.delta == pytest.approx(1e-3, abs=1e-9)

    def test_needs_two_clusters(self):
        with pytest.raises(ValueError):
            detect_spacing(ladder([0.5], [4]))


class TestPeriods:
    def test_identity_spectrum_has_period_one(self):
        report = detect_period_from_thetas(np.zeros(4), 5)
        assert report.period == 1
        assert report.exact_period == 1
        assert report.phase == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert report.deviation < 1e-12

    def test_u0_four_sites(self):
        report = detect_period(FloquetSpec(Model.U0, 4), 50)
        assert report.period == 16
        assert report.exact_period == 16
        assert report.phase == pytest.approx(1.0 + 0.0j, abs=1e-7)

    def test_ux_four_sites_projective_before_exact(self):
        report = detect_period(FloquetSpec(Model.UX, 4), 50)
        assert report.period == 12
        assert report.phase == pytest.approx(-1.0 + 0.0j, abs=1e-7)
        assert report.exact_period == 24

    def test_ux_six_sites(self):
        report = detect_period(FloquetSpec(Model.UX, 6), 100)
        assert report.period == 48
        assert report.exact_period == 48

    def test_closed_boundary_period_detected(self):
        report = detect_period(FloquetSpec(Model.U0, 4, Boundary.CLOSED), 100)
        assert report.exact_period is not None

    def test_no_recurrence_in_range(self):
        report = detect_period_from_thetas(np.array([0.0, 1.0]), 10)
        assert report.period is None
        assert report.exact_period is None
        assert report.deviation == float("inf")

    def test_rejects_an_empty_spectrum(self):
        with pytest.raises(ValueError, match="at least one quasi-energy"):
            detect_period_from_thetas(np.array([]), 5)

    def test_rejects_empty_scan(self):
        with pytest.raises(ValueError):
            detect_period_from_thetas(np.zeros(2), 0)

    @pytest.mark.parametrize("value", [2.5, np.float64(4.0), "4", True, 0])
    def test_rejects_a_max_n_before_any_spectrum(self, monkeypatch, value):
        # detect_period rejects it before paying for the spectrum
        if value == 0:
            message = "^max_n: must be >= 1, got 0$"
        else:
            message = f"^max_n: must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            detect_period_from_thetas(np.zeros(2), value)

        def unpaid(spec):
            raise AssertionError("the spectrum was built")

        monkeypatch.setattr(spectral, "floquet_spectrum", unpaid)
        with pytest.raises(ValueError, match=message):
            detect_period(FloquetSpec(Model.U0, 2), value)

    def test_takes_numpy_integers(self):
        assert detect_period_from_thetas(np.zeros(2), np.int64(3)).period == 1
        spec = FloquetSpec(Model.UX, 4)
        assert detect_period(spec, np.int32(50)) == detect_period(spec, 50)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("num_sites", range(2, 9))
    def test_matches_the_scan_of_every_n(self, model, num_sites, boundary):
        thetas = floquet_spectrum(FloquetSpec(model, num_sites, boundary)).thetas
        for max_n in (200, 50):
            report = detect_period_from_thetas(thetas, max_n)
            scanned = scan_period_oracle(thetas, max_n)
            if scanned.exact_period is None and report.exact_period is not None:
                # the scan stops at max_n; the multiples of the period go on
                assert report.exact_period > max_n
                assert report.exact_period % report.period == 0
                assert report.exact_deviation < spectral.PERIOD_TOLERANCE
                report = dataclasses.replace(
                    report, exact_period=None, exact_deviation=float("inf")
                )
            assert report == scanned

    def test_exact_period_past_the_scan(self):
        # 3 theta = pi/4 (mod 2 pi) on both levels, and U^3 = e^{-i pi/4} I
        # first returns to I at k = 8
        thetas = np.pi / 12 + np.array([0.0, 2 * np.pi / 3])
        report = detect_period_from_thetas(thetas, 10)
        assert report.period == 3
        assert report.phase == pytest.approx(np.exp(-0.25j * np.pi), abs=1e-12)
        assert report.exact_period == 24
        assert report.exact_deviation < spectral.PERIOD_TOLERANCE
