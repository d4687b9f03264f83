"""Property tests: physical invariants on random states.

Each example draws a chain length and a seed; the seed fixes the random
state (and the random local unitaries), so a failing example is replayed
from the two integers hypothesis reports.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kicked_ising.core import StateVector, apply_matrix_at_site, partial_trace
from kicked_ising.entanglement import entropy, geometric_measure
from kicked_ising.qfi import covariance_matrix, maximize_qfi

from oracles import max_schmidt_coefficient, random_state

FAST = settings(max_examples=50, deadline=None, derandomize=True)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@FAST
@given(num_sites=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_subset_and_complement_have_equal_entropy(num_sites, seed, data):
    l = data.draw(st.integers(1, num_sites - 1), label="l")
    state = StateVector(num_sites, random_state(np.random.default_rng(seed), num_sites))
    sites = range(1, num_sites + 1)
    subsets = list(itertools.combinations(sites, l))
    complements = [tuple(s for s in sites if s not in subset) for subset in subsets]
    s_keep = entropy(partial_trace(state, np.array(subsets)))
    s_rest = entropy(partial_trace(state, np.array(complements)))
    np.testing.assert_allclose(s_keep, s_rest, rtol=0, atol=1e-9)


@FAST
@given(num_sites=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_geometric_measure_is_unchanged_by_local_unitaries(num_sites, seed):
    rng = np.random.default_rng(seed)
    amps = random_state(rng, num_sites)
    rotated = amps
    for site in range(1, num_sites + 1):
        rotated = apply_matrix_at_site(rotated, num_sites, site, random_unitary(rng))
    before = geometric_measure(StateVector(num_sites, amps), seed=seed)
    after = geometric_measure(StateVector(num_sites, rotated), seed=seed)
    assert abs(before.e_g - after.e_g) < 1e-6


@FAST
@given(num_sites=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_no_overlap_exceeds_a_cut_schmidt_coefficient(num_sites, seed):
    amps = random_state(np.random.default_rng(seed), num_sites)
    result = geometric_measure(StateVector(num_sites, amps), seed=seed)
    assert result.lambda_ <= max_schmidt_coefficient(amps, num_sites) + 1e-9


@FAST
@given(num_sites=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_qfi_maximum_is_bounded_stationary_and_locally_invariant(num_sites, seed):
    rng = np.random.default_rng(seed)
    amps = random_state(rng, num_sites)
    rotated = amps
    for site in range(1, num_sites + 1):
        rotated = apply_matrix_at_site(rotated, num_sites, site, random_unitary(rng))
    state = StateVector(num_sites, amps)
    result = maximize_qfi(state, seed=seed)
    assert result.converged
    assert result.f_q <= num_sites**2 + 1e-9
    after = maximize_qfi(StateVector(num_sites, rotated), seed=seed)
    assert abs(after.f_q - result.f_q) < 1e-8
    # at a maximum each site's gradient (Gamma n)_i is parallel to n_i
    n = result.direction.n_hats
    grad = (covariance_matrix(state).gamma @ n.reshape(-1)).reshape(num_sites, 3)
    across = grad - (grad * n).sum(axis=1, keepdims=True) * n
    assert np.abs(across).max() < 1e-6
