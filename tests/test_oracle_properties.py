"""Invariances the physics guarantees, on Haar-random states.

The purity route and the Bloch-basis route must agree support by support,
the purity route resums to d^n, weight traces are local-unitary invariants,
and relabelling the parties relabels the supports.  `verify`'s one sweep
reports what `k_uniformity`, `projector_property_residual` and
`weight_distribution` give on their own, `k_uniformity` and the sweep's
stacks give what `partial_trace` gives set by set, and the Frobenius
projector residual is a local-unitary invariant, and so is `verify`'s
verdict on Reed-Solomon AME states.  Real states, whose reductions are
formed in float64, weigh and verify as their complex global phase does and
as the Bloch-basis route weighs them.
States are drawn from a seed so that hypothesis can shrink a failure to a
reproducible (n, d, seed).

Values reach d^(2n) (about 2.6e5 at n = 6, d = 3), where the alternating
inclusion-exclusion sum alone rounds by a few 1e-9, so a gap is held to TOL
absolute below 1 and to TOL relative above it.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ame.cli import run_verification
from ame.oracle import (
    GraphSpec,
    StateVector,
    graph_state,
    k_uniformity,
    partial_trace,
    projector_property_residual,
    weight_distribution,
    weight_distribution_basis,
)
from ame.oracle.weights import (
    WeightDistribution,
    _masks_of_size,
    _max_deviation,
    _transform,
    reduction_stacks,
    verification_sweep,
)
from reference_values import reed_solomon_edges

TOL = 1e-9

shapes = st.tuples(st.integers(2, 6), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))


def _haar_vector(rng, size):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def _real_state(shape):
    n, d, seed = shape
    v = np.random.default_rng(seed).normal(size=d**n)
    return StateVector(n, d, v / np.linalg.norm(v))


def _qubit_graph_state(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v, int(rng.integers(2))) for u in range(n) for v in range(u + 1, n)]
    return graph_state(GraphSpec.from_edges(n, 2, edges))


# states with no imaginary part, and a global phase e^(i theta) that makes them complex
real_states = st.one_of(
    st.builds(_real_state, shapes),
    st.builds(_qubit_graph_state, st.integers(2, 6), st.integers(0, 2**32 - 1)),
)
phases = st.floats(0.1, 3.0)


def _haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _from_sites(t, d):
    """StateVector from a tensor whose axis j is party j."""
    n = t.ndim
    flat = t.transpose(tuple(range(n - 1, -1, -1))).reshape(-1)
    return StateVector(n, d, flat / np.linalg.norm(flat))


def _locally_rotated(rng, state):
    """The state under an independent Haar unitary on every party."""
    t = state.site_tensor()
    for j in range(state.n):
        t = np.moveaxis(np.tensordot(_haar_unitary(rng, state.d), t, axes=(1, j)), 0, j)
    return _from_sites(t, state.d)


def _keep_sets(n):
    """Every keep-set the projector property applies to: n - floor(n/2) parties or more."""
    return [keep for r in range(n - n // 2, n + 1) for keep in itertools.combinations(range(n), r)]


def _max_gap(a, b, relabel=lambda S: S):
    assert len(a.per_subset) == len(b.per_subset)
    return max(
        abs(value - b.per_subset[relabel(S)]) / max(1.0, abs(value))
        for S, value in a.per_subset.items()
    )


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_purity_route_equals_basis_route(shape):
    n, d, seed = shape
    state = StateVector(n, d, _haar_vector(np.random.default_rng(seed), d**n))
    assert _max_gap(weight_distribution(state), weight_distribution_basis(state)) <= TOL


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_weights_invariant_under_local_unitaries(shape):
    n, d, seed = shape
    rng = np.random.default_rng(seed)
    state = StateVector(n, d, _haar_vector(rng, d**n))
    rotated = _locally_rotated(rng, state)
    assert _max_gap(weight_distribution(state), weight_distribution(rotated)) <= TOL


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_permuting_parties_permutes_supports(shape):
    n, d, seed = shape
    rng = np.random.default_rng(seed)
    state = StateVector(n, d, _haar_vector(rng, d**n))
    perm = rng.permutation(n)
    # party i of the relabelled state is party perm[i] of the original
    relabelled = _from_sites(state.site_tensor().transpose(perm), d)

    def original_support(S):
        return tuple(sorted(int(perm[i]) for i in S))

    dist = weight_distribution(relabelled)
    assert _max_gap(dist, weight_distribution(state), original_support) <= TOL


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_purity_resummation_sum_rule(shape):
    # 1 + sum_S d^-|S| tr(P_S^2) = d^n tr(rho^2) = d^n for a pure state
    n, d, seed = shape
    state = StateVector(n, d, _haar_vector(np.random.default_rng(seed), d**n))
    total = 1.0 + sum(v * d ** -len(S) for S, v in weight_distribution(state).per_subset.items())
    assert abs(total - d**n) <= TOL * d**n


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_verification_sweep_reports_the_standalone_checks(shape):
    n, d, seed = shape
    state = StateVector(n, d, _haar_vector(np.random.default_rng(seed), d**n))
    rows = run_verification(state, TOL)
    deviation = k_uniformity(state, n // 2).max_deviation
    residual = max(projector_property_residual(state, keep) for keep in _keep_sets(n))
    assert rows[0][2] == f"max deviation {deviation:.3e}"
    assert rows[-1][2] == f"max residual {residual:.3e}"


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_verification_sweep_weights_equal_the_purity_route(shape):
    n, d, seed = shape
    state = StateVector(n, d, _haar_vector(np.random.default_rng(seed), d**n))
    table = verification_sweep(state)[2]
    got = WeightDistribution.from_masks(n, d, _transform(table.copy(), d)).per_weight()
    want = weight_distribution(state).per_weight()
    assert got.keys() == want.keys()
    for w in want:
        assert len(got[w]) == len(want[w])
        assert max(abs(a - b) for a, b in zip(got[w], want[w])) <= 1e-15, w


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_k_uniformity_and_stacks_equal_the_per_set_deviations(shape):
    n, d, seed = shape
    state = StateVector(n, d, _haar_vector(np.random.default_rng(seed), d**n))
    for k in range(1, n):
        per_set = max(
            _max_deviation(partial_trace(state, R).entries)
            for R in itertools.combinations(range(n), k)
        )
        assert k_uniformity(state, k).max_deviation == per_set, k
        stacks = reduction_stacks(state, _masks_of_size(n, k))
        assert max(_max_deviation(rho) for _, rho in stacks) == per_set, k


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_verification_sweep_residual_equals_the_standalone_maximum(shape):
    n, d, seed = shape
    state = StateVector(n, d, _haar_vector(np.random.default_rng(seed), d**n))
    residual = max(projector_property_residual(state, keep) for keep in _keep_sets(n))
    # the sweep traces its small sides down from the floor(n/2)-party tier,
    # the standalone residual forms each directly: equal up to rounding
    swept = verification_sweep(state)[1]
    assert abs(swept - residual) <= 1e-14 * residual
    assert run_verification(state, TOL)[-1][2] == f"max residual {swept:.3e}"


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_verification_passes_locally_rotated_reed_solomon_states(seed):
    # AME(5, 7) and AME(6, 7) under a Haar unitary on every party are still
    # AME, with no graph-state structure left in their amplitudes
    rng = np.random.default_rng(seed)
    for n in (5, 6):
        state = graph_state(GraphSpec.from_edges(n, 7, reed_solomon_edges(n, 7)))
        rows = run_verification(_locally_rotated(rng, state), TOL)
        assert all(ok for _, ok, _ in rows), (n, rows)


@settings(max_examples=12, deadline=None)
@given(shapes)
def test_projector_residual_invariant_under_local_unitaries(shape):
    n, d, seed = shape
    rng = np.random.default_rng(seed)
    state = StateVector(n, d, _haar_vector(rng, d**n))
    rotated = _locally_rotated(rng, state)
    for keep in _keep_sets(n):
        gap = projector_property_residual(state, keep) - projector_property_residual(rotated, keep)
        assert abs(gap) <= 1e-12, keep


def _complex_phase(state, theta):
    rotated = StateVector(state.n, state.d, np.exp(1j * theta) * state.amplitudes)
    assert not state.amplitudes.imag.any() and rotated.amplitudes.imag.any()
    return rotated


@settings(max_examples=12, deadline=None)
@given(real_states, phases)
def test_real_states_weigh_as_their_complex_phase_and_the_basis_route(state, theta):
    dist = weight_distribution(state)
    assert _max_gap(dist, weight_distribution(_complex_phase(state, theta))) <= TOL
    assert _max_gap(dist, weight_distribution_basis(state)) <= TOL


@settings(max_examples=12, deadline=None)
@given(real_states, phases)
def test_verification_sweep_reads_real_states_as_their_complex_phase(state, theta):
    deviation, residual, _ = verification_sweep(state)
    phased_deviation, phased_residual, _ = verification_sweep(_complex_phase(state, theta))
    assert abs(deviation - phased_deviation) <= TOL
    assert abs(residual - phased_residual) <= TOL
