import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from ame.oracle import (
    BUILTIN_NAMES,
    DensityMatrix,
    GraphSpec,
    StateVector,
    ame43,
    ame62,
    bell,
    builtin_state,
    ghz,
    graph_state,
    k_uniformity,
    partial_trace,
    projector_property_residual,
    ring5,
    subset_purity,
    weight_distribution,
    weight_distribution_basis,
)
from ame.oracle import weights


def _random_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return StateVector(n, d, v / np.linalg.norm(v))


def test_partial_trace_bell_single_site():
    rho = partial_trace(bell(2), (0,)).entries
    assert np.allclose(rho, np.eye(2) / 2)


def test_partial_trace_ghz_two_sites():
    rho = partial_trace(ghz(3, 2), (0, 1)).entries
    assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))


def test_partial_trace_full_system_is_pure():
    state = _random_state(3, 2, 11)
    rho = partial_trace(state, (0, 1, 2)).entries
    assert np.vdot(rho, rho).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_validates_sites():
    state = bell(2)
    with pytest.raises(ValueError):
        partial_trace(state, ())
    with pytest.raises(ValueError):
        partial_trace(state, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(state, (2,))


@pytest.mark.parametrize("site", [1.7, "1", np.float64(2.0)], ids=["float", "str", "np.float64"])
def test_sites_must_be_integers(site):
    # a float or string site is refused, not truncated or parsed onto a party
    state = ghz(4, 2)
    with pytest.raises(ValueError, match="site must be an integer"):
        partial_trace(state, [site])
    with pytest.raises(ValueError, match="site must be an integer"):
        subset_purity(state, [site])
    with pytest.raises(ValueError, match="site must be an integer"):
        projector_property_residual(state, [site, 0, 3])


def test_numpy_integer_sites_are_accepted():
    state = _random_state(4, 2, 17)
    one = np.int64(1)
    assert partial_trace(state, [one]).parties == (1,)
    assert partial_trace(state, [one]).entries.tobytes() == partial_trace(state, [1]).entries.tobytes()
    assert subset_purity(state, [one]) == subset_purity(state, [1])
    residual = projector_property_residual(state, [one, np.int32(2), 3])
    assert residual == projector_property_residual(state, [1, 2, 3])


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix((0,), 2, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix((0,), 2, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix((0,), 2, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError, match="entries must be 2x2"):
        DensityMatrix((0,), 2, np.eye(4) / 4)  # a valid density matrix of two parties
    nan, inf = float("nan"), float("inf")
    for entries in ([[nan, 0], [0, 1]], [[0.5, nan], [nan, 0.5]], [[inf, 0], [0, 1]]):
        with pytest.raises(ValueError, match="non-finite entries"):
            DensityMatrix((0,), 2, np.array(entries))


def test_subset_purity_complement_symmetry():
    state = _random_state(5, 2, 4)
    for r in range(3):
        for sites in itertools.combinations(range(5), r):
            comp = tuple(j for j in range(5) if j not in sites)
            assert subset_purity(state, sites) == pytest.approx(
                subset_purity(state, comp), abs=1e-12
            )


@pytest.mark.parametrize("n, d", [(4, 2), (6, 2), (4, 3), (6, 3)])
def test_subset_purity_is_bit_identical_on_both_halves(n, d):
    # at |T| = n/2 neither side is smaller; both halves reduce the one mask the
    # pair rule picks, so they agree exactly and not only to rounding
    state = _random_state(n, d, 70 + 10 * n + d)
    for T in itertools.combinations(range(n), n // 2):
        comp = tuple(j for j in range(n) if j not in T)
        assert subset_purity(state, T) == subset_purity(state, comp), T


def test_subset_purity_empty_is_one():
    assert subset_purity(bell(2), ()) == pytest.approx(1.0)


def test_product_state_weights():
    # |0...0> at d=2: every tr(P_S^2) = 2^|S|
    amps = np.zeros(16)
    amps[0] = 1.0
    state = StateVector(4, 2, amps)
    dist = weight_distribution(state)
    for S, value in dist.per_subset.items():
        assert value == pytest.approx(2.0 ** len(S), abs=1e-9)


def test_weight_distribution_bell():
    dist = weight_distribution(bell(2)).per_weight()
    assert dist[1] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert dist[2] == pytest.approx([12.0], abs=1e-9)


def test_weight_distribution_ghz3():
    dist = weight_distribution(ghz(3, 2)).per_weight()
    assert dist[2] == pytest.approx([4.0, 4.0, 4.0], abs=1e-9)
    assert dist[3] == pytest.approx([32.0], abs=1e-9)


def test_weight_distribution_subset_order():
    dist = weight_distribution(ghz(3, 2))
    assert list(dist.per_subset) == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    ]


def test_purity_resummation():
    # sum_S d^-|S| tr(P_S^2) + 1 = d^n tr(rho^2) for any pure state
    for state in (bell(3), ghz(3, 2), _random_state(4, 2, 9)):
        dist = weight_distribution(state)
        total = sum(
            state.d ** (-len(S)) * v for S, v in dist.per_subset.items()
        )
        assert total + 1 == pytest.approx(state.d**state.n, rel=1e-12)


def test_weight_values_are_numerically_nonnegative():
    dist = weight_distribution(_random_state(4, 2, 21))
    assert all(v >= -1e-9 for v in dist.per_subset.values())


def test_k_uniformity_ghz3():
    report = k_uniformity(ghz(3, 2), 1)
    assert report.uniform
    assert report.max_deviation <= 1e-12


def test_k_uniformity_ghz4_fails_at_two():
    report = k_uniformity(ghz(4, 2), 2)
    assert not report.uniform
    assert report.max_deviation == pytest.approx(0.25)


def test_k_uniformity_reads_one_call_of_stacks_and_validates_each_keep_set(monkeypatch):
    # 252 five-qubit keep-sets of 32x32 reductions run as four stacks of <= 64
    calls, stacks, parties = [], [], []
    reduce = weights.reduction_stacks

    def counted(state, keeps):
        calls.append(len(keeps))
        for stack in reduce(state, keeps):
            stacks.append(len(stack[0]))
            yield stack

    post_init = DensityMatrix.__post_init__

    def recorded(self):
        parties.append(self.parties)
        post_init(self)

    monkeypatch.setattr(weights, "reduction_stacks", counted)
    monkeypatch.setattr(DensityMatrix, "__post_init__", recorded)
    report = k_uniformity(ghz(10, 2), 5)
    assert calls == [252]
    assert len(stacks) == 4 and sum(stacks) == 252
    assert parties == list(itertools.combinations(range(10), 5))
    assert not report.uniform and report.max_deviation == pytest.approx(0.5 - 1 / 32)


def test_k_uniformity_range_check(monkeypatch):
    with pytest.raises(ValueError):
        k_uniformity(bell(2), 0)
    with pytest.raises(ValueError):
        k_uniformity(bell(2), 2)

    # past floor(n/2) a reduction is never maximally mixed, so none is formed:
    # on ghz(13) at k = 11 that would take 38 s and 256 MiB
    def unformed(*args):
        raise AssertionError("a reduction was formed")

    monkeypatch.setattr(weights, "reduction_stacks", unformed)
    for k in (7, 12):
        with pytest.raises(ValueError, match=rf"floor\(n/2\) = 6, got k={k}"):
            k_uniformity(ghz(13, 2), k)


def test_projector_residual_bell():
    assert projector_property_residual(bell(2), (0,)) <= 1e-12


def test_projector_residual_ghz4_violated():
    worst = max(
        projector_property_residual(ghz(4, 2), keep)
        for keep in itertools.combinations(range(4), 2)
    )
    assert worst > 1e-3


def test_projector_residual_rejects_small_keep():
    with pytest.raises(ValueError):
        projector_property_residual(ghz(5, 2), (0, 1))


# --- Schmidt-side residual and the bitmask transform against written-out sums


def _graph_state(n, seed):
    rng = random.Random(seed)
    edges = [(u, v, rng.randrange(2)) for u in range(n) for v in range(u + 1, n)]
    return graph_state(GraphSpec.from_edges(n, 2, edges))


RESIDUAL_STATES = (
    [builtin_state(name) for name in BUILTIN_NAMES]
    + [ghz(4), ghz(7)]
    + [_graph_state(n, seed) for n, seed in ((8, 1), (9, 2), (10, 3))]
    + [_random_state(n, d, seed) for n, d, seed in ((5, 2, 31), (8, 2, 32), (4, 3, 33))]
)


def _keep_sets(n, seed):
    """Every admissible keep-set up to n = 7; beyond, a seeded dozen and the full set."""
    admissible = [
        keep for r in range(n - n // 2, n + 1) for keep in itertools.combinations(range(n), r)
    ]
    if n <= 7:
        return admissible
    picks = np.random.default_rng(seed).choice(len(admissible) - 1, 12, replace=False)
    return [admissible[i] for i in picks] + [admissible[-1]]


@pytest.mark.parametrize("idx", range(len(RESIDUAL_STATES)))
def test_projector_residual_equals_full_side_formula(idx):
    state = RESIDUAL_STATES[idx]
    for keep in _keep_sets(state.n, idx):
        rho = partial_trace(state, keep).entries
        k = state.n - len(keep)
        want = float(np.linalg.norm(rho @ rho - state.d ** (-k) * rho))
        assert abs(projector_property_residual(state, keep) - want) <= 1e-14, keep


def _inclusion_exclusion(state, S):
    d = state.d
    return d ** len(S) * sum(
        (-1) ** (len(S) - r) * d**r * subset_purity(state, T)
        for r in range(len(S) + 1)
        for T in itertools.combinations(S, r)
    )


TRANSFORM_STATES = {
    "bell3": bell(3),
    "ghz4": ghz(4),
    "ame43": ame43(),
    "ring5": ring5(),
    "graph6": _graph_state(6, 4),
    "haar5": _random_state(5, 2, 41),
    "haar3-qutrit": _random_state(3, 3, 42),
}


@pytest.mark.parametrize("state", TRANSFORM_STATES.values(), ids=TRANSFORM_STATES.keys())
def test_bitmask_transform_equals_inclusion_exclusion(state):
    dist = weight_distribution(state).per_subset
    assert len(dist) == 2**state.n - 1
    for S, value in dist.items():
        want = _inclusion_exclusion(state, S)
        bound = 1e-12 * state.d ** (2 * len(S))
        assert abs(value - want) <= bound, S


# --- one purity per complementary pair, against a direct call on each mask

PAIRED_STATES = {
    "ring5": ring5(),
    "graph7": _graph_state(7, 5),
    "ame62": ame62(),
    "haar6": _random_state(6, 2, 51),
    "haar4-qutrit": _random_state(4, 3, 52),
}


@pytest.mark.parametrize("state", PAIRED_STATES.values(), ids=PAIRED_STATES.keys())
def test_paired_purities_equal_direct_purities(monkeypatch, state):
    n = state.n
    tables = []
    purity_table = weights._purity_table

    def capturing(*args):
        table = purity_table(*args)
        # the transform overwrites the table in place
        tables.append(table.copy())
        return table

    monkeypatch.setattr(weights, "_purity_table", capturing)
    weight_distribution(state)
    (table,) = tables
    assert table.shape == (2**n,)
    reps = weights._pair_representatives(n)
    for mask, value in enumerate(table):
        want = subset_purity(state, [j for j in range(n) if mask >> j & 1])
        if 2 * mask.bit_count() == n:
            # the pair's two halves reduce different sides: equal up to rounding
            assert abs(value - want) <= 1e-12 * want, mask
        elif int(reps[mask]).bit_count() == n // 2:
            # both form the floor(n/2)-party side of the bipartition directly
            assert value == want, mask
        else:
            # the table's is traced down from the tier, subset_purity's formed
            assert abs(value - want) <= 1e-14 * want, mask


@pytest.mark.parametrize("state", PAIRED_STATES.values(), ids=PAIRED_STATES.keys())
def test_one_purity_per_complementary_pair(monkeypatch, state):
    n, full = state.n, 2**state.n - 1
    formed = []
    reduction_stacks = weights.reduction_stacks

    def counting(reduced, keeps):
        formed.extend(np.asarray(keeps).tolist())
        return reduction_stacks(reduced, keeps)

    monkeypatch.setattr(weights, "reduction_stacks", counting)
    weight_distribution(state)
    # only the floor(n/2)-party pair representatives are formed, each once:
    # every keep-set at odd n, those holding party 0 at even n; every smaller
    # one, and so every pair's small side, is traced down from them
    m = n // 2
    tier = [t for t in range(1, full) if t.bit_count() == m and (2 * m < n or t & 1)]
    assert sorted(formed) == tier
    assert len(formed) <= 2 ** (n - 1)


# --- reductions validated and read a stack at a time

BAD_MATRICES = {
    "nan": [[np.nan, 0], [0, 1]],
    "not-hermitian": [[0.5, 0.5j], [0.5j, 0.5]],
    "trace-2": np.eye(2),
    "negative-eigenvalue": np.diag([1.5, -0.5]),
}


@pytest.mark.parametrize("bad", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
def test_stacked_validation_raises_what_density_matrix_raises(bad):
    with pytest.raises(ValueError) as single:
        DensityMatrix((0,), 2, np.array(bad))
    singles = weights._masks_of_size(5, 1)
    _, stack = next(weights.reduction_stacks(_random_state(5, 2, 61), singles))
    stack = stack.copy()
    weights._validate(stack)
    stack[2] = bad
    with pytest.raises(ValueError) as stacked:
        weights._validate(stack)
    assert str(stacked.value) == str(single.value)


def _density_matrix(rng, dim, least, real):
    """Q diag(lam) Q^dag, unit trace, with Q seeded and least the smallest lam."""
    a = rng.normal(size=(dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    rest = rng.random(dim - 1) + 0.5
    lam = np.concatenate([[least], rest * (1 - least) / rest.sum()])
    rho = (q * lam) @ q.conj().T
    return (rho + rho.conj().T) / 2


def _assert_positivity_decided(rho, negative):
    """_validate on a stack and through DensityMatrix reject rho exactly when negative."""
    dim = rho.shape[-1]
    stack = np.stack([np.eye(dim) / dim, rho, np.eye(dim) / dim])
    for check in (lambda: weights._validate(stack), lambda: DensityMatrix((0,), dim, rho)):
        if negative:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                check()
        else:
            check()


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64, 128])
def test_positivity_is_decided_as_the_spectrum_decides(dim, real):
    # least eigenvalue -1e-9 * (1 +- 10^-k): a shift dropped, flipped or of
    # 1e-8 decides some of these the other way
    rng = np.random.default_rng([dim, real])
    decided = set()
    for k in range(2, 7):
        for sign in (1, -1):
            rho = _density_matrix(rng, dim, -1e-9 * (1 + sign * 10.0**-k), real)
            negative = bool(np.linalg.eigvalsh(rho).min() < -1e-9)
            _assert_positivity_decided(rho, negative)
            decided.add(negative)
    assert decided == {True, False}


@pytest.mark.parametrize(
    "dim, rank, real", [(729, 5, False), (1000, 1, True)], ids=["729-rank5", "1000-rank1"]
)
def test_rank_deficient_density_matrices_are_accepted(dim, rank, real):
    rng = np.random.default_rng(dim)
    v = rng.normal(size=(dim, rank))
    if not real:
        v = v + 1j * rng.normal(size=(dim, rank))
    rho = v @ v.conj().T
    rho = rho / np.trace(rho).real
    rho = (rho + rho.conj().T) / 2
    assert np.linalg.eigvalsh(rho).min() >= -1e-9
    _assert_positivity_decided(rho, False)


STACK_STATES = {
    "ring5": ring5(),
    "ame62": ame62(),
    "graph7": _graph_state(7, 6),
    "haar4-qutrit": _random_state(4, 3, 62),
}


@pytest.mark.parametrize("entries", [4, 2**16])
@pytest.mark.parametrize("state", STACK_STATES.values(), ids=STACK_STATES.keys())
def test_reduction_stacks_equal_partial_traces(monkeypatch, state, entries):
    # a budget of 4 entries puts one reduction in a stack
    monkeypatch.setattr(weights, "_STACK_ENTRIES", entries)
    n = state.n
    for r in range(1, n):
        want = [sum(1 << j for j in R) for R in itertools.combinations(range(n), r)]
        stacks = list(weights.reduction_stacks(state, weights._masks_of_size(n, r)))
        masks = np.concatenate([m for m, _ in stacks]).tolist()
        # each keep-set once, in the order given, at every size
        assert masks == want
        rhos = np.concatenate([rho for _, rho in stacks])
        for mask, rho in zip(masks, rhos):
            R = [j for j in range(n) if mask >> j & 1]
            entries = partial_trace(state, R).entries
            assert rho.astype(np.complex128).tobytes() == entries.tobytes(), R


def test_quarter_turn_phases_are_exact_and_real_states_reduce_in_float64():
    real_states = [builtin_state(name) for name in BUILTIN_NAMES] + [
        _graph_state(n, seed) for n, seed in ((3, 1), (6, 2), (9, 3))
    ]
    for state in real_states:
        assert not state.amplitudes.imag.any(), (state.n, state.d)
    # on ququarts every phase is a quarter turn
    rng = random.Random(4)
    n = 5
    edges = [(u, v, rng.randrange(4)) for u in range(n) for v in range(u + 1, n)]
    amps = graph_state(GraphSpec.from_edges(n, 4, edges)).amplitudes
    a = 4 ** (-n / 2)
    assert set(amps.tolist()) <= {a, -a, 1j * a, -1j * a}
    assert amps.imag.any()
    qutrit = graph_state(GraphSpec.from_edges(3, 3, [(0, 1), (1, 2, 2)]))
    for state, dtype in ((ring5(), np.float64), (qutrit, np.complex128)):
        for r in range(1, state.n):
            for _, rho in weights.reduction_stacks(state, weights._masks_of_size(state.n, r)):
                assert rho.dtype == dtype, (state.d, r)


def _einsum_reduction(state, R):
    """rho_R by one np.einsum over the (d,)*n site tensor, kept sites ascending,
    the first one the most significant digit of the row."""
    n, d = state.n, state.d
    ket = [chr(ord("a") + j) for j in range(n)]
    bra = [chr(ord("A") + j) if j in R else ket[j] for j in range(n)]
    out = [ket[j] for j in R] + [bra[j] for j in R]
    t = state.site_tensor()
    rho = np.einsum(f"{''.join(ket)},{''.join(bra)}->{''.join(out)}", t, t.conj())
    return rho.reshape(d ** len(R), d ** len(R))


@pytest.mark.parametrize("entries", [4, 2**16])
@pytest.mark.parametrize("state", STACK_STATES.values(), ids=STACK_STATES.keys())
def test_reduction_stacks_equal_an_einsum_partial_trace(monkeypatch, state, entries):
    monkeypatch.setattr(weights, "_STACK_ENTRIES", entries)
    n = state.n
    for r in range(1, n + 1):
        want = [sum(1 << j for j in R) for R in itertools.combinations(range(n), r)]
        stacks = list(weights.reduction_stacks(state, want))
        masks = np.concatenate([m for m, _ in stacks]).tolist()
        assert masks == want
        rhos = np.concatenate([rho for _, rho in stacks])
        assert len(rhos) == len(want)
        for mask, rho in zip(masks, rhos):
            R = [j for j in range(n) if mask >> j & 1]
            assert np.abs(rho - _einsum_reduction(state, R)).max() <= 1e-15, R


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_representatives_are_the_smaller_side(n):
    # at |T| = n/2 the representative is the side holding party 0
    full = 2**n - 1
    want = [min(t, full ^ t, key=lambda k: (k.bit_count(), not k & 1)) for t in range(2**n)]
    assert weights._pair_representatives(n).tolist() == want


def _per_subset_by_mask(state):
    """per_subset written out mask by mask: each pair's purity from its smaller side."""
    n, full = state.n, 2**state.n - 1
    by_pair = {}
    table = np.empty(2**n)
    for t in range(2**n):
        rep = min(t, full ^ t, key=lambda k: (k.bit_count(), k))
        if rep not in by_pair:
            by_pair[rep] = subset_purity(state, [j for j in range(n) if rep >> j & 1])
        table[t] = by_pair[rep]
    traces = weights._transform(table, state.d).tolist()
    supports = (S for r in range(1, n + 1) for S in itertools.combinations(range(n), r))
    return {S: traces[sum(2**j for j in S)] for S in supports}


PER_SUBSET_STATES = {
    **{name: builtin_state(name) for name in BUILTIN_NAMES},
    "graph10": _graph_state(10, 10),
    "graph12": _graph_state(12, 12),
    "graph13": _graph_state(13, 13),
}


@pytest.mark.parametrize("state", PER_SUBSET_STATES.values(), ids=PER_SUBSET_STATES.keys())
def test_per_subset_is_the_mask_table_in_support_order(state):
    got = weight_distribution(state).per_subset
    want = _per_subset_by_mask(state)
    assert list(got) == list(want)
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


# --- the small-side sweep: the floor(n/2)-party tier, traced down


def _tensordot_reduction(state, R):
    """rho_R as psi psi^dag contracted over the traced-out site axes."""
    t = state.site_tensor()
    traced = [j for j in range(state.n) if j not in R]
    rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    return rho.reshape(state.d ** len(R), state.d ** len(R))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", range(1, 10))
def test_small_side_sweep_yields_each_keep_set_once(n, d):
    state = _random_state(n, d, 100 + 10 * n + d)
    swept = {}
    for masks, rho in weights._small_side_stacks(state, weights._masks_of_size(n, n // 2)):
        for mask, matrix in zip(masks.tolist(), rho):
            assert mask not in swept, mask
            swept[mask] = matrix
    keeps = [R for r in range(1, n // 2 + 1) for R in itertools.combinations(range(n), r)]
    assert sorted(swept) == sorted(sum(1 << j for j in R) for R in keeps)
    for R in keeps:
        rho = swept[sum(1 << j for j in R)]
        assert np.abs(rho - _tensordot_reduction(state, R)).max() <= 1e-14, R


def test_weight_distribution_peak_stays_below_two_mib():
    # the six-party tier of a 13-qubit state is 1716 64x64 matrices, 56 MiB
    # held at once; the sweep holds one stack per level
    state = _graph_state(13, 23)
    # the first call caches the support and pair tables of 13 parties
    weight_distribution(state)
    tracemalloc.start()
    try:
        weight_distribution(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_one_party_state_has_no_tier_and_all_routes_agree():
    # floor(1/2) = 0: nothing is reduced, and the one purity is that of the
    # empty reduction's pair
    state = _random_state(1, 3, 7)
    dev, proj, table = weights.verification_sweep(state)
    assert table.tolist() == [1.0, 1.0]
    traces = weights._transform(table.copy(), state.d)
    swept = weights.WeightDistribution.from_masks(1, state.d, traces).per_subset
    purity = weight_distribution(state).per_subset
    basis = weight_distribution_basis(state).per_subset
    assert dev == 0.0 and proj <= 1e-15
    assert list(purity) == list(swept) == list(basis) == [(0,)]
    assert purity == swept
    assert purity[(0,)] == pytest.approx(basis[(0,)], rel=1e-12)
    assert purity[(0,)] == pytest.approx(state.d * (state.d - 1), rel=1e-12)


# --- which reductions each route forms, and the per-stack reads


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", range(2, 10))
def test_each_route_forms_its_tier_once(monkeypatch, n, d):
    # verify needs every m-set for its deviation and residual; the purity
    # route needs only the m-party pair representatives, whose descendants
    # are every smaller pair representative
    state = _random_state(n, d, 200 + 10 * n + d)
    m = n // 2
    formed = []
    reduction_stacks = weights.reduction_stacks

    def counting(reduced, keeps):
        formed.extend(np.asarray(keeps).tolist())
        return reduction_stacks(reduced, keeps)

    monkeypatch.setattr(weights, "reduction_stacks", counting)
    weights.verification_sweep(state)
    assert sorted(formed) == [t for t in range(2**n) if t.bit_count() == m]
    assert len(formed) == math.comb(n, m)
    formed.clear()
    weight_distribution(state)
    assert sorted(formed) == [t for t in range(2**n) if t.bit_count() == m and (n % 2 or t & 1)]
    assert len(formed) == (math.comb(n, m) if n % 2 else math.comb(n - 1, m - 1))


def test_requests_below_the_tier_form_exactly_the_asked_keep_sets(monkeypatch):
    # a request of any size is formed directly, in the order given: no
    # floor(n/2)-party tier is formed above it and nothing is traced down
    n = 13
    state = _graph_state(n, 90 + n)
    formed = []
    reduction_stacks = weights.reduction_stacks

    def counting(reduced, keeps):
        formed.extend(np.asarray(keeps).tolist())
        return reduction_stacks(reduced, keeps)

    def untraceable(*args):
        raise AssertionError("a requested reduction was traced down")

    monkeypatch.setattr(weights, "reduction_stacks", counting)
    monkeypatch.setattr(weights, "_trace_digit", untraceable)
    rng = np.random.default_rng(n)
    for r in range(1, n // 2):
        formed.clear()
        tier = weights._masks_of_size(n, r)
        asked = rng.permutation(tier)[: (len(tier) + 1) // 2]
        got = [m for masks, _ in weights.reduction_stacks(state, asked) for m in masks.tolist()]
        assert got == formed == asked.tolist(), r
    formed.clear()
    k_uniformity(state, 3)
    assert formed == weights._masks_of_size(n, 3).tolist()
    assert len(formed) == math.comb(n, 3) == 286


def _real_haar_state(n, d, seed):
    v = np.random.default_rng(seed).normal(size=d**n)
    return StateVector(n, d, v / np.linalg.norm(v))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n, d", [(6, 2), (7, 2), (4, 3), (5, 3)])
def test_stacked_purities_equal_one_vdot_per_matrix(n, d, real):
    state = (_real_haar_state if real else _random_state)(n, d, 300 + 10 * n + d)
    for r in range(1, n):
        for _, rho in weights.reduction_stacks(state, weights._masks_of_size(n, r)):
            assert rho.dtype == (np.float64 if real else np.complex128)
            got = weights._purities(rho)
            want = np.array([np.vdot(matrix, matrix).real for matrix in rho])
            assert got.shape == want.shape
            assert (np.abs(got - want) <= 1e-15 * want).all(), r


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_stacked_purities_of_an_empty_stack_are_empty(dtype):
    for dim in (1, 8):
        assert weights._purities(np.zeros((0, dim, dim), dtype=dtype)).shape == (0,)


SHARED_READ_STATES = {
    "haar6": _random_state(6, 2, 81),
    "haar7": _random_state(7, 2, 82),
    "real-haar6": _real_haar_state(6, 2, 83),
    "haar4-qutrit": _random_state(4, 3, 84),
    "graph8": _graph_state(8, 85),
}


@pytest.mark.parametrize("state", SHARED_READ_STATES.values(), ids=SHARED_READ_STATES.keys())
def test_subset_purity_is_the_table_entry(monkeypatch, state):
    # both read a pair's purity off its representative with the same stacked
    # dot: exactly where both form the floor(n/2)-party representative, the
    # n/2 ties included, and to rounding below, where the table's is traced
    n = state.n
    tables = []
    purity_table = weights._purity_table

    def capturing(*args):
        table = purity_table(*args)
        tables.append(table.copy())
        return table

    monkeypatch.setattr(weights, "_purity_table", capturing)
    weight_distribution(state)
    (table,) = tables
    reps = weights._pair_representatives(n)
    for mask, value in enumerate(table.tolist()):
        got = subset_purity(state, [j for j in range(n) if mask >> j & 1])
        if int(reps[mask]).bit_count() == n // 2:
            assert got == value, mask
        else:
            assert abs(got - value) <= 1e-14 * value, mask


def _qutrit_graph_state():
    edges = [(0, 1), (1, 2, 2), (2, 3), (3, 4, 2), (0, 4), (0, 2, 2)]
    return graph_state(GraphSpec.from_edges(5, 3, edges))


@pytest.mark.parametrize(
    "state, k",
    [
        (ghz(10, 2), 5),
        (_qutrit_graph_state(), 2),
        (_random_state(6, 2, 91), 2),
        (_random_state(6, 2, 91), 3),
    ],
    ids=["ghz10-k5", "qutrit-graph5-k2", "haar6-k2", "haar6-k3"],
)
def test_k_uniformity_deviation_is_the_per_matrix_maximum(state, k):
    # the deviation read once a stack equals the maximum over each keep-set's
    # own DensityMatrix, bit for bit
    n, d, dim = state.n, state.d, state.d**k
    want = 0.0
    for R in itertools.combinations(range(n), k):
        entries = DensityMatrix(R, d, partial_trace(state, R).entries).entries
        want = max(want, float(np.abs(entries - np.eye(dim) / dim).max()))
    assert k_uniformity(state, k).max_deviation == want
