import functools
import random
import tracemalloc

import numpy as np
import pytest

from ame.oracle import (
    GraphSpec,
    StateVector,
    ame43,
    ame62,
    bell,
    bloch_coefficients,
    ghz,
    graph_state,
    one_site_basis,
    ring5,
    weight_distribution,
    weight_distribution_basis,
)
from ame.oracle import basis, weights


def _random_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return StateVector(n, d, v / np.linalg.norm(v))


def test_qubit_basis_is_pauli():
    g = one_site_basis(2)
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.array([[1, 0], [0, -1]])
    assert np.allclose(g[0], np.eye(2))
    assert np.allclose(g[1], x)
    assert np.allclose(g[2], y)
    assert np.allclose(g[3], z)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_basis_orthogonality(d):
    g = one_site_basis(d)
    assert g.shape == (d * d, d, d)
    for a in range(d * d):
        assert np.allclose(g[a], g[a].conj().T)  # Hermitian
        for b in range(d * d):
            inner = np.trace(g[a] @ g[b])
            assert inner == pytest.approx(d if a == b else 0.0, abs=1e-12)


def test_one_site_basis_rejects_d_below_two():
    with pytest.raises(ValueError, match="need d >= 2"):
        one_site_basis(1)


def test_bloch_coefficients_refuses_an_oversized_tensor_before_any_work(monkeypatch):
    # 4^12 float64 coefficients would take 128 MiB; the real basis is the
    # first thing the contraction builds
    def unreachable(d):
        raise AssertionError("the size check let an oversized tensor through")

    monkeypatch.setattr(basis, "_real_basis", unreachable)
    with pytest.raises(ValueError, match="coefficient tensor too large"):
        bloch_coefficients(ghz(12, 2))


def test_bloch_coefficients_single_qubit():
    amps = np.array([1.0, 0.0])
    r = bloch_coefficients(StateVector(1, 2, amps))
    # |0><0| = (I + Z) / 2, so r = (1, 0, 0, 1)
    assert np.allclose(r, [1.0, 0.0, 0.0, 1.0])


def test_bloch_coefficients_bell_correlators():
    r = bloch_coefficients(bell(2))
    assert r[0, 0] == pytest.approx(1.0)
    assert r[1, 1] == pytest.approx(1.0)   # <XX>
    assert r[2, 2] == pytest.approx(-1.0)  # <YY>
    assert r[3, 3] == pytest.approx(1.0)   # <ZZ>
    assert r[0, 1] == pytest.approx(0.0)


def test_coefficient_normalization_reproduces_purity():
    # tr(rho^2) = d^-n sum_alpha r_alpha^2
    state = _random_state(3, 2, 5)
    r = bloch_coefficients(state)
    assert (r**2).sum() / 2**3 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "state",
    [bell(2), bell(3), ghz(3, 2), ghz(3, 3), ame43(), ring5()],
    ids=["bell2", "bell3", "ghz32", "ghz33", "ame43", "ring5"],
)
def test_two_paths_agree_on_fixtures(state):
    mob = weight_distribution(state).per_subset
    bas = weight_distribution_basis(state).per_subset
    assert mob.keys() == bas.keys()
    for S in mob:
        assert bas[S] == pytest.approx(mob[S], abs=1e-9)


def test_two_paths_agree_on_random_states():
    for seed in range(4):
        state = _random_state(4, 2, seed)
        mob = weight_distribution(state).per_subset
        bas = weight_distribution_basis(state).per_subset
        for S in mob:
            assert bas[S] == pytest.approx(mob[S], abs=1e-9)
    state = _random_state(3, 3, 13)
    mob = weight_distribution(state).per_subset
    bas = weight_distribution_basis(state).per_subset
    for S in mob:
        assert bas[S] == pytest.approx(mob[S], abs=1e-9)


# --- the BLAS contraction and the per-party fold against written-out forms


def _kron_coefficients(state):
    """r_alpha = <psi| g_{a_0} x ... x g_{a_{n-1}} |psi> from explicit Kronecker products.

    The products are built depth first, each prefix g_{a_0} x ... x g_{a_k}
    formed once and extended by one np.kron per next-site operator.
    """
    n, d = state.n, state.d
    g = one_site_basis(d)
    psi = state.site_tensor().reshape(-1)  # party 0 most significant, as np.kron orders
    # <psi|op|psi> = sum_ij conj(psi_i) op_ij psi_j
    braket = np.outer(psi.conj(), psi)
    r = np.empty((d * d,) * n)

    def walk(alpha, op):
        if len(alpha) == n:
            value = np.sum(op * braket)
            assert abs(value.imag) <= 1e-12
            r[alpha] = value.real
            return
        for a in range(d * d):
            walk(alpha + (a,), np.kron(op, g[a]))

    walk((), np.eye(1))
    return r


_SHAPES = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (2, 5)]


@pytest.mark.parametrize("n, d", _SHAPES)
def test_bloch_coefficients_equal_kron_reference(n, d):
    state = _random_state(n, d, 60 + 10 * n + d)
    assert np.abs(bloch_coefficients(state) - _kron_coefficients(state)).max() <= 1e-12


@functools.lru_cache(maxsize=None)
def _state_and_reference(n, d, real):
    rng = np.random.default_rng(80 + 10 * n + d)
    v = rng.normal(size=d**n) + (0 if real else 1j * rng.normal(size=d**n))
    state = StateVector(n, d, v / np.linalg.norm(v))
    return state, _kron_coefficients(state)


# trailing blocks of at most 1, 4 and 16 entries and the default 2^16: every
# leading site split off (s = n), the middle values of s, and one s = 0 block
@pytest.mark.parametrize("entries", [1, 4, 16, None], ids=["1", "4", "16", "default"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n, d", _SHAPES)
def test_blocked_bloch_coefficients_equal_kron_reference(monkeypatch, n, d, real, entries):
    if entries is not None:
        monkeypatch.setattr(weights, "_STACK_ENTRIES", entries)
    state, want = _state_and_reference(n, d, real)
    got = bloch_coefficients(state)
    assert got.shape == want.shape and got.dtype == np.float64 and got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-12


def _bitmask_sums(state):
    """Squared coefficients summed by support: one bitmask per index, then bincount."""
    n, d = state.n, state.d
    sq = bloch_coefficients(state).reshape(-1) ** 2
    idx = np.arange(d ** (2 * n))
    masks = np.zeros(idx.shape, dtype=np.int64)
    for j in range(n):
        digit = (idx // (d * d) ** (n - 1 - j)) % (d * d)
        masks |= (digit != 0).astype(np.int64) << j
    return np.bincount(masks, weights=sq, minlength=2**n)


@pytest.mark.parametrize(
    "state",
    [
        ring5(),
        ame62(),
        _random_state(6, 2, 71),
        _random_state(4, 3, 72),
        _random_state(5, 3, 73),
        _random_state(2, 5, 74),
    ],
    ids=["ring5", "ame62", "haar6", "haar4-qutrit", "haar5-qutrit", "haar2-ququint"],
)
def test_weight_distribution_basis_equals_bitmask_sums(state):
    acc = _bitmask_sums(state)
    for S, value in weight_distribution_basis(state).per_subset.items():
        want = state.d ** len(S) * acc[sum(1 << j for j in S)]
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), S


def _graph10():
    """A seeded 10-qubit graph state."""
    rng = random.Random(5)
    edges = [(u, v, rng.randrange(2)) for u in range(10) for v in range(u + 1, 10)]
    return graph_state(GraphSpec.from_edges(10, 2, edges))


def _basis_route_peak(state):
    """tracemalloc peak of weight_distribution_basis on `state`."""
    tracemalloc.start()
    try:
        weight_distribution_basis(state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_basis_route_peak_is_under_two_real_coefficient_arrays():
    # the float64 coefficients take 8 MiB; each trailing block is 2^16
    # entries, and a complex d^(2n) density tensor, 16 MiB, is never formed
    assert _basis_route_peak(_graph10()) <= 2 * 8 * 2**20


def test_basis_route_folds_the_squares_in_place():
    # the float64 coefficients, squared and folded in place, and while they
    # are contracted two float64 blocks of 2^16 entries, 0.5 MiB each, the
    # two int8 sign tables and a little more: within three blocks.  Float64
    # sign tables took 0.9 MiB more, a per-block interleaving copy 0.5 MiB,
    # folding the squares out of place 6 MiB at 10 qubits
    for state, coeff_mib in ((_graph10(), 8), (_random_state(11, 2, 0), 32)):
        assert _basis_route_peak(state) <= (coeff_mib + 3 * 0.5) * 2**20, state.n


# --- the real form: r_alpha = (-1)^floor(k/2) tr((Re rho + Im rho) h_alpha)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_real_site_basis_is_real_with_the_imaginary_generators_antisymmetric(d):
    h, odd = basis._real_basis(d)
    assert h.dtype == np.float64 and h.shape == (d * d, d, d)
    assert int(odd.sum()) == d * (d - 1) // 2
    assert np.array_equal(h[odd].transpose(0, 2, 1), -h[odd])
    assert np.array_equal(h[~odd].transpose(0, 2, 1), h[~odd])
    # g_a = -i h_a for the antisymmetric members, g_a = h_a for the rest
    assert np.array_equal(one_site_basis(d), np.where(odd[:, None, None], -1j * h, h))
    # tr(h_a h_b^T) = d delta_ab, the orthogonality of the g_a
    assert np.allclose(np.einsum("aij,bij->ab", h, h), d * np.eye(d * d), atol=1e-12)


# every leading site split off (each sign in the leading operator) and the
# default budget (each sign in the trailing tables)
@pytest.mark.parametrize("entries", [1, None], ids=["1", "default"])
def test_bloch_coefficient_signs_written_out(monkeypatch, entries):
    if entries is not None:
        monkeypatch.setattr(weights, "_STACK_ENTRIES", entries)
    # (|0> + i|1>)/sqrt(2) is the +1 eigenvector of Y: k = 1
    plus_i = np.array([1.0, 1j]) / np.sqrt(2)
    assert np.allclose(bloch_coefficients(StateVector(1, 2, plus_i)), [1.0, 0.0, 1.0, 0.0])
    # (|000> + i|111>)/sqrt(2): YYY maps it to minus itself, so <YYY> = -1, k = 3
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[7] = 1 / np.sqrt(2), 1j / np.sqrt(2)
    r = bloch_coefficients(StateVector(3, 2, amps))
    assert r[2, 2, 2] == pytest.approx(-1.0, abs=1e-15)
    assert r[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
    # the qutrit (|0> + i|1>)/sqrt(2) and its square: generator 2 is the
    # antisymmetric one on levels 0 and 1, with <g_2> = sqrt(3/2), and
    # g_8 = diag(1, 1, -2)/sqrt(2) gives 1/sqrt(2)
    plus_i3 = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
    r = bloch_coefficients(StateVector(1, 3, plus_i3))
    want = np.zeros(9)
    want[0], want[2], want[8] = 1.0, np.sqrt(1.5), np.sqrt(0.5)
    r2 = bloch_coefficients(StateVector(2, 3, np.kron(plus_i3, plus_i3)))
    assert np.allclose(r, want, atol=1e-15)
    assert np.allclose(r2, np.outer(want, want), atol=1e-15)
    assert r2[2, 2] == pytest.approx(1.5, abs=1e-15)  # k = 2
