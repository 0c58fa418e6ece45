import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ame.oracle import (
    BUILTIN_NAMES,
    GraphSpec,
    StateVector,
    ame62_graph,
    builtin_state,
    find_ame_graph,
    graph_state,
    k_uniformity,
    ring_graph,
    search,
)
from ame.oracle.search import _GRAPH_CAP, _STATE_CAP, _cut_table, _uniform_cuts


def _uniform_cuts_by_loop(adj, d):
    """The per-cut kernel test on a (B, n, n) adjacency stack, the reference.

    A cut T passes when G x != 0 mod d for every nonzero x in Z_d^|T|, with
    G = adj[Tbar, T]; each cut reads only the candidates earlier cuts kept.
    """
    n = adj.shape[-1]
    k = n // 2
    xs = np.indices((d,) * k).reshape(k, -1)[:, 1:]
    alive = np.ones(len(adj), dtype=bool)
    for cut in itertools.combinations(range(n), k):
        rest = [j for j in range(n) if j not in cut]
        live = np.flatnonzero(alive)
        images = adj[live][:, rest][:, :, cut] @ xs % d
        alive[live] = images.any(axis=1).all(axis=1)
    return alive


def _candidates(n, d):
    """Every candidate's edge-weight row, in search order, and its adjacency."""
    upper = np.triu_indices(n, 1)
    weights = np.array(list(itertools.product(range(d), repeat=len(upper[0]))))
    adj = np.zeros((len(weights), n, n), dtype=np.int64)
    adj[:, upper[0], upper[1]] = adj[:, upper[1], upper[0]] = weights
    return weights, adj


def _admitted_shapes():
    """Every (n, d) the search caps admit."""
    return [
        (n, d)
        for n in range(2, _STATE_CAP.bit_length() + 1)
        for d in range(2, _STATE_CAP + 1)
        if d**n <= _STATE_CAP and d ** (n * (n - 1) // 2) <= _GRAPH_CAP
    ]


def _injective_count(n, d):
    """(n-k) x k matrices over Z_d, k = floor(n/2), with no nonzero kernel vector.

    By the CRT, the product over p^e || d of the count over Z_{p^e}: a matrix
    is injective there exactly when it has full column rank mod p, so
    p^((e-1)k(n-k)) lifts of each of the prod_{i<k} (p^(n-k) - p^i) such
    matrices over F_p.
    """
    k = n // 2
    count, p = 1, 2
    while d > 1:
        e = 0
        while d % p == 0:
            d, e = d // p, e + 1
        if e:
            count *= p ** ((e - 1) * k * (n - k)) * math.prod(p ** (n - k) - p**i for i in range(k))
        p += 1
    return count


def test_two_qubit_search_finds_only_the_edge():
    hits = find_ame_graph(2, 2)
    assert hits == [GraphSpec.from_edges(2, 2, [(0, 1)])]


def test_three_qubit_search_nonempty_and_verified():
    hits = find_ame_graph(3, 2)
    assert hits
    for spec in hits:
        assert k_uniformity(graph_state(spec), 1).uniform


def test_four_qubit_search_is_empty():
    assert find_ame_graph(4, 2) == []


def test_five_qubit_search_contains_ring():
    hits = find_ame_graph(5, 2)
    assert len(hits) == 132  # exhaustive count, frozen from the oracle itself
    assert ring_graph(5, 2) in hits


# exhaustive counts and first hits, frozen from the oracle itself; the first
# six-qubit hit is the ame62 fixture
@pytest.mark.parametrize(
    "n, d, count, first",
    [
        (5, 2, 132, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)]),
        (6, 2, 132, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)]),
        (4, 3, 120, [(0, 2), (0, 3), (1, 2), (1, 3, 2)]),
    ],
)
def test_search_hits_frozen_and_every_hit_verified(n, d, count, first):
    hits = find_ame_graph(n, d)
    assert len(hits) == count
    assert hits[0] == GraphSpec.from_edges(n, d, first)
    if (n, d) == (6, 2):
        assert ame62_graph() == hits[0]
    for spec in hits:
        assert k_uniformity(graph_state(spec), n // 2).uniform


# exhaustive hit counts on small qudit and composite shapes, frozen from the
# float-winnowed search before the exact kernel test replaced it
@pytest.mark.parametrize(
    "n, d, count",
    [(3, 4, 32), (4, 4, 0), (3, 5, 112), (3, 6, 80), (2, 7, 6), (3, 7, 324)],
)
def test_search_hit_counts_frozen_and_every_hit_verified(n, d, count):
    hits = find_ame_graph(n, d)
    assert len(hits) == count
    for spec in hits:
        assert k_uniformity(graph_state(spec), n // 2).uniform


@pytest.mark.parametrize("n, d", [(4, 2), (4, 3), (3, 4), (3, 6), (4, 4)])
def test_kernel_test_matches_dense_check_on_every_candidate(n, d):
    weights, adj = _candidates(n, d)
    dense = [k_uniformity(graph_state(GraphSpec(n, d, a)), n // 2).uniform for a in adj]
    assert _uniform_cuts(weights, n, d).tolist() == dense


@pytest.mark.parametrize("n, d", [(6, 2), (5, 3), (4, 4), (3, 6)])
def test_kernel_table_matches_the_per_cut_loop_on_every_candidate(n, d):
    weights, adj = _candidates(n, d)
    assert np.array_equal(_uniform_cuts(weights, n, d), _uniform_cuts_by_loop(adj, d))


def test_kernel_table_counts_the_injective_blocks_at_every_admitted_shape():
    shapes = _admitted_shapes()
    assert (7, 2) in shapes and (5, 5) in shapes and (2, 100) in shapes
    counts = {(n, d): int(_cut_table(n, d)[0].sum()) for n, d in shapes}
    assert counts == {(n, d): _injective_count(n, d) for n, d in shapes}
    named = {(6, 2): 168, (4, 10): 2880, (5, 5): 14880, (3, 21): 384, (2, 100): 40}
    assert {s: counts[s] for s in named} == named


def test_search_forms_no_amplitude_batches():
    # (4, 6) and (4, 10) have 46,656 and 10^6 candidates of 1,296 and 10^4
    # amplitudes, and no hit: each batch is an edge-weight array, its cut
    # codes and their verdicts
    for n, d in [(4, 6), (4, 10)]:
        tracemalloc.start()
        try:
            assert find_ame_graph(n, d) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (n, d)


@pytest.mark.parametrize("n, d, survivors", [(4, 3, 120), (5, 2, 132)])
def test_search_confirms_each_survivor_through_graph_state(monkeypatch, n, d, survivors):
    specs = []

    def recorded(spec):
        specs.append(spec)
        return graph_state(spec)

    monkeypatch.setattr(search, "graph_state", recorded)
    hits = find_ame_graph(n, d)
    assert len(specs) == survivors
    assert specs == hits


def test_limit_truncates_deterministically():
    full = find_ame_graph(5, 2)
    assert find_ame_graph(5, 2, limit=3) == full[:3]


def test_qutrit_pair_search():
    hits = find_ame_graph(2, 3, limit=1)
    assert hits
    assert k_uniformity(graph_state(hits[0]), 1).uniform


def test_four_qutrit_search_nonempty():
    hits = find_ame_graph(4, 3, limit=1)
    assert hits
    assert k_uniformity(graph_state(hits[0]), 2).uniform


def test_search_scale_guard():
    with pytest.raises(ValueError):
        find_ame_graph(8, 2)  # 2^28 candidates
    with pytest.raises(ValueError):
        find_ame_graph(2, 150)  # state dimension over the cap


@pytest.mark.parametrize("n, d", [(170, 2), (200, 3)])
def test_search_scale_guard_forms_no_huge_power(n, d):
    # the candidate count d**(n(n-1)/2) has thousands of digits here; the
    # message names the caps, not that count
    with pytest.raises(ValueError, match="desk scale") as info:
        find_ame_graph(n, d)
    assert len(str(info.value)) < 200


def test_search_rejects_a_single_party():
    with pytest.raises(ValueError, match="need n >= 2"):
        find_ame_graph(1, 2)


def test_search_rejects_bad_limit():
    with pytest.raises(ValueError):
        find_ame_graph(4, 2, limit=0)


def test_ame62_fixture_is_three_uniform():
    state = builtin_state("ame62")
    assert k_uniformity(state, 3).uniform
    # the discovered graph is itself a valid spec on six vertices
    spec = ame62_graph()
    assert spec.n == 6 and spec.d == 2


def test_builtin_lookup_refuses_past_desk_scale_before_forming_amplitudes():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="state too large"):
            builtin_state("ghz3(300)")  # 2.7e7 amplitudes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("name", ["bell(0)", "bell(1)", "ghz3(0)", "ghz3(1)"])
def test_builtin_lookup_rejects_a_dimension_below_two(name):
    with pytest.raises(ValueError, match="d >= 2"):
        builtin_state(name)


def test_builtin_lookup_names():
    # BUILTIN_NAMES is built from the registry tables; CI and the tests loop
    # over it, so its names and their order are pinned
    assert BUILTIN_NAMES == ("bell(2)", "bell(3)", "ghz3(2)", "ghz3(3)", "ame43", "ring5", "ame62")
    for name in BUILTIN_NAMES:
        assert isinstance(builtin_state(name), StateVector), name
    assert builtin_state("bell").d == 2
    assert builtin_state("bell(3)").d == 3
    assert builtin_state("ghz3(3)").n == 3
    assert builtin_state("ring5").n == 5
    for name in ["ame43(2)", "ring5(3)", "bell()", "ghz3(x)", "mystery"]:
        with pytest.raises(ValueError, match="unknown builtin state"):
            builtin_state(name)
