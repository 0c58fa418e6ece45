import itertools
import tracemalloc

import numpy as np
import pytest

from ame.oracle import (
    GraphSpec,
    ame62_graph,
    builtin_state,
    find_ame_graph,
    graph_state,
    k_uniformity,
    ring_graph,
    search,
)
from ame.oracle.search import _uniform_cuts


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
    upper = np.triu_indices(n, 1)
    weights = np.array(list(itertools.product(range(d), repeat=len(upper[0]))))
    adj = np.zeros((len(weights), n, n), dtype=np.int64)
    adj[:, upper[0], upper[1]] = adj[:, upper[1], upper[0]] = weights
    dense = [k_uniformity(graph_state(GraphSpec(n, d, a)), n // 2).uniform for a in adj]
    assert _uniform_cuts(adj, d).tolist() == dense


def test_search_forms_no_amplitude_batches():
    # the (4, 6) corner has 46,656 candidates of 1,296 amplitudes and no hit
    tracemalloc.start()
    try:
        assert find_ame_graph(4, 6) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    assert builtin_state("bell").d == 2
    assert builtin_state("bell(3)").d == 3
    assert builtin_state("ghz3(3)").n == 3
    assert builtin_state("ring5").n == 5
    with pytest.raises(ValueError):
        builtin_state("ame43(2)")
    with pytest.raises(ValueError):
        builtin_state("mystery")
