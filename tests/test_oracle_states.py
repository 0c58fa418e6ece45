import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from ame.oracle import (
    GraphSpec,
    StateVector,
    ame43,
    basis_index,
    bell,
    ghz,
    graph_state,
    load_state,
    ring_graph,
    save_state,
)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, 2, np.ones(3) / math.sqrt(3))  # wrong length
    with pytest.raises(ValueError):
        StateVector(1, 2, np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValueError):
        StateVector(0, 2, np.array([1.0]))


@pytest.mark.parametrize("field", ["n", "d"])
def test_state_vector_takes_n_and_d_as_integers(field):
    # a float or str n or d used to be stored, and failed only once a
    # reduction was asked for; a numpy integer was stored as one
    amps = bell(2).amplitudes
    for bad in (2.0, "2"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            StateVector(**{"n": 2, "d": 2, field: bad}, amplitudes=amps)
    state = StateVector(**{"n": 2, "d": 2, field: np.int64(2)}, amplitudes=amps)
    assert type(state.n) is int and type(state.d) is int


@pytest.mark.parametrize(
    "bad", [math.nan, complex(0.0, math.nan), math.inf], ids=["nan", "imag-nan", "inf"]
)
def test_state_vector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        StateVector(2, 2, np.array([bad, 0, 0, 1]))


def test_state_vector_rejects_huge_n_without_forming_d_to_the_n():
    with pytest.raises(ValueError, match="need d\\*\\*n amplitudes for n=20000, d=2, got 1"):
        StateVector(20000, 2, np.array([1.0]))


def test_state_vector_norm_tolerance_is_the_reduction_trace_tolerance():
    # |norm - 1| = 0.8e-12 but |norm^2 - 1| = 1.6e-12: every reduction of
    # this vector would fail the 1e-12 trace check of DensityMatrix
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(2, 2, bell(2).amplitudes * (1 + 0.8e-12))


def test_amplitudes_are_frozen():
    state = bell(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_basis_index_is_little_endian():
    assert basis_index((1, 0, 0), 2) == 1
    assert basis_index((0, 0, 1), 2) == 4
    assert basis_index((2, 1), 3) == 5


def test_site_tensor_matches_index_convention():
    rng = np.random.default_rng(3)
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    state = StateVector(3, 3, v / np.linalg.norm(v))
    t = state.site_tensor()
    for s0 in range(3):
        for s1 in range(3):
            for s2 in range(3):
                idx = basis_index((s0, s1, s2), 3)
                assert t[s0, s1, s2] == state.amplitudes[idx]


def test_bell_amplitudes():
    state = bell(2)
    assert state.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[3] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[1] == 0 and state.amplitudes[2] == 0


@pytest.mark.parametrize("d", [2, 3, 5, 7, 39])
def test_bell_is_the_two_party_ghz_bit_for_bit(d):
    # sum_i |ii> / sqrt(d) written out: |ii> sits at flat index i * (d + 1)
    want = np.zeros(d * d, dtype=np.complex128)
    want[np.arange(d) * (d + 1)] = 1.0 / math.sqrt(d)
    assert bell(d).amplitudes.tobytes() == want.tobytes()
    assert bell(d).amplitudes.tobytes() == ghz(2, d).amplitudes.tobytes()


def test_bell_rejects_a_dimension_below_two():
    with pytest.raises(ValueError, match="need n >= 2 and d >= 2"):
        bell(1)


def test_ghz_support():
    state = ghz(3, 3)
    support = np.flatnonzero(state.amplitudes)
    assert list(support) == [basis_index((i, i, i), 3) for i in range(3)]


def test_ame43_support_size():
    state = ame43()
    support = np.flatnonzero(state.amplitudes)
    assert len(support) == 9
    assert np.allclose(state.amplitudes[support], 1 / 3)


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec(2, 2, ((0, 1), (0, 0)))  # asymmetric
    with pytest.raises(ValueError):
        GraphSpec(2, 2, ((1, 0), (0, 0)))  # diagonal
    with pytest.raises(ValueError):
        GraphSpec(2, 2, ((0, 2), (2, 0)))  # weight out of range
    with pytest.raises(ValueError):
        GraphSpec(3, 2, ((0, 1), (1, 0)))  # wrong shape
    with pytest.raises(ValueError, match="need n >= 1"):
        GraphSpec(0, 2, ())  # no vertex


def test_graph_spec_from_edges_and_edge_list():
    spec = GraphSpec.from_edges(3, 3, [(0, 1), (1, 2, 2)])
    assert spec.adjacency == ((0, 1, 0), (1, 0, 2), (0, 2, 0))


@pytest.mark.parametrize(
    "weight", [1.5, "2", np.float64(1.0)], ids=["float", "str", "np.float64"]
)
def test_graph_spec_weights_must_be_integers(weight):
    with pytest.raises(ValueError, match="edge weight must be an integer"):
        GraphSpec(2, 2, ((0, weight), (weight, 0)))


@pytest.mark.parametrize(
    "edge, message",
    [
        ((0, 1, 0.9), "edge weight must be an integer, got 0.9"),
        ((-1, 0), "edge (-1, 0) has a vertex outside 0..2"),
        ((3, 0), "edge (3, 0) has a vertex outside 0..2"),
        ((0.0, 1), "vertex of edge (0.0, 1) must be an integer"),
        ((0, 1, 1, 99), "edge (0, 1, 1, 99) must be (u, v) or (u, v, weight)"),
        ((0,), "edge (0,) must be (u, v) or (u, v, weight)"),
    ],
)
def test_graph_spec_from_edges_rejects_bad_edges(edge, message):
    # a fractional weight is not rounded away, a vertex of -1 does not wrap
    # round to the last one, and an edge of four entries is not read as its
    # first three
    with pytest.raises(ValueError, match=re.escape(message)):
        GraphSpec.from_edges(3, 2, [edge])


@pytest.mark.parametrize(
    "edges, pair",
    [
        ([(0, 1, 2), (0, 1, 0)], "(0, 1)"),
        ([(0, 1, 1), (1, 0, 2)], "(1, 0)"),
        ([(2, 1), (1, 2)], "(1, 2)"),
    ],
    ids=["same-orientation", "reversed", "bare-pairs"],
)
def test_graph_spec_from_edges_refuses_a_repeated_edge(edges, pair):
    # a second naming of a vertex pair used to overwrite the first: the first
    # case built no edge at all
    with pytest.raises(ValueError, match=re.escape(f"{edges[1]!r} repeats the vertex pair {pair}")):
        GraphSpec.from_edges(3, 3, edges)


@pytest.mark.parametrize("edges", [[(0, 0, 0)], [(0, 1), (1, 1, 2)]], ids=["weight-0", "weight-2"])
def test_graph_spec_from_edges_refuses_a_self_loop(edges):
    # a weight-0 loop used to be accepted silently, a weighted one refused by
    # the diagonal check with no edge named
    with pytest.raises(ValueError, match=re.escape(f"edge {edges[-1]!r} is a self-loop")):
        GraphSpec.from_edges(2, 2, edges)


def test_ring_graph_of_one_vertex_names_its_loop():
    with pytest.raises(ValueError, match=re.escape("edge (0, 0) is a self-loop at vertex 0")):
        ring_graph(1)


def test_graph_spec_takes_numpy_integers():
    spec = GraphSpec(3, 2, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64))
    assert spec.adjacency == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert all(type(w) is int for row in spec.adjacency for w in row)
    edges = [(np.int64(0), np.int64(1)), (np.int32(1), 2, np.int64(1))]
    assert GraphSpec.from_edges(3, 2, edges) == spec


@pytest.mark.parametrize("field", ["n", "d"])
def test_graph_spec_takes_n_and_d_as_integers(field):
    # a float or str n or d used to be stored, and failed only in graph_state
    adj = ((0, 1), (1, 0))
    for bad in (2.0, "2"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GraphSpec(**{"n": 2, "d": 2, field: bad}, adjacency=adj)
    spec = GraphSpec(**{"n": 2, "d": 2, field: np.int64(2)}, adjacency=adj)
    assert type(spec.n) is int and type(spec.d) is int
    want = graph_state(GraphSpec(2, 2, adj)).amplitudes
    assert graph_state(spec).amplitudes.tobytes() == want.tobytes()


def test_ring_graph_is_a_cycle():
    spec = ring_graph(5)
    degrees = [sum(1 for w in row if w) for row in spec.adjacency]
    assert degrees == [2] * 5
    assert spec.adjacency[0][4] == 1


def test_ring_graph_of_two_and_three_vertices():
    # C_2 names its one edge once; C_3 is the triangle
    assert ring_graph(2).adjacency == ((0, 1), (1, 0))
    assert ring_graph(3, 3).adjacency == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_graph_state_empty_graph_is_uniform():
    spec = GraphSpec(2, 2, ((0, 0), (0, 0)))
    state = graph_state(spec)
    assert np.allclose(state.amplitudes, 0.5)


def test_graph_state_single_edge():
    spec = GraphSpec.from_edges(2, 2, [(0, 1)])
    state = graph_state(spec)
    # the phase lands on |11>, which is index 3
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_graph_state_qutrit_phases():
    spec = GraphSpec.from_edges(2, 3, [(0, 1, 1)])
    state = graph_state(spec)
    omega = np.exp(2j * np.pi / 3)
    idx = basis_index((2, 2), 3)
    assert state.amplitudes[idx] == pytest.approx(omega ** (2 * 2 % 3) / 3)


# the phase exponent sum_{u<v} G_uv s_u s_v mod d, label by label in Python ints
@pytest.mark.parametrize("n, d", [(3, 3), (4, 2), (5, 3), (3, 7), (6, 2)])
def test_graph_state_matches_a_per_label_phase_reference(n, d):
    rng = np.random.default_rng(100 * n + d)
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    # the quarter turns 1, i, -1, -i are exact
    for k in range(d):
        if 4 * k % d == 0:
            phases[k] = (1, 1j, -1, -1j)[4 * k // d]
    phases *= d ** (-n / 2.0)
    for _ in range(4):
        edges = [(u, v, int(rng.integers(d))) for u in range(n) for v in range(u + 1, n)]
        spec = GraphSpec.from_edges(n, d, edges)
        reference = np.empty(d**n, dtype=np.complex128)
        for labels in itertools.product(range(d), repeat=n):
            exponent = sum(w * labels[u] * labels[v] for u, v, w in edges) % d
            reference[basis_index(labels, d)] = phases[exponent]
        assert graph_state(spec).amplitudes.tobytes() == reference.tobytes()


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    original = ghz(3, 2)
    save_state(original, path)
    loaded = load_state(path)
    assert loaded.n == 3 and loaded.d == 2
    assert np.allclose(loaded.amplitudes, original.amplitudes)
    # one json.dumps write: the compact stdlib text and a trailing newline
    amplitudes = [[float(a.real), float(a.imag)] for a in original.amplitudes]
    doc = {"n": 3, "d": 2, "amplitudes": amplitudes}
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode()


def test_load_state_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"n": 1, "d": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not normalized"):
        load_state(path)


# the norm of amplitudes near 1e308 overflows to inf: the file is refused as
# not normalized, and no overflow RuntimeWarning comes before the error
def test_load_state_overflowing_norm_is_refused_without_a_warning(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "d": 2, "amplitudes": [[1e308, 0.0], [1e308, 0.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not normalized: norm = inf"):
            load_state(path)


def test_load_state_renormalizes_within_tolerance(tmp_path):
    path = tmp_path / "near.json"
    a = math.sqrt(0.5) * (1 + 2e-10)
    doc = {"n": 1, "d": 2, "amplitudes": [[a, 0.0], [a, 0.0]]}
    path.write_text(json.dumps(doc))
    state = load_state(path)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_load_state_rejects_malformed(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text("{\"n\": 2}")
    with pytest.raises(ValueError):
        load_state(path)
    path.write_text("not json at all")
    with pytest.raises(ValueError):
        load_state(path)
    # a top-level array, number or null names the object and fields expected
    for text, kind in (("[1, 2]", "list"), ("5", "int"), ("null", "NoneType")):
        path.write_text(text)
        expected = f"JSON object with fields 'n', 'd' and 'amplitudes', got {kind}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_state(path)


# int() would read 2.9 as 2 and "2" as 2, so a Bell file claiming n = 2.9 passed
@pytest.mark.parametrize("field", ["n", "d"])
@pytest.mark.parametrize("value", [2.9, "2", True, 2.0])
def test_load_state_requires_json_integer_fields(tmp_path, field, value):
    path = tmp_path / "bell.json"
    save_state(bell(), path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"field '{field}' must be a JSON integer"):
        load_state(path)


# complex() read true as 1, and a 400-digit int overflowed float outside the
# ValueError the CLI turns into exit 1
@pytest.mark.parametrize(
    "amplitudes, match",
    [
        ([[True, False], [False, False], [False, False], [False, False]], "JSON numbers"),
        ([[10**400, 0], [0, 0], [0, 0], [0, 0]], "too large"),
        ([["0.5", 0], [0.5, 0], [0.5, 0], [0.5, 0]], "JSON numbers"),
    ],
    ids=["bool", "huge-int", "string"],
)
def test_load_state_requires_json_number_amplitude_parts(tmp_path, amplitudes, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "amplitudes": amplitudes}))
    with pytest.raises(ValueError, match=match):
        load_state(path)


def test_load_state_rejects_wrong_length(tmp_path):
    path = tmp_path / "short.json"
    doc = {"n": 2, "d": 2, "amplitudes": [[1.0, 0.0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_state(path)


def test_load_state_rejects_huge_claimed_n_at_once(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 16_000_000, "d": 3, "amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(ValueError, match="n=16000000, d=3, got 1"):
        load_state(path)
