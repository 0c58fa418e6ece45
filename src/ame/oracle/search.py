"""Exhaustive search for graph states passing the k-uniformity oracle."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .states import GraphSpec, graph_state
from .weights import k_uniformity

_STATE_CAP = 10**4
_GRAPH_CAP = 10**7
_BATCH = 4096


@functools.lru_cache(maxsize=None)
def _cut_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every floor(n/2)-cut's verdict, as a table over blocks and a column per cut.

    The reduction of a graph state onto T has entries
    d^-|T| * phase * [G (s - s') = 0 mod d] with G = adj[Tbar, T], so it is
    maximally mixed exactly when G x != 0 mod d for every nonzero x in Z_d^|T|.
    `table[c]` is that verdict for the (n-k) x k block G, k = floor(n/2),
    whose row-major base-d digits, first most significant, spell c; under the
    search caps there are at most d^(k(n-k)) = 15,625 blocks, at (5, 5), and a
    composite d needs no factorisation.  `columns` is (n(n-1)/2, cuts) float64,
    one column per cut T in `itertools.combinations` order: an edge-weight row
    (edges in `np.triu_indices` order) dotted with it gives the code of that
    cut's block, below 2^14, so exact in float64.
    """
    k = n // 2
    blocks = np.indices((d,) * ((n - k) * k)).reshape(n - k, k, -1)
    table = np.ones(blocks.shape[-1], dtype=bool)
    # one nonzero x at a time (np.indices lists zero first): no (x, block) array
    for x in np.indices((d,) * k).reshape(k, -1)[:, 1:].T:
        table &= (x @ blocks % d).any(axis=0)
    edge = np.zeros((n, n), dtype=np.intp)
    edge[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    edge += edge.T
    place = d ** np.arange((n - k) * k - 1, -1, -1).reshape(n - k, k)
    cuts = list(itertools.combinations(range(n), k))
    columns = np.zeros((n * (n - 1) // 2, len(cuts)))
    for c, cut in enumerate(cuts):
        rest = [j for j in range(n) if j not in cut]
        columns[edge[np.ix_(rest, cut)], c] = place
    table.flags.writeable = columns.flags.writeable = False
    return table, columns


def _uniform_cuts(weights: np.ndarray, n: int, d: int) -> np.ndarray:
    """Which rows of a (B, n(n-1)/2) edge-weight batch give a floor(n/2)-uniform state, exactly.

    One (B, edges) @ (edges, cuts) product codes every cut's block, and one
    gather from `_cut_table` reads its verdict.
    """
    table, columns = _cut_table(n, d)
    return table[(weights @ columns).astype(np.intp)].all(axis=1)


def find_ame_graph(n: int, d: int, limit: int | None = None) -> list[GraphSpec]:
    """All weighted graphs on n vertices whose graph state is floor(n/2)-uniform.

    Enumerates every symmetric zero-diagonal adjacency matrix with entries in
    {0, ..., d-1}; candidate k is the integer whose base-d digits are the edge
    weights in lexicographic edge order (0,1), (0,2), ..., first edge most
    significant, and candidates are scanned in ascending order, so the result
    order is deterministic.  Each batch of candidates is decided exactly over
    Z_d by `_uniform_cuts`, one lookup per cut in the kernel table that
    `_cut_table` builds once per (n, d), with no amplitudes formed; only the
    survivors get an adjacency matrix and a `GraphSpec`, and the `graph_state`
    of that spec is then confirmed with the entrywise k_uniformity check.
    `limit` stops the search after that many hits.
    """
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    n_edges = n * (n - 1) // 2
    # d >= 2, so d**n exceeds its cap once n passes the cap's bit length;
    # testing that first keeps an out-of-scale n from forming either power
    if n > _STATE_CAP.bit_length() or d**n > _STATE_CAP or d**n_edges > _GRAPH_CAP:
        raise ValueError(
            f"search out of desk scale: need d**n <= {_STATE_CAP} and "
            f"candidate count d**(n(n-1)/2) <= {_GRAPH_CAP}, got n={n}, d={d}"
        )
    total = d**n_edges
    powers = d ** np.arange(n_edges - 1, -1, -1, dtype=np.int64)
    upper = np.triu_indices(n, 1)
    found: list[GraphSpec] = []
    for start in range(0, total, _BATCH):
        weights = np.arange(start, min(start + _BATCH, total))[:, None] // powers % d
        survivors = weights[_uniform_cuts(weights, n, d)]
        adj = np.zeros((len(survivors), n, n), dtype=np.int64)
        adj[:, upper[0], upper[1]] = adj[:, upper[1], upper[0]] = survivors
        for row in adj:
            spec = GraphSpec(n, d, row)
            if k_uniformity(graph_state(spec), n // 2).uniform:
                found.append(spec)
                if limit is not None and len(found) >= limit:
                    return found
    return found
