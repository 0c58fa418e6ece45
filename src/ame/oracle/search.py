"""Exhaustive search for graph states passing the k-uniformity oracle."""

from __future__ import annotations

import itertools

import numpy as np

from .states import GraphSpec, graph_state
from .weights import k_uniformity

_STATE_CAP = 10**4
_GRAPH_CAP = 10**7
_BATCH = 4096


def _uniform_cuts(adj: np.ndarray, d: int) -> np.ndarray:
    """Which graphs of a (B, n, n) adjacency stack have a floor(n/2)-uniform state, exactly.

    The reduction of a graph state onto T has entries
    d^-|T| * phase * [G (s - s') = 0 mod d] with G = adj[Tbar, T], so it is
    maximally mixed exactly when G x != 0 mod d for every nonzero x in Z_d^|T|.
    Under the search caps that is at most d^|T| - 1 <= 99 vectors, and a
    composite d needs no factorisation.  Each cut reads only the candidates
    every earlier cut has kept.
    """
    n = adj.shape[-1]
    k = n // 2
    # every nonzero x in Z_d^k, one per column; np.indices lists zero first
    xs = np.indices((d,) * k).reshape(k, -1)[:, 1:]
    alive = np.ones(len(adj), dtype=bool)
    for cut in itertools.combinations(range(n), k):
        rest = [j for j in range(n) if j not in cut]
        live = np.flatnonzero(alive)
        images = adj[live][:, rest][:, :, cut] @ xs % d
        alive[live] = images.any(axis=1).all(axis=1)
    return alive


def find_ame_graph(n: int, d: int, limit: int | None = None) -> list[GraphSpec]:
    """All weighted graphs on n vertices whose graph state is floor(n/2)-uniform.

    Enumerates every symmetric zero-diagonal adjacency matrix with entries in
    {0, ..., d-1}; candidate k is the integer whose base-d digits are the edge
    weights in lexicographic edge order (0,1), (0,2), ..., first edge most
    significant, and candidates are scanned in ascending order, so the result
    order is deterministic.  Each batch of candidates is decided exactly over
    Z_d by the kernel test of `_uniform_cuts`, with no amplitudes formed; each
    survivor gets its `GraphSpec`, and the `graph_state` of that spec is then
    confirmed with the entrywise k_uniformity check.
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
        adj = np.zeros((len(weights), n, n), dtype=np.int64)
        adj[:, upper[0], upper[1]] = adj[:, upper[1], upper[0]] = weights
        for row in np.flatnonzero(_uniform_cuts(adj, d)):
            spec = GraphSpec(n, d, adj[row])
            if k_uniformity(graph_state(spec), n // 2).uniform:
                found.append(spec)
                if limit is not None and len(found) >= limit:
                    return found
    return found
