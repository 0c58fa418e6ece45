"""Exhaustive search for graph states passing the k-uniformity oracle."""

from __future__ import annotations

import itertools

import numpy as np

from .states import GraphSpec, StateVector, graph_amplitudes
from .weights import _ket_matrix, k_uniformity

_STATE_CAP = 10**4
_GRAPH_CAP = 10**7
_BATCH = 4096
# winnowing threshold on bipartition purities; survivors still face the full
# reduced-matrix check, so this only needs to be loose enough never to drop
# a genuine hit
_WINNOW_TOL = 1e-6


def find_ame_graph(n: int, d: int, limit: int | None = None) -> list[GraphSpec]:
    """All weighted graphs on n vertices whose graph state is floor(n/2)-uniform.

    Enumerates every symmetric zero-diagonal adjacency matrix with entries in
    {0, ..., d-1}; candidate k is the integer whose base-d digits are the edge
    weights in lexicographic edge order (0,1), (0,2), ..., first edge most
    significant, and candidates are scanned in ascending order, so the result
    order is deterministic.  Batches of candidates are first winnowed by
    bipartition purities (a maximally mixed reduction is exactly the purity
    minimizer), then each survivor is confirmed with the entrywise
    k_uniformity check.  `limit` stops the search after that many hits.
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
    k = n // 2
    # one bipartition per complementary pair: for even n keep only k-sets
    # containing vertex 0 (purity is symmetric under complement on pure states)
    cuts = [
        sites
        for sites in itertools.combinations(range(n), k)
        if n != 2 * k or 0 in sites
    ]
    powers = d ** np.arange(n_edges - 1, -1, -1, dtype=np.int64)
    upper = np.triu_indices(n, 1)
    target = float(d) ** (-k)
    found: list[GraphSpec] = []
    for start in range(0, total, _BATCH):
        ids = np.arange(start, min(start + _BATCH, total))
        weights = (ids[:, None] // powers[None, :]) % d
        amps = graph_amplitudes(n, d, weights)
        alive = np.ones(len(ids), dtype=bool)
        for sites in cuts:
            if not alive.any():
                break
            psi = _ket_matrix(amps[alive], n, d, sites)
            rho = np.einsum("sab,scb->sac", psi, psi.conj())
            purity = np.einsum("sac,sac->s", rho, rho.conj()).real
            ok = np.abs(purity - target) <= _WINNOW_TOL
            alive[np.flatnonzero(alive)[~ok]] = False
        for row in np.flatnonzero(alive):
            if k_uniformity(StateVector(n, d, amps[row]), k).uniform:
                found.append(GraphSpec.from_edges(n, d, zip(*upper, weights[row])))
                if limit is not None and len(found) >= limit:
                    return found
    return found
