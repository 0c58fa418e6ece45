"""Dense qudit state vectors and explicit constructions.

Amplitude indexing is fixed once and for all: the basis label
(s_0, ..., s_{n-1}) sits at flat index sum_j s_j * d**j, party 0 least
significant.  Everything downstream (reductions, the state-file format, the
graph search) relies on this convention, so it is enforced here and nowhere
re-derived.  `graph_state` owns the graph phases and reads them from a
`GraphSpec` adjacency, the one graph format below the search's candidate
numbering; reductions take their party axes from `StateVector.site_tensor`,
which reads this rule.  The search decides its candidates on the adjacency
alone, confirms each survivor through `graph_state` and forms no reduction of
its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exact import as_index

_NORM_TOL = 1e-12
FILE_NORM_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Pure state of n qudits with local dimension d, unit norm."""

    n: int
    d: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # a float n or d would fail deep in the reductions, and a numpy
        # integer would be stored as one
        for field in ("n", "d"):
            object.__setattr__(self, field, as_index(getattr(self, field), field))
        if self.n < 1 or self.d < 2:
            raise ValueError(f"need n >= 1 and d >= 2, got n={self.n}, d={self.d}")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        # d >= 2, so d**n exceeds the count once n passes its bit length;
        # testing that first keeps a huge claimed n from forming d**n
        if amps.ndim != 1 or self.n > amps.size.bit_length() or self.d**self.n != amps.size:
            raise ValueError(
                f"need d**n amplitudes for n={self.n}, d={self.d}, "
                f"got {amps.size} (shape {amps.shape})"
            )
        # NaN slips through the norm test below: abs(nan - 1) > tol is false
        if not np.isfinite(amps).all():
            raise ValueError("state has non-finite amplitudes")
        # the squared norm is the trace every reduction is held to at this
        # tolerance
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def site_tensor(self) -> np.ndarray:
        """View with one axis per party, axis j indexing party j.

        The flat vector is party-0-least-significant, so a plain reshape puts
        party n-1 on axis 0; reversing the axes restores site order.
        """
        t = self.amplitudes.reshape((self.d,) * self.n)
        return t.transpose(tuple(range(self.n - 1, -1, -1)))


def basis_index(labels: Sequence[int], d: int) -> int:
    """Flat index of the basis label (s_0, ..., s_{n-1})."""
    return sum(s * d**j for j, s in enumerate(labels))


def bell(d: int = 2) -> StateVector:
    """Maximally entangled pair sum_i |ii> / sqrt(d), the two-party GHZ state."""
    return ghz(2, d)


def ghz(n: int, d: int = 2) -> StateVector:
    """Generalized GHZ state sum_i |i...i> / sqrt(d) on n parties."""
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    amps = np.zeros(d**n, dtype=np.complex128)
    stride = sum(d**j for j in range(n))
    amps[np.arange(d) * stride] = 1.0 / math.sqrt(d)
    return StateVector(n, d, amps)


def ame43() -> StateVector:
    """Minimal-support four-qutrit state (1/3) sum_{i,j} |i, j, i+j, i+2j> mod 3."""
    amps = np.zeros(81, dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            amps[basis_index((i, j, (i + j) % 3, (i + 2 * j) % 3), 3)] = 1.0 / 3.0
    return StateVector(4, 3, amps)


@dataclass(frozen=True)
class GraphSpec:
    """Weighted graph on n vertices, edge weights in {0, ..., d-1}.

    The adjacency matrix is symmetric with zero diagonal; weight 0 means no
    edge.
    """

    n: int
    d: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # a float n or d would fail later, in `graph_state`
        for field in ("n", "d"):
            object.__setattr__(self, field, as_index(getattr(self, field), field))
        if self.n < 1 or self.d < 2:
            raise ValueError(f"need n >= 1 and d >= 2, got n={self.n}, d={self.d}")
        adj = tuple(tuple(as_index(w, "edge weight") for w in row) for row in self.adjacency)
        if len(adj) != self.n or any(len(row) != self.n for row in adj):
            raise ValueError(f"adjacency must be {self.n}x{self.n}")
        for u in range(self.n):
            if adj[u][u] != 0:
                raise ValueError(f"nonzero diagonal at vertex {u}")
            for v in range(self.n):
                if adj[u][v] != adj[v][u]:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
                if not 0 <= adj[u][v] < self.d:
                    raise ValueError(
                        f"edge weight {adj[u][v]} at ({u}, {v}) outside 0..{self.d - 1}"
                    )
        object.__setattr__(self, "adjacency", adj)

    @classmethod
    def from_edges(cls, n: int, d: int, edges: Iterable[tuple]) -> "GraphSpec":
        """Build from (u, v) or (u, v, weight) tuples; bare pairs get weight 1.

        An edge of any other length raises ValueError naming the edge.
        Each vertex pair is named once: a second (u, v) or (v, u) raises
        ValueError rather than overwrite the first.  A self-loop (u, u, w)
        raises ValueError naming the edge, whatever its weight, w = 0 too.
        """
        adj = [[0] * n for _ in range(n)]
        seen = set()
        for edge in edges:
            if len(edge) not in (2, 3):
                raise ValueError(f"edge {edge!r} must be (u, v) or (u, v, weight)")
            u, v, *rest = edge
            u, v = (as_index(x, f"vertex of edge {edge!r}") for x in (u, v))
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {edge!r} has a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"edge {edge!r} is a self-loop at vertex {u}")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise ValueError(f"edge {edge!r} repeats the vertex pair ({u}, {v})")
            seen.add(pair)
            adj[u][v] = adj[v][u] = rest[0] if rest else 1
        return cls(n, d, tuple(tuple(row) for row in adj))


def ring_graph(n: int, d: int = 2) -> GraphSpec:
    """Cycle C_n with unit edge weights; C_2 is the one edge {0, 1}."""
    edges = {(min(j, (j + 1) % n), max(j, (j + 1) % n)) for j in range(n)}
    return GraphSpec.from_edges(n, d, sorted(edges))


def graph_state(spec: GraphSpec) -> StateVector:
    """Uniform superposition with one controlled-phase layer per weighted edge.

    Edge {u, v} of weight w multiplies the amplitude of |s> by
    exp(2*pi*i * w * s_u * s_v / d).  The exponent is summed per vertex u over
    its later neighbours, row u of the adjacency, so no (d**n, n) product is
    formed beside the digit table.  The quarter-turn phases 1, i, -1 and -i
    are exact, so every qubit graph state is exactly real; the other phases
    are as `np.exp` gives them.
    """
    n, d = spec.n, spec.d
    adj = np.array(spec.adjacency, dtype=np.int64)
    # digits[i, j] = digit of party j in flat index i
    digits = (np.arange(d**n)[:, None] // d ** np.arange(n)) % d
    exponent = sum((digits[:, u + 1 :] @ adj[u, u + 1 :]) * digits[:, u] for u in range(n))
    # the d distinct phases, computed once and gathered by residue; the
    # residues k with d | 4k, every (d/g)-th for g = gcd(4, d), are the quarter
    # turns i**(4k/d) and get their exact values
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    g = math.gcd(4, d)
    phases[:: d // g] = (1, 1j, -1, -1j)[:: 4 // g]
    return StateVector(n, d, (phases * d ** (-n / 2.0))[exponent % d])


def load_state(path) -> StateVector:
    """Read a state file: a JSON object with integer fields n, d and an
    `amplitudes` array of [real, imaginary] pairs of JSON numbers, of length
    d**n (party 0 least significant).

    Normalization is checked at tolerance 1e-9 and the vector is then
    rescaled to unit norm so the StateVector invariant holds at machine
    precision; StateVector rejects an n, d and amplitude count that disagree.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        # a list or a number would fail on its first field with a message
        # naming no field
        if type(doc) is not dict:
            raise ValueError(
                "the document must be a JSON object with fields 'n', 'd' and "
                f"'amplitudes', got {type(doc).__name__}"
            )
        n, d = doc["n"], doc["d"]
        # bool is an int subclass; 2.0 and "2" are not JSON integers
        for key, value in (("n", n), ("d", d)):
            if type(value) is not int:
                raise ValueError(f"field {key!r} must be a JSON integer, got {value!r}")
        pairs = doc["amplitudes"]
        # complex() would read true as 1; an int past float range overflows
        if any(type(part) not in (int, float) for pair in pairs for part in pair):
            raise ValueError("amplitude parts must be JSON numbers")
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    # amplitudes near 1e308 overflow the norm to inf, which the check below
    # refuses, and a NaN norm passes it for StateVector to reject: neither
    # may also print a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > FILE_NORM_TOL:
            raise ValueError(f"state in {path} not normalized: norm = {norm!r}")
        return StateVector(n, d, amps / norm)


def save_state(state: StateVector, path) -> None:
    """Write the state-file format read back by load_state."""
    doc = {
        "n": state.n,
        "d": state.d,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    # json.dump always runs the stdlib's pure-Python encoder; dumps uses its C one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
