"""Reduced density matrices, subsystem purities, and Bloch weight traces.

The per-support weight trace is obtained by inclusion-exclusion over
subsystem purities, for every S at once by one subset-sum transform,

    tr(P_S^2) = d^|S| * sum_{T subseteq S} (-1)^(|S| - |T|) d^|T| tr(rho_T^2),

with the empty reduction read as the scalar 1.  This route never chooses a
generator basis, which makes it the reference implementation; the expansion
in `basis` recomputes the same numbers from squared Bloch coefficients and
the two must agree to 1e-9 on every state.  Reductions stay on the Schmidt
side (<= d^floor(n/2) a side): purities read the smaller one, and the
transform takes one purity per complementary pair {T, Tbar}, since a pure
state gives both the same value.  The projector residual of a large
reduction rho_A is read off its small complement rho_R in Frobenius norm:
with psi the (A, R) amplitudes and G = psi^dag psi = rho_R^T,
||psi (G - c) psi^dag||_F = ||G^1/2 (G - c) G^1/2||_F = ||rho_R^2 - c rho_R||_F.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .states import StateVector

DESK_SCALE = 10**6


def check_desk_scale(state: StateVector) -> None:
    """Reject a state with d**n > DESK_SCALE before any work on it."""
    if state.d**state.n > DESK_SCALE:
        raise ValueError(f"state too large: d**n = {state.d**state.n} > {DESK_SCALE}")


def _validated_sites(state: StateVector, sites: Iterable[int], allow_empty: bool = False):
    out = tuple(int(j) for j in sites)
    if not out and not allow_empty:
        raise ValueError("site subset must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate sites: {out}")
    for j in out:
        if not 0 <= j < state.n:
            raise ValueError(f"site {j} out of range for n={state.n}")
    return tuple(sorted(out))


def _ket_matrix(amps: np.ndarray, n: int, d: int, keep: tuple[int, ...]) -> np.ndarray:
    """Flat amplitudes as (kept, traced-out) matrices, kept sites in ascending order.

    `amps` is one state of d**n amplitudes or a batch of them along a leading
    axis.  Party j is digit j of the flat index, least significant first, so
    it sits on axis n-1-j of the plain reshape.
    """
    rest = tuple(j for j in range(n) if j not in keep)
    batch = amps.shape[:-1]
    axes = tuple(range(len(batch))) + tuple(len(batch) + n - 1 - j for j in keep + rest)
    t = amps.reshape(batch + (d,) * n).transpose(axes)
    return np.ascontiguousarray(t).reshape(batch + (d ** len(keep), d ** len(rest)))


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced state on an ordered tuple of parties; validated on construction."""

    parties: tuple[int, ...]
    d: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.entries, dtype=np.complex128)
        dim = self.d ** len(self.parties)
        if rho.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim}, got {rho.shape}")
        # every comparison below is false on NaN
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has non-finite entries")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValueError("density matrix not Hermitian")
        if abs(complex(np.trace(rho)).real - 1.0) > 1e-12:
            raise ValueError("density matrix trace != 1")
        if float(np.linalg.eigvalsh(rho).min()) < -1e-9:
            raise ValueError("density matrix not positive semidefinite")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)

    def purity(self) -> float:
        # Frobenius norm squared equals tr(rho^2) for Hermitian rho
        return float(np.vdot(self.entries, self.entries).real)

    def deviation(self) -> float:
        # max-entry distance from the maximally mixed state I/dim
        return float(np.abs(self.entries - np.eye(len(self.entries)) / len(self.entries)).max())

    def projector_residual(self) -> float:
        # ||rho^2 - rho/dim||_F, zero exactly when dim * rho is a projector
        return float(
            np.linalg.norm(self.entries @ self.entries - self.entries / len(self.entries))
        )


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on `keep` (ascending order), complement summed out."""
    sites = _validated_sites(state, keep)
    psi = _ket_matrix(state.amplitudes, state.n, state.d, sites)
    return DensityMatrix(parties=sites, d=state.d, entries=psi @ psi.conj().T)


def subset_purity(state: StateVector, sites: Iterable[int]) -> float:
    """tr(rho_S^2) for the reduction onto `sites`; the empty reduction gives 1.

    A pure state carries equal Schmidt spectra on the two sides of any
    bipartition, so the computation always runs on the smaller side.
    """
    S = _validated_sites(state, sites, allow_empty=True)
    if len(S) * 2 > state.n:
        S = tuple(j for j in range(state.n) if j not in S)
    if not S:
        norm_sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
        return norm_sq * norm_sq
    psi = _ket_matrix(state.amplitudes, state.n, state.d, S)
    rho = psi @ psi.conj().T
    return float(np.vdot(rho, rho).real)


def subset_weight_trace(state: StateVector, sites: Iterable[int]) -> float:
    """tr(P_S^2) for exact support S, via inclusion-exclusion over purities."""
    return _weight_traces(state, _validated_sites(state, sites))[-1]


def _purities(state: StateVector, sites: tuple[int, ...]) -> np.ndarray:
    """tr(rho_T^2) for every T subseteq sites, indexed by bitmask (sites[i] -> bit i).

    A pure state has tr(rho_T^2) = tr(rho_Tbar^2), so each complementary pair
    is reduced once, on its representative, and serves both masks.
    """
    full = (1 << state.n) - 1
    by_pair: dict[int, float] = {}
    w = np.empty(2 ** len(sites))
    for m in range(len(w)):
        mask = sum(1 << s for i, s in enumerate(sites) if m >> i & 1)
        # the pair's smaller side; at |T| = n/2, the lower of the two masks
        rep = min(mask, full ^ mask, key=lambda k: (k.bit_count(), k))
        if rep not in by_pair:
            by_pair[rep] = subset_purity(state, [j for j in range(state.n) if rep >> j & 1])
        w[m] = by_pair[rep]
    return w


def _weight_traces(state: StateVector, sites: tuple[int, ...]) -> list[float]:
    """tr(P_T^2) for every T subseteq sites, indexed by bitmask (sites[i] -> bit i).

    The sum factorises: each party weighs T by d^2 if T holds it, else by -d.
    """
    w = _purities(state, sites)
    for i in range(len(sites)):
        pairs = w.reshape(-1, 2, 2**i)
        pairs[:, 1] = state.d * (state.d * pairs[:, 1] - pairs[:, 0])
    return w.tolist()


@dataclass(frozen=True)
class WeightDistribution:
    """tr(P_S^2) for every nonempty support S of an n-party state."""

    n: int
    d: int
    per_subset: dict[tuple[int, ...], float]

    @classmethod
    def over_supports(cls, n: int, d: int, trace) -> "WeightDistribution":
        """trace(S) for every nonempty support S, in (size, lexicographic) order."""
        supports = (S for r in range(1, n + 1) for S in itertools.combinations(range(n), r))
        return cls(n, d, {S: trace(S) for S in supports})

    def per_weight(self) -> dict[int, list[float]]:
        """Values grouped by |S|, in subset enumeration order."""
        out: dict[int, list[float]] = {w: [] for w in range(1, self.n + 1)}
        for S, value in self.per_subset.items():
            out[len(S)].append(value)
        return out


def weight_distribution(state: StateVector) -> WeightDistribution:
    """Weight traces for every nonempty support, purity route.  Desk scale only."""
    check_desk_scale(state)
    tr = _weight_traces(state, tuple(range(state.n)))
    return WeightDistribution.over_supports(state.n, state.d, lambda S: tr[sum(2**j for j in S)])


class UniformityReport(NamedTuple):
    uniform: bool
    max_deviation: float


UNIFORMITY_TOL = 1e-9


def k_uniformity(state: StateVector, k: int) -> UniformityReport:
    """Is every k-party reduction maximally mixed, within 1e-9 in max entry?"""
    if not 1 <= k <= state.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={state.n}")
    worst = max(
        partial_trace(state, sites).deviation()
        for sites in itertools.combinations(range(state.n), k)
    )
    return UniformityReport(worst <= UNIFORMITY_TOL, worst)


def projector_property_residual(state: StateVector, keep: Iterable[int]) -> float:
    """Frobenius norm of rho_A^2 - d^(-k) * rho_A, k parties traced out.

    Vanishes exactly when the traced-out reduction is maximally mixed, which
    is the situation for every reduction of an AME state retaining at least
    n - floor(n/2) parties; the keep-set size is restricted accordingly.
    Computed on the small side as ||rho_R^2 - d^(-k) rho_R||_F, with R the k
    traced-out parties (see the module docstring); keeping all n parties
    leaves |psi><psi|, whose residual is the scalar ||psi||^2 |1 - ||psi||^2|.
    """
    sites = _validated_sites(state, keep)
    least = state.n - state.n // 2
    if len(sites) < least:
        raise ValueError(f"keep-set must retain >= n - floor(n/2) = {least} parties")
    if len(sites) == state.n:
        norm_sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
        return norm_sq * abs(norm_sq - 1.0)
    return partial_trace(state, [j for j in range(state.n) if j not in sites]).projector_residual()
