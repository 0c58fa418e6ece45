"""Reduced density matrices, subsystem purities, and Bloch weight traces.

The per-support weight trace is obtained by inclusion-exclusion over
subsystem purities, for every S at once by one subset-sum transform,

    tr(P_S^2) = d^|S| * sum_{T subseteq S} (-1)^(|S| - |T|) d^|T| tr(rho_T^2),

for the normalised state rho = psi psi^dag / ||psi||^2: `_purity_table`
divides by ||psi||^4, so the empty reduction is exactly 1, and so is the
full one, which the transform weighs by up to d^(2n).  This route never
chooses a generator basis, which makes it the reference implementation; the
expansion in `basis` recomputes the same numbers from squared Bloch
coefficients and the two must agree on every state to 1e-9, relative to the
value once it exceeds 1.  Reductions stay on the Schmidt side
(<= d^floor(n/2) a side): a pure state gives T and Tbar the same purity, so
every purity, the transform's and `subset_purity`'s alike, is read off the
one reduction that `_pair_representatives` picks for the pair {T, Tbar}: the
smaller side, and at |T| = n/2 the side holding party 0.  Both read it with
`_purities`, one batched dot a stack.  Supports and pairs are bitmask arrays
over all 2^n masks (`_supports`, `_pair_representatives`), shared by both
weight routes, `subset_purity` and `verification_sweep`.  The projector
residual of a large reduction rho_A is read off its small
complement rho_R in Frobenius norm: with psi the (A, R) amplitudes and
G = psi^dag psi = rho_R^T,
||psi (G - c) psi^dag||_F = ||G^1/2 (G - c) G^1/2||_F = ||rho_R^2 - c rho_R||_F.

Every reduction is formed in `reduction_stacks` or traced down from one
formed there, with no validation; the stack's dtype follows the state's,
float64 for a state with no nonzero imaginary part and complex128 otherwise.
`reduction_stacks` forms each keep-set it is asked for directly, of any
size, by one batched matmul per stack.  The two sweeps form only the
m = floor(n/2)-party tier there: in `_small_side_stacks` a smaller keep-set
R has one source, its parent, R plus its lowest missing party j, which
holds parties 0..j, so tracing party j out (`_trace_digit`) leaves every
kept party at its own row digit, and walking each tier keep-set down through
every child reaches every keep-set below the tier once.  `partial_trace` and
`subset_purity` ask for one keep-set; `partial_trace` wraps its matrix in
`DensityMatrix`, the validated container, which stores complex128 and whose
`_validate` checks it: finite, Hermitian, unit trace, and positive
semidefinite to 1e-9 by one Cholesky factorisation of rho + 1e-9 I.  The
deviation from I/dim and the projector residual of one matrix or a stack
come from `_max_deviation` and `_max_projector_residual`.

`weight_distribution` and `verification_sweep`, behind `ame verify`, read
their reductions from `_small_side_stacks`.  Every parent holds party 0, and
at even n so does every m-party pair representative, so the representatives
of the tier reach every keep-set below m: `weight_distribution` names them
as its tier, forms C(n-1, m-1) m-party reductions at even n and all C(n, m)
at odd n, and reads them unvalidated.  `verification_sweep` names the whole
tier, since every m-set gives a k-uniformity deviation and a projector
residual, and runs `_validate` on each stack.  Both fill the purity table
(`_purity_table`) from each stack, one `_purities` call a stack.
`k_uniformity` reads the directly formed stacks of every k-party keep-set,
wraps each matrix in its own `DensityMatrix`, on the parties of the mask the
stack yields with it, and reads the deviation from I/dim once a stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .states import StateVector, as_index

DESK_SCALE = 10**6


def check_desk_scale(n: int, d: int) -> None:
    """Reject a state of n qudits with d**n > DESK_SCALE before any work on it."""
    if d**n > DESK_SCALE:
        raise ValueError(f"state too large: d**n = {d**n} > {DESK_SCALE}")


def _validated_sites(state: StateVector, sites: Iterable[int], allow_empty: bool = False):
    out = tuple(as_index(j, "site") for j in sites)
    if not out and not allow_empty:
        raise ValueError("site subset must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate sites: {out}")
    for j in out:
        if not 0 <= j < state.n:
            raise ValueError(f"site {j} out of range for n={state.n}")
    return tuple(sorted(out))


def _validate(rho: np.ndarray) -> None:
    """Density-matrix checks on the last two axes of `rho`, one matrix or a stack.

    Finite, Hermitian to 1e-12, unit trace to 1e-12, and no eigenvalue below
    -1e-9.  The last is one batched Cholesky factorisation of rho + 1e-9 I,
    which exists exactly when every eigenvalue of the Hermitian rho exceeds
    -1e-9; Cholesky is backward stable, so it can disagree with the spectrum
    only within about dim * eps of that threshold, and it forms no spectrum.
    """
    # every comparison below is false on NaN
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max() > 1e-12:
        raise ValueError("density matrix not Hermitian")
    if np.abs(rho.trace(axis1=-2, axis2=-1).real - 1.0).max() > 1e-12:
        raise ValueError("density matrix trace != 1")
    dim = rho.shape[-1]
    # a strided write into zeros costs less than 1e-9 * np.eye(dim) on the
    # 2x2 to 8x8 stacks of small states
    shift = np.zeros((dim, dim))
    shift.flat[:: dim + 1] = 1e-9
    try:
        np.linalg.cholesky(rho + shift)
    except np.linalg.LinAlgError:
        raise ValueError("density matrix not positive semidefinite") from None


def _max_deviation(rho: np.ndarray) -> float:
    """Largest max-entry distance from I/dim over the matrices on the last two axes."""
    dim = rho.shape[-1]
    return float(np.abs(rho - np.eye(dim) / dim).max())


def _max_projector_residual(rho: np.ndarray) -> float:
    """Largest ||rho^2 - rho/dim||_F over the matrices on the last two axes.

    It is zero exactly when dim * rho is a projector.
    """
    dim = rho.shape[-1]
    return float(np.linalg.norm(rho @ rho - rho / dim, axis=(-2, -1)).max())


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
        _validate(rho[None])
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on `keep` (ascending order), complement summed out.

    It is the matrix `reduction_stacks` forms for `keep`.
    """
    sites = _validated_sites(state, keep)
    ((_, rho),) = reduction_stacks(state, [sum(1 << j for j in sites)])
    return DensityMatrix(parties=sites, d=state.d, entries=rho[0])


def _empty_purity(state: StateVector) -> float:
    """tr(rho^2) of the empty reduction, the scalar ||psi||^4."""
    norm_sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
    return norm_sq * norm_sq


def _purities(rho: np.ndarray) -> np.ndarray:
    """tr(rho^2) = sum |rho_ij|^2 of each Hermitian matrix in a (k, D, D) stack.

    One batched dot of each matrix's entries with themselves, a complex stack
    read as its float64 (re, im) pairs.  Each matrix is summed on its own, so
    its value does not depend on the stack it is read in.
    """
    flat = rho.reshape(len(rho), rho.shape[-2] * rho.shape[-1])
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    return (flat[:, None, :] @ flat[:, :, None])[:, 0, 0]


def subset_purity(state: StateVector, sites: Iterable[int]) -> float:
    """tr(rho_S^2) of psi psi^dag / ||psi||^2 reduced onto `sites`; the empty
    reduction gives 1.

    A pure state carries equal Schmidt spectra on the two sides of any
    bipartition, so the reduction formed is the pair representative of
    `sites` (`_pair_representatives`): the smaller side, and at |S| = n/2 the
    side holding party 0, the same one the purity table reads, with the same
    `_purities` and the same division by `_empty_purity`.  The value is
    therefore the same for `sites` and its complement.  The table's equals it
    bit for bit where the representative has floor(n/2) parties, since both
    form that reduction directly, and to rounding where it has fewer, since
    the sweep traces those down.
    """
    S = _validated_sites(state, sites, allow_empty=True)
    mask = int(_pair_representatives(state.n)[sum(1 << j for j in S)])
    if not mask:
        return 1.0
    ((_, rho),) = reduction_stacks(state, [mask])
    return float(_purities(rho)[0]) / _empty_purity(state)


@functools.lru_cache(maxsize=None)
def _supports(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Every support S of n parties, the empty one first, and its bitmask (party j -> bit j).

    The order is that of `itertools.combinations(range(n), r)` for r = 0..n.
    """
    supports = tuple(S for r in range(n + 1) for S in itertools.combinations(range(n), r))
    masks = np.array([sum(1 << j for j in S) for S in supports], dtype=np.int64)
    masks.flags.writeable = False
    return supports, masks


@functools.lru_cache(maxsize=None)
def bit_counts(n: int) -> np.ndarray:
    """|T| for every bitmask T of n parties."""
    counts = np.zeros(2**n, dtype=np.int64)
    for j in range(n):
        counts[1 << j : 2 << j] = counts[: 1 << j] + 1
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=None)
def _pair_representatives(n: int) -> np.ndarray:
    """For every mask T, the mask whose reduction gives tr(rho_T^2) = tr(rho_Tbar^2).

    That is the pair's smaller side, and at |T| = n/2 the side holding party 0,
    the side every parent in `_small_side_stacks` is on, so the parents of a
    representative are representatives, and the n/2-party representatives
    reach every smaller keep-set.
    """
    masks = np.arange(2**n)
    twice = 2 * bit_counts(n)
    out = np.where((twice < n) | ((twice == n) & ((masks & 1) == 1)), masks, masks ^ (2**n - 1))
    out.flags.writeable = False
    return out


def _masks_of_size(n: int, r: int) -> np.ndarray:
    """Bitmasks of every r-party keep-set, in `itertools.combinations` order."""
    first = sum(math.comb(n, s) for s in range(r))
    return _supports(n)[1][first : first + math.comb(n, r)]


def _purity_table(state: StateVector, stacks: Iterable[tuple[np.ndarray, ...]]) -> np.ndarray:
    """tr(rho_T^2) of rho = psi psi^dag / ||psi||^2 for every bitmask T, from
    (masks, rho) stacks holding every nonempty pair representative of psi.

    A pure state has tr(rho_T^2) = tr(rho_Tbar^2), so each pair's purity is
    read once, off its representative, and serves both masks.  Each stack's
    purities come from one `_purities` call and are written at their masks;
    those of masks that represent no pair (half of the n/2-party tier
    `verification_sweep` forms) are written but never read.
    The table is divided by its empty entry ||psi||^4, so the empty and full
    entries are exactly 1: the transform weighs them by up to d^(2n), and a
    norm error of a few eps would be amplified by as much.
    """
    reps = _pair_representatives(state.n)
    purities = np.empty(2**state.n)
    purities[0] = _empty_purity(state)
    for masks, rho in stacks:
        purities[masks] = _purities(rho)
    return purities[reps] / purities[0]


def _transform(w: np.ndarray, d: int) -> np.ndarray:
    """tr(rho_T^2) -> tr(P_T^2) in place, for w indexed by bitmask over 2^k masks.

    The sum factorises: each party weighs T by d^2 if T holds it, else by -d.
    """
    for i in range(len(w).bit_length() - 1):
        pairs = w.reshape(-1, 2, 2**i)
        pairs[:, 1] = d * (d * pairs[:, 1] - pairs[:, 0])
    return w


@dataclass(frozen=True)
class WeightDistribution:
    """tr(P_S^2) for every nonempty support S of an n-party state."""

    n: int
    d: int
    per_subset: dict[tuple[int, ...], float]

    @classmethod
    def from_masks(cls, n: int, d: int, values: np.ndarray) -> "WeightDistribution":
        """values[mask] for every nonempty support, in (size, lexicographic) order."""
        supports, masks = _supports(n)
        return cls(n, d, dict(zip(supports[1:], values[masks[1:]].tolist())))

    def per_weight(self) -> dict[int, list[float]]:
        """Values grouped by |S|, in subset enumeration order."""
        out: dict[int, list[float]] = {w: [] for w in range(1, self.n + 1)}
        for S, value in self.per_subset.items():
            out[len(S)].append(value)
        return out


def weight_distribution(state: StateVector) -> WeightDistribution:
    """Weight traces for every nonempty support, purity route.  Desk scale only.

    The reductions come from `_small_side_stacks`, unvalidated, given the
    floor(n/2)-party pair representatives as its tier: every reduction it
    yields represents its pair, and `_purity_table` reads them all.
    """
    n, d = state.n, state.d
    check_desk_scale(n, d)
    tier = _masks_of_size(n, n // 2)
    stacks = _small_side_stacks(state, tier[_pair_representatives(n)[tier] == tier])
    return WeightDistribution.from_masks(n, d, _transform(_purity_table(state, stacks), d))


# Entries of the largest amplitude or matrix stack `reduction_stacks` forms at
# once, 1 MiB of complex128 (half that for a real state's float64): 64
# reductions of a 10-qubit state a stack.  Larger stacks ran no faster on the
# benchmark's states and raise the peak RSS; the tracemalloc peak of verifying
# ghz(12), a real state, is 3.0 MiB with it (5.6 MiB as complex128).  It also
# bounds the trailing block `basis.bloch_coefficients` contracts at once,
# d^(2(n-s)) float64 entries after s leading sites are split off: on a
# 10-qubit graph state and Haar states at (11, 2), (5, 5) and (6, 3),
# `basis.weight_distribution_basis` took up to 2.0 times as long with 2^18,
# up to 1.8 times with 2^14 and 2.9 to 18 times with 2^12 (median of 7).
# glibc serves a request of 128 KiB or more with a fresh mmap until a block
# that large is freed, which raises that threshold to the freed block's size
# (the dynamic mmap threshold of mallopt(3)); one block just above the
# largest stack temporary is freed here, so the stacks are served from the
# heap even in a process that has freed nothing large, where verifying a
# 10-qubit graph state otherwise took about 1.65 times as long, faulting in
# fresh pages for every stack (13.6-14.7 against 8.1-9.0 ms, fastest of 40,
# on a 2-core host).
_STACK_ENTRIES = 2**16
np.empty(16 * _STACK_ENTRIES + 4096, dtype=np.uint8)


def reduction_stacks(
    state: StateVector, keeps: np.ndarray | Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Reductions rho_R of the keep-sets R in `keeps`, a stack at a time, unvalidated.

    `keeps` holds bitmasks (party j -> bit j) of one size r.  Yields (masks,
    rho): keep-sets and their (k, d^r, d^r) reductions, kept sites in
    ascending order, each keep-set once; a caller that needs a density
    matrix runs `_validate` on it.  Every reduction in `oracle` is formed
    here or traced down by `_small_side_stacks` from one formed here.

    Every keep-set is formed directly, in the order given, a stack of them by
    one batched matmul of (k, d^r, d^(n-r)) amplitude matrices.

    The stack's dtype follows the state's: a state with no nonzero imaginary
    part gives float64 reductions psi psi^T, any other state complex128 ones.
    """
    n, d = state.n, state.d
    keeps = np.asarray(keeps)
    rows = d ** int(keeps[0]).bit_count()
    cols = d**n // rows
    size = max(1, _STACK_ENTRIES // (rows * max(rows, cols)))
    tensor = state.site_tensor()
    if not tensor.imag.any():
        # psi.conj() is then psi itself, and psi @ psi.T on one buffer runs as
        # a BLAS syrk, 1/8 of the complex product's flops
        tensor = np.ascontiguousarray(tensor.real)
    for start in range(0, len(keeps), size):
        chunk = keeps[start : start + size]
        # kept parties first, then traced-out ones, each group ascending: a
        # stable sort of each row of "traced out" bits
        traced = (chunk[:, None] >> np.arange(n) & 1) == 0
        orders = np.argsort(traced, axis=1, kind="stable").tolist()
        psi = np.array([tensor.transpose(o) for o in orders]).reshape(len(chunk), rows, cols)
        yield chunk, psi @ psi.conj().swapaxes(-1, -2)


def _trace_digit(rho: np.ndarray, j: int, d: int) -> np.ndarray:
    """Trace row digit j (0 the most significant) out of a (k, d^s, d^s) stack.

    The d diagonal blocks are added in a fixed order, so the result does not
    depend on which stack a matrix is traced in.
    """
    dim = rho.shape[-1]
    hi, lo = d**j, dim // d ** (j + 1)
    blocks = rho.reshape(len(rho), hi, d, lo, hi, d, lo)
    out = blocks[:, :, 0, :, :, 0].copy()
    for a in range(1, d):
        out += blocks[:, :, a, :, :, a]
    return out.reshape(len(rho), hi * lo, hi * lo)


def _small_side_stacks(
    state: StateVector, tier: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(masks, rho) stacks holding the reductions onto the m = floor(n/2)-party
    keep-sets in `tier` and onto every nonempty keep-set below them, each once.

    A keep-set R below m has one parent, R plus its lowest missing party j,
    which holds parties 0..j, so tracing party j out (`_trace_digit`) keeps
    R's parties at the same row digits.  A keep-set holding parties 0..z-1
    thus has one child for each j < z, holding parties 0..j-1, whose own
    children trace parties below j only, and walking every child from the
    tier reaches each keep-set below it once.  The tier is formed by
    `reduction_stacks`, and each stack of it is walked down a level at a
    time, so no more than two levels of it are held.  Every parent holds
    party 0, so the m-party pair representatives reach every keep-set below
    m, as the whole tier does.
    """
    # at n = 1 the tier is the empty keep-set, whose reduction is never formed
    if state.n > 1:
        for masks, rho in reduction_stacks(state, tier):
            while True:
                yield masks, rho
                if int(masks[0]).bit_count() == 1:
                    # the only child would be the empty reduction
                    break
                children = []
                # the bit of the lowest party each keep-set misses: it holds all below
                missing = ~masks & (masks + 1)
                for j in range(int(missing.max()).bit_length() - 1):
                    held = missing > 1 << j
                    if held.any():
                        children.append(
                            (
                                masks[held] ^ (1 << j),
                                # a whole stack needs no select copy
                                _trace_digit(rho if held.all() else rho[held], j, state.d),
                            )
                        )
                if not children:
                    break
                masks = np.concatenate([c for c, _ in children])
                rho = np.concatenate([r for _, r in children])


class UniformityReport(NamedTuple):
    uniform: bool
    max_deviation: float


UNIFORMITY_TOL = 1e-9


def k_uniformity(state: StateVector, k: int) -> UniformityReport:
    """Is every k-party reduction maximally mixed, within 1e-9 in max entry?

    The reductions come from one `reduction_stacks` call over every k-party
    keep-set, and each is validated as its own `DensityMatrix`, whose parties
    are read off the mask the stack yields with the matrix.  The deviation is
    read once a stack, off the stack itself: its maximum over the stack is
    the maximum over each `DensityMatrix`'s entries, bit for bit.
    """
    if not 1 <= k <= state.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={state.n}")
    n, d = state.n, state.d
    worst = 0.0
    for masks, stack in reduction_stacks(state, _masks_of_size(n, k)):
        for mask, rho in zip(masks.tolist(), stack):
            DensityMatrix(tuple(j for j in range(n) if mask >> j & 1), d, rho)
        worst = max(worst, _max_deviation(stack))
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
    traced_out = [j for j in range(state.n) if j not in sites]
    return _max_projector_residual(partial_trace(state, traced_out).entries)


def verification_sweep(state: StateVector) -> tuple[float, float, np.ndarray]:
    """(k-uniformity deviation, projector residual, purity table) from one sweep.

    Each reduction rho_R with 1 <= |R| <= floor(n/2) comes once from
    `_small_side_stacks`, the whole floor(n/2)-party tier included, and is
    validated, a stack at a time.  A stack gives the projector residual of the
    complementary keep-sets, at |R| = floor(n/2) the k-uniformity deviation,
    and the purity of every R that represents its pair {R, Rbar}, read by the
    `_purity_table` of `weight_distribution`: tr(rho_T^2) of the normalised
    state for every bitmask T, each at most 1, from which `_transform` gives
    the weight traces.
    """
    n, top = state.n, state.d ** (state.n // 2)
    # keeping all n parties traces out nothing: its residual is a scalar
    dev, proj = 0.0, projector_property_residual(state, range(n))

    def validated():
        nonlocal dev, proj
        for masks, rho in _small_side_stacks(state, _masks_of_size(n, n // 2)):
            _validate(rho)
            proj = max(proj, _max_projector_residual(rho))
            if rho.shape[-1] == top:
                dev = max(dev, _max_deviation(rho))
            yield masks, rho

    # dev and proj are filled while the table is built
    purities = _purity_table(state, validated())
    return dev, proj, purities
