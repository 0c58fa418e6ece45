"""Existence verdicts for AME(n, d) from the sign pattern of the invariants.

A strictly negative tr(P_{m+i}^2) is impossible for a genuine state, so any
negative solved trace rules the pair (n, d) out.  Positivity of every trace
is necessary but never sufficient: the seven-qubit case passes every check
here yet no state exists.  `check` solves every invariant of one point;
`scan` decides each grid point from the signs of the flavor-B integer rows
alone, stopping at the first negative one, and keeps no profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .enumerator import SystemParams, WeightTraceProfile, build_system, solve_traces


def satisfies_scott_bound(params: SystemParams) -> bool:
    """Classic size bound: n <= 2(d^2 - 1) for even n, n <= 2d(d+1) - 1 for odd n."""
    n, d = params.n, params.d
    if n % 2 == 0:
        return n <= 2 * (d * d - 1)
    return n <= 2 * d * (d + 1) - 1


@dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of the invariant check at one (n, d) point.

    witness_i is the smallest i whose trace is strictly negative, or None;
    ruled_out is true exactly when a witness exists.  Zero traces never rule
    out.  profile holds every solved trace and eigenvalue for a `check`
    verdict and is None for a `scan` verdict, which reads signs only.
    """

    params: SystemParams
    ruled_out: bool
    witness_i: int | None
    profile: WeightTraceProfile | None
    scott_satisfied: bool


def _verdict(
    params: SystemParams, values: Iterable, profile: WeightTraceProfile | None
) -> ExistenceVerdict:
    """The verdict from values in i order that carry the traces' signs."""
    witness = next((i for i, x in enumerate(values, 1) if x < 0), None)
    return ExistenceVerdict(
        params=params,
        ruled_out=witness is not None,
        witness_i=witness,
        profile=profile,
        scott_satisfied=satisfies_scott_bound(params),
    )


def check(params: SystemParams) -> ExistenceVerdict:
    """Solve all invariants for (n, d) and look for a strictly negative one."""
    profile = solve_traces(params)
    return _verdict(params, profile.traces.values(), profile)


def scan(
    d_range: tuple[int, int], n_range: tuple[int, int]
) -> list[ExistenceVerdict]:
    """One verdict per grid point, d-major then n, both ranges inclusive.

    Each point walks the integer rows of its full flavor-B system and stops
    at the first negative one: the witness.  Flavor A's rows are d^m times
    these, so the signs are those of the traces, and the flavor-B integers
    are the shorter ones.  No `Fraction` is formed, so the verdicts carry
    profile=None.  Empty ranges give an empty list.
    Points are independent, so the scan is deterministic and byte-for-byte
    repeatable.
    """
    d_lo, d_hi = d_range
    n_lo, n_hi = n_range
    if d_lo > d_hi or n_lo > n_hi:
        return []
    if d_lo < 2 or n_lo < 2:
        raise ValueError(f"grid must start at n >= 2 and d >= 2, got n>={n_lo}, d>={d_lo}")
    grid = (SystemParams(n=n, d=d) for d in range(d_lo, d_hi + 1) for n in range(n_lo, n_hi + 1))
    return [_verdict(p, build_system(p, p.i_max, "B").rows(), None) for p in grid]


def i2_counterexamples(verdicts: Iterable[ExistenceVerdict]) -> list[SystemParams]:
    """Grid points ruled out with a first negative trace other than i=2.

    Reads only witness_i, so it takes `scan` verdicts.  Trace 1 is always
    positive (its right-hand side d^-(n-m-1) - d^-(m+1) is, since
    n-m-1 < m+1), so a ruled-out point has a negative trace at i=2 exactly
    when its witness is 2.
    """
    return [v.params for v in verdicts if v.ruled_out and v.witness_i != 2]

