"""Seeded workloads of the ame benchmark: inputs, timed items and output checks.

A workload is a fixed list of items.  The seed picks which (n, d) points or
graphs the items use; it never changes the item count or the size mix, so two
seeds cost about the same.  Each item has a timed ``run`` and an untimed
``check`` that returns ``None`` when the output is correct, or the reason it is
not.  A check that is itself the workload's cross-check route (the closed forms
on ``exact-deep``, the basis route on ``oracle-weights``) sits inside ``run``.

Items call the package through module attributes at call time
(``existence.check``, not a name bound at import), so the timing wrappers the
traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from ame import cli, enumerator, existence
from ame.enumerator import SystemParams
from ame.oracle import basis, fixtures, search, states, weights

TOL = 1e-9

# d=2 weight traces tr(P_{m+i}^2) for n <= 13, as published with the package.
QUBIT_TRACES = {
    2: {1: 12},
    3: {1: 4, 2: 32},
    4: {1: 24, 2: 48},
    5: {1: 8, 2: 48, 3: 192},
    6: {1: 48, 2: 0, 3: 1152},
    7: {1: 16, 2: 64, 3: 256, 4: 2816},
    8: {1: 96, 2: -192, 3: 2688, 4: 768},
    9: {1: 32, 2: 64, 3: 384, 4: 4864, 5: 11264},
    10: {1: 192, 2: -768, 3: 6912, 4: -12288, 5: 141312},
    11: {1: 64, 2: 0, 3: 768, 4: 8192, 5: 6144, 6: 294912},
    12: {1: 384, 2: -2304, 3: 18432, 4: -61440, 5: 405504, 6: -663552},
    13: {1: 128, 2: -256, 3: 2048, 4: 12288, 5: -12288, 6: 614400, 7: -98304},
}

# Number of floor(n/2)-uniform weighted graph states found by the exhaustive
# search; the search scans every adjacency matrix, so these never change.
SEARCH_HITS = {(6, 2): 132, (4, 3): 120}


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Reference:
    """A fixed kernel that does work like a workload's own but runs no ame
    code, and the seconds it takes on the reference host.  The untraced run
    times it between items to scale item times (see worker.run_pass), and
    every run times it right after set-up to scale the set-up time.

    The nominal times are the kernel's median times on the host the baseline
    in BASELINE.md was taken on: `nominal_s` between items, `setup_nominal_s`
    right after set-up in a fresh process.  So on that host the median scale
    is about 1."""

    kernel: Callable[[], object]
    nominal_s: float
    setup_nominal_s: float


def _rational_kernel(terms: int = 1200) -> Fraction:
    acc = Fraction(0)
    for i in range(1, terms):
        acc += Fraction(i, i + 7) ** 3
    return acc


_DENSE = np.full((192, 192), 0.01 + 0.01j)


def _dense_kernel() -> np.ndarray:
    _rational_kernel(600)
    for _ in range(3):
        _DENSE @ _DENSE
    return _DENSE @ _DENSE


# Exact-rational arithmetic tracks the host's speed for the exact workloads;
# the oracle workloads mix Python-level loops with complex BLAS products.
RATIONAL = Reference(_rational_kernel, 0.0122, 0.0113)
DENSE = Reference(_dense_kernel, 0.0090, 0.0093)


# The tail latency is the slowest item time with this many slower ones in
# the same run: the highest nearest-rank percentile with ten samples beyond it.
BEYOND_TAIL = 10


@dataclass(frozen=True)
class Workload:
    name: str
    items: list[Item]
    reference: Reference
    # Scaled seconds one pass takes on the host the baseline was taken on.
    # A run makes a number of passes fixed by the run length, not by how fast
    # the host happens to be, so every run of a workload has the same sample
    # count and its tail is always the same order statistic.
    pass_s: float

    def passes(self, seconds: float) -> int:
        """Passes in a run of `seconds` on the reference host; at least enough
        that some item time has BEYOND_TAIL slower ones."""
        return max(math.ceil((BEYOND_TAIL + 1) / len(self.items)), round(seconds / self.pass_s))


def rank(pct: float, count: int) -> int:
    """1-based nearest-rank position of a percentile among `count` values."""
    return max(1, math.ceil(pct / 100 * count))


# --- exact side ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def closed_form_traces(n: int, d: int) -> dict[int, Fraction]:
    """Reference traces from the hypergeometric closed forms (never the solver)."""
    params = SystemParams(n=n, d=d)
    return {i: enumerator.trace_closed_form(params, i) for i in range(1, params.i_max + 1)}


def _first_negative(traces: dict[int, Fraction]) -> int | None:
    return next((i for i in sorted(traces) if traces[i] < 0), None)


def deep_item(n: int, d: int) -> Item:
    """existence.check, then both closed forms for every i, compared with ==."""

    def run():
        params = SystemParams(n=n, d=d)
        verdict = existence.check(params)
        profile = verdict.profile
        mismatched = [
            i
            for i in range(1, params.i_max + 1)
            if enumerator.trace_closed_form(params, i) != profile.traces[i]
            or enumerator.eigenvalue_closed_form(params, i) != profile.eigenvalues[i]
        ]
        return verdict, mismatched

    def check(out):
        verdict, mismatched = out
        if mismatched:
            return f"solver and closed forms differ at i={mismatched}"
        witness = _first_negative(verdict.profile.traces)
        if verdict.witness_i != witness or verdict.ruled_out != (witness is not None):
            return f"verdict {verdict.ruled_out}/{verdict.witness_i}, first negative i={witness}"
        return None

    return Item(f"deep n={n} d={d}", run, check)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _parse_rows(fmt: str, text: str) -> list[list[str]]:
    """Body rows of an md table or a csv listing, header and summaries dropped."""
    if fmt == "md":
        lines = [ln for ln in text.splitlines() if ln.startswith("| ")][2:]
        return [[c.strip() for c in ln.strip("| ").split(" | ")] for ln in lines]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    return [ln.split(",") for ln in lines]


def _compare_traces(n: int, d: int, got: dict[int, Fraction]) -> str | None:
    want = closed_form_traces(n, d)
    if got != want:
        return f"traces at (n={n}, d={d}) differ from the closed forms"
    if d == 2 and n in QUBIT_TRACES and got != QUBIT_TRACES[n]:
        return f"qubit row n={n} differs from the known table"
    return None


def check_cli_item(n: int, d: int, fmt: str) -> Item:
    """`ame check` on one point; exit code 2 exactly when a trace is negative."""

    def check(out):
        code, text = out
        if fmt == "json":
            doc = json.loads(text)
            traces = {
                int(i): Fraction(int(v["numerator"]), int(v["denominator"]))
                for i, v in doc["traces"].items()
            }
        else:
            rows = _parse_rows(fmt, text)
            col = 0 if fmt == "md" else 2
            traces = {int(r[col]): Fraction(r[col + 1]) for r in rows}
        bad = _compare_traces(n, d, traces)
        if bad:
            return bad
        if code != (2 if _first_negative(traces) is not None else 0):
            return f"exit code {code} at (n={n}, d={d})"
        return None

    argv = ["check", "--n", str(n), "--d", str(d), "--format", fmt]
    return Item(f"check n={n} d={d} {fmt}", lambda: _run_cli(argv), check)


def table_cli_item(d: int, n_max: int, fmt: str) -> Item:
    """`ame table` for n = 2..n_max; every cell against the closed forms."""

    def check(out):
        code, text = out
        rows = _parse_rows(fmt, text)
        if code != 0 or [int(r[0]) for r in rows] != list(range(2, n_max + 1)):
            return f"table d={d} {fmt}: exit {code}, {len(rows)} rows"
        for row in rows:
            n = int(row[0])
            cells = {i: Fraction(c) for i, c in enumerate(row[1:], start=1) if c}
            bad = _compare_traces(n, d, cells)
            if bad:
                return bad
        return None

    argv = ["table", "--d", str(d), "--n-min", "2", "--n-max", str(n_max), "--format", fmt]
    return Item(f"table d={d} {fmt}", lambda: _run_cli(argv), check)


def scan_cli_item(d_max: int, n_max: int) -> Item:
    """`ame scan` in json; every verdict against the closed-form signs."""

    def check(out):
        code, text = out
        grid = json.loads(text)["grid"]
        points = [(p["n"], p["d"]) for p in grid]
        want = [(n, d) for d in range(2, d_max + 1) for n in range(2, n_max + 1)]
        if code != 0 or points != want:
            return f"scan grid: exit {code}, {len(points)} points"
        for p in grid:
            witness = _first_negative(closed_form_traces(p["n"], p["d"]))
            if p["witness_i"] != witness or p["ruled_out"] != (witness is not None):
                return f"scan verdict at (n={p['n']}, d={p['d']})"
        return None

    argv = ["scan", "--d-max", str(d_max), "--n-max", str(n_max), "--format", "json"]
    return Item(f"scan d<={d_max} n<={n_max}", lambda: _run_cli(argv), check)


def exact_deep(seed: int) -> Workload:
    # One point per n band, 150..320; d per band is fixed so the size mix
    # does not depend on the seed.
    rng = random.Random(seed)
    ds = (10, 9, 8, 7, 6, 4, 3, 2)
    items = [deep_item(150 + 24 * k + rng.randrange(3), d) for k, d in enumerate(ds)]
    return Workload("exact-deep", items, RATIONAL, pass_s=4.6)


def exact_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    items = [scan_cli_item(6, 60)]
    items += [table_cli_item(d, 40, fmt) for d in range(2, 7) for fmt in ("md", "csv")]
    # Twenty points n = 5k or 5k - 1, k = 1..20, d fixed per k.  The seed moves
    # n by at most one so that the median item's cost does not jump between
    # seeds: neighbouring points differ in cost by 10-20%.
    for k in range(1, 21):
        n, d = 5 * k - rng.randrange(2), 2 + k % 9
        items += [check_cli_item(n, d, fmt) for fmt in ("md", "csv", "json")]
    return Workload("exact-sweep", items, RATIONAL, pass_s=3.6)


# --- oracle side ---------------------------------------------------------


def random_graph_state(rng: random.Random, n: int, d: int) -> states.StateVector:
    edges = [(u, v, rng.randrange(d)) for u in range(n) for v in range(u + 1, n)]
    return states.graph_state(states.GraphSpec.from_edges(n, d, edges))


def _low_weights_vanish(state: states.StateVector) -> bool:
    """Basis-route verdict: every tr(P_S^2) with 1 <= |S| <= floor(n/2) is ~0."""
    per_weight = basis.weight_distribution_basis(state).per_weight()
    return all(abs(v) <= TOL for w in range(1, state.n // 2 + 1) for v in per_weight[w])


def verify_item(label: str, state: states.StateVector, expect_pass: bool | None) -> Item:
    """cli.run_verification; the k-uniformity verdict must match the basis route."""
    reference: list[bool] = []  # basis-route verdict, computed on first check

    def check(rows):
        verdict = all(ok for _, ok, _ in rows)
        if expect_pass is not None and verdict != expect_pass:
            return f"{label}: verification {'PASS' if verdict else 'FAIL'}"
        if not reference:
            reference.append(_low_weights_vanish(state))
        if rows[0][1] != reference[0]:
            return f"{label}: k-uniformity disagrees with the basis route"
        return None

    return Item(f"verify {label}", lambda: cli.run_verification(state, TOL), check)


def oracle_verify(seed: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for n, d in ((8, 2), (9, 2), (10, 2), (6, 3)):
        # no AME qubit state exists beyond n=6; a random qutrit graph has no
        # verdict known in advance, only the cross-route agreement
        expect = False if d == 2 else None
        items.append(verify_item(f"graph({n},{d})", random_graph_state(rng, n, d), expect))
    for name in ("ring5", "ame43", "ame62", "ghz3(3)"):
        items.append(verify_item(name, fixtures.builtin_state(name), True))
    return Workload("oracle-verify", items, DENSE, pass_s=3.9)


def routes_item(state: states.StateVector) -> Item:
    """Both weight routes on one state, compared support by support at TOL."""

    def run():
        purity = weights.weight_distribution(state).per_subset
        coeffs = basis.weight_distribution_basis(state).per_subset
        if purity.keys() != coeffs.keys():
            return float("inf")
        return max(abs(purity[S] - coeffs[S]) for S in purity)

    def check(worst):
        return None if worst <= TOL else f"weight routes differ by {worst:.3e}"

    return Item(f"routes n={state.n} d={state.d}", run, check)


def purity_item(state: states.StateVector) -> Item:
    """Purity route, checked by the sum rule 1 + sum_S d^-|S| tr(P_S^2) = d^n."""

    def check(dist):
        total = 1.0 + sum(v * state.d ** -len(S) for S, v in dist.per_subset.items())
        want = float(state.d**state.n)
        if len(dist.per_subset) != 2**state.n - 1 or abs(total - want) > TOL * want:
            return f"sum rule: {total!r} != {want} on n={state.n}"
        return None

    return Item(f"purity n={state.n}", lambda: weights.weight_distribution(state), check)


def search_item(n: int, d: int) -> Item:
    def check(hits):
        want = SEARCH_HITS[(n, d)]
        return None if len(hits) == want else f"search ({n},{d}): {len(hits)} hits, want {want}"

    return Item(f"search n={n} d={d}", lambda: search.find_ame_graph(n, d), check)


def oracle_weights(seed: int) -> Workload:
    rng = random.Random(seed)
    items = [routes_item(random_graph_state(rng, 10, 2)) for _ in range(2)]
    items += [purity_item(random_graph_state(rng, n, 2)) for n in (12, 12, 12, 13)]
    items += [search_item(6, 2), search_item(4, 3)]
    return Workload("oracle-weights", items, DENSE, pass_s=5.6)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "exact-deep": exact_deep,
    "exact-sweep": exact_sweep,
    "oracle-verify": oracle_verify,
    "oracle-weights": oracle_weights,
}
