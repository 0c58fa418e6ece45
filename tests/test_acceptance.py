"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible under
`pytest -s`); assertions carry the details.  Exact-arithmetic claims are
checked with `==` on rationals -- zero tolerance -- while oracle claims use
the stated floating tolerances.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from ame import (
    SystemParams,
    build_system,
    eigenvalue_closed_form,
    explicit_inverse,
    i2_counterexamples,
    purity_identity_residual,
    satisfies_scott_bound,
    scan,
    solve_traces,
    trace_closed_form,
    trace_i2_specialization,
)
from ame.cli import main
from ame.oracle import (
    BUILTIN_NAMES,
    builtin_state,
    find_ame_graph,
    ghz,
    projector_property_residual,
    ring_graph,
    weight_distribution,
)
from reference_values import QUBIT_TRACES

GRID = [
    SystemParams(n=n, d=d) for d in range(2, 8) for n in range(2, 41)
]

_solved = {}


def _profile(params):
    if params not in _solved:
        _solved[params] = solve_traces(params)
    return _solved[params]


def _criterion(num, label):
    """Print the verdict line after the body runs (or fails)."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {num:2d}] {verdict} - {label}")
            return False

    return _Reporter()


def test_01_qubit_table_regression(capsys):
    with _criterion(1, "d=2 table reproduced exactly, < 1 s"):
        start = time.time()
        code = main(["table", "--d", "2", "--n-min", "2", "--n-max", "13"])
        elapsed = time.time() - start
        out = capsys.readouterr().out
        assert code == 0
        body = [
            line for line in out.splitlines()
            if line.startswith("| ") and "---" not in line
        ][1:]
        got = {}
        for line in body:
            cells = [c.strip() for c in line.split("|")[1:-1]]
            got[int(cells[0])] = {
                i: int(c) for i, c in enumerate(cells[1:], start=1) if c
            }
        assert got == QUBIT_TRACES
        assert sum(len(v) for v in got.values()) == 48
        assert got[6][2] == 0 and got[11][2] == 0
        assert got[8][2] == -192 and got[13][7] == -98304
        assert elapsed < 1.0


def test_02_cross_method_equality():
    with _criterion(2, "solver == closed form == i=2 form on the full grid, < 30 s"):
        start = time.time()
        for params in GRID:
            profile = _profile(params)
            for i in range(1, params.i_max + 1):
                assert profile.traces[i] == trace_closed_form(params, i)
            if params.i_max >= 2:
                assert profile.traces[2] == trace_i2_specialization(params)
        assert time.time() - start < 30.0


def test_03_inverse_identities():
    with _criterion(3, "A*A^-1 = I and B*B^-1 = I exactly on the full grid"):
        for params in GRID:
            for flavor in ("A", "B"):
                system = build_system(params, params.i_max, flavor)
                inverse = explicit_inverse(system)
                size = system.size
                for l in range(size):
                    for j in range(size):
                        acc = sum(
                            (system.entries[l][t] * inverse[t][j] for t in range(size)),
                            Fraction(0),
                        )
                        assert acc == (1 if l == j else 0)


def test_04_factor_relation():
    with _criterion(4, "trace = d^(m+i) * eigenvalue exactly on the full grid"):
        for params in GRID:
            profile = _profile(params)
            # solve_traces derives both from one substitution, so the traces
            # are checked against the flavor-A system's own solve
            own_traces = build_system(params, params.i_max, "A").solve()
            for i in range(1, params.i_max + 1):
                assert profile.traces[i] == own_traces[i - 1]
                assert profile.eigenvalues[i] == eigenvalue_closed_form(params, i)
                scale = Fraction(params.d) ** (params.m + i)
                assert profile.traces[i] == scale * profile.eigenvalues[i]


def test_05_scott_bound_equivalence():
    with _criterion(5, "sign of the i=2 form matches the size bound everywhere"):
        for params in GRID:
            if params.i_max < 2:
                continue
            assert (trace_i2_specialization(params) >= 0) == satisfies_scott_bound(params)


def test_06_purity_identity():
    with _criterion(6, "purity decomposition residual exactly 0 on the full grid"):
        for params in GRID:
            assert purity_identity_residual(params) == 0


def test_07_oracle_agreement():
    with _criterion(7, "builtin states match the closed forms, < 60 s"):
        start = time.time()
        for name in BUILTIN_NAMES:
            state = builtin_state(name)
            params = SystemParams(n=state.n, d=state.d)
            by_weight = weight_distribution(state).per_weight()
            for w in range(1, params.m + 1):
                assert max(abs(v) for v in by_weight[w]) <= 1e-9, name
            for i in range(1, params.i_max + 1):
                values = by_weight[params.m + i]
                want = float(trace_closed_form(params, i))
                assert max(abs(v - want) for v in values) <= 1e-9, name
                assert max(values) - min(values) <= 1e-9, name
        assert time.time() - start < 60.0


def test_08_projector_property():
    with _criterion(8, "projector property on builtins; GHZ4 negative control"):
        for name in BUILTIN_NAMES:
            state = builtin_state(name)
            m = state.n // 2
            for size in range(state.n - m, state.n + 1):
                for keep in itertools.combinations(range(state.n), size):
                    assert projector_property_residual(state, keep) <= 1e-9, name
        control = ghz(4, 2)
        worst = max(
            projector_property_residual(control, keep)
            for keep in itertools.combinations(range(4), 2)
        )
        assert worst > 1e-3


def test_09_graph_search_findings():
    with _criterion(9, "graph search: (4,2) empty, (5,2) has C5, (6,2) nonempty, < 5 min"):
        start = time.time()
        assert find_ame_graph(4, 2) == []
        hits5 = find_ame_graph(5, 2)
        assert hits5 and ring_graph(5, 2) in hits5
        assert find_ame_graph(6, 2)
        assert time.time() - start < 300.0


def test_10_first_negative_claim():
    counterexamples = i2_counterexamples(scan((2, 5), (2, 40)))
    holds = not counterexamples
    label = (
        f"first negative at i=2 over d=2..5, n=2..40: "
        f"{'holds' if holds else 'fails'}"
        + (f", counterexamples {[(p.n, p.d) for p in counterexamples]}" if counterexamples else "")
    )
    with _criterion(10, label):
        # the qubit half of the claim is pinned by the reference table;
        # the wider grid is reported either way
        assert i2_counterexamples(scan((2, 2), (2, 13))) == []
        assert holds and counterexamples == []


def test_11_seven_qubits_stay_open():
    with _criterion(11, "n=7, d=2 all traces positive (no rule-out)"):
        profile = _profile(SystemParams(n=7, d=2))
        assert all(v > 0 for v in profile.traces.values())
