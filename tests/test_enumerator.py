import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ame.exact
from ame import enumerator
from ame.cli import _check_size
from ame.enumerator import (
    SystemParams,
    TriangularSystem,
    _closed_form_bodies,
    _hyp2f1_sweep,
    build_system,
    eigenvalue_closed_form,
    explicit_inverse,
    purity_identity_residual,
    solve_traces,
    trace_closed_form,
    trace_i2_specialization,
)
from ame.exact import hyp2f1_terminating
from reference_values import QUBIT_TRACES

GRID = [
    SystemParams(n=n, d=d) for d in (2, 3, 4) for n in range(2, 15)
]


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n=1, d=2)
    with pytest.raises(ValueError):
        SystemParams(n=4, d=1)
    p = SystemParams(n=9, d=3)
    assert p.m == 4 and p.i_max == 5


def test_params_take_integers_through_operator_index():
    p = SystemParams(np.int64(60), np.int64(2))
    assert p == SystemParams(60, 2)
    assert type(p.n) is int and type(p.d) is int
    # in int64 the solve would overflow from i = 9 on
    assert solve_traces(p) == solve_traces(SystemParams(60, 2))
    for n, d, field in ((8.0, 2, "n"), (60, 2.0, "d"), ("8", 2, "n"), (8, None, "d")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SystemParams(n, d)


def test_system_a_one_by_one():
    sys_ = build_system(SystemParams(n=3, d=2), 1, "A")
    assert sys_.entries == ((Fraction(1, 16),),)
    assert sys_.rhs == (Fraction(1, 4),)


def test_system_b_one_by_one():
    sys_ = build_system(SystemParams(n=2, d=2), 1, "B")
    assert sys_.entries == ((Fraction(1, 4),),)
    assert sys_.rhs == (Fraction(3, 4),)


# the paper's entries and inverses, per flavor, as d-power factors of
# C(m+l, m+j) for j <= l; written out here rather than read from a scale rule
PAPER_FORM = {
    "A": (
        lambda d, m, l, j: Fraction(d) ** (-2 * m - l - j),
        lambda d, m, l, j: (-1) ** (l + j) * Fraction(d) ** (2 * m + l + j),
    ),
    "B": (
        lambda d, m, l, j: Fraction(d) ** (-m - l),
        lambda d, m, l, j: (-1) ** (l + j) * Fraction(d) ** (m + j),
    ),
}


def test_entries_rhs_and_inverse_are_the_paper_form():
    for params in GRID:
        n, d, m = params.n, params.d, params.m
        span = range(1, params.i_max + 1)
        rhs = tuple(Fraction(d) ** (m + l - n) - Fraction(d) ** (-m - l) for l in span)
        for flavor, (entry, inverse) in PAPER_FORM.items():
            sys_ = build_system(params, params.i_max, flavor)
            for matrix, factor in ((sys_.entries, entry), (explicit_inverse(sys_), inverse)):
                assert matrix == tuple(
                    tuple(
                        factor(d, m, l, j) * math.comb(m + l, m + j) if j <= l else 0
                        for j in span
                    )
                    for l in span
                )
                assert all(type(x) is Fraction for row in matrix for x in row)
            assert sys_.rhs == rhs


def test_systems_are_lower_triangular_with_nonzero_diagonal():
    for params in GRID:
        for flavor in ("A", "B"):
            sys_ = build_system(params, params.i_max, flavor)
            for l in range(sys_.size):
                assert sys_.entries[l][l] != 0
                for j in range(l + 1, sys_.size):
                    assert sys_.entries[l][j] == 0


def test_build_system_rejects_bad_input():
    params = SystemParams(n=5, d=2)
    with pytest.raises(ValueError):
        build_system(params, 0, "A")
    with pytest.raises(ValueError):
        build_system(params, params.i_max + 1, "A")
    with pytest.raises(ValueError):
        build_system(params, 1, "C")


def test_inverse_one_by_one():
    sys_ = build_system(SystemParams(n=3, d=2), 1, "A")
    assert explicit_inverse(sys_) == ((Fraction(16),),)


def test_inverse_b_off_diagonal_sign():
    # flavor B inverse entry (2, 1) for n=4, d=3: -d^(m+1) C(m+2, m+1)
    sys_ = build_system(SystemParams(n=4, d=3), 2, "B")
    inv = explicit_inverse(sys_)
    assert inv[1][0] == -108


def test_inverse_is_exact_identity():
    for params in GRID:
        for flavor in ("A", "B"):
            sys_ = build_system(params, params.i_max, flavor)
            inv = explicit_inverse(sys_)
            for l in range(sys_.size):
                for j in range(sys_.size):
                    acc = sum(
                        (sys_.entries[l][t] * inv[t][j] for t in range(sys_.size)),
                        Fraction(0),
                    )
                    assert acc == (1 if l == j else 0)


def test_solver_reproduces_qubit_reference_rows():
    for n, cells in QUBIT_TRACES.items():
        profile = solve_traces(SystemParams(n=n, d=2))
        assert {i: profile.traces[i] for i in cells} == cells


def test_solver_four_qutrit_values():
    profile = solve_traces(SystemParams(n=4, d=3))
    assert profile.traces == {1: 216, 2: 3888}


def test_closed_form_equals_solver():
    for params in GRID:
        profile = solve_traces(params)
        for i in range(1, params.i_max + 1):
            assert trace_closed_form(params, i) == profile.traces[i]
            assert eigenvalue_closed_form(params, i) == profile.eigenvalues[i]


@settings(max_examples=20, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(41, 200), st.integers(2, 12)),
        st.tuples(st.integers(2, 40), st.integers(8, 16)),
    )
)
def test_solver_equals_closed_form_off_the_grid(point):
    params = SystemParams(*point)
    profile = solve_traces(params)
    for i in range(1, params.i_max + 1):
        assert profile.traces[i] == trace_closed_form(params, i)
        assert profile.eigenvalues[i] == eigenvalue_closed_form(params, i)
        for value in (profile.traces[i], profile.eigenvalues[i]):
            assert type(value) is Fraction and value.denominator == 1


DEEP = [SystemParams(319, 2), SystemParams(223, 7), SystemParams(151, 10)]


def _assert_one_walk_is_each_flavors_own_solve(params):
    profile = solve_traces(params)
    for flavor, values in (("A", profile.traces), ("B", profile.eigenvalues)):
        assert list(values) == list(range(1, params.i_max + 1))
        assert tuple(values.values()) == build_system(params, params.i_max, flavor).solve()


def test_one_walk_equals_each_flavors_own_solve():
    for params in GRID + DEEP:
        _assert_one_walk_is_each_flavors_own_solve(params)


# d**n stays under 1701 bits for n <= 512 and d <= 10, inside the CLI's caps
@settings(max_examples=10, deadline=None)
@given(st.integers(41, 512), st.integers(2, 10))
def test_one_walk_equals_each_flavors_own_solve_off_the_grid(n, d):
    _check_size(n, d)
    _assert_one_walk_is_each_flavors_own_solve(SystemParams(n, d))


def test_flavor_a_rhs_is_d_to_the_m_times_flavor_b():
    # the identity that lets solve_traces substitute once: z_A = d^m z_B
    for params in GRID + DEEP:
        sys_a, sys_b = (build_system(params, params.i_max, f) for f in ("A", "B"))
        scale = params.d**params.m
        t_a, t_b = list(sys_a._scaled_rhs()), list(sys_b._scaled_rhs())
        assert len(t_a) == len(t_b) == params.i_max
        assert t_a == [scale * t for t in t_b]


def test_solve_traces_walks_flavor_b_rows_once(monkeypatch):
    walked = []
    rows = TriangularSystem.rows

    def counted(self):
        walked.append(self.flavor)
        return rows(self)

    monkeypatch.setattr(TriangularSystem, "rows", counted)
    params = SystemParams(41, 3)
    profile = solve_traces(params)
    assert walked == ["B"]
    for i in range(1, params.i_max + 1):
        assert profile.traces[i] == trace_closed_form(params, i)


def test_solve_traces_walks_the_pascal_block_once(monkeypatch):
    walks = []
    pascal_rows = enumerator._pascal_rows

    def counted(m, size):
        walks.append((m, size))
        return pascal_rows(m, size)

    monkeypatch.setattr(enumerator, "_pascal_rows", counted)
    params = SystemParams(41, 3)
    profile = solve_traces(params)
    assert walks == [(params.m, params.i_max)]
    for i in range(1, params.i_max + 1):
        assert profile.traces[i] == trace_closed_form(params, i)
        assert profile.eigenvalues[i] == eigenvalue_closed_form(params, i)


def _purities(params, traces):
    """pi(s) = d^-s sum_w C(s, w) d^-w t_w, with t_0 = 1, t_w = 0 for 1 <= w <= m."""
    n, d, m = params.n, params.d, params.m
    t = [Fraction(1)] + [Fraction(0)] * m + [traces[i] for i in range(1, params.i_max + 1)]
    return [
        sum(math.comb(s, w) * Fraction(d) ** -w * t[w] for w in range(s + 1)) / d**s
        for s in range(n + 1)
    ]


def test_both_routes_give_exactly_the_ame_purities():
    # the inverse of the weight transform: the invariants of either route
    # give tr rho_S^2 = d^-min(|S|, n-|S|) for every subset size
    for d in range(2, 8):
        for n in range(2, 41):
            params = SystemParams(n, d)
            ideal = [Fraction(1, d ** min(s, n - s)) for s in range(n + 1)]
            closed = {i: trace_closed_form(params, i) for i in range(1, params.i_max + 1)}
            assert _purities(params, closed) == ideal
            assert _purities(params, solve_traces(params).traces) == ideal


def test_trace_factors_through_eigenvalue():
    for params in GRID:
        profile = solve_traces(params)
        for i in range(1, params.i_max + 1):
            scale = Fraction(params.d) ** (params.m + i)
            assert profile.traces[i] == scale * profile.eigenvalues[i]


def test_i2_specialization_agrees():
    for params in GRID:
        if params.i_max < 2:
            continue
        assert trace_i2_specialization(params) == trace_closed_form(params, 2)


def test_i2_specialization_rejects_small_n():
    with pytest.raises(ValueError):
        trace_i2_specialization(SystemParams(n=2, d=2))


def test_closed_form_range_check():
    params = SystemParams(n=6, d=2)
    with pytest.raises(ValueError):
        trace_closed_form(params, 0)
    with pytest.raises(ValueError):
        trace_closed_form(params, params.i_max + 1)


def test_cached_closed_forms_alternate_between_points_and_keep_the_range_check():
    p, q = SystemParams(n=23, d=3), SystemParams(n=30, d=5)
    alone = {}
    for params in (p, q):
        _closed_form_bodies.cache_clear()
        alone[params] = [
            (trace_closed_form(params, i), eigenvalue_closed_form(params, i))
            for i in range(1, params.i_max + 1)
        ]
    for i in range(1, p.i_max + 1):
        for j in range(1, q.i_max + 1):
            assert trace_closed_form(p, i) == alone[p][i - 1][0]
            assert eigenvalue_closed_form(q, j) == alone[q][j - 1][1]
    for params in (p, q):
        for read in (trace_closed_form, eigenvalue_closed_form):
            for bad in (0, params.i_max + 1):
                read(params, 1)
                with pytest.raises(ValueError):
                    read(params, bad)


def test_ideal_purity_sum_is_the_closed_form():
    # a third exact route: inclusion-exclusion over the ideal AME purities
    # tr rho_T^2 = d^-min(|T|, n-|T|) gives tr(P_s^2) for every weight s;
    # weight 0 is the identity component, 1
    for d in range(2, 11):
        for n in range(2, 41):
            params = SystemParams(n, d)
            for s in range(n + 1):
                ideal = d**s * sum(
                    math.comb(s, t) * (-1) ** (s - t) * Fraction(d) ** (t - min(t, n - t))
                    for t in range(s + 1)
                )
                if s == 0:
                    assert ideal == 1
                elif s <= params.m:
                    assert ideal == 0
                else:
                    assert ideal == trace_closed_form(params, s - params.m)


def test_purity_identity_is_exactly_zero():
    for params in GRID:
        assert purity_identity_residual(params) == 0


def test_purity_identity_solves_only_the_trace_system(monkeypatch):
    flavors = []
    solve = TriangularSystem.solve

    def counted_solve(self):
        flavors.append(self.flavor)
        return solve(self)

    monkeypatch.setattr(TriangularSystem, "solve", counted_solve)
    assert purity_identity_residual(SystemParams(n=13, d=3)) == 0
    assert flavors == ["A"]


def test_partial_solve_is_prefix_of_full_solve():
    params = SystemParams(n=10, d=2)
    full = solve_traces(params)
    for flavor, values in (("A", full.traces), ("B", full.eigenvalues)):
        part = build_system(params, 3, flavor).solve()
        assert part == tuple(values[i] for i in (1, 2, 3))


def _assert_sweep_is_the_series(params):
    sweep = list(_hyp2f1_sweep(params))
    assert len(sweep) == params.i_max
    c, poch = params.m + 2, 1
    for i, (g, sweep_poch) in enumerate(sweep, 1):
        assert type(g) is int and sweep_poch == poch
        assert Fraction(g, poch) == hyp2f1_terminating(c, i, params.d**2)
        poch *= c + i - 1


def test_hyp2f1_sweep_equals_the_series_on_the_grid():
    for params in GRID:
        _assert_sweep_is_the_series(params)


# the series takes 0.2 s for every i at n = 320, so five draws stay under 1 s
@settings(max_examples=5, deadline=None)
@given(st.integers(2, 320), st.integers(2, 10))
def test_hyp2f1_sweep_equals_the_series_off_the_grid(n, d):
    _assert_sweep_is_the_series(SystemParams(n, d))


def test_solve_steps_pascal_rows_without_binomials(monkeypatch):
    calls = 0

    def counted(n, k):
        nonlocal calls
        calls += 1
        return ame.exact.binomial(n, k)

    monkeypatch.setattr(enumerator, "binomial", counted)
    params = SystemParams(320, 2)
    solve_traces(params)
    # a binomial per Pascal entry would be about i_max**2 calls
    assert calls <= 4 * params.i_max


def test_closed_forms_share_one_sweep_and_never_sum_the_series(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the closed forms summed the 2F1 series")

    calls = 0

    def counted(n, k):
        nonlocal calls
        calls += 1
        return ame.exact.binomial(n, k)

    monkeypatch.setattr(ame.exact, "hyp2f1_terminating", forbidden)
    monkeypatch.setattr(enumerator, "hyp2f1_terminating", forbidden, raising=False)
    monkeypatch.setattr(enumerator, "binomial", counted)
    params = SystemParams(320, 3)
    _closed_form_bodies.cache_clear()
    for i in range(1, params.i_max + 1):
        trace_closed_form(params, i)
        eigenvalue_closed_form(params, i)
    # one body, so one binomial, per i, read by both closed forms
    assert calls == params.i_max
    assert _closed_form_bodies.cache_info().misses == 1


def test_rows_are_the_integers_solve_scales():
    # x_j = d^j z_j for flavor A and x_j = z_j for flavor B
    for params in GRID:
        for flavor, column in (("A", lambda j: j), ("B", lambda j: 0)):
            sys_ = build_system(params, params.i_max, flavor)
            zs = list(sys_.rows())
            assert all(type(z) is int for z in zs)
            assert sys_.solve() == tuple(
                Fraction(params.d ** column(j) * z) for j, z in enumerate(zs, 1)
            )


def test_entries_and_inverse_step_pascal_rows_without_binomials(monkeypatch):
    def forbidden(n, k):
        raise AssertionError("an entry computed its binomial from scratch")

    monkeypatch.setattr(enumerator, "binomial", forbidden)
    for flavor in ("A", "B"):
        sys_ = build_system(SystemParams(64, 3), 32, flavor)
        sys_.entries
        explicit_inverse(sys_)
