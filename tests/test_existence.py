import pytest

from ame import enumerator
from ame.enumerator import SystemParams, TriangularSystem, build_system
from ame.existence import (
    ExistenceVerdict,
    check,
    i2_counterexamples,
    satisfies_scott_bound,
    scan,
)
from reference_values import QUBIT_RULED_OUT


def test_scott_bound_qubits():
    # even n up to 2(d^2-1) = 6, odd n up to 2d(d+1)-1 = 11
    assert satisfies_scott_bound(SystemParams(n=6, d=2))
    assert not satisfies_scott_bound(SystemParams(n=8, d=2))
    assert satisfies_scott_bound(SystemParams(n=11, d=2))
    assert not satisfies_scott_bound(SystemParams(n=13, d=2))


def test_scott_bound_qutrits():
    assert satisfies_scott_bound(SystemParams(n=16, d=3))
    assert not satisfies_scott_bound(SystemParams(n=18, d=3))
    assert satisfies_scott_bound(SystemParams(n=23, d=3))
    assert not satisfies_scott_bound(SystemParams(n=25, d=3))


def test_check_ruled_out_pair():
    verdict = check(SystemParams(n=8, d=2))
    assert verdict.ruled_out
    assert verdict.witness_i == 2
    assert verdict.profile.traces[2] == -192
    assert not verdict.scott_satisfied


def test_check_open_pair():
    # all traces positive for seven qubits; negativity alone cannot exclude it
    verdict = check(SystemParams(n=7, d=2))
    assert not verdict.ruled_out
    assert verdict.witness_i is None
    assert all(v > 0 for v in verdict.profile.traces.values())


def test_zero_trace_does_not_rule_out():
    verdict = check(SystemParams(n=6, d=2))
    assert verdict.profile.traces[2] == 0
    assert not verdict.ruled_out


def test_scan_order_and_verdicts():
    verdicts = scan((2, 2), (2, 13))
    assert [v.params.n for v in verdicts] == list(range(2, 14))
    ruled = {v.params.n: v.witness_i for v in verdicts if v.ruled_out}
    assert ruled == QUBIT_RULED_OUT


def test_scan_d_major_order():
    verdicts = scan((2, 3), (4, 5))
    assert [(v.params.d, v.params.n) for v in verdicts] == [
        (2, 4), (2, 5), (3, 4), (3, 5)
    ]


def test_scan_empty_ranges():
    assert scan((3, 2), (2, 10)) == []
    assert scan((2, 4), (7, 2)) == []


def test_scan_rejects_degenerate_lower_bounds():
    with pytest.raises(ValueError):
        scan((1, 3), (2, 5))
    with pytest.raises(ValueError):
        scan((2, 3), (0, 5))


def test_first_negative_claim_on_qubit_range():
    assert i2_counterexamples(scan((2, 2), (2, 13))) == []


def test_i2_counterexamples_flags_missing_i2():
    verdicts = scan((2, 5), (2, 20))
    assert i2_counterexamples(verdicts) == []
    # sanity: the filter does see the rule-outs themselves
    assert any(v.ruled_out for v in verdicts)


def _decided(verdict):
    return (verdict.params, verdict.ruled_out, verdict.witness_i, verdict.scott_satisfied)


def test_scan_agrees_with_check_on_the_grid():
    verdicts = scan((2, 10), (2, 100))
    assert len(verdicts) == 9 * 99
    assert [_decided(v) for v in verdicts] == [_decided(check(v.params)) for v in verdicts]
    assert all(v.profile is None for v in verdicts)


def test_scan_reads_no_row_past_the_witness(monkeypatch):
    read, stepped, rhs = [], [], []
    rows, pascal_rows = TriangularSystem.rows, enumerator._pascal_rows
    scaled_rhs = TriangularSystem._scaled_rhs

    def counted(self):
        for z in rows(self):
            read.append(self.flavor)
            yield z

    def counted_pascal(m, size):
        for row in pascal_rows(m, size):
            stepped.append(len(row))
            yield row

    def counted_rhs(self):
        for t in scaled_rhs(self):
            rhs.append(t)
            yield t

    def forbidden(self):
        raise AssertionError("scan solved a system")

    monkeypatch.setattr(TriangularSystem, "rows", counted)
    monkeypatch.setattr(TriangularSystem, "solve", forbidden)
    monkeypatch.setattr(enumerator, "_pascal_rows", counted_pascal)
    monkeypatch.setattr(TriangularSystem, "_scaled_rhs", counted_rhs)
    [verdict] = scan((2, 2), (60, 60))
    assert verdict.ruled_out and verdict.witness_i == 2
    # i_max is 30, but rows 1 and 2 decide the point and no later row, Pascal
    # row or right-hand side is formed
    assert read == ["B", "B"]
    assert stepped == [1, 2]
    assert len(rhs) == 2


def test_first_trace_is_positive():
    # the reason a ruled-out point is an i=2 counterexample exactly when its
    # witness is not 2; the grid reaches the size cap n <= 512
    for d in range(2, 11):
        for n in range(2, 513):
            assert next(build_system(SystemParams(n, d), 1, "A").rows()) > 0


def test_i2_counterexamples_reads_the_witness():
    late = SystemParams(n=20, d=2)
    verdicts = [
        ExistenceVerdict(SystemParams(n=8, d=2), True, 2, None, False),
        ExistenceVerdict(late, True, 3, None, False),
        ExistenceVerdict(SystemParams(n=7, d=2), False, None, None, True),
    ]
    assert i2_counterexamples(verdicts) == [late]
