"""Tests of the benchmark itself: its checks catch corrupted values, its spans
add up, and its seeds change the points but not the size mix.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import random
from pathlib import Path

import pytest

import ame.cli
import ame.enumerator
import ame.existence
from ame.oracle import basis, fixtures

import workloads
from tracing import Tracer
from worker import check_outputs, measure, measure_traced, run_pass
from workloads import Workload


def _ok_frac(items) -> float:
    """ok_frac of one pass, as measure() computes it (1 - failed_frac)."""
    _, outputs, _ = run_pass(items)
    return 1 - len(check_outputs(items, outputs)) / len(items)


def test_clean_items_pass():
    rng = random.Random(0)
    items = [
        workloads.deep_item(30, 3),
        workloads.check_cli_item(8, 2, "md"),
        workloads.table_cli_item(2, 13, "csv"),
        workloads.scan_cli_item(3, 12),
        workloads.verify_item("ring5", fixtures.builtin_state("ring5"), True),
        workloads.routes_item(workloads.random_graph_state(rng, 5, 2)),
        workloads.purity_item(workloads.random_graph_state(rng, 6, 2)),
        workloads.search_item(4, 3),
    ]
    assert _ok_frac(items) == 1.0


def test_corrupted_closed_form_raises_failed_frac(monkeypatch):
    original = ame.enumerator.trace_closed_form
    monkeypatch.setattr(ame.enumerator, "trace_closed_form", lambda p, i: original(p, i) + 1)
    assert _ok_frac([workloads.deep_item(30, 3)]) < 1.0


def test_corrupted_solver_raises_failed_frac(monkeypatch):
    original = ame.existence.solve_traces

    def corrupted(params):
        profile = original(params)
        profile.traces[1] += 1
        return profile

    monkeypatch.setattr(ame.existence, "solve_traces", corrupted)
    for fmt in ("md", "csv", "json"):
        assert _ok_frac([workloads.check_cli_item(8, 2, fmt)]) < 1.0


def test_corrupted_cli_output_fails_its_check():
    for item, old, new in [
        (workloads.check_cli_item(8, 2, "md"), "-192", "-191"),
        (workloads.table_cli_item(2, 13, "md"), "2688", "2689"),
        (workloads.scan_cli_item(2, 10), '"witness_i": 2', '"witness_i": 3'),
    ]:
        code, text = item.run()
        assert item.check((code, text)) is None
        assert old in text
        assert item.check((code, text.replace(old, new, 1))) is not None
    # ruled out at (8, 2), so exit code 0 is wrong
    item = workloads.check_cli_item(8, 2, "json")
    assert item.check((0, item.run()[1])) is not None


def test_corrupted_oracle_values_raise_failed_frac(monkeypatch):
    state = workloads.random_graph_state(random.Random(1), 5, 2)
    assert _ok_frac([workloads.verify_item("ring5", fixtures.builtin_state("ring5"), False)]) < 1.0
    monkeypatch.setitem(workloads.SEARCH_HITS, (4, 3), 121)
    assert _ok_frac([workloads.search_item(4, 3)]) < 1.0
    original = basis.bloch_coefficients
    monkeypatch.setattr(basis, "bloch_coefficients", lambda s: original(s) * 1.001)
    assert _ok_frac([workloads.routes_item(state)]) < 1.0


def test_raising_item_counts_as_failed():
    item = workloads.Item("boom", lambda: 1 / 0, lambda out: None)
    _, outputs, _ = run_pass([item])
    assert check_outputs([item], outputs) == ["boom: ZeroDivisionError: division by zero"]


def test_calibrated_pass_scales_every_item():
    items = [workloads.deep_item(60, 3)] + [workloads.check_cli_item(5, 2, "csv")] * 3
    lat, _, scales = run_pass(items, reference=workloads.RATIONAL)
    assert len(scales) == len(lat) == 4
    assert all(0 < f < 100 for f in scales)
    assert run_pass(items)[2] == [1.0] * 4


def test_spans_nest_through_rebound_globals():
    tracer = Tracer()
    tracer.install()
    try:
        run_pass([workloads.deep_item(20, 3), workloads.check_cli_item(10, 2, "csv")], tracer, 7)
    finally:
        tracer.uninstall()
    by_id = {s.span_id: s for s in tracer.spans}
    builds = [s for s in tracer.spans if s.name == "enumerator.build_system"]
    assert len(builds) == 4
    for span in builds:
        parent = by_id[span.parent]
        assert parent.name == "enumerator.solve_traces"
        assert parent.item == span.item
    assert {s.item for s in tracer.spans} == {7, 8}
    assert by_id[by_id[builds[-1].parent].parent].name == "existence.check"
    assert ame.existence.solve_traces is ame.enumerator.solve_traces
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1 and metrics["cli.main.stdout_bytes"] > 0
    assert metrics["exact.binomial.calls"] > 0


def test_traced_self_times_add_up_to_pass_time():
    items = [
        workloads.deep_item(20, 2),
        workloads.verify_item("ring5", fixtures.builtin_state("ring5"), True),
        workloads.search_item(4, 3),
    ]
    m = measure_traced(Workload("t", items, workloads.DENSE, pass_s=1.0), 0)["metrics"]
    self_ms = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert math.isclose(self_ms + m["unattributed_ms"], m["traced_pass_ms"], rel_tol=1e-9)
    assert m["oracle.search.hits"] == 120
    assert m["oracle.search.survivors"] >= 120
    assert m["oracle.search.candidates"] == 3**6
    assert m["oracle.weights.DensityMatrix.calls"] > 0
    assert m["oracle.weights.DensityMatrix.max_dim"] >= 8
    # the wrappers are gone once the traced pass ends
    assert ame.cli.run_verification.__module__ == "ame.cli"
    # every per-layer metric BENCHMARK.json names is measured, none defaults to 0
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= m.keys()


def test_seed_changes_points_not_size_mix():
    for build in (workloads.exact_deep, workloads.exact_sweep):
        a, b = build(1), build(2)
        assert [i.label for i in a.items] == [i.label for i in build(1).items]
        assert [i.label for i in a.items] != [i.label for i in b.items]
        assert len(a.items) == len(b.items)
        strip = lambda label: [t for t in label.split() if not t.startswith("n=")]
        assert [strip(i.label) for i in a.items] == [strip(i.label) for i in b.items]


def test_measure_reports_failed_items(monkeypatch):
    wl = Workload(
        "t", [workloads.search_item(4, 3)] * 7 + [workloads.deep_item(12, 2)], workloads.DENSE, 1.0
    )
    monkeypatch.setitem(workloads.SEARCH_HITS, (4, 3), 121)
    result = measure(wl, 0)
    assert result["passes"] == wl.passes(0) == 2
    assert result["attempted"] == 16
    assert len(result["failures"]) == 14
    assert result["metrics"]["ok_frac"] == 1 / 8
    assert result["metrics"]["peak_rss_mb"] > 0
    # the tail is taken over every item time of the run, not per-item medians
    assert result["tail"] == {"pct": 100 * 6 / 16, "samples": 16, "beyond": 10}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_length_fixes_the_passes(name):
    wl = workloads.WORKLOADS[name](0)
    assert wl.passes(25) == round(25 / wl.pass_s)
    assert len(wl.items) * wl.passes(1) > workloads.BEYOND_TAIL
