import argparse
import ast
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ame
from ame import cli
from ame.cli import (
    MAX_BITS,
    MAX_N,
    MAX_WORK,
    _check_size,
    _check_work,
    _cell,
    _json,
    _work,
    main,
    run_verification,
)
from ame.enumerator import TriangularSystem
from ame.oracle import (
    BUILTIN_NAMES,
    GraphSpec,
    StateVector,
    builtin_state,
    ghz,
    graph_state,
    save_state,
    weights,
)
from ame.oracle.weights import MAX_VERIFY_WORK, _verify_work
from fractions import Fraction

from reference_values import QUBIT_TRACES, reed_solomon_edges


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cell_renders_exact_values():
    assert _cell(Fraction(12)) == "12"
    assert _cell(Fraction(-3, 8)) == "-3/8"
    assert [_cell(True), _cell(False), _cell(None), _cell(7), _cell("x")] == [
        "true", "false", "", "7", "x"
    ]


def _stdlib_json(doc) -> str:
    """The reference: the stdlib encoder, each Fraction as numerator/denominator strings."""

    def exact(x):
        return {"numerator": str(x.numerator), "denominator": str(x.denominator)}

    return json.dumps(doc, indent=2, default=exact)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
    | st.fractions()
)
_json_docs = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.integers(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_docs)
def test_json_writer_matches_the_stdlib_byte_for_byte(doc):
    assert _json(doc) == _stdlib_json(doc)


@pytest.mark.parametrize(
    "value", [1.5, {1, 2}, np.int64(3)], ids=["float", "set", "int64"]
)
def test_json_writer_refuses_a_type_no_exact_document_holds(value):
    with pytest.raises(TypeError):
        _json({"rows": [value]})


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--d", "3", "--n-min", "2", "--n-max", "6"],
        ["scan", "--d-max", "2", "--n-max", "13"],
        # integers far past the goldens': the traces at (512, 10) run to about
        # 1000 digits; the solve adds the inverse matrix and its exact residual
        ["check", "--n", "512", "--d", "10"],
        ["solve", "--n", "12", "--d", "3", "--show-inverse"],
    ],
    ids=["table", "scan", "check-512-10", "solve-inverse"],
)
def test_json_output_round_trips_byte_for_byte(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code in (0, 2)
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_cli_reads_no_private_oracle_name():
    # verify's numerics and the purity table's layout belong to the oracle:
    # the CLI imports no numpy and reaches no oracle name starting with "_"
    tree = ast.parse(Path(cli.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "oracle":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "numpy":
                found.append(module)
            elif module.split(".")[0] == "oracle":
                found += [a.name for a in node.names if a.name.startswith("_")]
    assert found == []


def test_exact_subcommands_never_load_numpy():
    script = (
        "import sys\n"
        "from ame.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    main(argv.split())\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )
    calls = [
        "table --d 2 --n-min 2 --n-max 6",
        "check --n 8 --d 2 --format json",
        "scan --d-max 3 --n-max 8 --format csv",
        "solve --n 4 --d 3 --show-inverse",
    ]
    src = str(Path(ame.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *calls],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # the table's last row and the solve's closing residual line were printed
    assert "\n| 6 | " in done.stdout and done.stdout.endswith("(exact)\n")


def test_table_markdown_reproduces_reference(capsys):
    code, out, _ = run(capsys, "table", "--d", "2", "--n-min", "2", "--n-max", "13")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("| ") and "---" not in line]
    header, *body = rows
    assert header.split("|")[1:-1][0].strip() == "n"
    assert len(body) == 12
    for line in body:
        cells = [c.strip() for c in line.split("|")[1:-1]]
        n = int(cells[0])
        values = {
            i: int(cell) for i, cell in enumerate(cells[1:], start=1) if cell
        }
        assert values == QUBIT_TRACES[n]


def test_table_csv_single_row(capsys):
    code, out, _ = run(capsys, "table", "--d", "2", "--n-min", "2", "--n-max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,i=1", "2,12"]


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--d", "3", "--n-min", "2", "--n-max", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    cell = doc["rows"][0]["cells"]["1"]
    assert cell == {"numerator": "72", "denominator": "1"}


def test_table_usage_errors(capsys):
    code, _, err = run(capsys, "table", "--d", "2", "--n-min", "5", "--n-max", "3")
    assert code == 1
    assert "empty range" in err
    code, _, _ = run(capsys, "table", "--d", "1", "--n-min", "2", "--n-max", "3")
    assert code == 1


def test_check_ruled_out_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--n", "8", "--d", "2")
    assert code == 2
    assert "ruled out: true" in out
    assert "witness i: 2" in out


def test_check_open_pair_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--n", "7", "--d", "2")
    assert code == 0
    assert "ruled out: false" in out


def test_check_rejects_small_n(capsys):
    code, _, err = run(capsys, "check", "--n", "1", "--d", "2")
    assert code == 1
    assert "error" in err


def test_check_json_values(capsys):
    code, out, _ = run(capsys, "check", "--n", "8", "--d", "2", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["witness_i"] == 2
    assert doc["traces"]["2"] == {"numerator": "-192", "denominator": "1"}
    assert doc["eigenvalues"]["2"] == {"numerator": "-3", "denominator": "1"}


def test_scan_json_round_trips_and_flags_rule_outs(capsys):
    code, out, _ = run(capsys, "scan", "--d-max", "2", "--n-max", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ruled = {g["n"]: g["witness_i"] for g in doc["grid"] if g["ruled_out"]}
    assert ruled == {8: 2, 10: 2, 12: 2, 13: 2}
    assert doc["first_negative_at_i2"] == {"holds": True, "counterexamples": []}


def test_scan_csv_summary_line(capsys):
    code, out, _ = run(capsys, "scan", "--d-max", "2", "--n-max", "6", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,n,ruled_out,witness_i,scott_satisfied"
    assert lines[-1].startswith("# first negative trace always at i=2: holds")


def test_scan_bound_below_two_is_usage_error(capsys):
    code, out, err = run(capsys, "scan", "--d-max", "1", "--n-max", "5")
    assert code == 1
    assert out == ""
    assert "need bounds >= 2" in err


def test_solve_subsystem_matches_hand_computation(capsys):
    code, out, _ = run(capsys, "solve", "--n", "3", "--d", "2", "--i", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert "A,1,1,1/16" in lines
    assert "T,1,,1/4" in lines
    assert "x,1,,4" in lines


def test_solve_full_system_contains_reference_value(capsys):
    code, out, _ = run(capsys, "solve", "--n", "8", "--d", "2", "--format", "csv")
    assert code == 0
    assert "x,2,,-192" in out.splitlines()


def test_solve_inverse_residual_is_exact_zero(capsys):
    code, out, _ = run(
        capsys, "solve", "--n", "4", "--d", "3", "--show-inverse", "--format", "csv"
    )
    assert code == 0
    assert "residual,,,0" in out.splitlines()


def test_solve_json_structure(capsys):
    code, out, _ = run(
        capsys, "solve", "--n", "3", "--d", "2", "--show-inverse", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 2
    assert doc["x"][0] == {"numerator": "4", "denominator": "1"}
    assert doc["x"][1] == {"numerator": "32", "denominator": "1"}
    assert doc["max_inverse_residual"] == {"numerator": "0", "denominator": "1"}


def _fraction(cell) -> Fraction:
    return Fraction(int(cell["numerator"]), int(cell["denominator"]))


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "4", "--d", "3"],
        ["--n", "8", "--d", "2"],
        ["--n", "9", "--d", "5"],
        ["--n", "10", "--d", "2", "--i", "3"],
    ],
)
def test_solve_prints_the_solution_of_the_printed_system(capsys, argv):
    code, out, _ = run(capsys, "solve", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    a = [[_fraction(cell) for cell in row] for row in doc["A"]]
    t = [_fraction(cell) for cell in doc["T"]]
    x = [_fraction(cell) for cell in doc["x"]]
    assert len(a) == len(t) == len(x) == doc["size"]
    for row, rhs in zip(a, t):
        assert sum(entry * xj for entry, xj in zip(row, x)) == rhs


def test_solve_builds_and_solves_one_system(capsys, monkeypatch):
    built = solved = 0
    post_init, solve = TriangularSystem.__post_init__, TriangularSystem.solve

    def counted_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    def counted_solve(self):
        nonlocal solved
        solved += 1
        return solve(self)

    monkeypatch.setattr(TriangularSystem, "__post_init__", counted_post_init)
    monkeypatch.setattr(TriangularSystem, "solve", counted_solve)
    code, _, _ = run(capsys, "solve", "--n", "8", "--d", "2", "--show-inverse")
    assert code == 0
    assert (built, solved) == (1, 1)


def test_table_solves_only_the_system_it_prints(capsys, monkeypatch):
    flavors = []
    solve = TriangularSystem.solve

    def counted_solve(self):
        flavors.append(self.flavor)
        return solve(self)

    monkeypatch.setattr(TriangularSystem, "solve", counted_solve)
    code, _, _ = run(capsys, "table", "--d", "2", "--n-min", "2", "--n-max", "13")
    assert code == 0
    assert (flavors.count("A"), flavors.count("B")) == (12, 0)


def test_solve_rejects_out_of_range_subsystem(capsys):
    code, _, err = run(capsys, "solve", "--n", "3", "--d", "2", "--i", "5")
    assert code == 1
    assert "error" in err


def test_verify_builtin_passes(capsys):
    code, out, _ = run(capsys, "verify", "--state", "builtin:ring5")
    assert code == 0
    assert "result: PASS" in out
    assert "FAIL" not in out


def test_verify_non_ame_state_fails(capsys, tmp_path):
    path = tmp_path / "ghz4.json"
    save_state(ghz(4, 2), path)
    code, out, _ = run(capsys, "verify", "--state", str(path))
    assert code == 2
    assert "result: FAIL" in out


def test_verify_good_state_file(capsys, tmp_path):
    path = tmp_path / "ghz3.json"
    save_state(ghz(3, 2), path)
    code, out, _ = run(capsys, "verify", "--state", str(path))
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize(
    "state",
    [ghz(2, 100), ghz(2, 1000), ghz(3, 15), ghz(3, 30)],
    ids=["bell100", "bell1000", "ghz3-15", "ghz3-30"],
)
def test_verification_passes_genuine_ame_states_at_large_d(state):
    # closed-form traces up to 1e12 (bell(1000)): the purities are those of the
    # normalised state, so no norm error is weighed by d^(2n)
    rows = run_verification(state, 1e-9)
    assert all(ok for _, ok, _ in rows), rows


# each is exactly AME, with weight traces up to about p^(2n); while verify
# compared traces, not purities, the closed-form row read up to 6.7e-5 on
# these and every state but (4, 5) failed at 1e-9
@pytest.mark.parametrize("n, p", [(4, 5), (5, 7), (6, 7), (5, 11), (3, 97)])
def test_verification_passes_reed_solomon_ame_states(n, p):
    state = graph_state(GraphSpec.from_edges(n, p, reed_solomon_edges(n, p)))
    rows = run_verification(state, 1e-9)
    assert all(ok for _, ok, _ in rows), rows


def test_verification_fails_a_reed_solomon_state_off_by_one_edge_and_ghz10():
    # edge (0, 4) of AME(5, 7) one weight up is no longer AME, nor is ghz(10);
    # the purity-space closed-form row fails on both
    edges = [(u, v, (w + 1) % 7 if (u, v) == (0, 4) else w) for u, v, w in reed_solomon_edges(5, 7)]
    for state in (graph_state(GraphSpec.from_edges(5, 7, edges)), ghz(10, 2)):
        failed = [name for name, ok, _ in run_verification(state, 1e-9) if not ok]
        assert failed[0].startswith("k-uniformity") and "closed-form match" in failed, failed


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (3, 3), (4, 3)])
def test_verify_purity_rows_written_out_from_subset_purities(n, d):
    # equal values: the widest spread of purities within one size above m;
    # closed form: the farthest purity from d^-min(s, n-s), the AME purity
    # that the exact closed-form traces give
    rng = np.random.default_rng(10 * n + d)
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    state = StateVector(n, d, v / np.linalg.norm(v))
    by_size = {
        s: [weights.subset_purity(state, S) for S in itertools.combinations(range(n), s)]
        for s in range(n + 1)
    }
    spread = max(max(p) - min(p) for s, p in by_size.items() if s > n // 2)
    closed = max(abs(x - d ** -min(s, n - s)) for s, p in by_size.items() for x in p)
    rows = {name: float(detail.split()[-1]) for name, _, detail in run_verification(state, 1e-9)}
    assert rows["equal values across equal-size supports"] == pytest.approx(spread, rel=1e-3)
    assert rows["closed-form match"] == pytest.approx(closed, rel=1e-3)


def test_a_shifted_closed_form_fails_only_the_closed_form_row(monkeypatch):
    original = weights.trace_closed_form

    def shifted(params, i):
        return original(params, i % params.i_max + 1)

    monkeypatch.setattr(weights, "trace_closed_form", shifted)
    rows = run_verification(builtin_state("ring5"), 1e-9)
    assert [name for name, ok, _ in rows if not ok] == ["closed-form match"]


def test_verify_one_party_state_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "one.json"
    save_state(StateVector(1, 2, np.array([1.0, 0.0])), path)
    code, out, err = run(capsys, "verify", "--state", str(path))
    assert code == 1
    assert out == ""
    assert "at least two parties" in err


def test_verify_state_file_with_a_fractional_n_is_input_error(capsys, tmp_path):
    path = tmp_path / "bell.json"
    save_state(ghz(2, 2), path)
    doc = json.loads(path.read_text())
    doc["n"] = 2.9
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--state", str(path))
    assert code == 1
    assert out == ""
    assert "field 'n' must be a JSON integer" in err


# a bool amplitude part was read as 0 or 1 and the state failed with exit 2; a
# 400-digit part raised an uncaught OverflowError
@pytest.mark.parametrize(
    "amplitudes",
    [
        [[True, False], [False, False], [False, False], [False, False]],
        [[10**400, 0], [0, 0], [0, 0], [0, 0]],
    ],
    ids=["bool", "huge-int"],
)
def test_verify_state_file_with_a_non_number_amplitude_is_input_error(
    capsys, tmp_path, amplitudes
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "amplitudes": amplitudes}))
    code, out, err = run(capsys, "verify", "--state", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed state file")
    assert "Traceback" not in err


def test_verify_unnormalized_file_is_io_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "d": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
    code, _, err = run(capsys, "verify", "--state", str(path))
    assert code == 1
    assert "not normalized" in err


@pytest.mark.parametrize("position", range(4))
def test_verify_nan_state_file_is_input_error(capsys, tmp_path, position):
    amplitudes = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    amplitudes[position] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "amplitudes": amplitudes}))
    code, out, err = run(capsys, "verify", "--state", str(path))
    assert code == 1
    assert "non-finite amplitudes" in err
    assert "PASS" not in out


def test_run_verification_checks_desk_scale_before_any_check(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a reduction ran before the desk-scale check")

    monkeypatch.setattr("ame.oracle.weights.reduction_stacks", unreachable)
    monkeypatch.setattr("ame.oracle.projector_property_residual", unreachable)
    with pytest.raises(ValueError, match="state too large"):
        run_verification(ghz(20, 2), 1e-9)


def test_run_verification_refuses_past_the_work_cap_before_any_reduction(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a reduction ran before the work cap")

    monkeypatch.setattr("ame.oracle.weights.reduction_stacks", unreachable)
    monkeypatch.setattr("ame.oracle.projector_property_residual", unreachable)
    state = ghz(19, 2)  # inside the desk scale: 2**19 < 10**6
    start = time.perf_counter()
    with pytest.raises(ValueError, match="work cap of 5e\\+10 units"):
        run_verification(state, 1e-9)
    assert time.perf_counter() - start < 2.0


def test_verify_past_the_work_cap_is_input_error(capsys, tmp_path):
    path = tmp_path / "ghz16.json"
    save_state(ghz(16, 2), path)
    code, out, err = run(capsys, "verify", "--state", str(path))
    assert code == 1
    assert "work cap" in err
    assert out == ""


def test_verify_work_cap_admits_every_state_in_use():
    # the builtins (ring5 is the golden case), the test states up to ghz(12) and
    # the benchmark's graph states; ghz(15) is the largest state admitted
    shapes = {(s.n, s.d) for s in map(builtin_state, BUILTIN_NAMES)}
    shapes |= {(n, 2) for n in range(2, 16)} | {(n, 3) for n in range(2, 12)}
    for n, d in shapes:
        assert _verify_work(n, d) <= MAX_VERIFY_WORK, (n, d)
    assert _verify_work(16, 2) > MAX_VERIFY_WORK
    assert _verify_work(12, 3) > MAX_VERIFY_WORK


def test_run_verification_memory_stays_on_the_small_side():
    state = ghz(12, 2)
    tracemalloc.start()
    try:
        run_verification(state, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _random_graph_state(n, seed):
    rng = random.Random(seed)
    edges = [(u, v, rng.randrange(2)) for u in range(n) for v in range(u + 1, n)]
    return graph_state(GraphSpec.from_edges(n, 2, edges))


@pytest.mark.parametrize(
    "state", [ghz(10), _random_graph_state(10, 5)], ids=["ghz10", "graph10"]
)
def test_verification_decomposes_only_small_side_reductions(monkeypatch, state):
    n, d = state.n, state.d
    sides, factorised = [], []
    cholesky = np.linalg.cholesky

    def spy(a, *args, **kwargs):
        sides.append(a.shape[-1])
        factorised.append(math.prod(a.shape[:-2]))
        return cholesky(a, *args, **kwargs)

    validated = []
    validate = weights._validate

    def count(rho):
        validated.append(len(rho))
        validate(rho)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    monkeypatch.setattr(weights, "_validate", count)
    run_verification(state, 1e-9)
    assert max(sides) <= d ** (n // 2)
    # one validated reduction per small side R, 1 <= |R| <= floor(n/2)
    assert sum(validated) == sum(math.comb(n, r) for r in range(1, n // 2 + 1))
    assert sum(factorised) == sum(validated)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--n", "1500", "--d", "2"],
        ["table", "--d", "2", "--n-min", "2", "--n-max", "10000"],
        ["scan", "--d-max", "3", "--n-max", "2000"],
        ["solve", "--n", "900", "--d", "2"],
        ["check", "--n", "300", "--d", str(10**15)],
        ["scan", "--d-max", str(2**40), "--n-max", "60"],
    ],
)
def test_size_caps_exit_one_before_any_solve(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert out == ""
    assert f"cap n <= {MAX_N}" in err or f"cap of {MAX_BITS} bits" in err


def test_size_caps_admit_desk_scale_points():
    # the benchmark's deepest systems, the scan grid d <= 10 x n <= 100 and
    # every golden case lie inside the caps
    for n, d in [(320, 10), (100, 10), (13, 3), (MAX_N, 2)]:
        _check_size(n, d)
    with pytest.raises(ValueError, match="bits"):
        _check_size(MAX_N, 16)  # 2049 bits


def _scan_work(d_max, n_max):
    return (_work(n, d) for d in range(2, d_max + 1) for n in range(2, n_max + 1))


def _table_work(d, n_min, n_max):
    return (_work(n, d) for n in range(n_min, n_max + 1))


def test_work_cap_admits_desk_scale_requests():
    # the benchmark's scan and tables, the scan grid d <= 10 x n <= 100 and
    # the largest qubit table; the golden runs show that every golden case
    # is admitted too
    _check_work(_scan_work(6, 60))
    _check_work(_scan_work(10, 100))
    for d in range(2, 7):
        _check_work(_table_work(d, 2, 40))
    _check_work(_table_work(2, 2, MAX_N))
    _check_work([_work(200, 10, dump=True, inverse=True)])


def _last_admitted(work_of):
    """Largest n in 2..MAX_N whose request still fits the work cap."""
    admitted = 1
    for n in range(2, MAX_N + 1):
        try:
            _check_work(work_of(n))
        except ValueError:
            break
        admitted = n
    return admitted


@pytest.mark.parametrize(
    "work_of, argv_of",
    [
        (lambda n: _scan_work(10, n), lambda n: ["scan", "--d-max", "10", "--n-max", str(n)]),
        (
            lambda n: _table_work(10, 2, n),
            lambda n: ["table", "--d", "10", "--n-min", "2", "--n-max", str(n)],
        ),
        (
            lambda n: [_work(n, 2, n - n // 2, dump=True, inverse=True)],
            lambda n: ["solve", "--n", str(n), "--d", "2", "--show-inverse"],
        ),
    ],
    ids=["scan", "table", "solve-inverse"],
)
def test_one_step_past_the_work_cap_exits_one_at_once(capsys, work_of, argv_of):
    n = _last_admitted(work_of)
    assert 2 < n < MAX_N
    start = time.perf_counter()
    code, out, err = run(capsys, *argv_of(n + 1))
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert out == ""
    assert f"work cap of {MAX_WORK} units" in err


def test_scan_over_an_unlistable_d_range_is_refused_at_once(capsys):
    # d**2 fits the bit cap, but no grid of 2**1000 points can be solved
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--d-max", str(2**1000), "--n-max", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert out == ""
    assert f"work cap of {MAX_WORK} units" in err


def test_inverse_residual_refuses_a_nonzero_upper_triangle(monkeypatch):
    # the residual sums only the lower triangle, so it must not report 0 for
    # an inverse that is not lower triangular
    original = cli.explicit_inverse

    def skewed(system):
        rows = [list(row) for row in original(system)]
        rows[0][1] = Fraction(1)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(cli, "explicit_inverse", skewed)
    with pytest.raises(ArithmeticError):
        main(["solve", "--n", "4", "--d", "3", "--show-inverse"])


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
def test_verify_rejects_non_finite_or_negative_tolerance(capsys, tol):
    code, out, err = run(capsys, "verify", "--state", "builtin:bell(2)", "--tol", tol)
    assert code == 1
    assert out == ""
    assert "tolerance must be finite and >= 0" in err


@pytest.mark.parametrize("tol", ["0", "1e-9"])
def test_verify_accepts_zero_and_small_tolerance(capsys, tol):
    code, out, err = run(capsys, "verify", "--state", "builtin:bell(2)", "--tol", tol)
    assert code in (0, 2)
    assert err == ""
    assert "result:" in out


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--state", str(tmp_path / "none.json"))
    assert code == 1


def test_verify_unknown_builtin(capsys):
    code, _, err = run(capsys, "verify", "--state", "builtin:nope")
    assert code == 1
    assert "unknown builtin" in err


def test_verify_builtin_with_an_unclosed_argument_is_input_error(capsys):
    code, out, err = run(capsys, "verify", "--state", "builtin:bell(2")
    assert code == 1
    assert out == ""
    assert "unknown builtin state" in err


@pytest.mark.parametrize("name", ["bell(100000)", "ghz3(300)"])
def test_verify_builtin_past_desk_scale_is_input_error(capsys, name):
    code, out, err = run(capsys, "verify", "--state", f"builtin:{name}")
    assert code == 1
    assert "state too large" in err
    assert "Traceback" not in err
    assert out == ""


def test_find_graph_empty_message(capsys):
    code, out, _ = run(capsys, "find-graph", "--n", "4", "--d", "2")
    assert code == 0
    assert "no AME graph state found" in out


def test_find_graph_prints_adjacency(capsys):
    code, out, _ = run(capsys, "find-graph", "--n", "5", "--d", "2", "--limit", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# graph 0"
    matrix = [line.split() for line in lines[1:6]]
    arr = np.array(matrix, dtype=int)
    assert arr.shape == (5, 5)
    assert (arr == arr.T).all()
    assert lines[-1] == "found 1 graph(s)"


def test_usage_error_exit_code(capsys):
    assert main(["table", "--d", "2"]) == 1  # missing required arguments
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "table" in out and "verify" in out


# the usage lines of the (n, d) subcommands at COLUMNS=80, written out: --n
# and --d come from a shared parent parser and must stay right after -h
_ND_USAGE = {
    "check": "usage: ame check [-h] --n N --d D [--format {md,csv,json}]\n",
    "solve": (
        "usage: ame solve [-h] --n N --d D [--i I] [--show-inverse]\n"
        "                 [--format {md,csv,json}]\n"
    ),
    "find-graph": "usage: ame find-graph [-h] --n N --d D [--limit LIMIT]\n",
}


@pytest.mark.parametrize("command", _ND_USAGE)
def test_usage_lines_of_the_n_d_subcommands(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    usage = _ND_USAGE[command]
    code, out, err = run(capsys, command, "--help")
    assert code == 0 and err == ""
    assert out.startswith(usage + "\n")
    for argv, missing in [([], "--n, --d"), (["--n", "8"], "--d"), (["--d", "2"], "--n")]:
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err == f"{usage}ame {command}: error: the following arguments are required: {missing}\n"


# usage error, help, then valid calls of every exact command and one refusal
_CALLS = [
    ["table", "--d", "2"],
    ["--help"],
    ["check", "--n", "8", "--d", "2"],
    ["check", "--n", "6", "--d", "3", "--format", "json"],
    ["table", "--d", "2", "--n-min", "2", "--n-max", "9", "--format", "csv"],
    ["table", "--d", "3", "--n-min", "4", "--n-max", "6"],
    ["scan", "--d-max", "3", "--n-max", "8"],
    ["scan", "--d-max", "2", "--n-max", "6", "--format", "json"],
    ["solve", "--n", "8", "--d", "2"],
    ["solve", "--n", "4", "--d", "3", "--show-inverse", "--format", "csv"],
    ["solve", "--n", "3", "--d", "2", "--i", "5"],
    ["check", "--n", "8", "--d", "2", "--format", "csv"],
]


def _run_calls(capsys):
    return [run(capsys, *argv) for argv in _CALLS]


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = 0
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    codes = [code for code, _, _ in _run_calls(capsys)]
    assert codes == [1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 2]
    assert built == 0


def test_reused_parser_keeps_no_state_between_calls(capsys):
    assert _run_calls(capsys) == _run_calls(capsys)
