"""Console front end for the invariant tables, existence checks, and oracle.

Exit codes are a stable contract: 0 = pass / existence not excluded, 1 =
usage or I/O error, 2 = negative finding (a pair ruled out, or a state
failing verification).  Algebraic quantities are always rendered exactly
-- a bare integer when the denominator is 1, otherwise "p/q" -- and JSON
carries numerator and denominator as decimal strings, since the values
overflow 64-bit integers long before the desk-scale limits do.

`table`, `check`, `scan` and `solve` check their largest system against the
size caps in `_check_size` before any solve; `table`, `scan` and `solve` also
check the summed work of every system they will solve against `MAX_WORK` in
`_check_work`.  They then build their values once and write them through the
one output path `_emit`: JSON of the raw values, or the md or csv layout,
whose tables hold raw rows and get their cells from `_cell` only when that
layout is the one written.  The JSON comes from this module's own writer
`_json`, byte-identical to the stdlib's `indent=2` text: the stdlib uses its C
encoder only when no indent is asked for, and otherwise walks the document in
pure Python.  `verify` reads its rows from the oracle's
`weights.verification_rows`, which admits the state (at least two parties,
the desk scale, then verify's own work cap) before any reduction; this
module does no numerics of its own.  Only `verify` and `find-graph` import
the numpy oracle, inside their functions, so the exact subcommands and
`--help` never load numpy.

The argparse grammar is built once, when this module is imported, and every
`main` call parses with it.  `check`, `solve` and `find-graph` take `--n` and
`--d` from one shared parent parser, declared once.  `solve` builds the one
system it prints and prints that system's own forward-substitution solution
as `x`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Union

from .enumerator import SystemParams, build_system, explicit_inverse
from .existence import check, i2_counterexamples, scan


_json_str = json.encoder.encode_basestring_ascii


def _json(doc) -> str:
    """`doc` as JSON, byte for byte the stdlib encoder's text at `indent=2`.

    Each `Fraction` is written as a {"numerator": "p", "denominator": "q"}
    object of decimal strings.  Dicts take str or int keys; lists, tuples,
    str, int, bool and None are written as the stdlib writes them.  Any other
    type raises TypeError, floats included: an exact document holds none.
    """
    parts: list[str] = []
    put = parts.append

    def write(value, nl: str) -> None:
        kind = type(value)
        if kind is Fraction:
            put(
                f'{{{nl}  "numerator": "{value.numerator}",'
                f'{nl}  "denominator": "{value.denominator}"{nl}}}'
            )
        elif kind is int:
            put(int.__repr__(value))
        elif kind is str:
            put(_json_str(value))
        elif kind is dict:
            if not value:
                put("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for key, item in value.items():
                if type(key) is str:
                    put(sep + _json_str(key) + ": ")
                elif type(key) is int:
                    put(f'{sep}"{int.__repr__(key)}": ')
                else:
                    raise TypeError(f"JSON keys must be str or int, not {type(key).__name__}")
                write(item, inner)
                sep = "," + inner
            put(nl + "}")
        elif kind is list or kind is tuple:
            if not value:
                put("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for item in value:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(nl + "]")
        elif kind is bool:
            put("true" if value else "false")
        elif value is None:
            put("null")
        else:
            raise TypeError(f"an exact JSON document holds no {kind.__name__}")

    write(doc, "\n")
    return "".join(parts)


# md/csv cell text by type; anything else, Fractions included, is `str`:
# a bare integer when the denominator is 1, otherwise "p/q".
_CELL = {bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: ""}


def _cell(value) -> str:
    """One md/csv cell: exact Fractions, lowercase booleans, None left blank."""
    return _CELL.get(type(value), str)(value)


def _md_table(header: list[str], rows: Iterable[Iterable]) -> list[str]:
    cells = [header, ["---"] * len(header), *(map(_cell, row) for row in rows)]
    return ["| " + " | ".join(row) + " |" for row in cells]


def _csv(header: list[str], rows: Iterable[Iterable]) -> list[str]:
    return [",".join(header)] + [",".join(map(_cell, row)) for row in rows]


# One part of a text layout: a literal line, or a (header, raw rows) table.
Part = Union[str, tuple[list[str], Iterable[Iterable]]]


def _emit(fmt: str, doc: dict, md: list[Part], csv: list[Part]) -> None:
    """Write one command's result in the requested format.

    Only the requested layout is rendered: the other one's tables, which may
    be lazy iterables, are never read.
    """
    if fmt == "json":
        print(_json(doc))
        return
    table = _md_table if fmt == "md" else _csv
    lines: list[str] = []
    for part in md if fmt == "md" else csv:
        lines += [part] if isinstance(part, str) else table(*part)
    print("\n".join(lines))


# Per-system caps.  On a 2-core host (Python 3.11, numpy 2.4) `existence.check`
# at d = 2 takes 0.008-0.009 s at n = 512, 0.22-0.30 s at n = 1500 and 0.6-0.8 s
# at n = 2000 (roughly n^3); `check --n 512 --d 10` takes 0.08-0.11 s as a
# process.  The bit length of d**n bounds the integers the solve carries.
MAX_N = 512
MAX_BITS = 2048


def _check_size(n: int, d: int) -> None:
    """Reject a system past the caps before any work; d >= 2 is assumed checked."""
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the cap n <= {MAX_N}")
    # floor(n log2 d) + 1, without forming d**n
    bits = math.floor(n * math.log2(d)) + 1
    if bits > MAX_BITS:
        raise ValueError(f"d**n has {bits} bits, above the cap of {MAX_BITS} bits")


# Work cap of one request.  A unit is about one integer product of the forward
# substitution on a system whose d**n has at most 1024 bits; longer integers
# cost proportionally more.  On a 2-core host the largest requests the cap
# admits take 2.2-3.6 s as processes: `table --d 2 --n-min 2 --n-max 512`
# 2.2-2.6 s, `table --d 10 --n-min 2 --n-max 454` 2.3-2.7 s, and
# `solve --n 284 --d 2 --show-inverse` 3.2-3.5 s in md and 3.0-3.6 s in json.
# `scan` stops each point at its first negative row, so its corner
# `scan --d-max 10 --n-max 245` takes under 1 s.
MAX_WORK = 2**24


def _work(n: int, d: int, size: int | None = None, dump: bool = False, inverse: bool = False) -> float:
    """Estimated work units to solve (n, d) at `size` (default the full system).

    `dump` adds forming and rendering the size**2 matrix entries; `inverse`
    adds as many inverse entries and the size**3/6 products of its residual.
    """
    if size is None:
        size = n - n // 2
    units = size * size + 256
    if dump:
        units += 40 * size * size
    if inverse:
        units += 40 * size * size + 4 * size**3
    return units * (1 + n * math.log2(d) / 1024)


def _check_work(works: Iterable[float]) -> None:
    """Reject a request before any solve once its summed work passes `MAX_WORK`.

    The sum stops at the cap, so a grid too wide to enumerate (`scan` with a
    huge d_max) is refused after at most MAX_WORK / 256 systems.
    """
    total = 0.0
    for work in works:
        total += work
        if total > MAX_WORK:
            raise ValueError(f"the request needs more than the work cap of {MAX_WORK} units")


# --- table ---------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    d, n_min, n_max = args.d, args.n_min, args.n_max
    if d < 2 or n_min < 2:
        raise ValueError(f"need d >= 2 and n >= 2, got d={d}, n_min={n_min}")
    if n_min > n_max:
        raise ValueError(f"empty range: n_min={n_min} > n_max={n_max}")
    _check_size(n_max, d)
    _check_work(_work(n, d) for n in range(n_min, n_max + 1))
    columns = list(range(1, (n_max + 1) // 2 + 1))
    # the table prints traces only, so each row solves the A system alone
    traces = {
        n: dict(enumerate(build_system(SystemParams(n=n, d=d), n - n // 2, "A").solve(), 1))
        for n in range(n_min, n_max + 1)
    }
    header = ["n"] + [f"i={i}" for i in columns]
    rows = [[n] + [cells.get(i) for i in columns] for n, cells in traces.items()]
    doc = {
        "command": "table",
        "d": d,
        "n_min": n_min,
        "n_max": n_max,
        "columns": columns,
        "rows": [{"n": n, "cells": cells} for n, cells in traces.items()],
    }
    _emit(args.format, doc, [(header, rows)], [(header, rows)])
    return 0


# --- check ---------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    params = SystemParams(n=args.n, d=args.d)
    _check_size(params.n, params.d)
    verdict = check(params)
    traces, eigenvalues = verdict.profile.traces, verdict.profile.eigenvalues
    flags = {
        "scott_satisfied": verdict.scott_satisfied,
        "ruled_out": verdict.ruled_out,
        "witness_i": verdict.witness_i,
    }
    doc = {"command": "check", "n": args.n, "d": args.d, **flags}
    doc.update(traces=traces, eigenvalues=eigenvalues)
    body = [[i, traces[i], eigenvalues[i]] for i in traces]
    md = [
        (["i", "trace", "eigenvalue"], body),
        "",
        f"scott bound satisfied: {_cell(verdict.scott_satisfied)}",
        f"ruled out: {_cell(verdict.ruled_out)}",
        f"witness i: {_cell(verdict.witness_i) or 'none'}",
    ]
    csv_rows = ([args.n, args.d, *row, *flags.values()] for row in body)
    _emit(args.format, doc, md, [(["n", "d", "i", "trace", "eigenvalue", *flags], csv_rows)])
    return 2 if verdict.ruled_out else 0


# --- scan ----------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    if args.d_max < 2 or args.n_max < 2:
        raise ValueError(f"need bounds >= 2, got d_max={args.d_max}, n_max={args.n_max}")
    _check_size(args.n_max, args.d_max)
    _check_work(_work(n, d) for d in range(2, args.d_max + 1) for n in range(2, args.n_max + 1))
    verdicts = scan((2, args.d_max), (2, args.n_max))
    bad = i2_counterexamples(verdicts)
    header = ["d", "n", "ruled_out", "witness_i", "scott_satisfied"]
    grid = [
        dict(zip(header, (v.params.d, v.params.n, v.ruled_out, v.witness_i, v.scott_satisfied)))
        for v in verdicts
    ]
    rows = [point.values() for point in grid]
    summary = "first negative trace always at i=2: " + (
        "fails at " + ", ".join(f"(n={p.n}, d={p.d})" for p in bad) if bad else "holds"
    )
    doc = {
        "command": "scan",
        "d_max": args.d_max,
        "n_max": args.n_max,
        "grid": grid,
        "first_negative_at_i2": {
            "holds": not bad,
            "counterexamples": [{"d": p.d, "n": p.n} for p in bad],
        },
    }
    _emit(args.format, doc, [(header, rows), "", summary], [(header, rows), f"# {summary}"])
    return 0


# --- solve ---------------------------------------------------------------


def _md_block(title: str, header: list[str], rows) -> list[Part]:
    """`### title` over a table whose first column numbers the rows from 1."""
    return [f"### {title}", (header, ([l, *row] for l, row in enumerate(rows, start=1)))]


def _csv_matrix(section: str, matrix) -> Iterable[list]:
    return ([section, l, j, x] for l, row in enumerate(matrix, 1) for j, x in enumerate(row, 1))


def _inverse_residual(matrix, inverse) -> Fraction:
    """max |matrix * inverse - I| over every entry, for two lower-triangular matrices.

    Both upper triangles, as formed, must be exactly zero; then so is the
    product's, and its entry (l, j) with l >= j sums only t in [j, l]: about a
    sixth of the products of the full matrix product.
    """
    size = len(matrix)
    if any(matrix[l][j] or inverse[l][j] for l in range(size) for j in range(l + 1, size)):
        raise ArithmeticError("a triangular factor has a nonzero entry above its diagonal")
    return max(
        abs(sum(matrix[l][t] * inverse[t][j] for t in range(j, l + 1)) - int(l == j))
        for l in range(size)
        for j in range(l + 1)
    )


def cmd_solve(args: argparse.Namespace) -> int:
    params = SystemParams(n=args.n, d=args.d)
    _check_size(params.n, params.d)
    size = args.i if args.i is not None else params.i_max
    system = build_system(params, size, "A")
    _check_work([_work(params.n, params.d, size, dump=True, inverse=args.show_inverse)])
    xs = system.solve()
    doc = {
        "command": "solve",
        "n": args.n,
        "d": args.d,
        "size": size,
        "A": system.entries,
        "T": system.rhs,
        "x": xs,
    }
    corner = ["l\\j"] + [str(j) for j in range(1, size + 1)]
    md = [
        f"triangular system A for n={args.n}, d={args.d}, size {size}",
        "",
        *_md_block("A", corner, system.entries),
        "",
        *_md_block("T", ["l", "value"], [[t] for t in system.rhs]),
        "",
        *_md_block("x", ["i", "value"], [[x] for x in xs]),
    ]
    csv_sections = [
        _csv_matrix("A", system.entries),
        (["T", l, None, t] for l, t in enumerate(system.rhs, start=1)),
        (["x", i, None, x] for i, x in enumerate(xs, start=1)),
    ]
    if args.show_inverse:
        inverse = explicit_inverse(system)
        residual = _inverse_residual(system.entries, inverse)
        doc.update(A_inverse=inverse, max_inverse_residual=residual)
        md += [
            "",
            *_md_block("A inverse", corner, inverse),
            "",
            f"max |A*A_inv - I| = {_cell(residual)} (exact)",
        ]
        csv_sections += [_csv_matrix("A_inv", inverse), [["residual", None, None, residual]]]
    csv_rows = itertools.chain(*csv_sections)
    _emit(args.format, doc, md, [(["section", "row", "col", "value"], csv_rows)])
    return 0


# --- verify --------------------------------------------------------------


def run_verification(state, tol: float) -> list[tuple[str, bool, str]]:
    """The (name, ok, detail) rows of `ame verify`, all of them read and
    admitted by `oracle.weights.verification_rows`."""
    from . import oracle

    return oracle.weights.verification_rows(state, tol)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle

    source = args.state
    if source.startswith("builtin:"):
        state = oracle.builtin_state(source[len("builtin:") :])
    else:
        state = oracle.load_state(source)
    # the refusals in run_verification come before any output
    checks = run_verification(state, args.tol)
    print(f"state: {source} (n={state.n}, d={state.d})")
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    all_ok = all(ok for _, ok, _ in checks)
    print(f"result: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


# --- find-graph ----------------------------------------------------------


def cmd_find_graph(args: argparse.Namespace) -> int:
    from . import oracle

    specs = oracle.find_ame_graph(args.n, args.d, limit=args.limit)
    if not specs:
        print("no AME graph state found")
        return 0
    for idx, spec in enumerate(specs):
        print(f"# graph {idx}")
        for row in spec.adjacency:
            print(" ".join(str(w) for w in row))
    print(f"found {len(specs)} graph(s)")
    return 0


# --- wiring --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here reserves 2
    for negative findings, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """`--tol` value: NaN would fail every check and inf would pass any."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


# One grammar per process: every `main` call parses with it.
_parser = _Parser(prog="ame", description=__doc__.splitlines()[0])
_sub = _parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

_fmt = {"choices": ("md", "csv", "json"), "default": "md"}

# (n, d) of `check`, `solve` and `find-graph`: argparse copies a parent's
# actions first, right after -h, so each usage line keeps its order
_nd = argparse.ArgumentParser(add_help=False)
_nd.add_argument("--n", type=int, required=True)
_nd.add_argument("--d", type=int, required=True)

_p = _sub.add_parser("table", help="invariant table over a range of n")
_p.add_argument("--d", type=int, required=True)
_p.add_argument("--n-min", type=int, required=True)
_p.add_argument("--n-max", type=int, required=True)
_p.add_argument("--format", **_fmt)
_p.set_defaults(func=cmd_table)

_p = _sub.add_parser("check", help="existence verdict for one (n, d)", parents=[_nd])
_p.add_argument("--format", **_fmt)
_p.set_defaults(func=cmd_check)

_p = _sub.add_parser("scan", help="verdict grid for 2..d_max x 2..n_max")
_p.add_argument("--d-max", type=int, required=True)
_p.add_argument("--n-max", type=int, required=True)
_p.add_argument("--format", **_fmt)
_p.set_defaults(func=cmd_scan)

_p = _sub.add_parser("solve", help="dump the exact triangular system", parents=[_nd])
_p.add_argument("--i", type=int, default=None, help="system size (default: full, n - floor(n/2))")
_p.add_argument("--show-inverse", action="store_true")
_p.add_argument("--format", **_fmt)
_p.set_defaults(func=cmd_solve)

_p = _sub.add_parser("verify", help="oracle checks on a builtin or file state")
_p.add_argument("--state", required=True, metavar="builtin:NAME|PATH")
_p.add_argument("--tol", type=_tolerance, default=1e-9)
_p.set_defaults(func=cmd_verify)

_p = _sub.add_parser("find-graph", help="exhaustive AME graph-state search", parents=[_nd])
_p.add_argument("--limit", type=int, default=None)
_p.set_defaults(func=cmd_find_graph)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
