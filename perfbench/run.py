"""Benchmark of the ame exact solver, closed forms, CLI and dense-state oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each workload runs in a closed loop, one client
in one process: every item starts when the previous one ends, and a run is a
number of whole passes over the workload's item list.  Every run uses fresh
processes (see worker.py): a few that only set up, for the median set-up time,
and one that sets up and measures, so peak memory and the package's lazy
caches never carry over from another workload.  BLAS threads are fixed before
numpy loads.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of the traced run instead.  The line before it records the
provenance of the result.  ``--workload all`` runs every workload and prints
one table of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9  # set-up samples per run: this many fresh processes, median taken
DEADLINE_S = 170  # a run ends within this many seconds or fails
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


class RunError(Exception):
    pass


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} passed the {DEADLINE_S} s deadline") from exc
    if out.returncode != 0:
        raise RunError(f"worker {args} exited {out.returncode}:\n{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Result line and provenance of one run of one workload."""
    base = ["--workload", name, "--seed", str(seed)]
    setups = [] if trace else [
        _worker(base + ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)
    ]
    res = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups.append(res)
        res["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        res["host"]["setup_s_unscaled"] = statistics.median(s["setup_s_unscaled"] for s in setups)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(res["failures"])
    provenance = dict(
        res["provenance"],
        git_revision=_git_revision(),
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        passes=res["passes"],
        setup_runs=len(setups),
        failures=res["failures"][:5],
    )
    for key in ("tail", "host"):
        if key in res:
            provenance[key] = res[key]
    return {
        "provenance": provenance,
        "result": {
            "correct": failed == 0,
            "attempted": res["attempted"],
            "failed": failed,
            "metrics": metrics,
        },
    }


def _table(spec: dict, results: dict[str, dict]) -> str:
    header = ["workload"] + [f"{m['name']} ({m['unit']})" for m in spec["end_to_end"]]
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    for name, out in results.items():
        metrics = out["result"]["metrics"]
        cells = [f"{metrics[m['name']]['value']:.4g}" for m in spec["end_to_end"]]
        lines.append("| " + " | ".join([name] + cells) + " |")
    return "\n".join(lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ame" / "__init__.py").is_file():
        print(f"error: no ame package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * (len(names) if args.workload == "all" else 1)
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in todo:
            results[name] = run_workload(spec, name, args.seed, args.seconds, args.trace, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, out in results.items():
        print(f"provenance {name}: {json.dumps(out['provenance'])}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]["result"]))
        return 0
    if not args.trace:
        print(_table(spec, results))
    print(json.dumps({
        "correct": all(r["result"]["correct"] for r in results.values()),
        "attempted": sum(r["result"]["attempted"] for r in results.values()),
        "failed": sum(r["result"]["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["result"]["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
