"""One workload in one fresh process: set up, run whole passes, print a summary.

run.py starts this script once per measured run and several more times with
``--setup-only``; it is not meant to be run by hand.  The last line of stdout
is one JSON object.  Set-up time counts from the first line of this file, so
it covers ``import ame`` (and numpy), making the seeded inputs and lazy
fixtures such as the cached ``ame62`` search.
"""

import time

T0 = time.perf_counter()

# Every import below, ame and numpy included, counts towards setup_s.
import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy

import ame
import workloads
from tracing import Tracer
from workloads import BEYOND_TAIL, rank


# On a shared 2-vCPU cloud host, core speed drifts by up to a third over tens
# of seconds as other tenants load the cores; that swamps run-to-run
# comparisons.  So the untraced run times the workload's reference kernel
# between items and scales each item's time to a host on which the kernel
# takes its nominal time (its median on the host the baseline was taken on).
CALIBRATE_EVERY_S = 0.2
# Set-up is scaled the same way, by the median of this many kernel timings
# made right after it in the same process.
SETUP_KERNEL_RUNS = 5


def _kernel_s(reference) -> float:
    """The faster of two back-to-back kernel runs: a stall from another
    tenant lengthens one run, and would otherwise rescale a whole stretch."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        reference.kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def run_pass(items, tracer=None, first_id=0, reference=None):
    """Run every item once, back to back; returns (latencies_s, outputs, scales).

    An output is (value, None), or (None, error text) when the item raised.
    With a `reference`, its kernel runs before the first item and after each
    stretch of at least CALIBRATE_EVERY_S of items, and the items of a stretch
    get the scale nominal_s / (mean kernel time around it).  Otherwise every
    scale is 1.
    """
    latencies, outputs, scales = [], [], []
    before = _kernel_s(reference) if reference else None
    stretch = 0.0
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = first_id + k
        t = time.perf_counter()
        try:
            outputs.append((item.run(), None))
        except Exception as exc:  # a failed item is counted, never fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.item = None
        stretch += latencies[-1]
        if reference and (stretch >= CALIBRATE_EVERY_S or k == len(items) - 1):
            after = _kernel_s(reference)
            scale = 2 * reference.nominal_s / (before + after)
            scales += [scale] * (len(latencies) - len(scales))
            before, stretch = after, 0.0
    return latencies, outputs, scales or [1.0] * len(items)


def check_outputs(items, outputs) -> list[str]:
    """Failure reasons of one pass, one per failed item."""
    failures = []
    for item, (value, error) in zip(items, outputs):
        if error is None:
            try:
                error = item.check(value)
            except Exception as exc:  # unreadable output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{item.label}: {error}")
    return failures


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float) -> dict:
    """Untraced closed loop of whole calibrated passes; the end-to-end figures.

    The run makes `wl.passes(seconds)` passes.  The peak memory is read right
    after the first pass's items, so it covers set-up and the timed items but
    no output check.
    """
    # every item time of the run, item by item, scaled and not
    per_item: list[list[float]] = [[] for _ in wl.items]
    raw_per_item: list[list[float]] = [[] for _ in wl.items]
    pass_s, raw_pass_s, all_scales, failures = [], [], [], []
    peak_rss_mb = None
    for _ in range(wl.passes(seconds)):
        lat, outputs, scales = run_pass(wl.items, reference=wl.reference)
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        failures += check_outputs(wl.items, outputs)
        for samples, raw, x, f in zip(per_item, raw_per_item, lat, scales):
            samples.append(1e3 * x * f)
            raw.append(1e3 * x)
        pass_s.append(sum(x * f for x, f in zip(lat, scales)))
        raw_pass_s.append(sum(lat))
        all_scales += scales
    attempted = len(pass_s) * len(wl.items)
    tail_rank = attempted - BEYOND_TAIL

    def p50_and_tail(samples: list[list[float]]) -> tuple[float, float]:
        """The median item's median over passes, by nearest rank, and the
        item time with BEYOND_TAIL slower ones among every item time of the
        run (items x passes)."""
        medians = sorted(statistics.median(s) for s in samples)
        pooled = sorted(x for s in samples for x in s)
        return medians[rank(50, len(medians)) - 1], pooled[tail_rank - 1]

    p50, tail = p50_and_tail(per_item)
    raw_p50, raw_tail = p50_and_tail(raw_per_item)
    return {
        "attempted": attempted,
        "failures": failures,
        "passes": len(pass_s),
        "tail": {
            "pct": 100 * tail_rank / attempted,
            "samples": attempted,
            "beyond": BEYOND_TAIL,
        },
        "host": {
            "scale_median": statistics.median(all_scales),
            "unscaled_items_per_s": len(wl.items) / statistics.median(raw_pass_s),
            "unscaled_item_ms_p50": raw_p50,
            "unscaled_item_ms_tail": raw_tail,
        },
        "metrics": {
            "items_per_s": len(wl.items) / statistics.median(pass_s),
            "item_ms_p50": p50,
            "item_ms_tail": tail,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - len(failures)) / attempted,
        },
    }


def measure_traced(wl, seconds: float) -> dict:
    """Untraced and traced passes in turn; per-layer means over traced passes.

    For each traced pass, the self times of all spans plus unattributed_ms add
    up to traced_pass_ms; the means keep that sum.
    """
    plain_s, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        lat, outputs, _ = run_pass(wl.items)
        plain_s.append(sum(lat))
        attempted += len(outputs)
        failures += check_outputs(wl.items, outputs)

        tracer = Tracer()
        tracer.install()
        try:
            lat, outputs, _ = run_pass(wl.items, tracer, first_id=len(traced) * len(wl.items))
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        self_ms = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
        layers["traced_pass_ms"] = 1e3 * sum(lat)
        layers["unattributed_ms"] = 1e3 * sum(lat) - self_ms
        traced.append(layers)
        attempted += len(outputs)
        failures += check_outputs(wl.items, outputs)

    metrics = {
        name: (max if name.endswith(("max_bits", "max_dim")) else statistics.fmean)(
            [layers[name] for layers in traced]
        )
        for name in traced[0]
    }
    metrics["untraced_pass_ms"] = 1e3 * statistics.fmean(plain_s)
    metrics["trace_overhead_ms"] = metrics["traced_pass_ms"] - metrics["untraced_pass_ms"]
    return {
        "attempted": attempted,
        "failures": failures,
        "passes": len(plain_s) + len(traced),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if Path(ame.__file__).resolve().parent != SRC / "ame":
        print(f"error: imported ame from {ame.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    kernel_s = statistics.median(_kernel_s(wl.reference) for _ in range(SETUP_KERNEL_RUNS))
    setup = {
        "setup_s": setup_s * wl.reference.setup_nominal_s / kernel_s,
        "setup_s_unscaled": setup_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    result = measure_traced(wl, args.seconds) if args.trace else measure(wl, args.seconds)
    result.update(setup)
    result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
