#!/usr/bin/env python3
"""The sheaffuse benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sar_stream --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports sheaffuse from
``src/`` there and writes its generated inputs and span files under
``.bench_build/perfbench/``.  The inputs are written by a child process,
so ``peak_rss_mb`` covers only the spec load, set-up and ops.  Metric
names and units come from ``BENCHMARK.json`` at the checkout root.  Load is one process and one thread in a
closed loop with a single client; BLAS is pinned to one thread.

With ``--trace 0`` it sets up SETUP_REPEATS times (spec load plus one
uncounted warm-up op) and reports the median as ``setup_s``, then runs
ops for ``--seconds`` and reports the end-to-end metrics.  On
``chain_structure`` and ``sar_lift`` a "snapshot" is one op.  The tail
is the highest percentile with at least ten samples beyond it, or the
median when a run has fewer than 21 ops; the info line records which.

The speed of a small shared machine drifts by a quarter and more over
minutes, and interpreted code slows nearly evenly with it.  So a fixed
pure-Python reference loop runs around every set-up and op, for about
REFERENCE_SHARE of it, and every time of the untraced run is taken at
a nominal machine speed: the measured time times REFERENCE_NOMINAL_S
over the mean of the two reference times around it.  The wall-clock
times are printed as ungated readings (``*_wall*``) next to them.  The
per-layer times of the traced run are wall-clock.

With ``--trace 1`` it runs one set-up and the workload's ``trace_ops``
ops untraced, then the same work again with every public sheaffuse
function wrapped in a span, and repeats that pair until ``--seconds``
have passed.  The per-layer metrics are totals over the first traced
pass, a fixed amount of work, so its counts repeat exactly; the tracing
overhead is the median over the pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed op is
one that raised or whose outputs failed a check; ``failed_frac`` on the
info line is failed over attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# metric -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
SETUP_REPEATS = 3
REFERENCE_ITERATIONS = 100_000
# reference loop time after a set-up or op, as a share of it
REFERENCE_SHARE = 0.03
# the reference loop's median time over the 54 runs made while tuning
# this benchmark on a 2-core Intel Xeon (5.2 to 9.6 ms)
REFERENCE_NOMINAL_S = 0.007
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# ungated readings, where the workload has them
READINGS = {
    "check_s": "s",
    "cohomology_s": "s",
    "fuse_residual_p50": "stalk",
    "failed_frac": "ratio",
    "setup_wall_s": "s",
    "snapshots_wall_per_s": "1/s",
    "snapshot_p50_wall_ms": "ms",
    "snapshot_tail_wall_ms": "ms",
    "check_wall_s": "s",
    "cohomology_wall_s": "s",
    "reference_ms": "ms",
}


def import_sheaffuse():
    """Import sheaffuse from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sheaffuse
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import sheaffuse from {src}: {exc}")
    if src not in Path(sheaffuse.__file__).resolve().parents:
        sys.exit(f"perfbench: sheaffuse resolves to {sheaffuse.__file__}, "
                 f"not to {src}")
    return sheaffuse


def blas_threads():
    """Threads the OpenBLAS bundled with NumPy reports, or None if there
    is no such library to ask."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_info(sheaffuse, args, workload) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "kernel_backend": sheaffuse.KERNEL_BACKEND,
        "blas_threads": blas_threads(),
        **workload.info(),
    }


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the median when there are too few samples."""
    n = len(samples)
    if n < 21:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def run_op(workload, i, failures, tracer=None):
    """One op and its checks; returns the outcome, or None if it failed."""
    try:
        out = workload.op(i)
        with tracer.pause() if tracer else contextlib.nullcontext():
            problems = workload.check(i, out)
    except Exception:  # a failing op is counted, the run goes on
        failures.append(f"op {i}: {traceback.format_exc()}")
        return None
    if problems:
        failures.extend(problems)
        return None
    out.results = ()  # keep numbers only, so memory does not grow per op
    return out


def reference_s(repeats: int = 1) -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now,
    averaged over ``repeats`` passes."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS * repeats):
        acc += i * 0.5
    return (time.perf_counter() - t0) / repeats


def reference_repeats(op_s: float, ref_s: float) -> int:
    """Passes that make the reference REFERENCE_SHARE of an op, so a long
    op is not compared against a momentary reading."""
    return max(1, round(REFERENCE_SHARE * op_s / ref_s))


def measure(workload, seconds):
    """Untraced run: the end-to-end metrics and the readings."""
    ref = reference_s()

    def timed(step):
        """Run step(); its result, wall seconds, and the factor that
        takes its times to the nominal machine speed."""
        nonlocal ref
        t0 = time.perf_counter()
        result = step()
        took = time.perf_counter() - t0
        after = reference_s(reference_repeats(took, ref))
        nominal = 2 * REFERENCE_NOMINAL_S / (ref + after)
        ref = after
        return result, took, nominal

    setups = [timed(workload.setup)[1:] for _ in range(SETUP_REPEATS)]
    failures, outcomes, factors = [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        out, _, nominal = timed(
            lambda: run_op(workload, attempted, failures))
        attempted += 1
        if out is not None:
            outcomes.append(out)
            factors.append(nominal)
    failed = attempted - len(outcomes)
    if not outcomes:
        return ({m: 0.0 for m in END_TO_END}, {}, attempted, failed,
                failures, {})

    def at_nominal(times):
        return [t * f for t, f in zip(times, factors)]

    median = statistics.median
    latency = [o.latency_s for o in outcomes]
    check = [o.check_s for o in outcomes]
    tail_ms, tail_pct = tail(at_nominal(latency))
    metrics = {
        "setup_s": median([t * f for t, f in setups]),
        "snapshots_per_s": len(latency) / sum(at_nominal(latency)),
        "snapshot_p50_ms": median(at_nominal(latency)) * 1e3,
        "snapshot_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    readings = {
        "check_s": median(at_nominal(check)),
        "failed_frac": failed / attempted,
        "setup_wall_s": median([t for t, _ in setups]),
        "snapshots_wall_per_s": len(latency) / sum(latency),
        "snapshot_p50_wall_ms": median(latency) * 1e3,
        "snapshot_tail_wall_ms": tail(latency)[0] * 1e3,
        "check_wall_s": median(check),
        "reference_ms": REFERENCE_NOMINAL_S / median(factors) * 1e3,
    }
    if outcomes[0].cohomology_s is not None:
        cohomology = [o.cohomology_s for o in outcomes]
        readings["cohomology_s"] = median(at_nominal(cohomology))
        readings["cohomology_wall_s"] = median(cohomology)
    if outcomes[0].residual is not None:
        readings["fuse_residual_p50"] = median(o.residual for o in outcomes)
    extra = {"ops": len(outcomes), "tail_percentile": tail_pct,
             "setup_samples_wall_s": [t for t, _ in setups]}
    if outcomes[0].betti is not None:
        extra["betti"] = sorted({str(o.betti) for o in outcomes})
    if outcomes[0].dd_residual is not None:
        extra["dd_residual"] = max(o.dd_residual for o in outcomes)
    return metrics, readings, attempted, failed, failures, extra


def measure_traced(workload, seconds, span_path):
    """Traced run: the same fixed work untraced, then traced, in pairs
    until ``seconds`` have passed.  The first traced pass gives the
    spans and per-layer metrics; every pair gives an overhead reading."""
    from tracing import Tracer

    failures = []
    attempted = failed = 0

    def work(tracer=None):
        nonlocal attempted, failed
        outcomes = []
        t0 = time.perf_counter()
        workload.setup()
        busy = time.perf_counter() - t0
        for i in range(workload.trace_ops):
            if tracer is not None:
                tracer.op_id = i + 1
            out = run_op(workload, i, failures, tracer)
            attempted += 1
            if out is None:
                failed += 1
            else:
                busy += out.latency_s
                outcomes.append(out)
        return busy, outcomes

    ratios = []
    recorder = None
    start = time.perf_counter()
    ref0 = reference_s()
    while recorder is None or time.perf_counter() - start < seconds:
        plain_s, _ = work()
        repeats = reference_repeats(plain_s, ref0)
        ref1 = reference_s(repeats)
        tracer = Tracer()
        with tracer.attached():
            traced_s, outcomes = work(tracer)
        ref2 = reference_s(repeats)
        # each pass at the nominal machine speed, as in the untraced run
        ratios.append((traced_s / (ref1 + ref2)) / (plain_s / (ref0 + ref1)))
        if recorder is None:
            recorder, recorded = tracer, outcomes
        ref0 = ref2
    recorder.save(span_path)
    dds = [o.dd_residual for o in recorded if o.dd_residual is not None]
    metrics = recorder.layer_metrics(
        PER_LAYER, dd_residual=max(dds, default=0.0),
        overhead_pct=100.0 * (statistics.median(ratios) - 1.0))
    extra = {"overhead_ratios": ratios, "trace_ops": workload.trace_ops,
             "span_file": str(span_path)}
    return metrics, {}, attempted, failed, failures, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", action="store_true",
                        help="only write the workload's inputs")
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = "1"
    sheaffuse = import_sheaffuse()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    out_dir = ROOT / ".bench_build" / "perfbench"
    workload = WORKLOADS[args.workload](
        args.seed, out_dir / f"{args.workload}-seed{args.seed}")
    if args.generate:
        workload.generate()
        return 0
    # a child writes the inputs, so its memory is not this process's peak
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "0",
                    "--generate"], check=True)
    if args.trace:
        units = PER_LAYER
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        metrics, readings, attempted, failed, failures, extra = \
            measure_traced(workload, args.seconds, spans)
    else:
        units = END_TO_END
        metrics, readings, attempted, failed, failures, extra = measure(
            workload, args.seconds)

    info = run_info(sheaffuse, args, workload)
    print("info " + json.dumps({**info, **extra, "readings": readings}))
    for problem in failures[:20]:
        print(f"failed: {problem}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    for name, value in readings.items():
        print(f"  {name:40s} {value:14.6g} {READINGS[name]}  (reading)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
