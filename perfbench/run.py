"""Benchmark for the lola engine.

    python3 perfbench/run.py --workload recall-batch --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository. The package is imported from the
checkout's ``src/`` and nowhere else; without it the command fails.

``--trace 0`` measures the workload for ``--seconds`` with tracing off and
reports the end-to-end metrics. ``--trace 1`` runs a fixed number of
operations twice, untraced and then traced, checks that both give identical
outputs, and reports the per-layer metrics derived from the spans together
with the tracing overhead. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A copy of the full result, with the machine
facts, goes to ``.perfbench/results/`` and the traced run's spans to
``.perfbench/traces/``. The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# Each run is one client on one thread; BLAS is held to one thread (<= nproc)
# so that small products do not contend with the measured thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BLAS_THREADS = "1"

# set-up is repeated at least this many times, and until this much time has
# passed (at most SETUP_MAX_REPEATS times); setup_s takes the median
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 5, 5.0, 9

# setup_s is stated at the machine speed at which the numeric reference kernel
# takes this long: its time on a 2-vCPU 2.0 GHz Xeon when nothing else loads
# the host. Each set-up's wall time is scaled by this over the kernel's time
# measured around it (see README.md, "Why setup_s is scaled").
REF_NOMINAL_S = 2.1e-3
SPEED_PROBES = 5

# End-to-end metrics, reported by every workload: (name, unit). op_p50_rel is
# the median call time in units of the reference kernel timed next to it
# (workloads.ReferenceKernel). Wall-clock medians, tails and throughputs are
# printed as well, but on a shared machine they moved by 20-50% between runs
# of identical code, so the relative median carries the timing bound.
E2E_METRICS = [
    ("setup_s", "s"),
    ("op_p50_rel", "ref"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_package() -> float:
    """Import lola from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    if not (src / "lola" / "__init__.py").is_file():
        raise SystemExit(f"error: no lola package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import numpy  # noqa: F401  (part of what importing lola costs)
    import lola
    import lola.harness  # noqa: F401
    elapsed = perf_counter() - t0
    if Path(lola.__file__).resolve().parent != (src / "lola").resolve():
        raise SystemExit(f"error: imported lola from {lola.__file__}, not from {src}")
    return elapsed


def machine_facts(load_at_start) -> dict:
    import numpy as np

    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples: int) -> float:
    """The highest percentile, to 0.1 and at most 99.9, with at least ten
    samples beyond it (the median when there are fewer than 20 samples)."""
    return max(50.0, min(99.9, math.floor(1000.0 * (1.0 - 10.0 / samples)) / 10.0))


def machine_speed(kernel) -> float:
    """The kernel's median time over a few calls: how fast the machine runs now."""
    return statistics.median(kernel() for _ in range(SPEED_PROBES))


def run_setup(cls, seed, work, import_s):
    """Set up from scratch repeatedly. Returns the last repeat's workload and
    (setup_s, wall-clock set-up seconds, distillation seconds): the import plus
    the median repeat, scaled to REF_NOMINAL_S for setup_s and raw for the others."""
    from lola.harness import experiments
    from workloads import ReferenceKernel

    kernel = ReferenceKernel()
    before = machine_speed(kernel)
    scaled_import = import_s * REF_NOMINAL_S / before
    wl, walls, scaled, distills = None, [], [], []
    while len(walls) < SETUP_MIN_REPEATS or (
        sum(walls) < SETUP_MIN_S and len(walls) < SETUP_MAX_REPEATS
    ):
        # drop the previous repeat's inputs first, so that repeats do not
        # fragment the heap and move peak_rss_mb between runs
        wl = None
        # resolve_feature_map memoizes distilled maps per process; clear it so
        # every repeat pays for distillation as a fresh process does
        getattr(experiments, "_distill_cache", {}).clear()
        t0 = perf_counter()
        wl = cls()
        distills.append(wl.setup(seed, work))
        wall = perf_counter() - t0
        after = machine_speed(kernel)
        walls.append(wall)
        scaled.append(wall * REF_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return wl, (
        scaled_import + statistics.median(scaled),
        import_s + statistics.median(walls),
        statistics.median(distills),
    )


def end_to_end(wl, args, setup, reference):
    import numpy as np
    from tracer import NullTracer
    from workloads import TimeBudget

    null = NullTracer()
    wl.warmup(null, reference)
    m = wl.measure(TimeBudget(args.seconds), null, reference)

    lat_ms = np.asarray(m.latencies) * 1e3
    rel = m.relative()
    tail_q = tail_percentile(lat_ms.size)
    setup_s, setup_wall_s, _ = setup
    metrics = {
        "setup_s": setup_s,
        "op_p50_rel": float(np.median(rel)),
        "peak_rss_mb": peak_rss_mb(),
    }
    own = wl.report(m)
    report = [
        *[(name, metrics[name], unit) for name, unit in E2E_METRICS],
        *[(name, own[name], unit) for name, unit in wl.REPORTED.items()],
        ("setup_wall_s", setup_wall_s, "s"),
        ("op_p50_ms", float(np.percentile(lat_ms, 50)), "ms"),
        ("op_tail_ms", float(np.percentile(lat_ms, tail_q)), "ms"),
        ("op_tail_rel", float(np.percentile(rel, tail_q)), "ref"),
        ("op_tail_percentile", tail_q, "%"),
        ("op_samples", lat_ms.size, "count"),
        ("ref_kernel_p50_ms", float(np.median(m.refs)) * 1e3, "ms"),
        ("ref_kernel_min_ms", float(np.min(m.refs)) * 1e3, "ms"),
        ("error_rate", m.failed / m.attempted, "fraction"),
    ]
    metrics = {name: (metrics[name], unit) for name, unit in E2E_METRICS}
    return metrics, report, m.attempted, m.failed, m.failures, m.details


def traced(wl, args, distill_s, reference):
    from tracer import NullTracer, Tracer
    from workloads import CountBudget

    ops = wl.trace_ops(args.seconds)
    null = NullTracer()
    wl.warmup(null, reference)
    plain = wl.measure(CountBudget(ops), null, reference)
    tracer = Tracer()
    tracer.install()
    try:
        seen = wl.measure(CountBudget(ops), tracer, reference)
    finally:
        tracer.uninstall()
    failures = plain.failures + seen.failures
    failed = plain.failed + seen.failed
    if seen.signature != plain.signature:
        failures.append((-1, "the traced run's outputs differ from the untraced run's"))
        failed += 1
    metrics = tracer.layer_metrics(distill_s, plain, seen)
    tracer.write(OUT / "traces" / f"{wl.name}-seed{args.seed}.npz")
    details = {"ops_per_pass": ops, "untraced": plain.details, "traced": seen.details,
               "absent_probes": tracer.missing}
    report = [(name, value, unit) for name, (value, unit) in metrics.items()]
    return metrics, report, plain.attempted + seen.attempted, failed, failures, details


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    import_s = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, ReferenceKernel

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    machine = machine_facts(load_at_start)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup = run_setup(WORKLOADS[args.workload], args.seed, work, import_s)
        if args.trace:
            outcome = traced(wl, args, setup[2], ReferenceKernel(wl.REFERENCE_TEXT))
        else:
            outcome = end_to_end(wl, args, setup, ReferenceKernel(wl.REFERENCE_TEXT))
        metrics, report, attempted, failed, failures, details = outcome
    except Exception:
        traceback.print_exc()
        print("error: the workload raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for op, message in failures:
        print(f"check failed (op {op}): {message}", file=sys.stderr)
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace} op {wl.op_name}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value, unit in report:
        print(f"metric {name} {'absent' if value is None else f'{value:.6g}'} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: ({"value": value, "unit": unit} if value is not None
                   else {"value": None, "unit": unit, "absent": True})
            for name, (value, unit) in metrics.items()
        },
    }
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  machine=machine, report=report, details=details,
                  failures=[f"op {op}: {msg}" for op, msg in failures])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
