"""Benchmark of cavitybic: three workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-large --seed 1 --seconds 28 --trace 0

Set-up (``setup_s``) is the median wall time of a cold ``import cavitybic``
in a fresh interpreter.  The run then repeats whole rounds of the
workload's cases for ``--seconds`` seconds, and times a fixed calibration
kernel before every case; the round time it reports is scaled by the
calibration to a reference machine speed, which takes out part of the
host's speed drift.  With ``--trace 0`` the last line of stdout is a JSON
object holding the end-to-end metrics; with ``--trace 1`` untraced and
traced rounds alternate, and it holds the per-layer metrics derived from
the spans.  Every check run is one attempted operation.  A full record of
the run, and the spans of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import checks
import workloads
from tracing import LAYER_METRICS, Tracer, import_self_times, layer_metrics

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
MAX_TRACED_ROUNDS = 8
# A median of one round is no median: a relax-evolve round can take more
# than half the run on a slow machine.
MIN_UNTRACED_ROUNDS = 2
# Median time of one calibration sample on the reference machine (README).
CALIBRATION_REF_S = 0.035


def environment() -> dict:
    """Interpreter, libraries, BLAS build, thread settings and CPU."""
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']} ({dep.get('openblas configuration', '')})"
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                    if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def cold_import_seconds(ctx: workloads.Context) -> list[float]:
    """Wall times of ``import cavitybic`` in fresh interpreters, after one
    untimed import that fills the bytecode and file caches."""
    cmd = [sys.executable, "-c", "import cavitybic"]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        code, seconds = workloads.run_timed(cmd, ctx.env, ctx.root)
        if code != 0:
            raise RuntimeError(f"import cavitybic exited with code {code}")
        samples.append(seconds)
    return samples[1:]


@functools.cache
def _calibration_inputs():
    """A 40,000 x 40,000 CSR matrix with 16 entries a row, and a vector."""
    import numpy as np
    from scipy import sparse
    rng = np.random.default_rng(0)
    rows = np.repeat(np.arange(40_000), 16)
    cols = rng.integers(0, 40_000, rows.size)
    matrix = sparse.csr_matrix((rng.standard_normal(rows.size), (rows, cols)),
                               shape=(40_000, 40_000))
    return matrix, rng.standard_normal(40_000)


def calibration_seconds() -> float:
    """Wall time of 40 sparse matrix-vector products that do not touch
    cavitybic: a measure of the machine's speed at the moment, which drifts
    on a shared host.  The product runs on one thread and makes no BLAS
    call, so neither the BLAS thread settings nor any change to the package
    moves it."""
    matrix, vector = _calibration_inputs()
    start = time.perf_counter()
    for _ in range(40):
        matrix @ vector
    return time.perf_counter() - start


def run_round(cases, ctx: workloads.Context) -> dict[str, float]:
    """Run every case once, each after one calibration sample; a case that
    raises fails all of its checks."""
    times = {}
    for case in cases:
        ctx.calibration.append(calibration_seconds())
        mark = len(ctx.results)
        span = ctx.tracer.operation(case.metric) if ctx.tracer else contextlib.nullcontext()
        try:
            with span:
                times[case.metric] = case.run(ctx)
        except Exception as exc:  # the program failed: count it, keep the round whole
            traceback.print_exc(file=sys.stderr)
            del ctx.results[mark:]
            for name in case.check_names:
                ctx.results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(args, root: str, tmp: str) -> tuple[dict, dict]:
    ctx = workloads.Context(root, tmp, args.seed, in_process=bool(args.trace))
    setup = cold_import_seconds(ctx)
    cases = workloads.build(args.workload, args.seed)
    workloads.warm_up(args.workload, cases, ctx)

    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        use_tracer = (tracer is not None and len(traced) < MAX_TRACED_ROUNDS
                      and len(plain) > len(traced))
        if use_tracer:
            first = tracer.run_id + 1
            tracer.install()
            ctx.tracer = tracer
            try:
                times = run_round(cases, ctx)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            traced.append((times, range(first, tracer.run_id + 1)))
        else:
            plain.append(run_round(cases, ctx))
        now = time.perf_counter()
        last, elapsed = now - round_start, now - start
        # Stop before a further round of the same length would overrun the
        # run by more than a tenth, once the minimum rounds are in.
        if (elapsed + last > 1.1 * args.seconds and len(plain) >= MIN_UNTRACED_ROUNDS
                and (tracer is None or traced)):
            break

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_s": setup,
        "rounds": plain, "traced_rounds": [t for t, _ in traced],
        "calibration_s": ctx.calibration,
        "failed_checks": [r for r in ctx.results if not r[1]],
    }
    if tracer is None:
        # The round time scaled to the reference machine speed (README).
        scale = CALIBRATION_REF_S / statistics.median(ctx.calibration)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "round_ref_s": (statistics.median(sum(r.values()) for r in plain) * scale, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        per_round = [layer_metrics(tracer, ids) for _, ids in traced]
        values = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        values.update(import_self_times(ctx.env, root, IMPORTTIME_REPEATS))
        values["trace.overhead_s"] = (
            statistics.median(sum(t.values()) for t, _ in traced)
            - statistics.median(sum(r.values()) for r in plain))
        metrics = {k: (values[k] if unit in ("s", "us") else round(values[k]), unit)
                   for k, unit in LAYER_METRICS.items()}
        tracer.dump(os.path.join(root, "bench", "out",
                                 f"{args.workload}-seed{args.seed}.spans.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "environment": record["environment"]})
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    return record, {"results": ctx.results, "metrics": metrics}


def report(record: dict, outcome: dict) -> None:
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    rounds = record["rounds"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}: "
          f"{len(record['rounds'])} untraced and {len(record['traced_rounds'])} traced rounds")
    for name in rounds[0] if rounds else ():
        values = [r[name] for r in rounds if name in r]
        print(f"  {name:<22} {statistics.median(values):10.4f} s  "
              f"(median of {len(values)}, min {min(values):.4f}, max {max(values):.4f})")
    if rounds:
        print(f"  {'round_s':<22} {statistics.median(sum(r.values()) for r in rounds):10.4f} s"
              f"  (median of {len(rounds)} untraced rounds)")
    calibration = record["calibration_s"]
    print(f"  {'calibration_s':<22} {statistics.median(calibration):10.4f} s"
          f"  (median of {len(calibration)}, min {min(calibration):.4f},"
          f" max {max(calibration):.4f})")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    results = outcome["results"]
    failed = [r for r in results if not r[1]]
    print(f"checks: {len(results)} attempted, {len(failed)} failed")
    for name, detail in sorted({(r[0], r[2]) for r in failed}):
        print(f"  FAILED {name}: {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    broken = checks.self_test()
    if broken:
        print(f"error: checks that accept a wrong value: {', '.join(broken)}", file=sys.stderr)
        return 2

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cavitybic", "__init__.py")):
        print(f"error: no cavitybic sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    tmp = os.path.join(root, "bench", "out", f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        record, outcome = measure(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, "bench", "out", name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    report(record, outcome)
    results = outcome["results"]
    failed = sum(1 for r in results if not r[1])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
