"""Run one workload of the tera benchmark and print its metrics.

Run from the root of a tera checkout:

    python3 perfbench/run.py --workload recovery_sweep --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the working directory, with BLAS
pinned to one thread. With ``--trace 0`` the run builds its inputs from the
seed (set-up, repeated and reported as a median), then runs jobs in a closed
loop until they have taken ``--seconds`` in all (output checks are not
counted) and prints the end-to-end metrics. With ``--trace 1``
it runs a fixed list of jobs, each once untraced and once with the span
tracer installed, and prints the per-layer metrics and the tracing overhead.
Every job's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
exit code is nonzero when a check failed. Details, the environment and the
spans go to ``.bench_out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Times ``import tera`` in a fresh interpreter, as the run's own import is.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import tera, tera.cli; print(time.perf_counter() - t)"
)
# The traced run's job list takes about this share of --seconds when run
# untraced (it runs twice). It is sized from each workload's nominal cycle
# time, not measured time, so it is the same list on every run with the same
# --seconds and its counts repeat exactly.
TRACE_SHARE = 0.4
OUT_DIR = Path(".bench_out")


class ProgramMissing(RuntimeError):
    pass


def load_program(root):
    """Pin BLAS to one thread and import tera from ``root/src``.

    Returns the import time in seconds. Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    package = root / "src" / "tera"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no tera package at {package}; run from a checkout root")
    sys.path.insert(0, str(root / "src"))
    t0 = perf_counter()
    import tera
    import tera.cli  # noqa: F401
    elapsed = perf_counter() - t0
    if Path(tera.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported tera from {tera.__file__}, not {package}")
    return elapsed


def median_import_s(root, first):
    """Median of this process's import time and ``SETUP_REPEATS - 1`` more
    taken in child interpreters, since a process imports only once."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=root, capture_output=True,
            text=True, timeout=60, check=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        l3 = int(subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache_bytes": l3,
        "byte_counts": "computed from array shapes; no bandwidth ratio is claimed",
    }


def tail(times):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer it is the
    maximum at percentile 100.
    """
    s = sorted(times)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def run_job(workload, state, i, tally, tracer=None):
    error = None
    out = None
    if tracer is not None:
        tracer.job = i
        tracer.recording = True
    t0 = perf_counter()
    try:
        out = workload.run_job(state, i)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        tally.times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.recording = False
    if error is None:
        try:
            error = workload.check(state, i, out, tally)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error:
        tally.failures.append(f"job {i}: {error}")


def jobs_per_s(tally):
    busy = sum(tally.times)
    return (len(tally.times) - len(tally.failures)) / busy if busy > 0 else 0.0


def run(workload, seed, seconds, trace, import_s):
    """Run ``workload`` and return the result dict; see the module docstring."""
    from workloads import NOT_MEASURED, QUALITY, Tally

    OUT_DIR.mkdir(exist_ok=True)
    setup_times = []
    state = None
    for _ in range(1 if trace else SETUP_REPEATS):
        state = None  # drop the previous set-up before building the next
        t0 = perf_counter()
        state = workload.setup(seed)
        setup_times.append(perf_counter() - t0)

    details = {"workload": workload.name, "seed": seed, "seconds": seconds,
               "trace": trace, "environment": environment()}
    run_errors = []
    if not trace:
        tally = Tally()
        # Output checks are short next to the jobs; the wall-clock stop only
        # bounds a run whose jobs fail at once.
        wall_stop = perf_counter() + 2 * seconds
        i = 0
        while i == 0 or (sum(tally.times) < seconds and perf_counter() < wall_stop):
            for _ in range(workload.cycle):
                run_job(workload, state, i, tally)
                i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail_s, tail_pct = tail(tally.times)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "jobs_per_s": (jobs_per_s(tally), "1/s"),
            "job_ms_p50": (statistics.median(tally.times) * 1e3, "ms"),
            "job_ms_tail": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        quality = workload.quality(tally)
        for name, owner in QUALITY.items():
            value = quality[name] if owner == workload.name else NOT_MEASURED
            if not math.isfinite(value):
                run_errors.append(f"{name} was not measured")
                value = 0.0
            metrics[name] = (value, "ratio")
        details.update(
            import_median_s=import_s, setup_runs_s=setup_times,
            job_ms_tail_percentile=tail_pct, job_samples=len(tally.times),
            failed_fraction=len(tally.failures) / len(tally.times),
            counters=tally.counters,
            recorded_means={key: tally.mean(key) for key in tally.values},
        )
        phases = [tally]
    else:
        from tracing import Tracer, layer_metrics

        cycles = max(1, int(seconds * TRACE_SHARE / workload.cycle_nominal_s))
        n_jobs = cycles * workload.cycle
        untraced, traced, tracer = Tally(), Tally(), Tracer()
        for i in range(n_jobs):
            # Each job runs once without wrappers and once traced, in
            # alternating order, so that warm caches favour neither side.
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if not with_trace:
                    run_job(workload, state, i, untraced)
                    continue
                tracer.install()
                try:
                    run_job(workload, state, i, traced, tracer)
                finally:
                    tracer.uninstall()
        metrics = layer_metrics(tracer, traced.counters)
        base, with_trace = jobs_per_s(untraced), jobs_per_s(traced)
        metrics["trace.overhead_jobs_per_s"] = (with_trace - base, "1/s")
        spans_path = OUT_DIR / f"spans_{workload.name}_seed{seed}.csv"
        tracer.write_spans(spans_path)
        details.update(trace_jobs=n_jobs, spans=len(tracer.spans),
                       spans_file=str(spans_path), untraced_jobs_per_s=base,
                       traced_jobs_per_s=with_trace)
        phases = [untraced, traced]

    final_check = getattr(workload, "final_check", None)
    if final_check is not None:
        error = final_check(state)
        if error:
            run_errors.append(error)
    attempted = sum(len(p.times) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    details.update(
        failures=[f for p in phases for f in p.failures][:20], run_errors=run_errors
    )
    return {
        "correct": failed == 0 and not run_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        import_s = load_program(root)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        import_s = median_import_s(root, import_s)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace,
                 import_s)
    details = result.pop("details")
    path = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1, allow_nan=False)
        fh.write("\n")
    print("environment: " + json.dumps(details["environment"], sort_keys=True))
    for failure in details["failures"] + details["run_errors"]:
        print(f"FAILED {failure}")
    if not args.trace:
        print(f"failed_fraction = {details['failed_fraction']!r}")
        print(f"job_ms_tail is p{details['job_ms_tail_percentile']:.2f} "
              f"of {details['job_samples']} jobs")
        for key, value in details["recorded_means"].items():
            print(f"recorded mean {key} = {value!r}")
    else:
        print(f"jobs_per_s untraced = {details['untraced_jobs_per_s']!r}, "
              f"traced = {details['traced_jobs_per_s']!r}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
