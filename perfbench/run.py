"""Benchmark launcher: time-to-solution of the pinned jflow workloads.

    python3 perfbench/run.py --workload split_family --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and from nowhere else.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced pass (see ``README.md``).  Human-readable lines come first; the last
line of standard output is one JSON object.
"""

import os
import time

# BLAS/OpenMP pools are pinned before numpy loads, so every run is one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
SETUP_PROBES = 5


def import_library():
    """Import jflow from this checkout's ``src/``; exit with code 1 when it is not there."""
    src = ROOT / "src"
    if not (src / "jflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jflow sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import jflow

    if Path(jflow.__file__).resolve().parent != src / "jflow":
        sys.exit(f"perfbench: jflow imported from {jflow.__file__}, not {src}")


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def measure_units(inputs, seconds, run_unit):
    """Run units until ``seconds`` have passed (at least one).  Returns
    ``(elapsed_s, cpu_s, failures)`` per unit; a unit that raises counts as
    failed and the run goes on."""
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            fails = run_unit(inputs)
        except Exception as err:  # noqa: BLE001 - a failed unit is data, not a crash
            where = traceback.extract_tb(err.__traceback__)[-1]
            fails = [f"{type(err).__name__}: {err} ({where.filename}:{where.lineno})"]
        units.append((time.perf_counter() - t0, time.process_time() - c0, fails))
    return units


def probe_setup(workload, seed):
    """Set-up seconds of a fresh process: from just before it is started
    until its first unit could start (imports, inputs, warm-up)."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1]) - t0


def passed_median(units):
    ok = [u[0] for u in units if not u[2]] or [u[0] for u in units]
    return statistics.median(ok)


def setup(wl, seed):
    inputs = wl.prepare(seed)
    wl.warm_up(inputs)
    return inputs


def run(wl, seed, seconds, trace, setup_probes=SETUP_PROBES):
    """One benchmark run of workload ``wl``; returns ``(lines, result)``:
    human-readable lines and the result object printed last."""
    lines = [f"env {json.dumps(environment(seed), sort_keys=True)}"]
    units = measure_units(setup(wl, seed), seconds, wl.run_unit)
    all_units = list(units)
    tts = passed_median(units)

    if not trace:
        setups = [probe_setup(wl.name, seed) for _ in range(setup_probes)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "time_to_solution_s": (tts, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        lines.append(f"time_to_solution_s samples {len(units)}: "
                     + " ".join(f"{u[0]:.4f}" for u in units))
        lines.append(f"setup_s samples {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups))
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced_inputs = tracer.root("setup", setup, wl, seed)
            traced = measure_units(traced_inputs, seconds,
                                   lambda inp: tracer.root("unit", wl.run_unit, inp))
        finally:
            tracer.uninstall()
        all_units += traced
        metrics = layer_metrics(tracer, len(traced))
        cpu = statistics.fmean(u[1] for u in traced)
        metrics["process.cpu_s"] = (cpu, "s")
        metrics["trace.overhead_frac"] = (passed_median(traced) / tts - 1.0, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{wl.name}.npz"
        tracer.save(path)
        lines.append(f"traced units {len(traced)}, untraced units {len(units)}, "
                     f"untraced time_to_solution_s {tts:.4f}; spans in {path.relative_to(ROOT)}")

    failed = sum(1 for u in all_units if u[2])
    for msg, n in Counter(msg for u in all_units for msg in u[2]).items():
        lines.append(f"FAIL in {n} unit(s): {msg}")
    lines.append(f"fail_fraction = {failed / len(all_units)!r} ({failed} of {len(all_units)} units)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(all_units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: set up once, print the ready time, exit")
    args = p.parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        setup(wl, args.seed)
        print(time.perf_counter())
        return
    lines, result = run(wl, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
