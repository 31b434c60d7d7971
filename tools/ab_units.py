"""Interleaved A/B timing of one benchmark workload's units.

    python3 tools/ab_units.py --parent ../parent --change . --workload full_flow \
        --seeds 1 3 --pairs 40 --out BENCH_newton_precond.json --label "..."

Starts one long-lived worker per checkout (this script with ``--worker``),
each importing ``jflow`` from its checkout's ``src/`` and the workloads from
its ``perfbench/``, with the BLAS/OpenMP pools pinned to one thread as
``perfbench/run.py`` pins them.  Each worker prepares and warms up the
inputs of every seed once and runs one unit untimed (a checkout whose
first solve imports a module pays for it there), then runs units on
request.  The two sides run one unit each per pair, one at a time, the
first side alternating from pair to pair, so slow drift of the host hits
both sides alike; whole benchmark runs repeated minutes apart drift far
more.

Reported: per seed and overall, each side's median unit time and
quartiles, the median and quartiles of the per-pair ratio change/parent,
and the pairs the change won.  With ``--layers R`` the workers also time,
in R alternating rounds, per-call costs on ``nonsplit_perturbed`` at
N = 8 / 12 / 16 (seed-1 start, eps 0.1): ``SpectralOps.divide`` of white
noise, the full kernel's ``rhs_only`` of the start, and the ``solve_ma``
Newton oracle.  ``--out`` writes the result as JSON: ``about``, then
``workloads.<name>`` with ``end_to_end.unit_s`` (the quantity whose median
``time_to_solution_s`` is) and ``per_layer`` rows; an existing file keeps
its other workloads.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYER_SIZES = (8, 12, 16)


# -- worker ---------------------------------------------------------------------


def _best_us(fn, budget_s=0.2, repeat=5):
    """Best-of-``repeat`` per-call microseconds, each repeat ~budget_s / repeat."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-6)
    number = max(1, int(budget_s / repeat / once))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best * 1e6


def _layer_probes():
    """name -> zero-argument callable, per lattice size."""
    import numpy as np

    from jflow import flow, presets
    from jflow.torus import SpectralOps
    from workloads import newton_oracle

    probes = {}
    for n in LAYER_SIZES:
        pb = presets.build_preset("nonsplit_perturbed", n=n)
        phi0 = presets.random_bandlimited_potential(pb, np.random.default_rng(1))
        state = flow.make_state(flow.FlowConfig(eps=0.1), pb.chi0, pb.omega0,
                                pb.omega_hat, phi0=phi0)
        kernel = state.kernel
        raw = np.broadcast_to(state.phi.values, kernel.shape)
        ops = SpectralOps.of(pb.grid)
        noise = np.random.default_rng(0).normal(size=pb.grid.shape)
        probes[f"divide[N={n}]"] = lambda ops=ops, v=noise: ops.divide(v)
        probes[f"rhs_only[N={n}]"] = lambda k=kernel, v=raw: k.rhs_only(v)
        probes[f"solve_ma[N={n}]"] = lambda pb=pb: newton_oracle(pb, 0.1)
    return probes


def worker(root, workload):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    from workloads import WORKLOADS

    wl, inputs, probes = WORKLOADS[workload], {}, None
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "unit":
            seed = req["seed"]
            if seed not in inputs:
                inputs[seed] = wl.prepare(seed)
                wl.warm_up(inputs[seed])
                wl.run_unit(inputs[seed])  # first-unit imports out of the timing
            t0 = time.perf_counter()
            fails = wl.run_unit(inputs[seed])
            reply = {"s": time.perf_counter() - t0, "fails": fails}
        elif req["op"] == "layers":
            probes = probes or _layer_probes()
            reply = {name: _best_us(fn) for name, fn in probes.items()}
        else:
            import numpy
            import scipy

            reply = {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "nproc": os.cpu_count(),
                     "machine": platform.machine()}
        print(json.dumps(reply), flush=True)


# -- comparison -----------------------------------------------------------------


class Side:
    def __init__(self, root, workload):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
             "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root)

    def ask(self, **req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(parent, change):
    ratios = [c / p for p, c in zip(parent, change)]
    r = summary(ratios)
    return {"parent": summary(parent), "change": summary(change),
            "pair_ratio": {k: r[k] for k in ("median", "q1", "q3")},
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(ratios)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--workload", default="full_flow")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=20, help="pairs per seed")
    ap.add_argument("--layers", type=int, default=0, help="rounds of per-layer timing")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="", help="what the change is, for the JSON")
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload)
    if args.parent is None:
        ap.error("--parent is required")

    sides = {"parent": Side(args.parent.resolve(), args.workload),
             "change": Side(args.change.resolve(), args.workload)}
    try:
        env = sides["change"].ask(op="env")
        times = {name: {} for name in sides}
        fails = {name: 0 for name in sides}
        for seed in args.seeds:
            for name in sides:
                times[name][seed] = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in order:
                    r = sides[name].ask(op="unit", seed=seed)
                    times[name][seed].append(r["s"])
                    fails[name] += bool(r["fails"])
            res = compare(times["parent"][seed], times["change"][seed])
            print(f"seed {seed}: pair ratio {res['pair_ratio']['median']:.3f} "
                  f"[{res['pair_ratio']['q1']:.3f}, {res['pair_ratio']['q3']:.3f}], "
                  f"change lower in {res['change_lower_in_pairs']} of {res['pairs']}; "
                  f"median {res['parent']['median']:.4f} -> {res['change']['median']:.4f} s")
        layers = {name: {} for name in sides}
        for i in range(args.layers):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                for k, us in sides[name].ask(op="layers").items():
                    layers[name].setdefault(k, []).append(us)
    finally:
        for side in sides.values():
            side.close()

    flat = {name: [t for seed in args.seeds for t in times[name][seed]] for name in sides}
    per_layer = {k: {"parent_us": statistics.median(layers["parent"][k]),
                     "change_us": statistics.median(layers["change"][k])}
                 for k in layers["change"]}
    for k, row in per_layer.items():
        row["ratio"] = row["change_us"] / row["parent_us"]
        print(f"{k}: {row['parent_us']:.1f} -> {row['change_us']:.1f} us ({row['ratio']:.3f})")
    result = {
        "about": {
            "change": args.label,
            "machine": (f"{env['machine']}, nproc {env['nproc']}, Python {env['python']}, "
                        f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS/OpenMP pinned "
                        "to 1 thread"),
        },
        "workloads": {args.workload: {
            "method": {
                "end_to_end": (f"python3 tools/ab_units.py --workload {args.workload} "
                               f"--seeds {' '.join(map(str, args.seeds))} --pairs "
                               f"{args.pairs}: one long-lived worker per checkout, one unit "
                               "per side per pair, the first side alternating; unit_s is "
                               "the wall time of one unit (time_to_solution_s is the median "
                               "of these)"),
                "per_layer": (f"{args.layers} alternating rounds of best-of-5 per-call "
                              "microseconds in each worker, median over rounds"),
            },
            "seeds": args.seeds,
            "end_to_end": {"unit_s": compare(flat["parent"], flat["change"])},
            "per_seed": {str(s): compare(times["parent"][s], times["change"][s])
                         for s in args.seeds},
            "per_layer": per_layer,
            "units_failed_parent": fails["parent"],
            "units_failed_change": fails["change"],
        }},
    }
    if args.out:  # an existing file keeps its other workloads
        if args.out.exists():
            kept = json.loads(args.out.read_text())
            kept["workloads"].update(result["workloads"])
            result["workloads"] = kept["workloads"]
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
