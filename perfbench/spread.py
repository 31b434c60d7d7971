"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload split_family --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload full_flow --seeds 1 2 --trace 1 --out runs.json

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric its median, its quartiles (``statistics.quantiles(n=4)``), and the
quartile spread as a share of the median next to the metric's bound in
``BENCHMARK.json``.  ``--out`` appends the summary, raw values included, to
a JSON file keyed by workload and trace mode.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=900,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    summary = {}
    for name, m in results[0]["metrics"].items():
        s = summarise([r["metrics"][name]["value"] for r in results])
        summary[name] = dict(s, unit=m["unit"])
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"  bound {bound:g}: {'ok' if s['spread'] < bound / 3 else 'WIDE'}")
        print(f"{name:30s} median {s['median']:.6g} {m['unit']:10s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{verdict}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": seconds,
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "metrics": summary,
        }
        args.out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
