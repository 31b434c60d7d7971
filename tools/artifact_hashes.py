"""Fingerprint the CLI's outputs from one checkout, for byte-identity checks.

    python3 tools/artifact_hashes.py ../parent > parent.json
    python3 tools/artifact_hashes.py . > change.json
    cmp parent.json change.json

Runs a fixed set of small ``jflow`` command lines (``CONFIGS``: ``run`` on
the split and 4-D backends, under RK4, at eps = 0 on a divisor preset with
offsets, at eps = 0 on a lattice that samples the divisor (a config error,
nothing written), one that the maximum-principle monitor fails, two that
the start refuses (the cone condition, a non-positive phi0), one with
offsets and explicit ``flow``, ``ma`` and ``q`` keys, one from explicit
``phi0.modes`` on the 4-D backend and one from a random split start;
``family``, and ``family`` with no positive eps (a config error);
``solve-ma`` on both backends, and on the 4-D one at N=12 as well
(``solve_ma_full_n12``); ``functionals`` on a split run's final
potential, on the final potential of a short 4-D ``nonsplit_perturbed`` run
from a random start (a non-zero 4-D potential read back from its snapshot)
and, with no prior run, on that preset's zero potential (its divisor fit on
the 4-D lattice);
``check-classes``)
with the ``jflow`` package of ``<checkout>/src``, each in a fresh output
directory, and prints JSON with every command's exit status and the sha256
of every file it wrote.  From ``run.json`` the wall-clock stamps
``started`` and ``finished`` and the ``config_hash`` (whose config includes
the output path) are dropped before hashing.  A refactor that keeps every
output byte for byte gives the same JSON as its parent.  BLAS/OpenMP pools
are pinned to one thread, as ``perfbench/run.py`` pins them.  Takes a few
seconds on one core.

``solve_ma_full_n12`` fingerprints Newton where GMRES's vectors (12^4
entries) are long enough for a BLAS to split a dot product over threads.
It was added with ``krylov._dot``, which made those bits independent of
the thread count and changed them once; the other 19 configs kept every
byte through that change.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNSTABLE_RECORD_KEYS = ("started", "finished", "config_hash")

# name -> the (command, config) pairs run in order in one output directory
CONFIGS = {
    "run_split": [("run", "preset=degenerate_split, N=8, eps=[0.1], offsets=[0.01, 0.01], "
                          "flow.dt_safety=0.8, flow.stop_tolerance=1e-8")],
    "run_full": [("run", "preset=nonsplit_perturbed, N=8, eps=[0.1], "
                         "offsets=[0.01, 0.01, 0.01, 0.01], seed=1, phi0.random=true, "
                         "flow.dt_safety=0.8, flow.stop_tolerance=1e-7, "
                         "flow.snapshot_stride=100")],
    "run_rk4": [("run", "preset=smooth_split, N=8, eps=[0], flow.integrator=rk4, "
                        "flow.max_time=0.05")],
    "run_eps0_divisor": [("run", "preset=degenerate_split, N=8, eps=[0], "
                                 "offsets=[0.01, 0.01], flow.max_time=0.2")],
    "run_eps0_on_divisor": [("run", "preset=degenerate_split, N=8, eps=[0]")],
    "run_max_principle_fails": [("run", "preset=nonsplit_perturbed, N=8, seed=3, "
                                        "phi0.random=true, eps=[0.1], flow.max_time=0.3")],
    "run_cone_refused": [("run", "n=4, eps=[0.01], chi0.class=[1,1,0,0], "
                                 "omega0.class=[1,1,1.2,0], omegahat.class=[1,1,0,0]")],
    "run_start_refused": [("run", "preset=identity, N=8, eps=[0.1], "
                                  "phi0.modes=[[0.2, 1, 0, 0, 0, 0]]")],
    "run_sections": [("run", "preset=degenerate_split, N=8, eps=[0.1], offsets=[0.01, 0.01], "
                             "flow.dt_safety=0.8, flow.stop_tolerance=1e-8, "
                             "flow.snapshot_stride=25, ma.newton_tol=1e-9, q.a=4, q.delta=0.5")],
    "run_modes_full": [("run", "preset=nonsplit_perturbed, N=8, eps=[0.1], "
                               "offsets=[0.01, 0.01, 0.01, 0.01], flow.max_time=0.05, "
                               "phi0.modes=[[0.002, 1, 0, 0, 0, 0.25]]")],
    "run_random_split": [("run", "preset=degenerate_split, N=8, eps=[0.1], "
                                 "offsets=[0.01, 0.01], seed=1, phi0.random=true, "
                                 "flow.dt_safety=0.8, flow.stop_tolerance=1e-8")],
    "family_eps0": [("family", "preset=degenerate_split, N=8, eps=[0]")],
    "family": [("family", "preset=degenerate_split, N=8, eps=[0.2, 0.1, 0.05], "
                          "offsets=[0.01, 0.01], flow.dt_safety=0.8, "
                          "flow.stop_tolerance=1e-8")],
    "solve_ma_full": [("solve-ma", "preset=nonsplit_perturbed, N=8, eps=[0.1]")],
    "solve_ma_full_n12": [("solve-ma", "preset=nonsplit_perturbed, N=12, eps=[0.1]")],
    "solve_ma_split": [("solve-ma", "preset=degenerate_split, N=8, eps=[0.2, 0.1]")],
    "functionals": [(command, "preset=degenerate_split, N=8, eps=[0.1], "
                              "offsets=[0.01, 0.01], flow.dt_safety=0.8, "
                              "flow.stop_tolerance=1e-8")
                    for command in ("run", "functionals")],
    "functionals_full": [(command, "preset=nonsplit_perturbed, N=8, eps=[0.1], "
                                   "offsets=[0.01, 0.01, 0.01, 0.01], seed=1, "
                                   "phi0.random=true, flow.max_time=0.05")
                         for command in ("run", "functionals")],
    "functionals_zero": [("functionals", "preset=nonsplit_perturbed, N=8, eps=[0.1], "
                                         "offsets=[0.01, 0.01, 0.01, 0.01]")],
    "check_classes": [("check-classes", "preset=degenerate_split, N=8, "
                                        "eps=[0.2, 0.1, 0]")],
}


def _digest(path):
    data = path.read_bytes()
    if path.name == "run.json":
        record = json.loads(data)
        for key in UNSTABLE_RECORD_KEYS:
            record.pop(key, None)
        data = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def fingerprint(checkout, workdir):
    """{config name: {"exit": [status per command], "artifacts": {path: sha256}}}."""
    src = Path(checkout).resolve() / "src"
    if not (src / "jflow" / "__init__.py").is_file():
        sys.exit(f"artifact_hashes: no jflow sources under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    result = {}
    for name, commands in CONFIGS.items():
        out = Path(workdir) / name
        out.mkdir()
        codes = []
        for command, text in commands:
            config = out.parent / f"{name}.cfg"
            config.write_text(text + "\n")
            proc = subprocess.run(
                [sys.executable, "-m", "jflow.cli", "--command", command,
                 "--config", str(config), "--out", str(out)],
                env=env, cwd=workdir, capture_output=True, text=True,
            )
            codes.append(proc.returncode)
        files = sorted(p for p in out.rglob("*") if p.is_file())
        result[name] = {
            "exit": codes,
            "artifacts": {str(p.relative_to(out)): _digest(p) for p in files},
        }
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="root of the checkout whose src/ is run")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as workdir:
        result = fingerprint(args.checkout, workdir)
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
