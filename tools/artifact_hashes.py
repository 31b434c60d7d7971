"""Fingerprint the CLI's outputs from one checkout, for byte-identity checks.

    python3 tools/artifact_hashes.py ../parent > parent.json
    python3 tools/artifact_hashes.py . > change.json
    cmp parent.json change.json

Runs the command lines of ``CONFIGS`` with the ``jflow`` package of
``<checkout>/src``, each config's commands in order in a fresh output
directory, and prints JSON with every command's exit status and the
sha256 of every file it wrote.  From ``run.json`` the wall-clock stamps
``started`` and ``finished`` and the ``config_hash`` (whose config
includes the output path) are dropped before hashing.  A refactor that
keeps every output byte for byte gives the same JSON as its parent.  The
configs check:

* ``run`` on the split and 4-D backends, under RK4, with explicit
  ``flow`` and ``ma`` keys (``run_sections``), from explicit
  ``phi0.modes`` on the 4-D backend and from a random split start;
* starts refused: the cone condition, a non-positive phi0, and every
  member of a family (``family_all_refused``);
* eps = 0: on a divisor preset off the divisor, on a lattice that
  samples it (``run_eps0_on_divisor``, a config error, nothing written),
  and the degenerate 4-D flow 0.3 of the spacing off it
  (``run_eps0_full``, which exits 1 on the N=8 scheme's rise of sup
  phi_dot);
* the maximum principle decided on a failing random start, on a run of
  two rows (``run_two_rows``, exit 1) and on a stationary start of one
  row (``run_stationary``, which passes);
* ``family``, and its ladders with no positive eps or a final 0 (config
  errors);
* ``solve-ma`` on the 4-D lattice at N=8, at N=12 (``solve_ma_full_n12``:
  GMRES vectors long enough for a BLAS to split a dot product over
  threads) and down to eps = 0 on ``run_eps0_full``'s lattice; on the
  factor lattice at N=8, and at N=16 with offsets as a ladder down to eps
  = 0.01, at eps = 0.01 alone and at eps = 0.  No config runs ``solve-ma``
  at N=64, where the 4-D psi it writes is 134 MB;
* ``functionals`` on a split run's final potential, on a random 4-D
  run's, on ``nonsplit_perturbed``'s zero potential (its divisor fit on
  the 4-D lattice) and on ``degenerate_split``'s at N=4, whose fit band
  holds one value of s2 (``functionals_flat_band``: a ``gamma_fit_error``);
* ``check-classes``.

It also fingerprints, as ``perfbench/<workload>/seed<k>``, the flow
outputs of the two benchmark workloads of ``<checkout>/perfbench/
workloads.py`` on seeds 1 and 3: one unit (``run_unit``) runs in a
subprocess with ``flow.evolve``, ``flow.epsilon_family`` and
``ma.solve_ma`` wrapped to keep what they return.  Per flow (one per
member of a family) it records the steps, RHS evaluations, rejections and
radius evaluations as numbers, and the sha256 of the history rows and of
the final potential; for ``full_flow`` also the sha256 of the Newton
oracle's psi and its iteration count; and the unit's failed gates.  The
tool only reads ``perfbench/``.

BLAS/OpenMP pools are pinned to one thread, as ``perfbench/run.py`` pins
them.  Configs and workload units run two at a time (``JOBS``), so the
JSON does not depend on which ends first; the whole takes a few seconds
on two cores.  A command whose stderr holds a Python traceback stops the
tool with a non-zero exit that names the config and the command: a crash
is not an exit status to record.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNSTABLE_RECORD_KEYS = ("started", "finished", "config_hash")
WORKLOAD_SEEDS = (1, 3)
JOBS = 2  # subprocesses run at once

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
    "run_two_rows": [("run", "preset=nonsplit_perturbed, N=8, eps=[0.1], "
                             "offsets=[0.01, 0.01, 0.01, 0.01], flow.max_time=1e-4, "
                             "flow.snapshot_stride=100000")],
    "run_stationary": [("run", "preset=identity, N=8, eps=[0]")],
    "run_eps0_full": [("run", "preset=nonsplit_perturbed, N=8, eps=[0], "
                              "offsets=[0.0375, 0.0375, 0, 0], flow.dt_safety=0.8, "
                              "flow.stop_tolerance=1e-7")],
    "run_cone_refused": [("run", "n=4, eps=[0.01], chi0.class=[1,1,0,0], "
                                 "omega0.class=[1,1,1.2,0], omegahat.class=[1,1,0,0]")],
    "run_start_refused": [("run", "preset=identity, N=8, eps=[0.1], "
                                  "phi0.modes=[[0.2, 1, 0, 0, 0, 0]]")],
    "run_sections": [("run", "preset=degenerate_split, N=8, eps=[0.1], offsets=[0.01, 0.01], "
                             "flow.dt_safety=0.8, flow.stop_tolerance=1e-8, "
                             "flow.snapshot_stride=25, ma.newton_tol=1e-9")],
    "run_modes_full": [("run", "preset=nonsplit_perturbed, N=8, eps=[0.1], "
                               "offsets=[0.01, 0.01, 0.01, 0.01], flow.max_time=0.05, "
                               "phi0.modes=[[0.002, 1, 0, 0, 0, 0.25]]")],
    "run_random_split": [("run", "preset=degenerate_split, N=8, eps=[0.1], "
                                 "offsets=[0.01, 0.01], seed=1, phi0.random=true, "
                                 "flow.dt_safety=0.8, flow.stop_tolerance=1e-8")],
    "family_eps0": [("family", "preset=degenerate_split, N=8, eps=[0]")],
    "family_ladder_with_zero": [("family", "preset=degenerate_split, N=8, "
                                           "offsets=[0.01, 0.01], eps=[0.2, 0.1, 0]")],
    "family_all_refused": [("family", "preset=identity, N=8, eps=[0.2, 0.1], "
                                      "phi0.modes=[[0.2, 1, 0, 0, 0, 0]]")],
    "family": [("family", "preset=degenerate_split, N=8, eps=[0.2, 0.1, 0.05], "
                          "offsets=[0.01, 0.01], flow.dt_safety=0.8, "
                          "flow.stop_tolerance=1e-8")],
    "solve_ma_full": [("solve-ma", "preset=nonsplit_perturbed, N=8, eps=[0.1]")],
    "solve_ma_full_n12": [("solve-ma", "preset=nonsplit_perturbed, N=12, eps=[0.1]")],
    "solve_ma_full_eps0": [("solve-ma", "preset=nonsplit_perturbed, N=8, eps=[0.1, 0], "
                                        "offsets=[0.0375, 0.0375, 0, 0]")],
    "solve_ma_split": [("solve-ma", "preset=degenerate_split, N=8, eps=[0.2, 0.1]")],
    "solve_ma_split_ladder": [("solve-ma", "preset=degenerate_split, N=16, "
                                           "offsets=[0.01, 0.01], "
                                           "eps=[0.2, 0.1, 0.05, 0.02, 0.01]")],
    "solve_ma_split_cold": [("solve-ma", "preset=degenerate_split, N=16, "
                                         "offsets=[0.01, 0.01], eps=[0.01]")],
    "solve_ma_split_eps0": [("solve-ma", "preset=degenerate_split, N=16, "
                                         "offsets=[0.01, 0.01], eps=[0]")],
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
    "functionals_flat_band": [("functionals", "preset=degenerate_split, N=4, "
                                              "offsets=[0.0001, 0.0001]")],
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


def _sha(array):
    """sha256 of ``array``'s float64 bytes, C order."""
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


def _flow_record(traj):
    return {
        "steps": traj.steps, "rhs_evals": traj.rhs_evals, "rejections": traj.rejections,
        "radius_evals": traj.radius_evals, "stop_reason": traj.stop_reason,
        "rows_sha256": _sha([list(vars(row).values()) for row in traj.rows]),
        "final_sha256": _sha(traj.final.values),
    }


def workload_worker(workload, seed):
    """One unit of ``workload`` at ``seed``, with what the library returns
    kept on the way; prints its fingerprint as JSON.  Runs with the
    checkout's ``src`` and ``perfbench`` on ``sys.path``."""
    from jflow import flow, ma
    from workloads import WORKLOADS

    kept = []

    def keep(fn):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept.append((fn.__name__, out))
            return out
        return run

    for module, name in ((flow, "evolve"), (flow, "epsilon_family"), (ma, "solve_ma")):
        setattr(module, name, keep(getattr(module, name)))
    wl = WORKLOADS[workload]
    result = {"fails": wl.run_unit(wl.prepare(seed)), "calls": []}
    for name, out in kept:
        if name == "evolve":
            record = _flow_record(out)
        elif name == "epsilon_family":
            record = {str(m.eps): _flow_record(m.trajectory) if m.ok else repr(m.error)
                      for m in out.members}
        else:
            record = {"newton_iterations": out.newton_iterations,
                      "psi_sha256": _sha(out.psi.values)}
        result["calls"].append({name: record})
    json.dump(result, sys.stdout, sort_keys=True)


def _run_config(name, commands, workdir, env):
    """Run one config's commands in order in its own output directory;
    returns {"exit": [status per command], "artifacts": {path: sha256}}."""
    out = Path(workdir) / name
    out.mkdir()
    config = out.parent / f"{name}.cfg"
    codes = []
    for command, text in commands:
        config.write_text(text + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "jflow.cli", "--command", command,
             "--config", str(config), "--out", str(out)],
            env=env, cwd=workdir, capture_output=True, text=True,
        )
        if "Traceback (most recent call last)" in proc.stderr:
            sys.exit(f"artifact_hashes: {name}: {command} crashed:\n{proc.stderr}")
        codes.append(proc.returncode)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {"exit": codes, "artifacts": {str(p.relative_to(out)): _digest(p) for p in files}}


def _run_workload(workload, seed, workdir, env):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed)],
        env=env, cwd=workdir, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"artifact_hashes: {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def fingerprint(checkout, workdir):
    """{config name: {"exit": [status per command], "artifacts": {path: sha256}}},
    then {"perfbench/<workload>/seed<k>": the workload unit's fingerprint}.
    The first to fail, in this order, stops the tool once the running ones
    end."""
    root = Path(checkout).resolve()
    src = root / "src"
    if not (src / "jflow" / "__init__.py").is_file():
        sys.exit(f"artifact_hashes: no jflow sources under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    bench_env = dict(env, PYTHONPATH=os.pathsep.join((str(src), str(root / "perfbench"))))
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        jobs = {name: pool.submit(_run_config, name, commands, workdir, env)
                for name, commands in CONFIGS.items()}
        jobs.update({f"perfbench/{workload}/seed{seed}":
                     pool.submit(_run_workload, workload, seed, workdir, bench_env)
                     for workload in ("split_family", "full_flow") for seed in WORKLOAD_SEEDS})
        try:
            return {name: job.result() for name, job in jobs.items()}
        finally:
            pool.shutdown(cancel_futures=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", help="root of the checkout whose src/ is run")
    ap.add_argument("--workload", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload:
        return workload_worker(args.workload, args.seed)
    if args.checkout is None:
        ap.error("checkout is required")
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as workdir:
        result = fingerprint(args.checkout, workdir)
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
