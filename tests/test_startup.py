"""Start-up cost: the package loads numpy only, and so does every solve.

No scipy module is loaded by importing the package, by a full-backend
Newton-Krylov solve (its GMRES is ``jflow.krylov``'s) or by a whole
``jflow --command solve-ma`` run; the transforms are numpy.fft's.  Nothing
imports a process pool: ``epsilon_family`` steps its members as one batched
state in the calling process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY = 'sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))'

PROBE = rf"""
import json, sys
import jflow, jflow.cli

after_import = {SCIPY}
process_pool = "concurrent.futures.process" in sys.modules
from jflow import ma
from jflow.cohomology import c_constant, epsilon_form
from jflow.presets import build_preset

pb = build_preset("nonsplit_perturbed", n=8)
w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)
c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.1))
cfg = ma.MASolverConfig()
sol = ma.solve_ma(ma.build_alpha(pb.chi0, w, c), c, w, cfg)

print(json.dumps({{
    "after_import": after_import,
    "process_pool": process_pool,
    "after_solve": {SCIPY},
    "residual": sol.residual(),
    "newton_tol": cfg.newton_tol,
}}))
"""

CLI_PROBE = rf"""
import json, sys
from jflow.cli import main

code = main(["--command", "solve-ma", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({{"code": code, "after_cli": {SCIPY}}}))
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_and_newton_solve_load_no_scipy():
    got = _run(PROBE)
    assert got["after_import"] == []
    assert not got["process_pool"]
    assert got["after_solve"] == []
    assert got["residual"] <= got["newton_tol"]


def test_solve_ma_command_loads_no_scipy(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("preset=nonsplit_perturbed, N=8\n")
    got = _run(CLI_PROBE, str(config), str(tmp_path / "out"))
    assert got["code"] == 0
    assert got["after_cli"] == []
    assert (tmp_path / "out" / "run.json").exists()
