"""Start-up cost: importing the package loads numpy only.

A flow run needs no scipy module: the transforms are numpy.fft's, and
scipy's GMRES is imported by the first Newton-Krylov direction.  The
worker pool of ``epsilon_family`` is imported only when workers > 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = r"""
import json, sys
import jflow, jflow.cli

before = {
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "process_pool": "concurrent.futures.process" in sys.modules,
}
from jflow import ma
from jflow.cohomology import c_constant, epsilon_form
from jflow.presets import build_preset

pb = build_preset("nonsplit_perturbed", n=8)
w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)
c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.1))
cfg = ma.MASolverConfig()
sol = ma.solve_ma(ma.build_alpha(pb.chi0, w, c), c, w, cfg)

import scipy.sparse.linalg

print(json.dumps({
    **before,
    "gmres_is_scipys": ma.gmres is scipy.sparse.linalg.gmres,
    "linear_operator_is_scipys": ma.LinearOperator is scipy.sparse.linalg.LinearOperator,
    "residual": sol.residual(),
    "newton_tol": cfg.newton_tol,
}))
"""


def test_import_loads_no_scipy_and_gmres_loads_on_first_solve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["scipy"] == []
    assert not got["process_pool"]
    assert got["gmres_is_scipys"]
    assert got["linear_operator_is_scipys"]
    assert got["residual"] <= got["newton_tol"]
