"""The pinned workloads of the benchmark.

Each workload turns a seed into inputs (``prepare``), warms the caches a
first solve would fill (``warm_up``), and runs one timed *unit*
(``run_unit``), which returns the list of gates the result failed (empty
when the result is correct).  Gate thresholds come from the acceptance
suite (``tests/test_acceptance.py``).

The library is always reached through module attributes (``flow.evolve``,
never a name imported once), so that the traced run sees the wrappers it
installs on those attributes.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from jflow import cohomology, diagnostics, flow, functionals, ma, presets

PI2 = math.pi ** 2


def closed_form_gap(eps):
    """sup |phi_eps - phi_0| of the degenerate split family: eps/((1+eps) pi^2)."""
    return eps / ((1.0 + eps) * PI2)


def newton_oracle(problem, eps):
    """Critical potential of ``problem`` at ``eps`` by the Newton-Krylov solver."""
    w = cohomology.epsilon_form(problem.omega0, eps, problem.omega_hat)
    c = cohomology.c_constant(problem.chi0_class(), problem.omega_eps_class(eps))
    return ma.solve_ma(ma.build_alpha(problem.chi0, w, c), c, w, ma.MASolverConfig())


def _monitor_failures(traj, label):
    """The gates both flow workloads share: J nonincreasing (criterion 8's
    tolerance), the maximum principle and the trace bound (criterion 6)."""
    fails = []
    js = [r.j for r in traj.rows]
    if not all(b <= a + 1e-12 for a, b in zip(js, js[1:])):
        fails.append(f"{label}: J increased")
    mp = flow.max_principle_monitor(traj)
    if not mp.ok:
        t, what, by = mp.failures[0]
        fails.append(f"{label}: max principle: {what} by {by:.2e} at t={t:.3g} "
                     f"({len(mp.failures)} of {len(traj.rows)} rows)")
    if not diagnostics.trace_bound_check(traj).ok:
        fails.append(f"{label}: trace bound exceeded")
    return fails


@dataclass(frozen=True)
class Inputs:
    problem: object
    phi0: object


@dataclass(frozen=True)
class SplitFamily:
    """``degenerate_split`` on the split backend: an epsilon family from a
    random band-limited start, gated by criteria 5 and 7 and the monitors."""

    name: str = "split_family"
    n: int = 8
    ladder: tuple = (0.2, 0.1, 0.05)
    stop: float = 1e-8
    max_time: float = 4.0
    dt_safety: float = 0.8
    gap_oracle: Callable = closed_form_gap

    def prepare(self, seed):
        pb = presets.build_preset("degenerate_split", n=self.n)
        phi0 = presets.random_bandlimited_potential(pb, np.random.default_rng(seed))
        return Inputs(pb, phi0)

    def _cfg(self, eps):
        return flow.FlowConfig(eps=eps, dt_safety=self.dt_safety,
                               stop_tolerance=self.stop, max_time=self.max_time)

    def warm_up(self, inp):
        # one flow step of the first rung: FFT plans, kernel set-up, lazy imports
        pb = inp.problem
        tiny = replace(self._cfg(self.ladder[0]), max_time=1e-9)
        flow.evolve(tiny, pb.chi0, pb.omega0, pb.omega_hat, phi0=inp.phi0,
                    divisor=pb.divisor)

    def run_unit(self, inp):
        pb = inp.problem
        fam = flow.epsilon_family(self._cfg(self.ladder[0]), list(self.ladder),
                                  pb.chi0, pb.omega0, pb.omega_hat, phi0=inp.phi0,
                                  divisor=pb.divisor, workers=1)
        fails = [f"eps={e}: {err}" for e, err in fam.failures.items()]
        x, y = pb.grid.coords()
        base = ((np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / (2 * PI2))
        base = (base * np.ones(pb.grid.shape))[:, :, None, None]  # phi_0, a z1-function
        for m in fam.members:
            if not m.ok:
                continue
            traj, label = m.trajectory, f"eps={m.eps:g}"
            if traj.stop_reason != "converged":
                fails.append(f"{label}: stopped by {traj.stop_reason}")
            lim = traj.final_potential().mean_normalized().values
            gap = float(np.abs(lim - np.broadcast_to(base, lim.shape)).max())
            exact = self.gap_oracle(m.eps)
            if abs(gap - exact) > 0.10 * exact:
                fails.append(f"{label}: gap {gap:.4e} not within 10% of {exact:.4e}")
            fails += _monitor_failures(traj, label)
        if fam.ok and not diagnostics.uniformity_report(fam).ok:
            fails.append("uniformity trend diverges")
        return fails


@dataclass(frozen=True)
class FullFlow:
    """``nonsplit_perturbed`` on the full 4-D backend: one flow to a critical
    point, gated by criterion 8 against the Newton oracle and the monitors."""

    name: str = "full_flow"
    n: int = 8
    eps: float = 0.1
    stop: float = 1e-7
    max_time: float = 6.0
    dt_safety: float = 0.8
    # the acceptance suite's nonsplit fixture records a row every 100 steps,
    # and criterion 6 applies the max-principle monitor to those rows
    snapshot_stride: int = 100
    oracle: Callable = newton_oracle

    def prepare(self, seed):
        pb = presets.build_preset("nonsplit_perturbed", n=self.n)
        phi0 = presets.random_bandlimited_potential(pb, np.random.default_rng(seed))
        return Inputs(pb, phi0)

    def _cfg(self):
        return flow.FlowConfig(eps=self.eps, dt_safety=self.dt_safety,
                               stop_tolerance=self.stop, max_time=self.max_time,
                               snapshot_stride=self.snapshot_stride)

    def warm_up(self, inp):
        # one flow step: FFT plans, kernel set-up, lazy imports
        pb = inp.problem
        flow.evolve(replace(self._cfg(), max_time=1e-9), pb.chi0, pb.omega0,
                    pb.omega_hat, phi0=inp.phi0, divisor=pb.divisor)

    def run_unit(self, inp):
        pb = inp.problem
        traj = flow.evolve(self._cfg(), pb.chi0, pb.omega0, pb.omega_hat,
                           phi0=inp.phi0, divisor=pb.divisor)
        fails = []
        if traj.final_residual > self.stop:
            fails.append(f"residual {traj.final_residual:.2e} > {self.stop:g}")
        sol = self.oracle(pb, self.eps)
        limit = traj.final_potential()
        gap = diagnostics.compare_up_to_constant(limit, sol.psi)
        if not gap <= 1e-4:
            fails.append(f"flow vs Newton {gap:.2e} > 1e-4")
        rows = traj.rows
        i_drift = max(abs(r.i - rows[0].i) for r in rows) / max(1.0, abs(rows[0].i))
        if not i_drift <= 1e-5:
            fails.append(f"I drift {i_drift:.2e} > 1e-5")
        fails += _monitor_failures(traj, "flow")
        w = cohomology.epsilon_form(pb.omega0, self.eps, pb.omega_hat)
        suite = functionals.evaluate_suite(limit, pb.chi0, w, traj.c_eps)
        # the suite's closed-form J and I must reproduce the stepper's own rows
        scale = max(1.0, abs(rows[-1].j), abs(rows[-1].i))
        if not (abs(suite.j - rows[-1].j) <= 1e-9 * scale
                and abs(suite.i - rows[-1].i) <= 1e-9 * scale):
            fails.append(f"suite J/I {suite.j:.12g}/{suite.i:.12g} disagree with "
                         f"the flow's {rows[-1].j:.12g}/{rows[-1].i:.12g}")
        return fails


WORKLOADS = {w.name: w for w in (SplitFamily(), FullFlow())}
