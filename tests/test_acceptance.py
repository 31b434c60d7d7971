"""Acceptance suite: every exit criterion as one test printing a verdict line.

The heavy trajectories are computed once in module-scoped fixtures and
shared between criteria; each criterion prints

    [ACCEPTANCE n] name: PASS/FAIL (details)

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines live.
"""

import time

import numpy as np
import pytest

from jflow.cohomology import c_constant, epsilon_form
from jflow.diagnostics import (
    compare_up_to_constant,
    j_monotone_check,
    q_monitor,
    singular_profile_fit,
    trace_bound_check,
    uniformity_report,
)
from jflow.flow import FlowConfig, epsilon_family, evolve, max_principle_monitor
from jflow.functionals import J_closed
from jflow.ma import MASolverConfig, build_alpha, solve_ma
from jflow.presets import (
    build_preset,
    degenerate_profile,
    random_bandlimited_potential,
    smooth_profile,
)
from jflow.split import SplitPotential
from jflow.torus import ScalarField
from oracles import (J_gradient_check, J_path, integrate, j_gradient_density, nonsplit_limit,
                     split_critical)

PI2 = np.pi ** 2


def report(num, name, checks):
    """checks: list of (ok, detail); prints one line and asserts all."""
    ok = all(c[0] for c in checks)
    detail = "; ".join(c[1] for c in checks)
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    failed = [c[1] for c in checks if not c[0]]
    assert ok, f"criterion {num} ({name}) failed: {failed}"


# --------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def smooth_run():
    # stride 25 keeps the snapshot spacing small enough that the trapezoid
    # dissipation quadrature of criterion 3 sits well inside 1e-3 relative;
    # that quadrature and the 1e-6 I drift need RK4's fourth order (RKC's
    # second order reads 7.6 and 4.2e-6 here)
    pb = build_preset("smooth_split", n=32)
    cfg = FlowConfig(eps=0.0, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0,
                     snapshot_stride=25, integrator="rk4")
    t0 = time.perf_counter()
    traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat)
    return pb, traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def family_run():
    pb = build_preset("degenerate_split", n=16)
    cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0,
                     snapshot_stride=50)
    t0 = time.perf_counter()
    fam = epsilon_family(cfg, [0.2, 0.1, 0.05], pb.chi0, pb.omega0, pb.omega_hat,
                         divisor=pb.divisor)
    return pb, fam, time.perf_counter() - t0


@pytest.fixture(scope="module")
def second_init_run():
    # second initialization along cos(2 pi y1); amplitude 0.05 keeps
    # chi_phi positive (margin 1 - 0.05 pi^2 ~ 0.51)
    pb = build_preset("degenerate_split", n=16)
    x, y = pb.grid.coords()
    phi0 = SplitPotential(pb.grid, np.stack((
        (0.05 * np.cos(2 * np.pi * y)) * np.ones(pb.grid.shape),
        np.zeros(pb.grid.shape),
    )))
    cfg = FlowConfig(eps=0.05, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0,
                     snapshot_stride=50)
    traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0,
                  divisor=pb.divisor)
    return pb, traj


@pytest.fixture(scope="module")
def nonsplit_run():
    pb = build_preset("nonsplit_perturbed", n=12)
    cfg = FlowConfig(eps=0.1, dt_safety=0.8, stop_tolerance=1e-7, max_time=6.0,
                     snapshot_stride=100)
    t0 = time.perf_counter()
    traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)
    return pb, traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_init_runs():
    pb = build_preset("smooth_split", n=16)
    cfg = FlowConfig(eps=0.0, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0,
                     snapshot_stride=100)
    rng = np.random.default_rng(2024)
    runs = []
    for _ in range(5):
        phi0 = random_bandlimited_potential(pb, rng)
        runs.append(evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0))
    return pb, runs


def _all_trajectories(smooth_run, family_run, second_init_run, nonsplit_run,
                      random_init_runs):
    trajs = [("smooth", smooth_run[1]), ("nonsplit", nonsplit_run[1]),
             ("second_init", second_init_run[1])]
    trajs += [(f"family eps={m.eps:g}", m.trajectory)
              for m in family_run[1].members if m.ok]
    trajs += [(f"random {i}", t) for i, t in enumerate(random_init_runs[1])]
    return trajs


# --------------------------------------------------------------------------
# criteria


def test_criterion_1_stationarity():
    pb = build_preset("identity", n=8)
    t0 = time.perf_counter()
    traj = evolve(
        FlowConfig(eps=0.0, stop_tolerance=1e-13,
                   max_time=0.01, snapshot_stride=1),
        pb.chi0, pb.omega0, pb.omega_hat,
    )
    elapsed = time.perf_counter() - t0
    worst_resid = max(r.sup_phidot for r in traj.rows)
    j_drift = max(abs(r.j - traj.rows[0].j) for r in traj.rows)
    i_drift = max(abs(r.i - traj.rows[0].i) for r in traj.rows)
    report(1, "stationarity", [
        (worst_resid < 1e-12, f"residual {worst_resid:.1e} < 1e-12"),
        (j_drift < 1e-12, f"J drift {j_drift:.1e}"),
        (i_drift < 1e-12, f"I drift {i_drift:.1e}"),
        (elapsed < 1.0, f"runtime {elapsed:.2f}s < 1s"),
    ])


def test_criterion_2_gradient_structure():
    pb = build_preset("identity", n=12)
    grid = pb.grid
    rng = np.random.default_rng(42)
    checks = []
    worst_pair = 0.0
    for _ in range(3):
        phi = random_bandlimited_potential(pb, rng)
        gap = abs(J_closed(phi, pb.chi0, pb.omega0, 2.0)
                  - J_path(phi, pb.chi0, pb.omega0, 2.0))
        worst_pair = max(worst_pair, gap)
    checks.append((worst_pair < 1e-8, f"J_path vs J_closed {worst_pair:.1e} < 1e-8"))

    phi = random_bandlimited_potential(pb, rng)
    # random direction with a guaranteed-overlap component along phi, so
    # the relative error compares against a genuinely nonzero derivative
    v_rand = random_bandlimited_potential(pb, rng)
    v = ScalarField(
        grid,
        0.05 * (v_rand.values / max(v_rand.sup(), 1e-30)
                + phi.values / max(phi.sup(), 1e-30)),
    )
    rel = J_gradient_check(phi, v, pb.chi0, pb.omega0, 2.0)
    checks.append((rel < 1e-6, f"FD gradient rel err {rel:.1e} < 1e-6"))

    # constant direction: the cohomological identity 2 X.W - c0 X^2 = 0
    const_pairing = abs(integrate(j_gradient_density(phi, pb.chi0, pb.omega0, 2.0).values))
    checks.append((const_pairing < 1e-12,
                   f"constant-direction derivative {const_pairing:.1e} < 1e-12"))
    report(2, "gradient structure", checks)


def test_criterion_3_monotonicity_conservation(smooth_run):
    pb, traj, elapsed = smooth_run
    rows = traj.rows
    checks = []

    # Delta J between snapshots against the dissipation integral (trapezoid
    # of -int phidot^2 chi^2 at the endpoints).  The relative comparison
    # needs an absolute floor: differencing two O(|J|) doubles cannot
    # resolve increments below ~1e-16 |J|, so intervals with smaller dJ
    # carry pure roundoff, not information about the identity.
    floor = 1e-9 * max(abs(rows[0].j - rows[-1].j), 1e-9)
    worst = 0.0
    resolved = 0
    for a, b in zip(rows, rows[1:]):
        dj = b.j - a.j
        quad = 0.5 * (a.j_rate + b.j_rate) * (b.t - a.t)
        if abs(dj) > floor:
            worst = max(worst, abs(dj - quad) / abs(dj))
            resolved += 1
    checks.append((worst < 1e-3 and resolved > 50,
                   f"dJ vs dissipation rel err {worst:.1e} < 1e-3 "
                   f"({resolved} intervals)"))

    i_scale = max(1.0, abs(rows[0].i))
    i_drift = max(abs(r.i - rows[0].i) for r in rows) / i_scale
    checks.append((i_drift < 1e-6, f"I drift {i_drift:.1e} < 1e-6"))

    sup_ok = all(b.max_phidot <= a.max_phidot + 1e-8 for a, b in zip(rows, rows[1:]))
    inf_ok = all(b.min_phidot >= a.min_phidot - 1e-8 for a, b in zip(rows, rows[1:]))
    checks.append((sup_ok, "sup phi_dot nonincreasing"))
    checks.append((inf_ok, "inf phi_dot nondecreasing"))
    checks.append((elapsed < 60.0, f"runtime {elapsed:.0f}s < 60s"))
    report(3, "monotonicity and conservation", checks)


def test_criterion_4_critical_point_oracles(smooth_run):
    pb, traj, run_seconds = smooth_run
    t0 = time.perf_counter()
    c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.0))
    sol = solve_ma(build_alpha(pb.chi0, pb.omega0, c), c, pb.omega0,
                   MASolverConfig())
    f = smooth_profile(pb.grid)
    _, _, p1, p2 = split_critical(f, np.ones(pb.grid.shape), fgrid=pb.grid)
    oracle = SplitPotential(pb.grid, np.stack((p1, p2))).assemble()
    flow_lim = traj.final_potential()
    psi = sol.psi.assemble()
    elapsed = run_seconds + (time.perf_counter() - t0)

    d1 = compare_up_to_constant(flow_lim, psi)
    d2 = compare_up_to_constant(flow_lim, oracle)
    d3 = compare_up_to_constant(psi, oracle)
    report(4, "critical-point oracle agreement", [
        (d1 <= 1e-5, f"flow vs MA {d1:.1e} <= 1e-5"),
        (d2 <= 1e-5, f"flow vs closed form {d2:.1e} <= 1e-5"),
        (d3 <= 1e-5, f"MA vs closed form {d3:.1e} <= 1e-5"),
        (sol.residual() <= 1e-10, f"MA residual {sol.residual():.1e} <= 1e-10"),
        (elapsed < 120.0, f"runtime {elapsed:.0f}s < 120s"),
    ])


def test_criterion_5_degenerate_family(family_run):
    pb, fam, elapsed = family_run
    checks = [(fam.ok, f"all members ran ({sorted(m.eps for m in fam.members if m.ok)})")]
    grid = pb.grid
    x, y = grid.coords()
    base = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / (2 * PI2)
    base = (base * np.ones(grid.shape))[:, :, None, None]  # z1-function
    for m in fam.members:
        eps = m.eps
        lim = m.trajectory.final_potential().mean_normalized().values
        exact_gap = (eps / (1 + eps)) / PI2
        gap = float(np.abs(lim - np.broadcast_to(base, lim.shape)).max())
        rel = abs(gap - exact_gap) / exact_gap
        checks.append(
            (rel <= 0.10, f"eps={eps:g}: sup|phi-phi*0| {gap:.4e} vs {exact_gap:.4e} "
                          f"(rel {rel:.1%} <= 10%)")
        )
    sup_phi = max((r.sup_phi for m in fam.members if m.ok for r in m.rows), default=np.nan)
    checks.append((sup_phi <= 1 / PI2 + 0.01,
                   f"max sup|phi| {sup_phi:.4f} <= {1/PI2 + 0.01:.4f}"))
    worst_pd0 = max(m.trajectory.sup_phidot0 for m in fam.members)
    checks.append((worst_pd0 <= 1.05, f"sup|phi_dot(0)| {worst_pd0:.3f} <= 1.05"))
    est = uniformity_report(fam, budget_phi=1 / PI2 + 0.01, budget_phidot=1.05)
    checks.append((est.ok, "uniformity report ok"))
    checks.append((elapsed < 300.0, f"runtime {elapsed:.0f}s < 300s"))
    report(5, "degenerate epsilon-family", checks)


def test_criterion_6_trace_bound(smooth_run, family_run, second_init_run,
                                 nonsplit_run, random_init_runs):
    checks = []
    for name, traj in _all_trajectories(smooth_run, family_run, second_init_run,
                                        nonsplit_run, random_init_runs):
        verdict = trace_bound_check(traj)
        mp = max_principle_monitor(traj)
        checks.append((verdict.ok and mp.ok, name))
    report(6, "trace bound on every run", checks)


def test_criterion_7_uniqueness(family_run, second_init_run):
    pb, fam, _ = family_run
    base = next(m for m in fam.members if m.eps == 0.05).trajectory
    _, other = second_init_run
    a = base.final_potential()
    b = other.final_potential()
    mask = pb.to_full().divisor.s2_proxy(a.grid).values >= 0.1
    gap = compare_up_to_constant(a, b, mask)
    report(7, "uniqueness up to constant", [
        (gap <= 1e-4, f"off-divisor gap {gap:.1e} <= 1e-4"),
    ])


def test_criterion_8_full_4d_backend(nonsplit_run):
    pb, traj, run_seconds = nonsplit_run
    t0 = time.perf_counter()
    eps = 0.1
    w = epsilon_form(pb.omega0, eps, pb.omega_hat)
    c = c_constant(pb.chi0_class(), pb.omega_eps_class(eps))
    sol = solve_ma(build_alpha(pb.chi0, w, c), c, w, MASolverConfig())
    elapsed = run_seconds + (time.perf_counter() - t0)
    gap = compare_up_to_constant(traj.final_potential(), sol.psi)
    oracle = nonsplit_limit(pb, eps)
    d_flow = compare_up_to_constant(traj.final_potential(), oracle)
    d_newton = compare_up_to_constant(sol.psi, oracle)
    rs = [r for r in sol.residuals if r > 1e-14]
    quad_tail = len(rs) >= 3 and all(b <= 20.0 * a * a for a, b in zip(rs[-3:], rs[-2:]))
    rows = traj.rows
    j_monotone = j_monotone_check(traj).ok
    i_drift = max(abs(r.i - rows[0].i) for r in rows) / max(1.0, abs(rows[0].i))
    report(8, "full 4-D backend", [
        (traj.final_residual <= 1e-7,
         f"flow residual {traj.final_residual:.1e} <= 1e-7"),
        (gap <= 1e-4, f"flow vs Newton {gap:.1e} <= 1e-4"),
        (d_flow <= 1e-4, f"flow vs closed form {d_flow:.1e} <= 1e-4"),
        (d_newton <= 1e-12, f"Newton vs closed form {d_newton:.1e} <= 1e-12"),
        (quad_tail, "quadratic Newton tail"),
        (j_monotone, "J monotone"),
        (i_drift <= 1e-5, f"I drift {i_drift:.1e} <= 1e-5"),
        (elapsed < 900.0, f"runtime {elapsed:.0f}s < 900s"),
    ])


def test_criterion_9_monitors(family_run, random_init_runs):
    pb, fam, _ = family_run
    checks = []

    s2 = pb.divisor.s2_proxy(pb.grid).values
    u_syn = np.where(s2 > 0, s2, 1.0) ** (-0.3)
    gamma, _ = singular_profile_fit(u_syn, s2)
    checks.append((abs(gamma - 0.3) <= 0.02,
                   f"synthetic exponent {gamma:.3f} within 0.3 +/- 0.02"))
    u_flat = degenerate_profile(pb.grid) + 1.0
    gamma0, _ = singular_profile_fit(u_flat, s2)
    checks.append((gamma0 <= 0.05, f"bounded-profile exponent {gamma0:.3f} ~ 0"))

    for m in fam.members:
        series, verdict = q_monitor(m.trajectory, pb.divisor)
        q0, qmax = series[0][1], max(q for _, q in series)
        checks.append((verdict.ok,
                       f"eps={m.eps:g}: q_max {qmax:.3f} <= q(0)+1 = {q0 + 1:.3f}"))

    _, runs = random_init_runs
    j_finals = [t.rows[-1].j for t in runs]
    spread = max(j_finals) - min(j_finals)
    checks.append((spread <= 1e-4,
                   f"J(limit) spread over 5 inits {spread:.1e} <= 1e-4"))
    report(9, "estimate monitors", checks)
