import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jflow.cohomology import (
    ClosedForm,
    CohomologyClass,
    c_constant,
    class_pairing,
    epsilon_form,
)
from jflow import ma
from jflow.errors import ConeConditionError, MAConvergenceError, PositivityError
from jflow.flow import FlowConfig, evolve
from jflow.ma import (
    MASolverConfig,
    build_alpha,
    solve_ma,
    solve_ma_continuation,
)
from jflow.presets import build_preset, degenerate_profile, smooth_profile
from jflow.split import SplitPotential
from jflow.torus import Grid, ScalarField, poisson_solve, positivity_margin
from oracles import j_gradient_density, split_critical


def mode_field(grid, fn):
    x1, y1, x2, y2 = grid.coords()
    return ScalarField(grid, np.broadcast_to(fn(x1, y1, x2, y2), grid.shape).copy())


class TestBuildAlpha:
    def test_identity_case(self):
        pb = build_preset("identity", n=8)
        alpha = build_alpha(pb.chi0, pb.omega0, 2.0)
        assert np.abs(alpha.realized[:2] - 1.0).max() < 1e-14
        assert class_pairing(alpha.cls, alpha.cls) == class_pairing(
            pb.omega0.cls, pb.omega0.cls
        )

    def test_degenerate_split_eps_zero(self):
        pb = build_preset("degenerate_split", n=8)
        alpha = build_alpha(pb.chi0, pb.omega0, 2.0)
        a, b = alpha.realized
        f = degenerate_profile(pb.grid)
        assert np.abs(a - (2.0 - f)).max() < 1e-12
        assert np.abs(b - 1.0).max() < 1e-12

    def test_class_identity_with_eps(self):
        pb = build_preset("degenerate_split", n=8)
        eps = 0.1
        w = epsilon_form(pb.omega0, eps, pb.omega_hat)
        c = c_constant(pb.chi0_class(), pb.omega_eps_class(eps))
        alpha = build_alpha(pb.chi0, w, c)
        a_cls = CohomologyClass.diag(alpha.cls.m11, alpha.cls.m22)
        assert abs(class_pairing(a_cls, a_cls) - 8.0 * (1 + eps) ** 2) < 1e-10

    def test_refuses_a_c_that_breaks_the_class_identity(self):
        # identity classes: c = 2 gives [alpha] = [omega], pairing 8; c = 2.5
        # gives [alpha]^2 = 8 * 1.5^2 = 18, a caller's error, not an assertion
        pb = build_preset("identity", n=8)
        with pytest.raises(ValueError, match=r"c_eps = 2.5 breaks .*"
                                             r"\[alpha\]\^2 = 18.0, \[omega\]\^2 = 8.0"):
            build_alpha(pb.chi0, pb.omega0, 2.5)

    def test_refuses_bad_cone(self):
        grid = Grid(8)
        from jflow.cohomology import ClosedForm

        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        w = ClosedForm.from_class(CohomologyClass(1.0, 1.0, 1.2), grid)
        with pytest.raises(ConeConditionError):
            build_alpha(ident, w, c_constant(ident.cls, w.cls))


class TestPoisson:
    def test_single_mode(self):
        grid = Grid(12)
        src = mode_field(grid, lambda x1, y1, x2, y2: np.sin(2 * np.pi * x1))
        u = poisson_solve(src)
        expected = mode_field(
            grid, lambda x1, y1, x2, y2: -np.sin(2 * np.pi * x1) / np.pi ** 2
        )
        assert np.abs(u.values - expected.values).max() < 1e-14

    def test_zero(self):
        grid = Grid(8)
        assert poisson_solve(ScalarField.zeros(grid)).sup() == 0.0

    def test_two_mode_source(self):
        grid = Grid(12)
        src = mode_field(
            grid,
            lambda x1, y1, x2, y2: -0.5 * np.cos(2 * np.pi * x1)
            - 0.5 * np.cos(2 * np.pi * y1),
        )
        u = poisson_solve(src)
        expected = mode_field(
            grid,
            lambda x1, y1, x2, y2: (np.cos(2 * np.pi * x1) + np.cos(2 * np.pi * y1))
            / (2 * np.pi ** 2),
        )
        assert np.abs(u.values - expected.values).max() < 1e-14

    def test_rejects_nonzero_mean(self):
        grid = Grid(8)
        with pytest.raises(ValueError, match="mean"):
            poisson_solve(ScalarField.zeros(grid).shifted(0.5))


class TestSplitCritical:
    def test_smooth_profile(self):
        pb = build_preset("smooth_split", n=16)
        f = smooth_profile(pb.grid)
        c1, c2, p1, p2 = split_critical(f, np.ones(pb.grid.shape), fgrid=pb.grid)
        assert np.isclose(c1, 1.0) and np.isclose(c2, 1.0)
        x = pb.grid.coords()[0]
        expected = -np.sin(2 * np.pi * x) / (2 * np.pi ** 2) * np.ones(pb.grid.shape)
        assert np.abs(p1 - expected).max() < 1e-13
        assert np.abs(p2).max() == 0.0

    def test_degenerate_profile_and_weak_limit(self):
        pb = build_preset("degenerate_split", n=16)
        f = degenerate_profile(pb.grid)
        c1, c2, p1, p2 = split_critical(f, np.ones(pb.grid.shape), fgrid=pb.grid)
        assert np.isclose(c1, 1.0) and np.isclose(c2, 1.0)
        x, y = pb.grid.coords()
        expected = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / (2 * np.pi ** 2)
        assert np.abs(p1 - expected).max() < 1e-13
        # the critical metric degenerates exactly on the divisor while the
        # potential stays bounded (the weak-solution picture)
        phi = SplitPotential(pb.grid, np.stack((p1, p2))).assemble()
        full = pb.to_full()
        assert j_gradient_density(phi, full.chi0, full.omega0, c1 + c2).sup() < 1e-10
        from jflow.torus import complex_hessian

        chi = full.chi0.realized + complex_hessian(phi)
        assert abs(positivity_margin(chi)) < 1e-12  # touches zero on D
        assert phi.sup() < 0.25

    def test_flat_profiles(self):
        pb = build_preset("smooth_split", n=8)
        ones = np.ones(pb.grid.shape)
        c1, c2, p1, p2 = split_critical(ones, ones, fgrid=pb.grid)
        assert np.abs(p1).max() == 0.0 and np.abs(p2).max() == 0.0

    def test_c_split_matches_c_constant(self):
        pb = build_preset("degenerate_split", n=12)
        f = degenerate_profile(pb.grid)
        c1, c2, _, _ = split_critical(f, np.ones(pb.grid.shape), fgrid=pb.grid)
        c0 = c_constant(pb.chi0_class(), pb.omega_eps_class(0.0))
        assert abs((c1 + c2) - c0) < 1e-12

    def test_rejects_zero_mean(self):
        pb = build_preset("smooth_split", n=8)
        x = pb.grid.coords()[0]
        with pytest.raises(ValueError):
            split_critical(
                np.sin(2 * np.pi * x) * np.ones(pb.grid.shape),
                np.ones(pb.grid.shape),
                fgrid=pb.grid,
            )


class TestCriticalResidual:
    def test_identity_zero(self):
        pb = build_preset("identity", n=8)
        r = j_gradient_density(ScalarField.zeros(pb.grid), pb.chi0, pb.omega0, 2.0).sup()
        assert r == 0.0

    def test_degenerate_at_zero_potential(self):
        pb = build_preset("degenerate_split", n=8).to_full()
        r = j_gradient_density(ScalarField.zeros(pb.grid), pb.chi0, pb.omega0, 2.0).sup()
        # sup |2(f+1) - 4| over f in [0, 2] equals 2
        assert abs(r - 2.0) < 1e-12


class TestSolveMA:
    @pytest.mark.parametrize("name", ["degenerate_split", "nonsplit_perturbed"])
    def test_continuation_refuses_non_finite_eps(self, name):
        # a nan eps ended in a TypeError inside the Newton loop
        pb = build_preset(name, n=8)
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                solve_ma_continuation(pb.chi0, pb.omega0, pb.omega_hat, [0.2, eps])

    def test_nan_start_margin_is_a_positivity_error(self):
        # a nan margin compares false with 0: the solve returned a nan psi
        # after no iteration
        alpha, c, w = _nonsplit_problem()
        psi0 = ScalarField(alpha.grid, np.full(alpha.grid.shape, math.nan))
        with pytest.raises(PositivityError, match="initial A_psi not positive"):
            solve_ma(alpha, c, w, psi0=psi0)

    @pytest.mark.parametrize("name", ["nonsplit_perturbed", "degenerate_split"])
    def test_target_and_psi0_on_another_lattice_are_refused(self, name):
        # a target at other offsets converged on alpha's lattice, and a psi0
        # there ended the solve after 0 iterations; a ScalarField psi0 on a
        # factor lattice failed inside numpy
        pb = build_preset(name, n=8)
        alpha, c, w = _problem(pb)
        shifted = build_preset(name, n=8, offsets=(0.01,) * len(pb.grid.shape))
        w_shifted = epsilon_form(shifted.omega0, 0.1, shifted.omega_hat)
        message = f"solve_ma: grids differ ({alpha.grid} vs {shifted.grid})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_ma(alpha, c, w_shifted)
        psi0 = shifted.chi0.field(np.zeros(alpha.potential.values.shape))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_ma(alpha, c, w, psi0=psi0)
        kind, other = ((SplitPotential, ScalarField) if alpha.backend == "split"
                       else (ScalarField, SplitPotential))
        psi0 = other.zeros(alpha.grid)
        message = f"solve_ma: potential types differ ({kind.__name__} vs {other.__name__})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_ma(alpha, c, w, psi0=psi0)

    def test_identity_trivial(self):
        pb = build_preset("identity", n=8)
        sol = solve_ma(build_alpha(pb.chi0, pb.omega0, 2.0), 2.0, pb.omega0)
        assert sol.psi.sup() == 0.0

    def test_split_newton_matches_closed_form(self):
        pb = build_preset("smooth_split", n=32)
        c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.0))
        alpha = build_alpha(pb.chi0, pb.omega0, c)
        sol = solve_ma(alpha, c, pb.omega0)
        assert sol.newton_iterations <= 8
        assert sol.residual() <= 1e-10
        f = smooth_profile(pb.grid)
        _, _, p1, p2 = split_critical(f, np.ones(pb.grid.shape), fgrid=pb.grid)
        oracle = SplitPotential(pb.grid, np.stack((p1, p2))).assemble().mean_normalized()
        psi = sol.psi.assemble().mean_normalized()
        assert np.abs(psi.values - oracle.values).max() < 1e-8

    def test_newton_tail_quadratic(self):
        # Newton runs on the 4-D lattice only: 2.4 -> 6.0e-12 in 6 iterations
        sol = solve_ma(*_nonsplit_problem())
        rs = [r for r in sol.residuals if r > 1e-14]
        assert len(rs) >= 3
        for prev, cur in zip(rs[-3:], rs[-2:]):
            assert cur <= 20.0 * prev ** 2

    def test_continuation_tracks_exact_family(self):
        pb = build_preset("degenerate_split", n=16)
        ladder = [0.2, 0.1, 0.05]
        sols = solve_ma_continuation(pb.chi0, pb.omega0, pb.omega_hat, ladder)
        x, y = pb.grid.coords()
        base = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / (2 * np.pi ** 2)
        base = base * np.ones(pb.grid.shape)
        for eps, sol in sols:
            assert sol.residual() <= 1e-10
            psi1, psi2 = sol.psi.values
            psi1 = psi1 - psi1.mean()
            expected = base / (1.0 + eps)
            assert np.abs(psi1 - expected).max() < 1e-9
            assert np.abs(psi2 - psi2.mean()).max() < 1e-9
            # each rung starts from the last psi: no more iterations than cold
            assert sol.newton_iterations <= solve_ma(*_problem(pb, eps)).newton_iterations

    @pytest.mark.parametrize("eps", [0.01, 1e-7, 0.0])
    @pytest.mark.parametrize("n, offset", [(16, 0.01), (32, 0.005), (64, 0.005),
                                           (64, 0.0025), (128, 0.002)])
    def test_split_solve_converges_cold(self, n, offset, eps):
        # the factor-lattice Newton path found no acceptable damped step or
        # ran out of iterations on each of these cold starts at N = 16 and
        # 32; at N = 64 and 128 the log residual's rounding floor near the
        # divisor (1.1e-10 to 7.5e-10 after a second solve) refused eps = 0
        pb = build_preset("degenerate_split", n=n, offsets=(offset, offset))
        sol = solve_ma(*_problem(pb, eps))
        assert sol.newton_iterations == 0 and len(sol.residuals) == 1
        assert sol.residual() <= MASolverConfig().newton_tol
        x, y = pb.grid.coords()
        expected = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / (2 * np.pi ** 2 * (1 + eps))
        psi1, psi2 = sol.psi.values
        d = psi1 - expected
        assert np.abs(d - d.mean()).max() <= 1e-12
        assert np.abs(psi2 - psi2.mean()).max() <= 1e-12

    def test_split_residual_above_tol_is_refused(self):
        pb = build_preset("degenerate_split", n=8)
        with pytest.raises(MAConvergenceError, match="above newton_tol 1.0e-20 after "
                                                     "the direct solve") as err:
            solve_ma(*_problem(pb), MASolverConfig(newton_tol=1e-20))
        assert len(err.value.residuals) == 1

    @pytest.mark.parametrize("n, offset", [(16, 0.01), (32, 0.005)])
    def test_split_ladder_reaches_small_eps(self, n, offset):
        # every factor-lattice rung started cold: eps = 0.01 found no
        # acceptable damped step at N = 16 and did not converge in 50
        # iterations at N = 32
        pb = build_preset("degenerate_split", n=n, offsets=(offset, offset))
        ladder = [0.2, 0.1, 0.05, 0.02, 0.01]
        sols = solve_ma_continuation(pb.chi0, pb.omega0, pb.omega_hat, ladder)
        assert [eps for eps, _ in sols] == ladder
        for _, sol in sols:
            assert sol.residual() <= MASolverConfig().newton_tol

    def test_full_newton_critical_residual_bound(self):
        # the solver invariant: critical residual <= 10 * newton_tol
        pb = build_preset("nonsplit_perturbed", n=8)
        eps = 0.2
        w = epsilon_form(pb.omega0, eps, pb.omega_hat)
        c = c_constant(pb.chi0_class(), pb.omega_eps_class(eps))
        cfg = MASolverConfig(newton_tol=1e-11)
        sol = solve_ma(build_alpha(pb.chi0, w, c), c, w, cfg)
        assert j_gradient_density(sol.psi, pb.chi0, w, c).sup() <= 10 * cfg.newton_tol

    def test_gauge_consistency_two_starts(self):
        pb = build_preset("nonsplit_perturbed", n=8)
        eps = 0.2
        w = epsilon_form(pb.omega0, eps, pb.omega_hat)
        c = c_constant(pb.chi0_class(), pb.omega_eps_class(eps))
        alpha = build_alpha(pb.chi0, w, c)
        cfg = MASolverConfig(newton_tol=1e-13)
        sol1 = solve_ma(alpha, c, w, cfg)
        rng = np.random.default_rng(0)
        x1 = pb.grid.coords()[0]
        seed = ScalarField(
            pb.grid,
            -alpha.potential.values / c
            + 0.01 * np.broadcast_to(np.cos(2 * np.pi * x1), pb.grid.shape),
        )
        sol2 = solve_ma(alpha, c, w, cfg, psi0=seed)
        d = sol1.psi.values - sol2.psi.values
        assert np.abs(d - d.mean()).max() <= 1e-12

    def test_degenerate_target_rejected(self):
        pb = build_preset("degenerate_split", n=8)
        with pytest.raises(PositivityError, match="set offsets off the divisor"):
            solve_ma(build_alpha(pb.chi0, pb.omega0, 2.0), 2.0, pb.omega0)

    def test_vanishing_4d_target_names_the_offsets(self):
        # the remedy named epsilon-continuation, which cannot help on a
        # lattice that samples the divisor; offsets off it can
        with pytest.raises(PositivityError, match="vanishes on the lattice; set offsets "
                                                  "off the divisor"):
            solve_ma(*_nonsplit_problem(eps=0.0))
        pb = build_preset("nonsplit_perturbed", n=8, offsets=(0.01,) * 4)
        assert solve_ma(*_problem(pb, 0.0)).residual() <= MASolverConfig().newton_tol

    def test_factor_class_means_must_balance(self):
        alpha, c, w = _problem(build_preset("degenerate_split", n=8))
        with pytest.raises(ValueError, match="class means of side and target disagree"):
            solve_ma(alpha.scale(1.5), c, w)


class TestNewtonOperators:
    """The Newton step's operators: no transform, and a preconditioner that
    holds off the diagonal classes."""

    @staticmethod
    def off_diagonal_problem(m12):
        # nonsplit_perturbed with chi0's class given the off-diagonal entry m12
        pb = build_preset("nonsplit_perturbed", n=8)
        w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)
        chi0 = ClosedForm(CohomologyClass(1.0, 1.0, m12), pb.chi0.potential)
        return chi0, w, c_constant(chi0.cls, w.cls)

    def test_solvers_make_no_transform(self, monkeypatch):
        full = _nonsplit_problem()
        pb = build_preset("smooth_split", n=16)
        c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.0))
        split = build_alpha(pb.chi0, pb.omega0, c), c, pb.omega0
        src4 = mode_field(full[0].grid, lambda x1, y1, x2, y2: np.cos(2 * np.pi * (x1 - y2)))
        src2 = ScalarField(pb.grid, np.broadcast_to(smooth_profile(pb.grid) - 1.0, pb.grid.shape))

        # first runs build the operators (their circulants come from irfft)
        refs = [solve_ma(*full).psi, solve_ma(*split).psi,
                poisson_solve(src4), poisson_solve(src2)]

        def refuse(*args, **kwargs):
            raise AssertionError("transform called")

        for name in ("rfftn", "irfftn", "fftn", "ifftn", "rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse)
        sols = [solve_ma(*full), solve_ma(*split)]
        assert all(sol.residual() <= 1e-10 for sol in sols)
        again = [sols[0].psi, sols[1].psi, poisson_solve(src4), poisson_solve(src2)]
        for a, b in zip(refs, again):
            assert np.array_equal(a.assemble().values, b.assemble().values)

    @pytest.mark.parametrize("m12", [0.3, 0.6, 0.3 + 0.4j])
    def test_off_diagonal_class_converges(self, m12):
        chi0, w, c = self.off_diagonal_problem(m12)
        sol = solve_ma(build_alpha(chi0, w, c), c, w)
        assert sol.residual() <= MASolverConfig().newton_tol
        assert sol.gmres_info_max == 0
        # psi solves the critical equation for chi0 (the solver invariant)
        assert j_gradient_density(sol.psi, chi0, w, c).sup() <= 10 * MASolverConfig().newton_tol


def _problem(pb, eps=0.1):
    """(alpha, c, target) of ``pb``'s Monge-Ampere problem at ``eps``."""
    w = epsilon_form(pb.omega0, eps, pb.omega_hat)
    c = c_constant(pb.chi0_class(), pb.omega_eps_class(eps))
    return build_alpha(pb.chi0, w, c), c, w


def _nonsplit_problem(eps=0.1):
    return _problem(build_preset("nonsplit_perturbed", n=8), eps)


class TestMASolverConfig:
    @pytest.mark.parametrize("field, value", [
        ("newton_tol", np.float32(np.inf)), ("newton_tol", np.True_), ("newton_tol", math.nan),
    ])
    def test_refuses_bools_and_non_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            MASolverConfig(**{field: value})


class TestNewtonLoop:
    """The 4-D lattice's damped Newton loop: iteration budget and failure
    reports."""

    def test_converging_on_last_iteration_is_success_full(self, monkeypatch):
        monkeypatch.setattr(ma, "_MAX_NEWTON", 6)
        alpha, c, w = _nonsplit_problem()
        sol = solve_ma(alpha, c, w)
        assert sol.newton_iterations == 6
        assert sol.residual() <= 1e-10

    def test_iteration_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(ma, "_MAX_NEWTON", 1)
        alpha, c, w = _nonsplit_problem()
        with pytest.raises(MAConvergenceError, match="not converged in 1 iterations") as err:
            solve_ma(alpha, c, w)
        assert len(err.value.residuals) == 2
        assert err.value.residuals[1] < err.value.residuals[0]

    def test_failed_line_search_names_unconverged_gmres(self, monkeypatch):
        # an ascent direction from a GMRES solve reported as unconverged:
        # no damped step is acceptable, and the error says why
        gmres = ma.gmres

        def ascent(*args, **kwargs):
            x, _ = gmres(*args, **kwargs)
            return -x, 1

        monkeypatch.setattr(ma, "gmres", ascent)
        alpha, c, w = _nonsplit_problem()
        with pytest.raises(MAConvergenceError,
                           match=r"iteration 0 after an unconverged GMRES solve \(info=1\)"):
            solve_ma(alpha, c, w)

    def test_gmres_breakdown_is_refused(self, monkeypatch):
        # a GMRES that returns NaN and info != 0 ends the solve with an
        # MAConvergenceError, not a NaN step
        monkeypatch.setattr(ma, "gmres", lambda op, b, **kwargs: (np.full(b.shape, np.nan), 40))
        alpha, c, w = _nonsplit_problem()
        with pytest.raises(MAConvergenceError, match=r"GMRES breakdown \(info=40\)"):
            solve_ma(alpha, c, w)


class TestThetaComparison:
    def test_flow_stays_within_initial_gap_of_ma_solution(self):
        # |phi(t) - psi| never exceeds its initial sup (parabolic comparison)
        pb = build_preset("smooth_split", n=8)
        c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.0))
        psi = solve_ma(build_alpha(pb.chi0, pb.omega0, c), c, pb.omega0).psi
        cfg = FlowConfig(eps=0.0, dt_safety=0.8, stop_tolerance=1e-8,
                         max_time=3.0, snapshot_stride=25)
        traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat)
        gap0 = None
        for t, snap in traj.snapshots:
            gap = np.abs(snap.assemble().values - psi.assemble().values).max()
            if gap0 is None:
                gap0 = gap
            assert gap <= gap0 + 1e-8


# solve_ma at N = 12 in a fresh process; prints the sha256 of psi's bytes
_PSI_PROBE = """
import hashlib
from jflow.ma import build_alpha, solve_ma
from jflow.presets import build_preset
from jflow.cohomology import c_constant, epsilon_form

pb = build_preset("nonsplit_perturbed", n=12)
w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)
c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.1))
sol = solve_ma(build_alpha(pb.chi0, w, c), c, w)
print(hashlib.sha256(sol.psi.values.tobytes()).hexdigest(), sol.newton_iterations)
"""


def test_newton_bits_do_not_follow_the_blas_thread_count():
    # GMRES's vectors have 12^4 = 20,736 entries at N = 12; OpenBLAS splits
    # a dot product over its threads above 10,000, so np.dot's sum order
    # followed the thread count and so did psi's bits
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                     if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", _PSI_PROBE], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert out[0] == out[1]
