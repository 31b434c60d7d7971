import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jflow import flow, torus
from jflow.cohomology import (
    CohomologyClass,
    ClosedForm,
    c_constant,
    cone_condition,
    epsilon_form,
)
from jflow.diagnostics import (
    compare_up_to_constant,
    j_monotone_check,
    q_monitor,
    trace_bound_check,
)
from jflow.errors import ConeConditionError, DegenerateStiffnessError, PositivityError
from jflow.flow import (
    FlowConfig,
    epsilon_family,
    evolve,
    make_state,
    max_principle_monitor,
    step,
)
from jflow.functionals import _energies_split
from jflow.ma import MASolverConfig, build_alpha, solve_ma
from jflow.presets import build_preset, random_bandlimited_potential, smooth_profile
from jflow.split import SplitPotential
from jflow.torus import (
    Grid,
    ScalarField,
    SpectralOps,
    complex_hessian,
    positivity_margin,
)
from oracles import (_trace, degenerate_limit, energies_split, flow_rhs, nonsplit_limit,
                     rkc_error, split_critical, trace_with)


def smooth_cfg(**kw):
    base = dict(eps=0.0, dt_safety=0.8, stop_tolerance=1e-8, max_time=3.0,
                snapshot_stride=25)
    base.update(kw)
    return FlowConfig(**base)


def fixed_step_final(cfg, pb, dt, t_end, divisor=None):
    """Final 4-D potential values after round(t_end / dt) ``step`` calls at
    dt from phi = 0, so that runs at dt and dt/2 end at the same time."""
    state = make_state(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=divisor)
    for _ in range(round(t_end / dt)):
        state = step(state, dt)
    return state.phi.assemble().values


def matrices(h11, h22, h12r, h12i):
    """The Hermitian 2x2 matrices of a form's four real components."""
    h12 = h12r + 1j * h12i
    return np.stack([np.stack([h11 + 0j, h12], -1),
                     np.stack([h12.conj(), h22 + 0j], -1)], -2)


@pytest.fixture(scope="module")
def smooth8():
    return build_preset("smooth_split", n=8)


@pytest.fixture(scope="module")
def smooth8_run(smooth8):
    pb = smooth8
    return evolve(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)


@pytest.fixture(scope="module")
def smooth8_rk4_run(smooth8):
    pb = smooth8
    return evolve(smooth_cfg(integrator="rk4"), pb.chi0, pb.omega0, pb.omega_hat)


class TestFlowRhs:
    def test_identity_stationary(self):
        pb = build_preset("identity", n=8)
        rhs = flow_rhs(ScalarField.zeros(pb.grid), pb.chi0, pb.omega0, 2.0)
        assert rhs.sup() == 0.0

    def test_degenerate_preset_rhs(self):
        pb = build_preset("degenerate_split", n=8).to_full()
        rhs = flow_rhs(ScalarField.zeros(pb.grid), pb.chi0, pb.omega0, 2.0)
        x1, y1, _, _ = pb.grid.coords()
        f = np.sin(np.pi * x1) ** 2 + np.sin(np.pi * y1) ** 2
        expected = np.broadcast_to(1.0 - f, pb.grid.shape)
        assert np.abs(rhs.values - expected).max() < 1e-12

    def test_split_critical_is_stationary(self):
        pb = build_preset("smooth_split", n=16)
        f = smooth_profile(pb.grid)
        c1, c2, p1, p2 = split_critical(f, np.ones(pb.grid.shape), fgrid=pb.grid)
        phi = SplitPotential(pb.grid, np.stack((p1, p2))).assemble()
        full = pb.to_full()
        rhs = flow_rhs(phi, full.chi0, full.omega0, c1 + c2)
        assert rhs.sup() < 1e-10

    def test_positivity_error_reports_location(self):
        pb = build_preset("identity", n=8)
        x1 = pb.grid.coords()[0]
        # large mode: chi0 + dd^c phi loses positivity
        phi = ScalarField(
            pb.grid, np.broadcast_to(0.2 * np.cos(2 * np.pi * x1), pb.grid.shape).copy()
        )
        with pytest.raises(PositivityError) as err:
            flow_rhs(phi, pb.chi0, pb.omega0, 2.0)
        assert err.value.point is not None

    def test_rhs_plus_trace_is_c(self):
        # the discrete flow identity holds to rounding
        pb = build_preset("degenerate_split", n=8).to_full()
        x1 = pb.grid.coords()[0]
        phi = ScalarField(
            pb.grid, np.broadcast_to(0.02 * np.sin(2 * np.pi * x1), pb.grid.shape).copy()
        )
        w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)
        rhs = flow_rhs(phi, pb.chi0, w, 2.2)
        chi = pb.chi0.realized + complex_hessian(phi)
        tr = trace_with(chi, w.realized, pb.grid)
        assert np.abs(rhs.values + tr.values - 2.2).max() < 1e-12


    def test_kernel_stages_share_one_rhs(self):
        # RK4's first stage (metrics) and its later ones (rhs_only) agree bitwise
        pb = build_preset("nonsplit_perturbed", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(2))
        state = make_state(FlowConfig(eps=0.1), pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0)
        kernel, v = state.kernel, phi0.values
        assert np.array_equal(kernel.rhs_only(v), kernel.metrics(v)[0])
        w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)
        ref = flow_rhs(phi0, pb.chi0, w, kernel.c).values
        assert np.abs(kernel.rhs_only(v) - ref).max() < 1e-13

    def test_kernel_trace_contraction_off_the_diagonal(self):
        # the kernel's trace is one contraction with omega' = (w22, w11,
        # -2 w12_re, -2 w12_im); a random omega with nonzero w12 checks the
        # off-diagonal terms against the form algebra's _trace
        pb = build_preset("nonsplit_perturbed", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(4))
        kernel = make_state(FlowConfig(eps=0.1), pb.chi0, pb.omega0, pb.omega_hat,
                            phi0=phi0).kernel
        rng = np.random.default_rng(5)
        w = (1.0 + rng.uniform(size=pb.grid.shape), 1.0 + rng.uniform(size=pb.grid.shape),
             0.3 * rng.normal(size=pb.grid.shape), 0.3 * rng.normal(size=pb.grid.shape))
        kernel._members(kernel.c, torus._cowedge(w))
        assert all(np.array_equal(a, b) for a, b in zip(kernel._w, w))
        chi = kernel.chi(phi0.values)
        ref = kernel.c - _trace(chi, w)
        assert np.abs(kernel.rhs_only(phi0.values) - ref).max() <= 1e-13 * np.abs(ref).max()


class TestKernelScratch:
    """The 4-D kernel writes rhs_only's chi into scratch it owns: what it
    returns, and what metrics returned before, must never share it."""

    @staticmethod
    def _state(integrator="rkc"):
        pb = build_preset("nonsplit_perturbed", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(2))
        cfg = FlowConfig(eps=0.1, integrator=integrator)
        return pb, phi0, make_state(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0)

    def test_rhs_only_returns_fresh_arrays(self):
        _, phi0, state = self._state()
        kernel, v = state.kernel, phi0.values
        rhs, chi = kernel.metrics(v)[:2]
        kept = [x.copy() for x in chi]
        a = kernel.rhs_only(v)
        a_kept = a.copy()
        b = kernel.rhs_only(v + 1e-3 * a)
        assert not np.shares_memory(a, b)
        for x in (a, b):
            assert not any(np.shares_memory(x, c) for c in chi)
        # neither the chi that metrics returned nor the first velocity moved
        assert all(np.array_equal(c, k) for c, k in zip(chi, kept))
        assert np.array_equal(a, a_kept) and np.array_equal(a, rhs)

    def test_rk4_step_holds_three_velocities(self):
        # RK4 keeps k2, k3 and k4 at once; the step is the open-coded formula
        # on flow_rhs, bit for bit
        pb, phi0, state = self._state("rk4")
        w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)

        def f(x):
            return flow_rhs(ScalarField(pb.grid, x), pb.chi0, w, state.kernel.c).values

        v, k1, dt = phi0.values, state.rhs, state.kernel.adaptive_dt(state.chi)
        k2 = f(v + 0.5 * dt * k1)
        k3 = f(v + 0.5 * dt * k2)
        k4 = f(v + dt * k3)
        out = step(state, dt)
        assert out.last_dt == dt
        assert np.array_equal(out.phi.values, v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))

    def test_narrowed_batch_matches_its_members(self):
        # a batch that loses a member remakes its scratch at the new shape
        pb, phi0, _ = self._state()
        cfg = FlowConfig(eps=0.1)
        forms = [epsilon_form(pb.omega0, e, pb.omega_hat) for e in (0.2, 0.1)]
        cs = [c_constant(pb.chi0.cls, w.cls) for w in forms]
        kernel = flow._make_kernel(pb.chi0, forms, cs, cfg)
        v = np.stack([phi0.values, 0.5 * phi0.values])
        both = kernel.rhs_only(v)
        chi = kernel.metrics(v)[1]
        kernel._keep(np.array([1]), chi)
        assert np.array_equal(kernel.rhs_only(v[1:]), both[1:])

    def test_split_rhs_only_returns_fresh_arrays(self):
        # the split kernel's rhs_only writes its chi into scratch as well
        pb = build_preset("degenerate_split", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(2))
        state = make_state(FlowConfig(eps=0.1), pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0)
        kernel = state.kernel
        v = np.broadcast_to(phi0.values, kernel.shape)
        rhs, chi = kernel.metrics(v)[:2]
        kept = chi.copy()
        a = kernel.rhs_only(v)
        a_kept = a.copy()
        b = kernel.rhs_only(v + 1e-3 * a)
        assert not np.shares_memory(a, b)
        assert not any(np.shares_memory(x, chi) for x in (a, b))
        assert np.array_equal(chi, kept)
        assert np.array_equal(a, a_kept) and np.array_equal(a, rhs)


class TestAdaptiveDt:
    def test_identity_formula(self):
        pb = build_preset("identity", n=16)
        state = make_state(
            FlowConfig(eps=0.0), pb.chi0, pb.omega0, pb.omega_hat
        )
        expected = 0.2 / (16 * np.pi) ** 2
        assert np.isclose(state.kernel.adaptive_dt(state.chi), expected, rtol=1e-12)

    def test_halving_n_quadruples_dt(self):
        dts = []
        for n in (16, 8):
            pb = build_preset("identity", n=n)
            state = make_state(
                FlowConfig(eps=0.0),
                pb.chi0, pb.omega0, pb.omega_hat,
            )
            dts.append(state.kernel.adaptive_dt(state.chi))
        assert np.isclose(dts[1], 4.0 * dts[0])

    def test_lambda_doubling_halves_dt(self):
        grid = Grid(8)
        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        doubled = ClosedForm.from_class(CohomologyClass.diag(2.0, 2.0), grid)
        cfg = FlowConfig(eps=0.0)
        s1 = make_state(cfg, ident, ident, ident)
        # chi = Id, omega = 2 Id: h = 2 Id, lambda_max doubles
        s2 = make_state(cfg, ident, doubled, ident)
        assert np.isclose(s2.kernel.adaptive_dt(s2.chi), 0.5 * s1.kernel.adaptive_dt(s1.chi))

    @pytest.mark.parametrize("seed", [*range(5), "isotropic"])
    def test_real_formula_matches_complex_eigenvalues(self, seed):
        if seed == "isotropic":
            # chi = 1.5 Id, omega = 0.7 Id: a double eigenvalue, where a
            # discriminant tr^2 / 4 - det lifted rounding to ~1e-8
            grid = Grid(4)
            chi0 = ClosedForm.from_class(CohomologyClass.diag(1.5, 1.5), grid)
            omega = ClosedForm.from_class(CohomologyClass.diag(0.7, 0.7), grid)
            state = make_state(FlowConfig(eps=0.0), chi0, omega, omega)
        else:
            pb = build_preset("nonsplit_perturbed", n=8)
            phi0 = random_bandlimited_potential(pb, np.random.default_rng(seed))
            state = make_state(FlowConfig(eps=0.1), pb.chi0, pb.omega0, pb.omega_hat,
                               phi0=phi0)

        x_inv = np.linalg.inv(matrices(*state.chi))
        m = x_inv @ matrices(*state.kernel._w) @ x_inv
        lam_max = np.linalg.eigvalsh(m).max()
        expected = 0.2 / (lam_max * (state.kernel.grid.n * np.pi) ** 2)
        assert np.isclose(state.kernel.adaptive_dt(state.chi), expected, rtol=1e-13, atol=0.0)


class TestStiffnessBound:
    """The power estimate RKC takes its stage count from, against the
    spectral radius of the dense Jacobian of the velocity.  On the split
    backend, and for constant coefficients on the 4-D lattice, that is
    diag(g) L: g > 0 the pointwise coefficient, L the kernel's own lattice
    Laplacian as a matrix (one block per factor on the split backend),
    similar to the symmetric g^1/2 L g^1/2, whose eigenvalues ``eigvalsh``
    gives to rounding.  On the 4-D lattice in general it is phi -> tr(A
    dd^c phi) with A = chi^-1 omega chi^-1.

    Every case starts the estimate as a run does, from the checkerboard, and
    asserts that the safety factor covers the radius and that the estimate
    is at most the bound max g * |L| it replaced (never more stages)."""

    @staticmethod
    def dense_laplacian(grid):
        """tr_Id dd^c as a matrix: the factor Laplacian, or the Hessian's
        h11 + h22 on a 4-D lattice."""
        k = math.prod(grid.shape)
        unit = np.eye(k).reshape((k,) + grid.shape)
        ops = SpectralOps.of(grid)
        if len(grid.shape) == 2:
            lap = ops.laplacian(unit)
        else:
            h = ops.hessian(unit)
            lap = h[0] + h[1]
        lap = lap.reshape(k, k)
        return 0.5 * (lap + lap.T)  # symmetric up to rounding

    @classmethod
    def radius(cls, grid, g):
        """Spectral radius of diag(g) L on the lattice ``grid``."""
        s = np.sqrt(g).ravel()
        return np.abs(np.linalg.eigvalsh(s[:, None] * cls.dense_laplacian(grid) * s)).max()

    @classmethod
    def split_radius(cls, kernel, chi):
        return max(cls.radius(kernel.grid, g) for g in kernel._w / chi ** 2)

    @staticmethod
    def full_radius(kernel, chi):
        """Spectral radius of phi -> tr(A dd^c phi), A = chi^-1 omega chi^-1,
        the exact linearization of the 4-D velocity."""
        x_inv = np.linalg.inv(matrices(*chi))
        a = x_inv @ matrices(*kernel._w) @ x_inv
        k = math.prod(kernel.grid.shape)
        h11, h22, h12r, h12i = SpectralOps.of(kernel.grid).hessian(
            np.eye(k).reshape((k,) + kernel.grid.shape))
        # tr(A H) = a11 h11 + a22 h22 + 2 Re(a12 conj(h12)), one column per unit vector
        jac = (a[..., 0, 0].real * h11 + a[..., 1, 1].real * h22
               + 2.0 * (a[..., 0, 1].real * h12r + a[..., 0, 1].imag * h12i))
        return np.abs(np.linalg.eigvals(jac.reshape(k, k).T)).max()

    @staticmethod
    def check(state, radius):
        kernel = state.kernel
        v = np.broadcast_to(state.phi.values, kernel.shape)
        estimate = flow._SpectralRadius().estimate(kernel, v, state.rhs)
        bound = kernel._stiffness(state.chi) * -SpectralOps.of(kernel.grid).laplace.min()
        assert flow._RKC_RHO_SAFETY * estimate >= radius
        # the constant cases attain the bound up to the difference quotient's error
        assert estimate <= bound * (1.0 + 1e-8)
        return estimate

    @staticmethod
    def constant_state(chi0, omega):
        return make_state(FlowConfig(eps=0.0), chi0, omega, omega)

    def test_constant_split_coefficients_meet_the_bound(self):
        # g = omega / chi^2 is constant per factor, so the radius is the
        # larger factor's g times the factor Laplacian's largest symbol, the
        # checkerboard's
        grid = Grid(8, (0.0, 0.0))
        state = self.constant_state(
            ClosedForm.from_class(CohomologyClass.diag(1.5, 0.8), grid),
            ClosedForm.from_class(CohomologyClass.diag(0.7, 1.1), grid))
        radius = self.split_radius(state.kernel, state.chi)
        assert abs(self.check(state, radius) - radius) <= flow._RADIUS_RTOL * radius

    def test_constant_4d_coefficients_meet_the_bound(self):
        # chi = a Id, omega = b Id: the linearized velocity is (b / a^2) L
        grid = Grid(4)
        state = self.constant_state(
            ClosedForm.from_class(CohomologyClass.diag(2.0, 2.0), grid),
            ClosedForm.from_class(CohomologyClass.diag(0.5, 0.5), grid))
        radius = self.radius(grid, np.full(grid.shape, 0.5 / 2.0 ** 2))
        assert abs(self.check(state, radius) - radius) <= flow._RADIUS_RTOL * radius

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_covers_random_split_starts(self, seed):
        pb = build_preset("degenerate_split", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(seed))
        state = make_state(FlowConfig(eps=0.1), pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0)
        self.check(state, self.split_radius(state.kernel, state.chi))

    @pytest.mark.parametrize("eps", [0.2, 0.05])
    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("n", [8, 16])
    def test_estimate_covers_degenerate_split(self, n, seed, eps):
        # from phi = 0 and from the seed-3 random start, whose estimates read
        # up to 2.8 % below the dense radius (N=8, eps 0.05: 604.8 against
        # 621.9), so the safety factor keeps 1.167 of cover
        pb = build_preset("degenerate_split", n=n)
        phi0 = None if seed is None else random_bandlimited_potential(
            pb, np.random.default_rng(seed))
        state = make_state(FlowConfig(eps=eps), pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0,
                           divisor=pb.divisor)
        self.check(state, self.split_radius(state.kernel, state.chi))

    def test_estimate_covers_random_4d_start(self):
        pb = build_preset("nonsplit_perturbed", n=4)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(0))
        state = make_state(FlowConfig(eps=0.1), pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0)
        self.check(state, self.full_radius(state.kernel, state.chi))

    def test_estimate_covers_smooth_split_start(self):
        # phi = 0 on smooth_split: F(y) is a smooth z1-function, and a power
        # iteration started from it stays in the modes it excites
        pb = build_preset("smooth_split", n=32)
        state = make_state(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)
        self.check(state, self.split_radius(state.kernel, state.chi))


class TestStep:
    def test_zero_rhs_keeps_phi(self):
        pb = build_preset("identity", n=8)
        state = make_state(
            FlowConfig(eps=0.0), pb.chi0, pb.omega0, pb.omega_hat
        )
        out = step(state, 1e-3)
        assert out.t == 1e-3
        assert np.all(out.phi.values == 0.0)

    def test_linearized_decay_matches_heat_spectrum(self):
        # identity preset: h = Id, lowest mode decays at rate pi^2
        pb = build_preset("identity", n=8)
        x1 = pb.grid.coords()[0]
        eta = 1e-4
        phi0 = ScalarField(
            pb.grid, np.broadcast_to(eta * np.cos(2 * np.pi * x1), pb.grid.shape).copy()
        )
        cfg = FlowConfig(eps=0.0)
        state = make_state(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0)
        dt = state.kernel.adaptive_dt(state.chi)
        n_steps = 200
        for _ in range(n_steps):
            state = step(state, dt)
        amp0 = eta
        amp = 2.0 * float(np.mean(state.phi.values * np.cos(2 * np.pi * x1)))
        rate = -np.log(amp / amp0) / state.t
        assert abs(rate - np.pi ** 2) / np.pi ** 2 < 0.01

    def test_split_step_matches_full_assembly(self, smooth8):
        # one step on the stacked factor state and on the assembled 4-D state
        full = smooth8.to_full()
        phi0 = random_bandlimited_potential(smooth8, np.random.default_rng(4))
        split_state = make_state(smooth_cfg(), smooth8.chi0, smooth8.omega0,
                                 smooth8.omega_hat, phi0)
        full_state = make_state(smooth_cfg(), full.chi0, full.omega0, full.omega_hat,
                                phi0.assemble())
        dt = split_state.kernel.adaptive_dt(split_state.chi)
        a, b = step(split_state, dt), step(full_state, dt)
        assert a.last_dt == b.last_dt == dt
        assert np.abs(a.phi.assemble().values - b.phi.values).max() < 1e-12

    def test_manufactured_violation_halves_dt(self, smooth8):
        pb = smooth8
        state = make_state(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)
        out = step(state, 1e3)  # wildly unstable; must halve to survive
        assert out.last_rejections >= 1
        assert out.last_dt < 1e3
        assert out.margin > 0.0

    def test_hopeless_step_raises_stiffness_error(self, smooth8):
        pb = smooth8
        state = make_state(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)
        with pytest.raises(DegenerateStiffnessError) as info:
            step(state, 1e12)
        err = info.value
        assert err.t == state.t
        assert err.dt == 1e12 * 0.5 ** 20  # the last of 21 tries
        assert not err.margin > 0.0

    @pytest.mark.parametrize("integrator", ["rkc", "rk4"])
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0])
    def test_dt_must_be_finite_and_positive(self, integrator, dt):
        # refused before the first right-hand side under either integrator:
        # nan compares false with 0, and no stage count or halving makes
        # an infinite step finite
        pb = build_preset("degenerate_split", n=8)
        state = make_state(FlowConfig(eps=0.1, integrator=integrator),
                           pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)
        evals = state.kernel.rhs_evals
        with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt}"):
            step(state, dt)
        assert state.kernel.rhs_evals == evals


class TestEvolve:
    def test_stationary_immediate_stop(self):
        pb = build_preset("identity", n=8)
        traj = evolve(
            FlowConfig(eps=0.0, stop_tolerance=1e-12),
            pb.chi0, pb.omega0, pb.omega_hat,
        )
        assert traj.stop_reason == "converged"
        assert traj.final_residual < 1e-12
        assert traj.steps == 0

    def test_smooth_split_limit_matches_closed_form(self, smooth8, smooth8_run):
        traj = smooth8_run
        assert traj.stop_reason == "converged"
        lim = traj.final_potential().mean_normalized()
        x1 = lim.grid.coords()[0]
        closed = -np.sin(2 * np.pi * x1) / (2 * np.pi ** 2)
        closed = np.broadcast_to(closed, lim.grid.shape)
        assert np.abs(lim.values - closed).max() < 1e-5

    def test_j_strictly_decreasing_until_tolerance(self, smooth8_run):
        js = [r.j for r in smooth8_run.rows]
        assert all(b < a + 1e-13 for a, b in zip(js, js[1:]))
        assert js[-1] < js[0]

    def test_i_conserved(self, smooth8_rk4_run):
        # the flow conserves I; RK4 keeps it to 1e-9 (RKC's second order
        # drifts by about 5e-6 on this run)
        i0 = smooth8_rk4_run.rows[0].i
        assert max(abs(r.i - i0) for r in smooth8_rk4_run.rows) < 1e-9

    def test_cone_failure_is_refused(self):
        grid = Grid(8)
        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        # W = diag(1, 0): c = 1 and c*X - W = diag(0, 1), margin 0
        w = ClosedForm.from_class(CohomologyClass.diag(1.0, 0.0), grid)
        with pytest.raises(ConeConditionError) as err:
            evolve(
                FlowConfig(eps=0.0), ident, w, ident
            )
        assert err.value.margin <= 0.0

    @staticmethod
    def _on_divisor_message(count, dim):
        return (f"eps = 0 on a lattice with {count} point(s) on the divisor, the first "
                f"at {(0.0,) * dim}: omega_0 vanishes there; set offsets that move "
                f"the lattice off the divisor")

    @pytest.mark.parametrize("name", ["degenerate_split", "nonsplit_perturbed"])
    def test_eps_zero_refused_on_the_divisor(self, name):
        # omega_0 = 0 at the lattice points on {z1 = 0}, where phi_dot = c_0
        # forever: the factor lattice has 1 such point, the 4-D lattice 8^2
        pb = build_preset(name, n=8)
        dim = len(pb.grid.shape)
        with pytest.raises(ValueError) as err:
            evolve(FlowConfig(eps=0.0), pb.chi0, pb.omega0, pb.omega_hat,
                   divisor=pb.divisor)
        assert str(err.value) == self._on_divisor_message(1 if dim == 2 else 64, dim)
        # offsets move the lattice off the divisor, and eps = 0 runs there
        pb = build_preset(name, n=8, offsets=(0.01,) * dim)
        traj = evolve(FlowConfig(eps=0.0, max_time=0.01), pb.chi0, pb.omega0,
                      pb.omega_hat, divisor=pb.divisor)
        assert traj.stop_reason == "max_time" and traj.steps > 0
        assert all(r.margin > 0.0 for r in traj.rows)

    @staticmethod
    def _refused_start(case):
        """(cfg, (chi0, omega0, omega_hat), keyword arguments, error type,
        message) of a run that its start refuses."""
        grid = Grid(8)
        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        if case == "eps0_on_divisor":
            pb = build_preset("degenerate_split", n=8)
            return (FlowConfig(eps=0.0), (pb.chi0, pb.omega0, pb.omega_hat),
                    {"divisor": pb.divisor}, ValueError,
                    TestEvolve._on_divisor_message(1, 2))
        if case == "cone":
            # as in test_partial_report_on_member_failure: margin 1.01 - 1.2
            w = ClosedForm.from_class(CohomologyClass(1.0, 1.0, 1.2), grid)
            margin = cone_condition(ident.cls, epsilon_form(w, 0.01, ident).cls)
            return (FlowConfig(eps=0.01), (ident, w, ident), {}, ConeConditionError,
                    f"cone condition fails for eps=0.01: margin {margin:.6e} <= 0")
        # chi0 + dd^c phi0 has h11 = 1 - 0.2 pi^2 cos(2 pi x1), negative at x1 = 0
        phi0 = ScalarField(grid, 0.2 * np.cos(2 * np.pi * grid.coords()[0])
                           * np.ones(grid.shape))
        margin = positivity_margin(ident.plus_ddc(phi0))
        assert margin < 0.0
        return (FlowConfig(eps=0.1), (ident, ident, ident), {"phi0": phi0}, PositivityError,
                f"initial potential leaves chi0 + dd^c(phi) non-positive "
                f"(margin {margin:.3e})")

    @pytest.mark.parametrize("case", ["eps0_on_divisor", "cone", "nonpositive_start"])
    @pytest.mark.parametrize("entry", [make_state, evolve])
    def test_start_refusals_agree(self, entry, case):
        # make_state and evolve share one start: same error type and message
        cfg, forms, kwargs, exc, message = self._refused_start(case)
        with pytest.raises(exc) as err:
            entry(cfg, *forms, **kwargs)
        assert type(err.value) is exc
        assert str(err.value) == message

    def test_integrator_order(self, smooth8):
        # dt and dt/2 runs at fixed t differ at O(dt^4)
        cfg = smooth_cfg(integrator="rk4")
        finals = [fixed_step_final(cfg, smooth8, dt, 0.02) for dt in (2e-4, 1e-4, 5e-5)]
        e1 = np.abs(finals[0] - finals[1]).max()
        e2 = np.abs(finals[1] - finals[2]).max()
        assert 10.0 < e1 / e2 < 24.0  # nominal 16

    def test_degenerate_eps_zero_run(self):
        # the paper's main theorem at eps = 0: off the divisor the degenerate
        # flow converges, J nonincreasing, to phi*_0 = (cos 2 pi x + cos 2 pi y)
        # / (2 pi^2) up to a constant (282 steps, within 1.06e-9)
        pb = build_preset("degenerate_split", n=12, offsets=(0.01, 0.01))
        cfg = FlowConfig(eps=0.0, dt_safety=0.8, stop_tolerance=1e-8, snapshot_stride=50)
        traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)
        assert traj.stop_reason == "converged"
        assert j_monotone_check(traj).ok
        x, y = pb.grid.coords()
        closed = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / (2 * np.pi ** 2)
        limit = SplitPotential(pb.grid, np.stack((closed, np.zeros(pb.grid.shape)))).assemble()
        assert compare_up_to_constant(traj.final_potential(), limit) < 1e-8

    def test_nonpositive_divisor_point_is_refused(self):
        # a spike in phi1 makes chi_phi = diag(1 + dd^c phi1, 1) non-positive
        # at the on-grid divisor point z1 = 0 only: the start is refused there
        # as anywhere else, with that point's margin
        pb = build_preset("degenerate_split", n=8)
        spike = np.zeros(pb.grid.shape)
        spike[0, 0] = 1.0
        ddc = SpectralOps.of(pb.grid).laplacian(spike)
        a = 1.0 - 1.5 * ddc / ddc[0, 0]
        assert a[0, 0] < 0.0 < np.sort(a.ravel())[1]
        phi1 = -1.5 * spike / ddc[0, 0]
        for problem, phi0 in (
            (pb, SplitPotential(pb.grid, np.stack((phi1, 0 * phi1)))),
            (pb.to_full(), SplitPotential(pb.grid, np.stack((phi1, 0 * phi1))).assemble()),
        ):
            args = (problem.chi0, problem.omega0, problem.omega_hat, phi0)
            with pytest.raises(PositivityError, match="non-positive") as err:
                make_state(FlowConfig(eps=0.1), *args, divisor=problem.divisor)
            assert abs(err.value.margin - a[0, 0]) < 1e-12

    def test_eps_run_margin_includes_the_divisor(self):
        # the limit metric's first profile is (f + eps) / (1 + eps), whose
        # minimum eps / (1 + eps) sits on the divisor
        pb = build_preset("degenerate_split", n=8)
        eps = 0.2
        cfg = FlowConfig(eps=eps, dt_safety=0.8, stop_tolerance=1e-9, max_time=20.0,
                         snapshot_stride=200)
        traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)
        assert traj.stop_reason == "converged"
        assert abs(traj.rows[-1].margin - eps / (1.0 + eps)) < 1e-8

    def test_split_and_full_backends_agree(self):
        pb = build_preset("degenerate_split", n=8)
        cfg = smooth_cfg(eps=0.2)
        a, b = (fixed_step_final(cfg, p, 2e-4, 0.05, divisor=p.divisor)
                for p in (pb, pb.to_full()))
        assert np.abs(a - b).max() < 1e-9


@pytest.fixture(scope="module")
def degenerate4d_run():
    """The degenerate flow (eps = 0) on ``nonsplit_perturbed``'s 4-D lattice
    at N=8, moved off the divisor by 0.3 of the spacing in x1 and y1, from
    phi = 0 at the default row stride of 50 (459 steps, about 0.3 s)."""
    pb = build_preset("nonsplit_perturbed", n=8, offsets=(0.0375, 0.0375, 0.0, 0.0))
    cfg = FlowConfig(eps=0.0, dt_safety=0.8, stop_tolerance=1e-7)
    return pb, evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)


class TestDegenerateFourD:
    def test_converges_to_the_closed_form_limit(self, degenerate4d_run):
        # criterion 8's bounds at eps = 0: the residual, the distance to
        # Newton's limit and to the closed form phi*_0 - p0 (8.8e-9 each),
        # J monotone and the I drift (7.6e-6); the trace bound and the
        # Q-monitor hold as well
        pb, traj = degenerate4d_run
        assert traj.stop_reason == "converged" and traj.final_residual <= 1e-7
        w = epsilon_form(pb.omega0, 0.0, pb.omega_hat)
        c = c_constant(pb.chi0_class(), pb.omega_eps_class(0.0))
        sol = solve_ma(build_alpha(pb.chi0, w, c), c, w, MASolverConfig())
        limit = traj.final_potential()
        assert compare_up_to_constant(limit, sol.psi) <= 1e-4
        assert compare_up_to_constant(limit, nonsplit_limit(pb, 0.0)) <= 1e-4
        rows = traj.rows
        assert j_monotone_check(traj).ok
        assert max(abs(r.i - rows[0].i) for r in rows) / max(1.0, abs(rows[0].i)) <= 1e-5
        assert trace_bound_check(traj).ok
        assert q_monitor(traj, pb.divisor)[1].ok

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the N=8 scheme's sup phi_dot "
                       "rises between rows, by 4.6e-3 at t = 4.1e-4 here")
    def test_max_principle(self, degenerate4d_run):
        # the rows are the default stride's; a wider stride would hide the rise
        verdict = max_principle_monitor(degenerate4d_run[1])
        assert verdict.ok, verdict.failures


class TestRKC:
    def test_second_order(self, smooth8):
        # dt and dt/2 runs at fixed t differ at O(dt^2)
        cfg = smooth_cfg()
        assert cfg.integrator == "rkc"
        finals = [fixed_step_final(cfg, smooth8, dt, 0.02) for dt in (2e-4, 1e-4, 5e-5)]
        e1 = np.abs(finals[0] - finals[1]).max()
        e2 = np.abs(finals[1] - finals[2]).max()
        assert 3.5 < e1 / e2 < 4.5  # nominal 4

    def test_limit_matches_rk4(self, smooth8_run, smooth8_rk4_run):
        # the limits agree up to the constant that RKC's I drift shifts them by
        assert smooth8_run.stop_reason == smooth8_rk4_run.stop_reason == "converged"
        assert smooth8_run.rhs_evals * 10 < smooth8_rk4_run.rhs_evals
        gap = compare_up_to_constant(smooth8_run.final_potential(),
                                     smooth8_rk4_run.final_potential())
        assert gap < 1e-9

    def test_small_eps_converges(self):
        # error control on the absolute tolerance alone stalled near the
        # limit; the increment-relative test keeps eps = 0.01 converging
        pb = build_preset("degenerate_split", n=16)
        eps = 0.01
        cfg = FlowConfig(eps=eps, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0,
                         snapshot_stride=50)
        traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)
        assert traj.stop_reason == "converged" and traj.rows[-1].t < 4.0
        x, y = pb.grid.coords()
        base = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / (2 * np.pi ** 2)
        lim = traj.final_potential().mean_normalized().values
        gap = float(np.abs(lim - (base * np.ones(pb.grid.shape))[:, :, None, None]).max())
        exact = eps / ((1.0 + eps) * np.pi ** 2)
        assert abs(gap - exact) < 1e-5 * exact

    def test_converges_once_the_increment_is_rounding(self):
        # near the limit the increment is rounding, so the error estimate no
        # longer cancels; with a tolerance that shrank with the increment
        # every step was refused (at t = 2.465, error 26.7 of tolerance)
        pb = build_preset("smooth_split", n=32)
        traj = evolve(FlowConfig(stop_tolerance=1e-12), pb.chi0, pb.omega0, pb.omega_hat)
        assert traj.stop_reason == "converged"

    def test_stage_cap_bounds_hopeless_step(self, monkeypatch, smooth8):
        estimates = []
        estimate = flow._SpectralRadius.estimate

        def counted(radius, *args):
            before = radius.evals
            rho = estimate(radius, *args)
            estimates.append(radius.evals - before)
            return rho

        monkeypatch.setattr(flow._SpectralRadius, "estimate", counted)
        pb = smooth8
        state = make_state(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)
        before = state.kernel.rhs_evals
        with pytest.raises(DegenerateStiffnessError):
            step(state, 1e12)
        # 21 tries, each at the stage cap after a radius estimate: the first
        # because none is held, the others because the try before was refused
        tries = flow._MAX_REJECTIONS + 1
        assert len(estimates) == tries
        assert state.kernel.rhs_evals - before == tries * flow._RKC_MAX_STAGES + sum(estimates)

    def test_controlled_step_is_cut_to_what_the_cap_keeps_stable(self, monkeypatch):
        # at eps = 0 next to the divisor the stiffness asks for more stages
        # than the cap; an attempt longer than the capped stages keep stable
        # was refused by the error test (128 such refusals with a cap of 8)
        cap, attempts = 8, []
        rkc, rkc_error = flow._rkc, flow._rkc_error

        def counted(kernel, v, k1, h, s):
            attempts.append([s, False])  # stages, refused by the error test
            return rkc(kernel, v, k1, h, s)

        def refusals(*args):
            err = rkc_error(*args)
            attempts[-1][1] = float(np.max(err)) > 1.0
            return err

        monkeypatch.setattr(flow, "_RKC_MAX_STAGES", cap)
        monkeypatch.setattr(flow, "_rkc", counted)
        monkeypatch.setattr(flow, "_rkc_error", refusals)
        pb = build_preset("degenerate_split", n=8, offsets=(0.01, 0.01))
        cfg = FlowConfig(eps=0.0, dt_safety=0.8, stop_tolerance=1e-8, max_time=0.2)
        traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)
        assert traj.rkc_stages_max == cap
        assert sum(s == cap for s, _ in attempts) > 50
        assert not [s for s, refused in attempts if refused and s == cap]

    def test_error_refusals_raise_after_the_cap(self, monkeypatch, smooth8):
        # every attempt fails the error test, so each retry is at a tenth of
        # the step, the controller's floor
        errors = []

        def hopeless(*args):
            errors.append(args)
            return [math.inf]  # one member

        monkeypatch.setattr(flow, "_rkc_error", hopeless)
        pb = smooth8
        start = make_state(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)
        h0 = start.kernel.adaptive_dt(start.chi)
        with pytest.raises(DegenerateStiffnessError) as info:
            evolve(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)
        err = info.value
        assert len(errors) == flow._MAX_REJECTIONS + 1
        assert err.t == 0.0
        assert err.dt == pytest.approx(h0 * 0.1 ** flow._MAX_REJECTIONS, rel=1e-12)
        assert err.margin > 0.0

    @pytest.mark.parametrize("integrator", ["rkc", "rk4"])
    def test_rhs_evals_counts_every_attempt(self, monkeypatch, integrator):
        # count the kernel's evaluations from outside, as the benchmark tracer does
        calls = []
        make_kernel = flow._make_kernel

        def counted(method):
            def call(v):
                calls.append(v)
                return method(v)
            return call

        def counting(*args, **kwargs):
            kernel = make_kernel(*args, **kwargs)
            kernel.rhs_only = counted(kernel.rhs_only)
            kernel.metrics = counted(kernel.metrics)
            return kernel

        monkeypatch.setattr(flow, "_make_kernel", counting)
        pb = build_preset("degenerate_split", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
        cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-8, max_time=0.2,
                         integrator=integrator)
        traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0,
                      divisor=pb.divisor)
        assert traj.integrator == integrator
        assert traj.rhs_evals == len(calls)
        if integrator == "rkc":
            assert traj.rejections >= 1  # the first step overshoots
        else:
            assert traj.rhs_evals == 1 + 4 * (traj.steps + traj.rejections)


class TestFlowConfig:
    @pytest.mark.parametrize("field, value", [
        ("eps", True), ("eps", np.True_), ("eps", math.nan), ("eps", 1j),
        ("max_time", np.float32(np.inf)), ("stop_tolerance", np.float64(np.nan)),
        ("dt_safety", np.bool_(False)),
    ])
    def test_refuses_bools_and_non_finite_numbers(self, field, value):
        # numpy scalars are not Python ints or floats, and passed the check
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            FlowConfig(**{field: value})

    def test_numpy_numbers_are_numbers(self):
        cfg = FlowConfig(eps=np.float32(0.1), dt_safety=np.float64(0.5),
                         snapshot_stride=np.int64(5))
        assert cfg.snapshot_stride == 5 and cfg.eps == np.float32(0.1)

    def test_negative_eps_is_refused(self):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            FlowConfig(eps=-0.1)

    @pytest.mark.parametrize("value", [0, 2.0, np.int64(0), np.float64(5.0)])
    def test_snapshot_stride_is_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="snapshot_stride must be an integer >= 1"):
            FlowConfig(snapshot_stride=value)


class TestLeanStep:
    """The step's per-member verdicts and norms, Python floats, against the
    numpy references they replace."""

    @staticmethod
    def _kernel(name, members):
        eps = [0.2, 0.1, 0.05][:members]
        pb = build_preset(name, n=8)
        forms = [epsilon_form(pb.omega0, e, pb.omega_hat) for e in eps]
        cs = [c_constant(pb.chi0.cls, w.cls) for w in forms]
        kernel = flow._make_kernel(pb.chi0, forms, cs, FlowConfig(eps=eps[0]))
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
        v = np.broadcast_to(phi0.values, kernel.shape).copy()  # C-contiguous, as every stepped state
        for p in range(1, members):
            v[p] *= 1.0 - 0.3 * p  # members with their own states
        return pb, kernel, v

    @staticmethod
    def _sup_reference(kernel, rhs):
        """sup |rhs| per member over the assembled grid."""
        if kernel.backend == "split":
            rhs = rhs[..., 0, :, :, None, None] + rhs[..., 1, None, None, :, :]
        return np.reshape(np.abs(rhs).max(axis=(-4, -3, -2, -1)), -1).tolist()

    @pytest.mark.parametrize("name", ["degenerate_split", "nonsplit_perturbed"])
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("fault", ["nan", "inf", "-inf", "metric"])
    def test_metrics_flags_only_the_bad_member(self, name, members, fault):
        pb, kernel, v = self._kernel(name, members)
        rhs, chi, ok, sup = kernel.metrics(v)
        assert ok == [True] * members
        assert sup == self._sup_reference(kernel, rhs)
        bad = members - 1
        lead = (bad,) if members > 1 else ()
        if fault == "metric":
            # a large low mode of the first factor: chi11 < 0 at some points
            x1 = pb.grid.coords()[0] * np.ones(pb.grid.shape)
            v[lead + ((0,) if kernel.backend == "split" else ())] += np.cos(2 * np.pi * x1)
        elif kernel.backend == "split":  # one omega entry takes the velocity to the fault
            w = kernel._w.copy()
            w[lead + (0, 3, 4)] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[fault]
            kernel._members(kernel.c, w, kernel._cs)
        else:
            wp = kernel._wp.copy()
            wp[(0,) + lead + (3, 4, 5, 6)] = {"nan": math.nan, "inf": math.inf,
                                            "-inf": -math.inf}[fault]
            kernel._members(kernel.c, wp)
        with np.errstate(all="ignore"):
            rhs, chi, ok, sup = kernel.metrics(v)
        assert ok == [p != bad for p in range(members)]
        if fault == "metric":
            assert np.isfinite(rhs).all()
            assert np.reshape(kernel.margin(chi), -1)[bad] <= 0.0
        else:
            assert np.isfinite(chi).all()
            assert not np.isfinite(rhs[lead]).all()
            assert np.isfinite(rhs[:bad]).all()
        assert sup[:bad] == self._sup_reference(kernel, rhs)[:bad]

    @pytest.mark.parametrize("name", ["degenerate_split", "nonsplit_perturbed"])
    @pytest.mark.parametrize("members", [1, 3])
    def test_rkc_error_is_three_rms_bitwise(self, name, members):
        _, kernel, v = self._kernel(name, members)
        rng = np.random.default_rng(7)
        k1 = kernel.metrics(v)[0]
        k_new = k1 + 1e-3 * rng.normal(size=k1.shape)
        zero = np.zeros(v.shape)
        cases = [
            (v, v + 1e-5 * rng.normal(size=v.shape), k1, k_new, 1e-4),
            (v, v + 1e-3 * k1, k1, k_new, 1e-3),
            (v, v.copy(), k1, k_new, 1e-4),  # a zero increment: the rounding floor
            (zero, zero, zero, zero, 1e-3),  # tol 0 and a zero estimate: 0
            (zero, zero, k1, k_new, 1e-3),  # tol 0 and a nonzero estimate: inf
        ]
        for case in cases:
            got = flow._rkc_error(kernel, *case)
            assert isinstance(got, list) and all(type(e) is float for e in got)
            ref = np.reshape(rkc_error(kernel, *case), -1)
            assert np.array(got).tobytes() == ref.tobytes()
        assert flow._rkc_error(kernel, *cases[3]) == [0.0] * members
        assert flow._rkc_error(kernel, *cases[4]) == [math.inf] * members

    @pytest.mark.parametrize("members", [1, 3])
    def test_energies_split_is_the_wedge_means_bitwise(self, members):
        pb, kernel, v = self._kernel("degenerate_split", members)
        chi = kernel.metrics(v)[1]
        got = _energies_split(v, chi, kernel._bg, kernel._w, kernel.c)
        ref = energies_split(v, chi, kernel._bg, kernel._w, kernel.c)
        for a, b in zip(got, ref):
            assert np.shape(a) == np.shape(b) == np.shape(kernel.c)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert _energies_split(v, chi, kernel._bg, None, 0.0)[1].tobytes() == ref[1].tobytes()


# a short nonsplit_perturbed flow at N = 12 in a fresh process; prints the
# sha256 of its rows and final potential, and its step and RHS counts
_FLOW_PROBE = """
import hashlib
import numpy as np
from jflow.flow import FlowConfig, evolve
from jflow.presets import build_preset, random_bandlimited_potential

pb = build_preset("nonsplit_perturbed", n=12)
phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
cfg = FlowConfig(eps=0.1, dt_safety=0.8, max_time=0.005, snapshot_stride=10)
traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0)
digest = hashlib.sha256(np.array([list(vars(r).values()) for r in traj.rows]).tobytes())
digest.update(traj.final.values.tobytes())
print(digest.hexdigest(), traj.steps, traj.rhs_evals)
"""


def test_flow_bits_do_not_follow_the_blas_thread_count():
    # 12^4 = 20,736 entries per field, past OpenBLAS's threading threshold:
    # the flow's reductions and products must not split by thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                     if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", _FLOW_PROBE], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert out[0] == out[1]
    assert out[0].split()[1:] == ["126", "320"]


class TestEpsilonFamily:
    def test_mini_family_report(self):
        pb = build_preset("degenerate_split", n=12)
        cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-7,
                         max_time=2.0, snapshot_stride=100)
        report = epsilon_family(
            cfg, [0.2, 0.1], pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor
        )
        assert report.ok
        assert set(report.sup_phi_by_eps) == {0.2, 0.1}
        # initial velocity: sup|1 - f| = 1 for every member
        for m in report.members:
            assert abs(m.trajectory.sup_phidot0 - 1.0) < 1e-10
        (hi, lo, full, off) = report.consecutive_diffs[0]
        assert (hi, lo) == (0.2, 0.1)
        assert full >= off > 0.0
        assert report.failures == {}

    def test_empty_ladder_is_refused(self):
        # a family with no member has no verdict to report
        pb = build_preset("degenerate_split", n=8)
        with pytest.raises(ValueError, match="one or more finite positive epsilons"):
            flow.check_ladder([])
        with pytest.raises(ValueError, match="one or more finite positive epsilons"):
            epsilon_family(FlowConfig(eps=0.2), [], pb.chi0, pb.omega0, pb.omega_hat,
                           divisor=pb.divisor)

    @pytest.mark.parametrize("ladder", [[0.2, math.nan], [math.inf, 0.1], [math.nan]])
    def test_non_finite_eps_is_refused(self, ladder):
        # nan compares false, so it passed the ladder checks and its member
        # was reported as a non-positive start
        pb = build_preset("degenerate_split", n=8)
        with pytest.raises(ValueError, match="finite positive epsilons"):
            flow.check_ladder(ladder)
        with pytest.raises(ValueError, match="finite positive epsilons"):
            epsilon_family(FlowConfig(eps=0.2), ladder, pb.chi0, pb.omega0, pb.omega_hat,
                           divisor=pb.divisor)

    @staticmethod
    def _batched_vs_single(pb, ladder, cfg, phi0):
        report = epsilon_family(cfg, ladder, pb.chi0, pb.omega0, pb.omega_hat,
                                phi0=phi0, divisor=pb.divisor)
        assert report.ok
        for m in report.members:
            traj = m.trajectory
            assert traj.stop_reason == "converged"
            single = evolve(replace(cfg, eps=m.eps), pb.chi0, pb.omega0, pb.omega_hat,
                            phi0=phi0, divisor=pb.divisor)
            gap = compare_up_to_constant(traj.final_potential(), single.final_potential())
            assert gap <= 1e-8, (m.eps, gap)
            js = [r.j for r in traj.rows]
            assert all(b <= a for a, b in zip(js, js[1:])), m.eps
        return report

    def test_batched_members_match_single_runs(self):
        pb = build_preset("degenerate_split", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
        cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0)
        report = self._batched_vs_single(pb, [0.2, 0.1, 0.05], cfg, phi0)
        # one shared step sequence: the members stop one after another
        steps = [m.trajectory.steps for m in report.members]
        assert steps == sorted(steps)

    def test_batched_members_match_single_runs_full_backend(self):
        pb = build_preset("nonsplit_perturbed", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
        cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-8, max_time=6.0,
                         snapshot_stride=100)
        self._batched_vs_single(pb, [0.2, 0.1], cfg, phi0)

    def test_one_member_family_is_evolve(self):
        pb = build_preset("degenerate_split", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
        cfg = FlowConfig(eps=0.1, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0)
        (member,) = epsilon_family(cfg, [0.1], pb.chi0, pb.omega0, pb.omega_hat,
                                   phi0=phi0, divisor=pb.divisor).members
        single = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0,
                        divisor=pb.divisor)
        traj = member.trajectory
        assert traj.rows == single.rows
        assert np.array_equal(traj.final.values, single.final.values)
        assert ((traj.steps, traj.rejections, traj.rhs_evals, traj.stop_reason)
                == (single.steps, single.rejections, single.rhs_evals, single.stop_reason))

    def test_member_losing_positivity_is_dropped(self, monkeypatch):
        pb = build_preset("degenerate_split", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
        doomed = c_constant(pb.chi0_class(), pb.omega_eps_class(0.1))
        make_kernel = flow._make_kernel

        def sabotaged(*args, **kwargs):
            # from the 200th evaluation on, the eps = 0.1 member is never positive
            kernel = make_kernel(*args, **kwargs)
            metrics = kernel.metrics

            def failing(v):
                rhs, chi, ok, sup = metrics(v)
                if kernel.rhs_evals >= 200:
                    ok = ok & (kernel.c != doomed)
                return rhs, chi, ok, sup

            kernel.metrics = failing
            return kernel

        monkeypatch.setattr(flow, "_make_kernel", sabotaged)
        cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-8, max_time=4.0)
        report = epsilon_family(cfg, [0.2, 0.1, 0.05], pb.chi0, pb.omega0,
                                pb.omega_hat, phi0=phi0, divisor=pb.divisor)
        assert list(report.failures) == [0.1]
        assert report.failures[0.1].startswith("DegenerateStiffnessError")
        assert set(report.sup_phi_by_eps) == {0.2, 0.05}
        for m in report.members:
            if m.eps != 0.1:
                assert m.trajectory.stop_reason == "converged"
        assert [d[:2] for d in report.consecutive_diffs] == [(0.2, 0.05)]

    def test_workers_other_than_one_are_refused(self, monkeypatch):
        # True == 1 and 1.0 == 1 passed the check
        pb = build_preset("degenerate_split", n=8)
        for workers in (2, True, np.True_, 1.0):
            with pytest.raises(ValueError, match="workers must be 1"):
                epsilon_family(FlowConfig(eps=0.2), [0.2, 0.1], pb.chi0, pb.omega0,
                               pb.omega_hat, workers=workers)
        monkeypatch.setattr(flow, "_evolve_members", lambda *args: [])
        report = epsilon_family(FlowConfig(eps=0.2), [0.2, 0.1], pb.chi0, pb.omega0,
                                pb.omega_hat, workers=np.int64(1))
        assert report.members == []

    def test_requires_descending_positive(self):
        pb = build_preset("degenerate_split", n=8)
        cfg = FlowConfig(eps=0.1)
        with pytest.raises(ValueError):
            epsilon_family(cfg, [0.1, 0.2], pb.chi0, pb.omega0, pb.omega_hat)
        with pytest.raises(ValueError):
            epsilon_family(cfg, [0.1, 0.0], pb.chi0, pb.omega0, pb.omega_hat)

    def test_partial_report_on_member_failure(self):
        grid = Grid(8)
        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        # strongly off-diagonal omega0 class: for X = Id the cone margin is
        # (1 + eps) - |W12|, so eps = 1 runs but eps = 0.01 is refused
        w = ClosedForm.from_class(CohomologyClass(1.0, 1.0, 1.2), grid)
        cfg = FlowConfig(eps=1.0, max_time=1e-3)
        report = epsilon_family(cfg, [1.0, 0.01], ident, w, ident)
        assert not report.ok
        assert 0.01 in report.failures
        assert "ConeCondition" in report.failures[0.01]
        assert 1.0 in report.sup_phi_by_eps
        # the member keeps the exception object; failures its "<Type>: <message>"
        (failed,) = [m for m in report.members if not m.ok]
        assert isinstance(failed.error, ConeConditionError)
        assert report.failures[0.01] == f"ConeConditionError: {failed.error}"


class TestOneLattice:
    """A run's lattice is chi0's: forms and a start potential sampled on
    another lattice, or of the other backend, are refused with one message
    before any member starts (they ran, or failed inside numpy)."""

    SHIFT = {"degenerate_split": (0.01, 0.01), "nonsplit_perturbed": (0.01,) * 4}

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(flow, "_make_kernel", refused)

    @staticmethod
    def _runs(cfg, pb, omega0, omega_hat, phi0):
        args = (pb.chi0, omega0, omega_hat)
        return {
            "evolve": lambda: evolve(cfg, *args, phi0=phi0, divisor=pb.divisor),
            "make_state": lambda: make_state(cfg, *args, phi0=phi0, divisor=pb.divisor),
            "epsilon_family": lambda: epsilon_family(cfg, [0.2, 0.1], *args, phi0=phi0,
                                                     divisor=pb.divisor),
        }

    @pytest.mark.parametrize("entry", ["evolve", "make_state", "epsilon_family"])
    @pytest.mark.parametrize("which", ["omega0", "omega_hat"])
    def test_omega_from_another_lattice(self, entry, which):
        pb = build_preset("nonsplit_perturbed", n=8)
        other = build_preset("nonsplit_perturbed", n=8, offsets=self.SHIFT[pb.name])
        forms = {"omega0": pb.omega0, "omega_hat": pb.omega_hat, which: getattr(other, which)}
        run = self._runs(FlowConfig(eps=0.1, max_time=1e-3), pb, forms["omega0"],
                         forms["omega_hat"], None)[entry]
        message = f"flow: grids differ ({pb.grid} vs {other.grid})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()

    @pytest.mark.parametrize("entry", ["evolve", "make_state", "epsilon_family"])
    @pytest.mark.parametrize("name", ["degenerate_split", "nonsplit_perturbed"])
    def test_phi0_from_another_lattice_of_the_same_n(self, entry, name):
        pb = build_preset(name, n=8, offsets=self.SHIFT[name])
        phi0 = random_bandlimited_potential(build_preset(name, n=8), np.random.default_rng(1))
        run = self._runs(FlowConfig(eps=0.1, max_time=1e-3), pb, pb.omega0, pb.omega_hat,
                         phi0)[entry]
        message = f"flow: grids differ ({pb.grid} vs {phi0.grid})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()

    @pytest.mark.parametrize("entry", ["evolve", "make_state", "epsilon_family"])
    @pytest.mark.parametrize("name, other", [("degenerate_split", "nonsplit_perturbed"),
                                             ("nonsplit_perturbed", "degenerate_split")])
    def test_phi0_of_the_other_backend(self, entry, name, other):
        pb = build_preset(name, n=8)
        phi0 = random_bandlimited_potential(build_preset(other, n=8), np.random.default_rng(1))
        run = self._runs(FlowConfig(eps=0.1, max_time=1e-3), pb, pb.omega0, pb.omega_hat,
                         phi0)[entry]
        message = f"flow: grids differ ({pb.grid} vs {phi0.grid})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()

    @pytest.mark.parametrize("entry", ["evolve", "make_state", "epsilon_family"])
    def test_scalar_phi0_on_the_factor_lattice(self, entry):
        # its (n, n) values were broadcast over both factors: phi1 = phi2
        pb = build_preset("degenerate_split", n=8)
        x = pb.grid.coords()[0]
        phi0 = ScalarField(pb.grid, np.broadcast_to(0.01 * np.cos(2 * np.pi * x), pb.grid.shape))
        run = self._runs(FlowConfig(eps=0.1, max_time=1e-3), pb, pb.omega0, pb.omega_hat,
                         phi0)[entry]
        message = "flow: potential types differ (SplitPotential vs ScalarField)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()


class TestMaxPrincipleMonitor:
    def test_stationary_run_of_one_row_passes(self):
        # phi = 0 is the identity preset's limit: the run stops at its first
        # row, and one row breaks no maximum principle
        pb = build_preset("identity", n=8)
        traj = evolve(FlowConfig(eps=0.0), pb.chi0, pb.omega0, pb.omega_hat)
        assert len(traj.rows) == 1
        assert max_principle_monitor(traj).ok

    def test_near_stationary_passes(self):
        # exact stationarity stops at the first row, so seed a microscopic
        # mode to generate a run of many rows
        pb = build_preset("identity", n=8)
        x1 = pb.grid.coords()[0]
        phi0 = ScalarField(
            pb.grid,
            np.broadcast_to(1e-10 * np.cos(2 * np.pi * x1), pb.grid.shape).copy(),
        )
        traj = evolve(
            FlowConfig(eps=0.0, stop_tolerance=1e-300,
                       max_time=3e-3, snapshot_stride=1),
            pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0,
        )
        assert len(traj.rows) >= 3
        assert max_principle_monitor(traj).ok

    def test_smooth_run_passes_and_sup_decays(self, smooth8_run):
        verdict = max_principle_monitor(smooth8_run)
        assert verdict.ok
        sups = [r.max_phidot for r in smooth8_run.rows]
        assert sups[-1] < sups[0]

    def test_trace_identity_at_snapshots(self, smooth8, smooth8_run):
        # tr = c - phi_dot is definitional; recompute independently
        pb = smooth8.to_full()
        t, snap = smooth8_run.snapshots[-1]
        phi = snap.assemble()
        chi = pb.chi0.realized + complex_hessian(phi)
        tr = trace_with(chi, pb.omega0.realized, pb.grid)
        rhs = flow_rhs(phi, pb.chi0, pb.omega0, smooth8_run.c_eps)
        assert np.abs(tr.values - (smooth8_run.c_eps - rhs.values)).max() < 1e-12

    def test_n8_transient_rise_is_spatial(self):
        # sup phi_dot of the N = 8 nonsplit scheme rises by about 1.0e-2
        # (1.3007 -> 1.3106 at t = 2.6e-4) and is back below its start at
        # t = 1.34e-3 (RK4) / 1.37e-3 (RKC); RK4 at its stability limit and
        # error-controlled RKC give the same peak (to 5e-8), so the rise
        # belongs to the semi-discrete equation, not to the time step
        pb = build_preset("nonsplit_perturbed", n=8)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(1))
        peaks = []
        for integrator in ("rk4", "rkc"):
            cfg = FlowConfig(eps=0.1, dt_safety=0.8, max_time=2e-3, snapshot_stride=1,
                             integrator=integrator)
            traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0,
                          divisor=pb.divisor)
            sups = [r.max_phidot for r in traj.rows]
            assert max(sups) > sups[0] + 1e-3 and sups[-1] < sups[0]
            peaks.append(max(sups))
        assert abs(peaks[0] - peaks[1]) < 1e-6

    def test_inf_fall_reported(self):
        # hand-made rows: inf phi_dot falls by 0.1 at t = 1; the trace bound
        # that this fall breaks is trace_bound_check's verdict, not this one's
        rows = [flow.HistoryRow(t, 0.0, 0.0, 0.0, 1.0, hi, lo, 0.0)
                for t, hi, lo in ((0.0, 1.0, -1.0), (1.0, 0.9, -1.1), (2.0, 0.8, -0.5))]
        traj = flow.Trajectory("split", 0.1, 2.0, rows, [], None, "max_time", 2, 0,
                               "rkc", 3)
        verdict = max_principle_monitor(traj)
        assert not verdict.ok
        assert verdict.failures == ((1.0, "inf phi_dot decreased", -1.0 - (-1.1)),)

    def test_two_rows_whose_sup_rises_fail(self):
        # a short run keeps only its first and last rows; between them the
        # N = 8 scheme's transient lifts sup phi_dot by about 7.3e-3
        pb = build_preset("nonsplit_perturbed", n=8, offsets=(0.01,) * 4)
        cfg = FlowConfig(eps=0.1, max_time=1e-4, snapshot_stride=100000)
        traj = evolve(cfg, pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor)
        assert len(traj.rows) == 2
        verdict = max_principle_monitor(traj)
        assert not verdict.ok
        (t, what, by), = verdict.failures
        assert (t, what) == (traj.rows[1].t, "sup phi_dot increased")
        assert by == pytest.approx(7.3e-3, rel=0.01)


class TestConvergenceFromAnyStart:
    # (preset, N, offsets, eps); the offsets keep eps = 0 off the divisor
    CASES = ([("nonsplit_perturbed", 8, (0.0375, 0.0375, 0.0, 0.0), eps)
              for eps in (0.1, 0.05, 0.0)]
             + [("degenerate_split", 16, (0.01, 0.01), eps) for eps in (0.1, 0.0)])

    @settings(derandomize=True, deadline=None, max_examples=12, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(CASES))
    def test_random_start_reaches_the_closed_form_limit(self, seed, case):
        # the flow converges from any admissible start to the unique
        # critical point, which every preset has in closed form; the maximum
        # principle is not gated here (the N = 8 scheme's transient rises)
        name, n, offsets, eps = case
        pb = build_preset(name, n=n, offsets=offsets)
        phi0 = random_bandlimited_potential(pb, np.random.default_rng(seed))
        traj = evolve(FlowConfig(eps=eps, dt_safety=0.8, stop_tolerance=1e-7),
                      pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0, divisor=pb.divisor)
        assert traj.stop_reason == "converged"
        limit = (nonsplit_limit(pb, eps) if pb.backend == "full"
                 else degenerate_limit(pb.grid, eps).assemble())
        assert compare_up_to_constant(traj.final_potential(), limit) <= 1e-6


class TestUniqueness:
    def test_two_initializations_share_limit(self, smooth8):
        pb = smooth8
        x, y = pb.grid.coords()
        phi0 = SplitPotential(pb.grid, np.stack((
            0.02 * np.cos(2 * np.pi * y) * np.ones_like(x + y),
            np.zeros(pb.grid.shape),
        )))
        t1 = evolve(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat)
        t2 = evolve(smooth_cfg(), pb.chi0, pb.omega0, pb.omega_hat, phi0=phi0)
        a = t1.final_potential()
        b = t2.final_potential()
        assert compare_up_to_constant(a, b) < 1e-6
