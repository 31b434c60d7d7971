from dataclasses import replace

import numpy as np
import pytest

from jflow.diagnostics import (
    FIT_BAND,
    compare_up_to_constant,
    fit_points,
    j_monotone_check,
    q_monitor,
    q_values,
    singular_profile_fit,
    trace_bound_check,
    uniformity_report,
)
from jflow.errors import ConfigError, FitError
from jflow.flow import (
    _MONITOR_TOL,
    FlowConfig,
    HistoryRow,
    MonitorVerdict,
    Trajectory,
    epsilon_family,
    max_principle_monitor,
)
from jflow.presets import build_preset, make_divisor
from jflow.split import SplitPotential
from jflow.torus import Grid, ScalarField


@pytest.fixture(scope="module")
def family12():
    pb = build_preset("degenerate_split", n=12)
    cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-7,
                     max_time=2.0, snapshot_stride=100)
    return pb, epsilon_family(
        cfg, [0.2, 0.1], pb.chi0, pb.omega0, pb.omega_hat, divisor=pb.divisor
    )


class TestUniformity:
    def test_preset_family_within_budgets(self, family12):
        _, fam = family12
        rep = uniformity_report(
            fam, budget_phi=1 / np.pi ** 2 + 0.01, budget_phidot=1.05
        )
        assert rep.ok

    def test_single_member_trivially_passes(self):
        pb = build_preset("degenerate_split", n=8)
        cfg = FlowConfig(eps=0.2, dt_safety=0.8, stop_tolerance=1e-6,
                         max_time=1.0, snapshot_stride=50)
        fam = epsilon_family(cfg, [0.2], pb.chi0, pb.omega0, pb.omega_hat,
                             divisor=pb.divisor)
        rep = uniformity_report(fam, budget_phi=1.0, budget_phidot=2.0)
        assert rep.ok

    def test_no_member_ran_is_a_failing_verdict(self, family12):
        # it raised ValueError, which ended the family command in a traceback
        _, fam = family12
        assert uniformity_report(replace(fam, members=[])) == MonitorVerdict(
            False, ("no member ran",))

    def test_budget_violation_reported(self, family12):
        _, fam = family12
        rep = uniformity_report(fam, budget_phi=1e-6, budget_phidot=1.05)
        assert not rep.ok
        assert any("sup|phi|" in f for f in rep.failures)

    def test_divergent_trend_reported(self, family12):
        # the smaller eps's limit scaled by 2: the limits' sups grow by more
        # than the trend ratio as eps decreases
        _, fam = family12
        hi, lo = fam.members
        phi = lo.trajectory.final
        doubled = SplitPotential(phi.grid, 2.0 * phi.values)
        lo = replace(lo, trajectory=replace(lo.trajectory, final=doubled))
        rep = uniformity_report(replace(fam, members=[hi, lo]))
        s_hi, s_lo = (m.trajectory.final_potential().mean_normalized().sup()
                      for m in (hi, lo))
        assert not rep.ok
        assert rep.failures == (f"divergent trend between eps=0.2 and eps=0.1: "
                                f"sup ratio {s_lo / s_hi:.4f} > 1.1",)

    def test_budgets_hold_to_smallest_epsilon(self):
        # the uniform bounds stay inside the same budgets down to eps=0.025
        pb = build_preset("degenerate_split", n=12)
        cfg = FlowConfig(eps=0.05, dt_safety=0.8, stop_tolerance=1e-7,
                         max_time=3.0, snapshot_stride=200)
        fam = epsilon_family(cfg, [0.05, 0.025], pb.chi0, pb.omega0,
                             pb.omega_hat, divisor=pb.divisor)
        rep = uniformity_report(
            fam, budget_phi=1 / np.pi ** 2 + 0.01, budget_phidot=1.05
        )
        assert rep.ok, rep.failures


class TestTraceBound:
    def test_on_runs(self, family12):
        _, fam = family12
        for m in fam.members:
            assert trace_bound_check(m.trajectory).ok

    def test_converged_run_trace_at_c(self, family12):
        # phi_dot -> 0: trace approaches c_eps from below plus tolerance
        _, fam = family12
        traj = fam.members[0].trajectory
        last = traj.rows[-1]
        assert traj.c_eps - last.min_phidot <= traj.c_eps + 1e-6

    @staticmethod
    def _rows_traj(rows):
        """A hand-made split trajectory with c_eps = 2 and the given
        (t, max phi_dot, min phi_dot) rows."""
        rows = [HistoryRow(t, 0.0, 0.0, 0.0, 1.0, hi, lo, 0.0) for t, hi, lo in rows]
        return Trajectory("split", 0.1, 2.0, rows, [], None, "max_time", 2, 0, "rkc", 3)

    def test_excess_reported(self):
        # inf phi_dot falls by 0.1 at t = 1, which lifts the trace c - inf
        # phi_dot above c + sup|phi_dot(0)| there
        traj = self._rows_traj(((0.0, 1.0, -1.0), (1.0, 0.9, -1.1), (2.0, 0.8, -0.5)))
        verdict = trace_bound_check(traj)
        assert not verdict.ok
        assert verdict.failures == (
            (1.0, "trace bound exceeded", (2.0 - (-1.1)) - (2.0 + 1.0 + _MONITOR_TOL)),
        )

    def test_slow_fall_breaks_the_bound_not_the_max_principle(self):
        # inf phi_dot falls by 0.6 tolerance per row: no row-to-row fall
        # reaches the tolerance, but from t = 2 on the total one does
        step = 0.6 * _MONITOR_TOL
        traj = self._rows_traj([(float(k), 1.0, -1.0 - k * step) for k in range(5)])
        assert max_principle_monitor(traj).ok
        verdict = trace_bound_check(traj)
        assert not verdict.ok
        assert [t for t, what, _ in verdict.failures] == [2.0, 3.0, 4.0]
        assert all(what == "trace bound exceeded" and 0.0 < by < 3 * step
                   for _, what, by in verdict.failures)


class TestJMonotone:
    @staticmethod
    def _j_traj(rows):
        """A hand-made split trajectory with the given (t, J) rows."""
        rows = [HistoryRow(t, 0.0, j, 0.0, 1.0, 0.0, 0.0, 0.0) for t, j in rows]
        return Trajectory("split", 0.1, 2.0, rows, [], None, "max_time", 2, 0, "rkc", 3)

    def test_rise_reported(self):
        # J rises by 0.25 at t = 1 and by rounding only at t = 3
        traj = self._j_traj(((0.0, 1.0), (1.0, 1.25), (2.0, 0.5), (3.0, 0.5 + 1e-13)))
        verdict = j_monotone_check(traj)
        assert not verdict.ok
        assert verdict.failures == ((1.0, "J increased", 0.25),)

    def test_nan_fails(self):
        # no comparison with a NaN holds: the row of the NaN and the next fail
        verdict = j_monotone_check(self._j_traj(((0.0, 1.0), (1.0, np.nan), (2.0, 0.5))))
        assert not verdict.ok
        assert [t for t, what, _ in verdict.failures] == [1.0, 2.0]
        assert all(what == "J increased" and np.isnan(by) for _, what, by in verdict.failures)

    def test_one_row_and_runs_pass(self, family12):
        assert j_monotone_check(self._j_traj(((0.0, 1.0),))).ok
        for m in family12[1].members:
            assert j_monotone_check(m.trajectory).ok


class TestSingularFit:
    def test_bounded_profile_gives_zero(self):
        pb = build_preset("degenerate_split", n=16)
        div = pb.divisor
        s2 = div.s2_proxy(pb.grid).values
        from jflow.presets import degenerate_profile

        u = degenerate_profile(pb.grid) + 1.0  # tr of the degenerate limit
        gamma, c = singular_profile_fit(u, s2)
        assert gamma <= 0.05

    def test_recovers_synthetic_exponent(self):
        pb = build_preset("degenerate_split", n=16)
        s2 = pb.divisor.s2_proxy(pb.grid).values
        u = np.where(s2 > 0, s2, 1.0) ** (-0.3)
        gamma, c = singular_profile_fit(u, s2)
        assert abs(gamma - 0.3) <= 0.02
        assert abs(c - 1.0) < 0.05

    def test_too_few_points(self):
        pb = build_preset("degenerate_split", n=8)
        s2 = pb.divisor.s2_proxy(pb.grid).values
        with pytest.raises(FitError):
            singular_profile_fit(np.ones_like(s2), s2, band=(1e-7, 1e-6))

    def test_fit_is_the_line_through_fit_points(self):
        pb = build_preset("degenerate_split", n=16)
        s2 = pb.divisor.s2_proxy(pb.grid).values
        x = pb.grid.coords()[0]
        u = np.where(s2 > 0, s2, 1.0) ** (-0.3) * (1.0 + 0.5 * np.cos(2 * np.pi * x))
        u[3, 5] = -1.0  # not a fit point: log u needs u > 0
        sel = (s2 >= FIT_BAND[0]) & (s2 <= FIT_BAND[1]) & (u > 0)
        points = fit_points(u, s2)
        assert np.array_equal(points, np.column_stack([-np.log(s2[sel]), np.log(u[sel])]))
        slope, intercept = np.polyfit(points[:, 0], points[:, 1], 1)
        assert singular_profile_fit(u, s2) == (max(slope, 0.0), np.exp(intercept))

    def test_too_few_points_counts_the_fit_points(self):
        pb = build_preset("degenerate_split", n=8)
        s2 = pb.divisor.s2_proxy(pb.grid).values
        u = np.ones_like(s2)
        band = (0.1, 0.2)  # s2 = sin^2(pi/8) at the origin's four neighbours
        assert len(fit_points(u, s2, band)) == 4
        u[1, 0] = -1.0
        assert len(fit_points(u, s2, band)) == 3
        with pytest.raises(FitError, match=r"only 3 grid points have s2 in \[0.1, 0.2\]; "
                                           "need 8"):
            singular_profile_fit(u, s2, band)

    def test_single_abscissa_is_refused(self):
        # at N = 4 with offsets 1e-4 every point in the band has the same
        # s2: polyfit warned and read gamma 0.4995 for the bounded u = 2
        pb = build_preset("degenerate_split", n=4, offsets=(1e-4, 1e-4)).to_full()
        s2 = pb.divisor.s2_proxy(pb.grid).values
        u = np.full(pb.grid.shape, 2.0)
        assert len(fit_points(u, s2)) == 32
        with pytest.raises(FitError, match="all 32 points share -log s2 = 0.693775"):
            singular_profile_fit(u, s2)


class TestQMonitor:
    def test_constants_of_the_lab_divisor(self):
        # make_divisor builds the one divisor the presets use, beta = 1: Q's
        # constants are A = 4 and delta = beta/2 = 0.5, so A*delta = 2*beta
        div = make_divisor(Grid(8, (0.01, 0.01)))
        assert div.beta == 1.0
        s2 = div.s2_proxy(Grid(8, (0.01, 0.01, 0.01, 0.01))).values
        u = np.full(s2.shape, 2.0)
        phit = -0.5 * np.log(s2)
        c0 = 1.5 - phit.min()
        want = (np.log(2.0) - 4.0 * phit + 1.0 / (phit + c0)).max()
        assert q_values(np.zeros(s2.shape), u, s2, div.beta) == (want, c0)

    def test_bounded_on_family_runs(self, family12):
        pb, fam = family12
        for m in fam.members:
            series, verdict = q_monitor(m.trajectory, pb.divisor)
            assert verdict.ok
            assert len(series) == len(m.trajectory.snapshots)

    def test_failures_are_t_what_by_triples(self):
        # two hand-made snapshots on the 4-D lattice: phi = -0.4 at t = 1
        # lowers phi_tilde by 0.4 everywhere, which lifts Q by more than
        # A * 0.4 = 1.6 at every point, so q_max rises past q_max(0) + 1
        pb = build_preset("degenerate_split", n=8, offsets=(0.01, 0.01)).to_full()
        snaps = [(0.0, ScalarField.zeros(pb.grid)),
                 (1.0, ScalarField(pb.grid, np.full(pb.grid.shape, -0.4)))]
        traj = Trajectory("full", 0.1, 2.0, [], snaps, snaps[-1][1], "max_time", 1, 0,
                          "rkc", 3, chi0_form=pb.chi0)
        series, verdict = q_monitor(traj, pb.divisor)
        assert not verdict.ok
        assert len(verdict.failures) == 1
        t, what, by = verdict.failures[0]
        assert (t, what) == (1.0, "q_max above q_max(0) + 1")
        assert by == series[1][1] - (series[0][1] + 1.0) and by > 0.6

    def test_locus_mask_cap(self):
        # at N = 8 the on-grid locus point is 1/64 > 1% of the factor grid
        pb = build_preset("degenerate_split", n=8).to_full()
        grid = pb.grid
        s2 = pb.divisor.s2_proxy(grid).values
        with pytest.raises(ConfigError, match="mask"):
            q_values(np.zeros(grid.shape), np.full(grid.shape, 2.0), s2, pb.divisor.beta)

    def test_shift_too_small_is_refused(self):
        # off the locus phi_tilde = -0.5 log s2 >= -0.5 log 2: C0 = 1 leaves
        # phi_tilde + C0 below 1; the shift chosen here, 1.5 - min phi_tilde,
        # keeps it at 1.5
        pb = build_preset("degenerate_split", n=8, offsets=(0.01, 0.01)).to_full()
        s2 = pb.divisor.s2_proxy(pb.grid).values
        args = (np.zeros(pb.grid.shape), np.full(pb.grid.shape, 2.0), s2, pb.divisor.beta)
        with pytest.raises(ConfigError, match=r"phi_tilde \+ C0 dips to 0\.65\d* < 1"):
            q_values(*args, c0=1.0)
        assert q_values(*args)[1] == pytest.approx(1.5 + 0.5 * np.log(s2.max()), rel=1e-12)

    def test_phi_tilde_blows_up_near_divisor(self):
        # with an offset grid populating tiny s2 values, phi_tilde in the
        # near-divisor band exceeds its global median
        pb = build_preset("degenerate_split", n=16, offsets=(0.002, 0.0))
        div = pb.divisor
        s2 = div.s2_proxy(pb.grid).values
        assert ((s2 >= 1e-6) & (s2 <= 1e-3)).any()
        delta = 0.5
        phit = 0.0 - delta * np.log(s2)
        band = (s2 >= 1e-6) & (s2 <= 1e-3)
        assert phit[band].min() > np.median(phit)


class TestCompareUpToConstant:
    def test_constant_shift_is_zero(self):
        grid = Grid(8)
        rng = np.random.default_rng(1)
        a = ScalarField(grid, rng.normal(size=grid.shape))
        b = ScalarField(grid, a.values + 17.0)
        assert compare_up_to_constant(a, b) < 1e-12

    def test_pseudometric_axioms(self):
        grid = Grid(8)
        rng = np.random.default_rng(2)
        fields = [ScalarField(grid, rng.normal(size=grid.shape)) for _ in range(3)]
        a, b, c = fields
        dab = compare_up_to_constant(a, b)
        dba = compare_up_to_constant(b, a)
        assert np.isclose(dab, dba)
        dac = compare_up_to_constant(a, c)
        dcb = compare_up_to_constant(c, b)
        assert dab <= dac + dcb + 1e-12

    def test_fields_on_two_lattices_are_refused(self):
        grid, shifted = Grid(8), Grid(8, (0.01, 0.0, 0.0, 0.0))
        values = np.random.default_rng(4).normal(size=grid.shape)
        with pytest.raises(ValueError, match="compare_up_to_constant: grids differ"):
            compare_up_to_constant(ScalarField(grid, values), ScalarField(shifted, values))

    def test_plain_arrays_are_refused(self):
        # an array carries no lattice to check, so it is not compared
        grid = Grid(8)
        values = np.random.default_rng(4).normal(size=grid.shape)
        with pytest.raises(TypeError, match="must be ScalarFields"):
            compare_up_to_constant(ScalarField(grid, values), values + 1.0)
        with pytest.raises(TypeError, match="must be ScalarFields"):
            compare_up_to_constant(values, ScalarField(grid, values))

    def test_mask(self):
        grid = Grid(8)
        rng = np.random.default_rng(3)
        a = ScalarField(grid, rng.normal(size=grid.shape))
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0] = True
        d_masked = compare_up_to_constant(a, ScalarField.zeros(grid), mask)
        assert d_masked > 0
        with pytest.raises(ValueError):
            compare_up_to_constant(a, a, np.zeros(grid.shape, dtype=bool))
