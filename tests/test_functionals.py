import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jflow import torus
from jflow.cohomology import ClosedForm, CohomologyClass
from jflow.errors import PositivityError
from jflow.functionals import (
    E_aubin_yau,
    FunctionalReport,
    I_functional,
    J_closed,
    evaluate_suite,
    mabuchi_closed,
)
from jflow.presets import build_preset, random_bandlimited_potential
from oracles import (
    J_gradient_check,
    J_path,
    i_functional_split,
    integrate,
    j_closed_split,
    j_gradient_density,
    mabuchi_path,
    mean_scalar_curvature,
    scalar_curvature,
    split_critical,
)
from jflow.torus import Grid, ScalarField, SpectralOps, _wedge, complex_hessian, positivity_margin


@pytest.fixture(scope="module")
def setup():
    grid = Grid(12)
    ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
    return grid, ident


def rand_phi(grid, rng, amp=0.08, kmax=2):
    x = grid.coords()
    v = np.zeros(grid.shape)
    for _ in range(5):
        k = rng.integers(-kmax, kmax + 1, size=4)
        if not np.any(k):
            continue
        arg = sum(2 * np.pi * ki * xi for ki, xi in zip(k, x))
        v = v + rng.normal() * np.cos(arg + rng.uniform(0, 2 * np.pi))
    v *= amp / max(np.abs(v).max(), 1e-30)
    return ScalarField(grid, v)


def chi_safe_phi(grid, rng, margin=0.5, kmax=2):
    """Random band-limited potential rescaled so Id + dd^c(phi) keeps the
    requested positivity margin (the hessian amplifies each mode by k^2)."""
    phi = rand_phi(grid, rng, amp=1.0, kmax=kmax)
    worst = positivity_margin(complex_hessian(phi))
    scale = (1.0 - margin) / max(-worst, 1e-30)
    return ScalarField(grid, scale * phi.values)


class TestJClosed:
    def test_zero(self, setup):
        grid, ident = setup
        assert J_closed(ScalarField.zeros(grid), ident, ident, 2.0) == 0.0

    def test_constant_shift_invariance(self, setup):
        grid, ident = setup
        k = 0.37
        assert abs(J_closed(ScalarField.zeros(grid).shifted(k), ident, ident, 2.0)) < 1e-14
        rng = np.random.default_rng(1)
        phi = rand_phi(grid, rng)
        j1 = J_closed(phi, ident, ident, 2.0)
        j2 = J_closed(phi.shifted(5.0), ident, ident, 2.0)
        assert abs(j1 - j2) < 1e-10

    def test_matches_path_on_single_mode(self, setup):
        grid, ident = setup
        x1 = grid.coords()[0]
        phi = ScalarField(
            grid, np.broadcast_to(0.1 * np.cos(2 * np.pi * x1), grid.shape).copy()
        )
        assert abs(J_closed(phi, ident, ident, 2.0) - J_path(phi, ident, ident, 2.0)) < 1e-8


class TestJPath:
    def test_zero(self, setup):
        grid, ident = setup
        assert J_path(ScalarField.zeros(grid), ident, ident, 2.0) == 0.0

    def test_path_independence(self, setup):
        grid, ident = setup
        rng = np.random.default_rng(3)
        phi = rand_phi(grid, rng)
        linear = J_path(phi, ident, ident, 2.0, steps=16)
        quadratic = J_path(
            phi, ident, ident, 2.0, steps=16,
            reparam=(lambda s: s * s, lambda s: 2 * s),
        )
        assert abs(linear - quadratic) < 1e-8

    def test_agreement_with_closed_random(self, setup):
        grid, ident = setup
        rng = np.random.default_rng(4)
        for _ in range(3):
            phi = rand_phi(grid, rng)
            assert abs(J_closed(phi, ident, ident, 2.0) - J_path(phi, ident, ident, 2.0)) < 1e-8

    def test_needs_enough_steps(self, setup):
        grid, ident = setup
        with pytest.raises(ValueError):
            J_path(ScalarField.zeros(grid), ident, ident, 2.0, steps=4)


class TestJGradient:
    def test_constant_direction_is_exact_zero(self, setup):
        # cohomological identity 2 X.W - c0 X^2 = 0 in discrete form
        grid, ident = setup
        rng = np.random.default_rng(5)
        phi = rand_phi(grid, rng)
        dens = j_gradient_density(phi, ident, ident, 2.0)
        assert abs(integrate(dens.values)) < 1e-12

    def test_fd_matches_analytic(self, setup):
        grid, ident = setup
        rng = np.random.default_rng(6)
        phi = chi_safe_phi(grid, rng)
        v = rand_phi(grid, rng, amp=0.1, kmax=1)
        assert J_gradient_check(phi, v, ident, ident, 2.0) < 1e-6

    def test_wrong_density_is_caught(self, setup, monkeypatch):
        # a direction with a component along phi has a nonzero derivative,
        # so a gradient density off by a factor of two must show
        import oracles

        grid, ident = setup
        rng = np.random.default_rng(8)
        phi = chi_safe_phi(grid, rng)
        v_rand = rand_phi(grid, rng, amp=1.0, kmax=1)
        v = ScalarField(
            grid, 0.05 * (v_rand.values + phi.values / np.abs(phi.values).max())
        )
        assert J_gradient_check(phi, v, ident, ident, 2.0) < 1e-6

        true_density = oracles.j_gradient_density
        monkeypatch.setattr(
            oracles,
            "j_gradient_density",
            lambda *a: ScalarField(grid, 2.0 * true_density(*a).values),
        )
        assert J_gradient_check(phi, v, ident, ident, 2.0) >= 1e-2

    def test_vanishing_density_is_not_an_error(self, setup):
        # at phi = 0 with chi0 = omega0 = Id and c0 = 2 the gradient density
        # cancels identically, so the finite difference is pure roundoff
        grid, ident = setup
        phi = ScalarField.zeros(grid)
        assert np.all(j_gradient_density(phi, ident, ident, 2.0).values == 0.0)
        v = rand_phi(grid, np.random.default_rng(10), amp=0.1, kmax=1)
        assert J_gradient_check(phi, v, ident, ident, 2.0) < 1e-6

    def test_zero_direction_is_zero(self, setup):
        grid, ident = setup
        phi = chi_safe_phi(grid, np.random.default_rng(9))
        rel = J_gradient_check(phi, ScalarField.zeros(grid), ident, ident, 2.0)
        assert rel == 0.0 and isinstance(rel, float)

    def test_vanishes_at_critical_point(self):
        pb = build_preset("smooth_split", n=16).to_full()
        from jflow.presets import smooth_profile
        from jflow.split import SplitPotential

        fg = build_preset("smooth_split", n=16).grid
        _, _, p1, p2 = split_critical(smooth_profile(fg), np.ones(fg.shape), fgrid=fg)
        phi = SplitPotential(fg, np.stack((p1, p2))).assemble()
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rand_phi(phi.grid, rng, amp=1.0)
            dens = j_gradient_density(phi, pb.chi0, pb.omega0, 2.0)
            pairing = 4.0 * float(np.mean(v.values * dens.values))
            assert abs(pairing) < 1e-8


class TestIFunctional:
    def test_zero(self, setup):
        grid, ident = setup
        assert I_functional(ScalarField.zeros(grid), ident) == 0.0

    def test_constant_gives_class_volume(self, setup):
        grid, ident = setup
        k = 0.61
        assert abs(I_functional(ScalarField.zeros(grid).shifted(k), ident) - 8.0 * k) < 1e-12


class TestAubinYau:
    def test_zero_and_constant(self, setup):
        grid, ident = setup
        assert E_aubin_yau(ScalarField.zeros(grid), ident) == 0.0
        assert E_aubin_yau(ScalarField.zeros(grid).shifted(3.0), ident) == 0.0

    def test_phi_on_another_lattice_is_refused(self, setup):
        # it gave a value, where J_closed refuses the same phi
        grid, ident = setup
        shifted = Grid(grid.n, (0.5 / grid.n, 0.0, 0.0, 0.0))
        phi = ScalarField(shifted, np.cos(2 * np.pi * shifted.coords()[0]) * np.ones(grid.shape))
        with pytest.raises(ValueError, match=r"^E_aubin_yau: grids differ"):
            E_aubin_yau(phi, ident)
        with pytest.raises(ValueError, match="grids differ"):
            J_closed(phi, ident, ident, 2.0)

    def test_single_mode_closed_form(self, setup):
        grid, ident = setup
        x1 = grid.coords()[0]
        phi = ScalarField(
            grid, np.broadcast_to(0.1 * np.cos(2 * np.pi * x1), grid.shape).copy()
        )
        # |d_z1 phi|^2 = 0.01 pi^2 sin^2; paired against diag(b1, b2) it
        # weighs b2; b2 = chi0 + chi_phi = 2 everywhere in the 22-slot
        expected = 4.0 * (0.01 * np.pi ** 2 * 0.5 * 2.0)
        assert abs(E_aubin_yau(phi, ident, ) - expected) < 1e-12

    def test_nonnegative_for_positive_background(self, setup):
        grid, ident = setup
        rng = np.random.default_rng(8)
        for _ in range(3):
            phi = rand_phi(grid, rng, amp=0.05)
            assert E_aubin_yau(phi, ident) >= 0.0

    def test_invariant_under_torus_isometries(self):
        # white noise carries the Nyquist rows, where dd^c commutes with
        # y -> -y, x -> -x and z1 <-> z2 because its mixed entries take the
        # odd first-derivative frequencies (0 there)
        grid = Grid(8)
        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        v = 0.01 * np.random.default_rng(0).normal(size=grid.shape)
        flip = (-np.arange(grid.n)) % grid.n
        isometries = (
            lambda a: a,
            lambda a: a[:, flip][:, :, :, flip],  # y1, y2 -> -y1, -y2
            lambda a: a[flip][:, :, flip],  # x1, x2 -> -x1, -x2
            lambda a: a.transpose(2, 3, 0, 1),  # z1 <-> z2
        )
        for iso in isometries:
            e = E_aubin_yau(ScalarField(grid, np.ascontiguousarray(iso(v))), ident)
            assert e == pytest.approx(0.172683208, rel=1e-8)
            assert e == pytest.approx(E_aubin_yau(ScalarField(grid, v), ident), rel=1e-12)


class TestScalarCurvature:
    def test_flat_zero(self, setup):
        grid, ident = setup
        r = scalar_curvature(ident.realized, grid)
        assert r.sup() < 1e-14

    def test_constant_rescale_zero(self, setup):
        grid, _ = setup
        r = scalar_curvature(ClosedForm.from_class(CohomologyClass.diag(2.0, 2.0), grid).realized,
                             grid)
        assert r.sup() < 1e-14

    def test_total_curvature_is_topological(self, setup):
        # int R chi^2 equals a class pairing (zero on the torus) for every
        # deformation: Chern-Weil at the discrete level
        grid, ident = setup
        rng = np.random.default_rng(9)
        phi = chi_safe_phi(grid, rng, margin=0.4)
        hess = complex_hessian(phi)
        for s in (0.0, 0.5, 1.0):
            chi = ident.realized + s * hess
            total = integrate(scalar_curvature(chi, grid).values * _wedge(chi, chi))
            assert abs(total) < 1e-8

    def test_mean_scalar_curvature_zero(self, setup):
        grid, ident = setup
        assert abs(mean_scalar_curvature(ident.realized, grid)) < 1e-12

    def test_rejects_nonpositive(self, setup):
        grid, _ = setup
        with pytest.raises(PositivityError):
            scalar_curvature(ClosedForm.from_class(CohomologyClass.diag(-1.0, 1.0), grid).realized,
                             grid)


@functools.lru_cache(maxsize=None)
def _background(name):
    return build_preset(name, n=12).chi0


# the closed form and its path oracle, checked in one test each so that the
# test ids stay those of the path-only tests
MABUCHI = (mabuchi_closed, mabuchi_path)


class TestMabuchi:
    def test_zero_and_constant(self, setup):
        grid, ident = setup
        for mabuchi in MABUCHI:
            assert mabuchi(ScalarField.zeros(grid), ident) == 0.0
            assert abs(mabuchi(ScalarField.zeros(grid).shifted(2.0), ident)) < 1e-12

    @settings(derandomize=True, deadline=None, max_examples=20, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), margin=st.floats(0.4, 0.9),
           background=st.sampled_from(("identity", "nonsplit_perturbed")))
    def test_closed_form_matches_path(self, seed, margin, background):
        # Chen's decomposition against the 32-step path quadrature: band-
        # limited phi (|k| <= 2) keeping Id + dd^c phi above the margin,
        # scaled to half of chi0's own margin on the perturbed background
        chi0 = _background(background)
        grid = chi0.grid
        phi = chi_safe_phi(grid, np.random.default_rng(seed), margin=margin)
        phi = ScalarField(grid, min(1.0, 0.5 * positivity_margin(chi0.realized)) * phi.values)
        closed = mabuchi_closed(phi, chi0)
        path = mabuchi_path(phi, chi0, steps=32)
        assert closed == pytest.approx(path, rel=1e-10)

    def test_f_stable_across_resolutions(self, setup):
        grid, ident = setup
        rng = np.random.default_rng(10)
        phi = chi_safe_phi(grid, rng, margin=0.4)
        j = J_closed(phi, ident, ident, 2.0)
        f_s = mabuchi_path(phi, ident, steps=16) - j
        f_2s = mabuchi_path(phi, ident, steps=32) - j
        assert abs(f_s - f_2s) < 1e-6

    def test_positivity_failure_on_path(self, setup):
        grid, ident = setup
        x1 = grid.coords()[0]
        phi = ScalarField(
            grid, np.broadcast_to(0.2 * np.cos(2 * np.pi * x1), grid.shape).copy()
        )
        for mabuchi in MABUCHI:
            with pytest.raises(PositivityError):
                mabuchi(phi, ident)


class TestSuiteAndSplitEvaluations:
    def test_report_shape(self, setup):
        grid, ident = setup
        rng = np.random.default_rng(11)
        phi = chi_safe_phi(grid, rng, margin=0.4)
        rep = evaluate_suite(phi, ident, ident, 2.0)
        assert isinstance(rep, FunctionalReport)
        assert rep.f == rep.m - rep.j

    def test_nonpositive_potential_skips_mabuchi(self, setup):
        # h11 = 1 - 0.2 pi^2 cos(2 pi x1) < 0 at x1 = 0: M and F need chi_phi > 0
        grid, ident = setup
        phi = ScalarField(grid, 0.2 * np.cos(2 * np.pi * grid.coords()[0])
                          * np.ones(grid.shape))
        with pytest.raises(PositivityError) as err:
            mabuchi_closed(phi, ident)
        rep = evaluate_suite(phi, ident, ident, 2.0)
        assert rep.m is None and rep.f is None
        assert rep.notes == f"mabuchi skipped: {err.value}"
        assert rep.j == J_closed(phi, ident, ident, 2.0)

    def test_energies_call_no_transform(self, monkeypatch):
        # E, M and the suite take dd^c by matrix products only, once the
        # spectral matrices and chi0's realization are built
        pb = build_preset("nonsplit_perturbed", n=8)
        grid = pb.chi0.grid
        SpectralOps.of(grid)
        pb.chi0.realized
        pb.omega0.realized
        phi = random_bandlimited_potential(pb, np.random.default_rng(13))

        def refuse(*args, **kwargs):
            raise AssertionError("transform called")

        for name in ("rfftn", "irfftn", "fftn", "ifftn", "rfft", "irfft"):
            monkeypatch.setattr(torus.sfft, name, refuse)
        E_aubin_yau(phi, pb.chi0)
        mabuchi_closed(phi, pb.chi0)
        rep = evaluate_suite(phi, pb.chi0, pb.omega0, 2.0)
        assert rep.m is not None

    def test_split_matches_full(self):
        pb = build_preset("degenerate_split", n=12)
        rng = np.random.default_rng(12)
        phi = random_bandlimited_potential(pb, rng)
        full = pb.to_full()
        phi4 = phi.assemble(full.grid)
        c = 2.0
        j_split = j_closed_split(phi, pb.chi0, pb.omega0, c)
        j_full = J_closed(phi4, full.chi0, full.omega0, c)
        assert abs(j_split - j_full) < 1e-11
        i_split = i_functional_split(phi, pb.chi0)
        i_full = I_functional(phi4, full.chi0)
        assert abs(i_split - i_full) < 1e-11
