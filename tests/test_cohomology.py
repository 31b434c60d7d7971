import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jflow.cohomology import (
    ClosedForm,
    CohomologyClass,
    DivisorModel,
    c_constant,
    class_pairing,
    cone_condition,
    epsilon_form,
    verify_omega0_conditions,
)
from jflow.errors import PositivityError
from jflow.presets import build_preset, make_divisor, random_bandlimited_potential
from jflow.split import SplitPotential
from jflow.torus import Grid, ScalarField, SpectralOps, _wedge
from oracles import integrate

ID = CohomologyClass.identity()


_entries = st.floats(-10.0, 10.0)
_forms = st.tuples(_entries, _entries, _entries, _entries)


class TestPairing:
    def test_identity(self):
        assert class_pairing(ID, ID) == 8.0

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(a=_forms, b=_forms, c=_forms, s=_entries, t=_entries)
    def test_wedge_is_symmetric_bilinear(self, a, b, c, s, t):
        # the one form algebra: D(a, b) = D(b, a) exactly, linear in each
        # slot; the class pairing 4 D then gives [s Id].[t Id] = 8 s t
        assert _wedge(a, b) == _wedge(b, a)
        sa_tb = tuple(s * x + t * y for x, y in zip(a, b))
        scale = 1.0 + sum(abs(x) for x in a + b + c) ** 2 * (1.0 + abs(s) + abs(t))
        assert _wedge(sa_tb, c) == pytest.approx(
            s * _wedge(a, c) + t * _wedge(b, c), abs=1e-12 * scale)
        assert class_pairing(ID.scale(s), ID.scale(t)) == pytest.approx(
            8.0 * s * t, rel=1e-15, abs=1e-300)

    def test_diagonal(self):
        a = CohomologyClass.diag(2.0, 3.0)
        b = CohomologyClass.diag(5.0, 7.0)
        assert class_pairing(a, b) == 4.0 * (2 * 7 + 3 * 5)

    def test_scaled_identity(self):
        eps = 0.25
        b = CohomologyClass.diag(1 + eps, 1 + eps)
        assert np.isclose(class_pairing(ID, b), 8.0 * (1 + eps))

    def test_matches_integral_of_representatives(self):
        # cohomological invariance: the pairing ignores the potentials
        grid = Grid(8)
        rng = np.random.default_rng(2)
        x1, y1, x2, y2 = grid.coords()
        p = ScalarField(
            grid,
            np.broadcast_to(
                0.2 * np.cos(2 * np.pi * x1) + 0.1 * np.sin(2 * np.pi * (y1 + x2)),
                grid.shape,
            ).copy(),
        )
        q = ScalarField(
            grid,
            np.broadcast_to(
                0.15 * np.sin(2 * np.pi * y2) + 0.1 * np.cos(2 * np.pi * (x1 - y2)),
                grid.shape,
            ).copy(),
        )
        a = CohomologyClass(1.3, 0.8, 0.2 + 0.1j)
        b = CohomologyClass(0.9, 1.1, -0.3j)
        fa = ClosedForm(a, p).realized
        fb = ClosedForm(b, q).realized
        assert abs(integrate(_wedge(fa, fb)) - class_pairing(a, b)) < 1e-10


class TestCConstant:
    def test_self_pairing_gives_two(self):
        assert c_constant(ID, ID) == 2.0
        x = CohomologyClass(1.7, 0.6, 0.3)
        assert np.isclose(c_constant(x, x), 2.0)

    def test_rank_one_target(self):
        assert c_constant(ID, CohomologyClass.diag(1.0, 0.0)) == 1.0

    def test_scaled_target(self):
        eps = 0.1
        assert np.isclose(c_constant(ID, CohomologyClass.diag(1 + eps, 1 + eps)), 2 * (1 + eps))

    def test_scale_covariance(self):
        x = CohomologyClass(1.2, 0.9, 0.1j)
        w = CohomologyClass(0.7, 1.4, 0.2)
        assert np.isclose(c_constant(x.scale(3.0), w), c_constant(x, w) / 3.0)

    def test_requires_kahler(self):
        with pytest.raises(PositivityError):
            c_constant(CohomologyClass.diag(1.0, -1.0), ID)


class TestConeCondition:
    def test_identity_pair(self):
        assert np.isclose(cone_condition(ID, ID), 1.0)

    def test_rank_one_fails(self):
        # c = 1, c*X - W = diag(0, 1): margin 0, condition fails
        assert np.isclose(cone_condition(ID, CohomologyClass.diag(1.0, 0.0)), 0.0)

    def test_degenerate_preset_class(self):
        assert np.isclose(cone_condition(ID, CohomologyClass.diag(1.0, 1.0)), 1.0)

    def test_verdict_scale_invariant(self):
        x = CohomologyClass(1.5, 0.8, 0.2)
        w = CohomologyClass(1.0, 0.6, 0.1)
        m1 = cone_condition(x, w)
        m2 = cone_condition(x.scale(5.0), w)
        assert np.isclose(m1, m2)  # c*X - W is literally the same matrix

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0),
           st.floats(-1.0, 1.0), _forms)
    @example(1.0, 1.0, 0.0, 0.0, (0.0, 0.0, 0.0, 5e-324))
    @example(1.0, 1.0, 0.0, 0.0, (0.0, 0.0, 0.0, 3.9e-200))
    @example(0.5, 1.84375, 0.0, 0.0, (-2.2250738585e-313, 0.0, 0.0, 0.0))
    def test_margin_is_lowest_eigenvalue_of_x_adj_w_x(self, l1, l2, zr, zi, w):
        # X = L L^* with L = [[l1, 0], [z, l2]]; for 2x2 classes
        # c X - W = X adj(W) X / det X, so the margin is positive iff W > 0.
        # The reference is taken on W scaled by the power of two that brings
        # its largest entry into [0.5, 1), and scaled back: in subnormal
        # arithmetic the unscaled product rounds at every step
        z = complex(zr, zi)
        xm = np.array([[l1 * l1, l1 * z.conjugate()], [l1 * z, abs(z) ** 2 + l2 * l2]])
        e = math.frexp(max(abs(v) for v in w))[1]
        ws = [math.ldexp(v, -e) for v in w]
        wm = np.array([[ws[0], complex(ws[2], ws[3])], [complex(ws[2], -ws[3]), ws[1]]])
        adj = np.array([[wm[1, 1], -wm[0, 1]], [-wm[1, 0], wm[0, 0]]])
        ev = np.ldexp(np.linalg.eigvalsh(xm @ adj @ xm / np.linalg.det(xm).real), e)
        margin = cone_condition(
            CohomologyClass(xm[0, 0].real, xm[1, 1].real, xm[0, 1]),
            CohomologyClass(w[0], w[1], complex(w[2], w[3])),
        )
        scale = np.abs(ev).max()
        assert abs(margin - ev[0]) <= 1e-12 * scale
        w_ev = np.linalg.eigvalsh(wm)
        if abs(w_ev[0]) > 1e-9 * np.abs(w_ev).max():  # W's definiteness is clear
            assert (margin > 0.0) == (w_ev[0] > 0.0)


class TestEpsilonForm:
    def test_zero_eps_unchanged(self):
        pb = build_preset("degenerate_split")
        assert epsilon_form(pb.omega0, 0.0, pb.omega_hat) is pb.omega0

    def test_degenerate_profile_shift(self):
        pb = build_preset("degenerate_split")
        w = epsilon_form(pb.omega0, 0.1, pb.omega_hat)
        a, b = w.realized
        from jflow.presets import degenerate_profile

        f = degenerate_profile(pb.grid)
        assert np.abs(a - (f + 0.1)).max() < 1e-12
        assert np.abs(b - 1.1).max() < 1e-12

    def test_class_affine_in_eps(self):
        pb = build_preset("degenerate_split")
        for eps in (0.05, 0.2, 0.7):
            cls = pb.omega_eps_class(eps)
            assert np.isclose(cls.m11, 1 + eps) and np.isclose(cls.m22, 1 + eps)

    def test_rejects_negative_eps(self):
        pb = build_preset("degenerate_split")
        with pytest.raises(ValueError):
            epsilon_form(pb.omega0, -0.1, pb.omega_hat)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        # a nan form's cone margin is nan, which no check refuses
        pb = build_preset("degenerate_split", n=8)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            epsilon_form(pb.omega0, eps, pb.omega_hat)


class TestClosedForm:
    def test_realized_minus_hessian_is_class(self):
        grid = Grid(8)
        x1 = grid.coords()[0]
        p = ScalarField(grid, np.broadcast_to(0.3 * np.cos(2 * np.pi * x1), grid.shape).copy())
        cf = ClosedForm(CohomologyClass(1.1, 0.9, 0.2 - 0.1j), p)
        from jflow.torus import complex_hessian

        diff = cf.realized - complex_hessian(p)
        assert np.abs(diff[0] - 1.1).max() < 1e-10
        assert np.abs(diff[1] - 0.9).max() < 1e-10
        assert np.abs(diff[2] - 0.2).max() < 1e-10
        assert np.abs(diff[3] + 0.1).max() < 1e-10


    @pytest.mark.parametrize("make", [
        lambda g: ClosedForm.from_class(ID, g),
        lambda g: ClosedForm.from_class(ID, Grid(g.n, g.offsets[:2])),
    ], ids=["closed", "split"])
    def test_add_refuses_other_grid(self, make):
        a = make(Grid(8))
        b = make(Grid(8, (0.05, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="grids differ"):
            a.add(b)
        with pytest.raises(ValueError, match="grids differ"):
            b.add(a)

    def test_refuses_the_other_potential_type(self):
        # a ScalarField on a factor lattice was broadcast over both factors
        grid2, grid4 = Grid(8, (0.0, 0.0)), Grid(8)
        split = ClosedForm.from_class(ID, grid2)
        scalar = ScalarField(grid2, np.zeros(grid2.shape))
        message = "potential types differ (SplitPotential vs ScalarField)"
        with pytest.raises(ValueError, match=f"^ClosedForm.plus_ddc: {re.escape(message)}$"):
            split.plus_ddc(scalar)
        with pytest.raises(ValueError, match=f"^ClosedForm.add: {re.escape(message)}$"):
            split.add(ClosedForm(ID, scalar))
        with pytest.raises(ValueError, match="potential types differ"):
            ClosedForm.from_class(ID, grid4).plus_ddc(SplitPotential.zeros(grid4))

    def test_split_plus_ddc_matches_full(self):
        # chi_phi of the split form, assembled, is chi_phi of the assembled form
        pb = build_preset("degenerate_split", n=8)
        rng = np.random.default_rng(4)
        phi = random_bandlimited_potential(pb, rng)
        a, b = pb.omega0.plus_ddc(phi)
        full = pb.omega0.assemble().plus_ddc(phi.assemble())
        assert np.abs(full[0] - a[:, :, None, None]).max() < 1e-12
        assert np.abs(full[1] - b[None, None, :, :]).max() < 1e-12
        assert np.abs(full[2:]).max() < 1e-12

    @pytest.mark.parametrize("name", ["smooth_split", "degenerate_split"])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_split_realized_is_each_factor_bitwise(self, name, n):
        # the batched Laplacian of the (2, n, n) stack gives each factor's
        # class plus its own Laplacian, bit for bit, as a read-only block
        pb = build_preset(name, n=n)
        lap = SpectralOps.of(pb.grid).laplacian
        for form in (pb.chi0, pb.omega0, pb.omega_hat, pb.omega_eps(0.1)):
            a = np.array([form.cls.m11, form.cls.m22])
            each = [a[i] + lap(form.potential.values[i]) for i in range(2)]
            assert np.array_equal(form.realized, np.stack(each))
            assert not form.realized.flags.writeable
        phi = random_bandlimited_potential(pb, np.random.default_rng(5))
        each = [pb.omega0.realized[i] + lap(phi.values[i]) for i in range(2)]
        assert np.array_equal(pb.omega0.plus_ddc(phi), np.stack(each))

    def test_factor_lattice_refuses_off_diagonal_class(self):
        fgrid = Grid(8, (0.0, 0.0))
        with pytest.raises(ValueError, match="off-diagonal"):
            ClosedForm.from_class(CohomologyClass(1.0, 1.0, 0.2j), fgrid)
        assert ClosedForm.from_class(ID, fgrid).backend == "split"
        assert ClosedForm.from_class(CohomologyClass(1.0, 1.0, 0.2j), Grid(8)).backend == "full"

    def test_split_potential_checks_its_shape(self):
        fgrid = Grid(8, (0.0, 0.0))
        assert SplitPotential.zeros(fgrid).values.shape == (2, 8, 8)
        for shape in ((8, 8), (2, 8, 4), (3, 8, 8)):
            with pytest.raises(ValueError, match="split potential shape"):
                SplitPotential(fgrid, np.zeros(shape))

    def test_assemble_is_identity_on_the_4d_lattice(self):
        pb = build_preset("nonsplit_perturbed", n=8)
        assert pb.chi0.assemble() is pb.chi0 and pb.to_full() is pb


class TestVerifyOmega0:
    def _full(self, problem):
        full = problem.to_full()
        return full.omega0, full.divisor, full.omega_hat

    def test_degenerate_preset_certificate(self):
        pb = build_preset("degenerate_split", n=16)
        omega0, div, omega_hat = self._full(pb)
        cert = verify_omega0_conditions(omega0, div, omega_hat)
        assert cert.ok
        # sup f = 2 on the grid drives both inequalities to C0 = 2
        assert np.isclose(cert.c0, 2.0, atol=1e-10)

    def test_kahler_form_passes(self):
        # Kahler omega0 with the harmonic representative of c1([D]) and a
        # small rho: the certificate is driven by sup(s2_proxy^beta) = 2.
        pb = build_preset("degenerate_split", n=8)
        full = pb.to_full()
        ident = ClosedForm.from_class(ID, full.grid)
        rho = 0.1
        div = DivisorModel(1.0, rho, ClosedForm.from_class(CohomologyClass.diag(1.0, 0.0), full.grid))
        cert = verify_omega0_conditions(ident, div, ident)
        assert cert.ok
        assert np.isclose(cert.c0, max(2.0, 1.0 / (1.0 - rho)))

    def test_large_rho_fails_second_inequality(self):
        pb = build_preset("degenerate_split", n=8)
        bad_div = make_divisor(pb.grid, rho=2.0)
        full_div = DivisorModel(
            bad_div.beta, bad_div.rho, bad_div.r_h.assemble(pb.grid.product())
        )
        full = pb.to_full()
        cert = verify_omega0_conditions(full.omega0, full_div, full.omega_hat)
        assert not cert.ok
        assert "second inequality" in cert.failure
        assert len(cert.point) == 4

    def _bent_certificate(self, axis):
        # omega0 = Id + dd^c(-0.2 cos 2 pi x), x the real axis ``axis``: that
        # axis's diagonal entry is 1 + 0.2 pi^2 cos 2 pi x, negative for x in
        # (0.34, 0.66), first at x = 0.375 on the zero-offset N=8 lattice
        grid = Grid(8)
        x = grid.coords()[axis]
        bend = np.broadcast_to(-0.2 * np.cos(2 * np.pi * x), grid.shape).copy()
        div = DivisorModel(1.0, 0.5, ClosedForm.from_class(CohomologyClass.diag(1.0, 0.0), grid))
        return verify_omega0_conditions(ClosedForm(ID, ScalarField(grid, bend)), div,
                                        ClosedForm.from_class(ID, grid))

    def test_negative_on_the_locus_fails(self):
        # a bend along x2 reaches every z1, the locus z1 = 0 included
        cert = self._bent_certificate(2)
        assert not cert.ok and cert.c0 == np.inf
        assert cert.failure == "omega0 not nonnegative on the divisor locus"
        assert cert.point == (0.0, 0.0, 0.375, 0.0)

    def test_degenerate_off_the_locus_fails(self):
        # a bend along x1 is positive at x1 = 0: omega0 fails off the locus only
        cert = self._bent_certificate(0)
        assert not cert.ok and cert.c0 == np.inf
        assert cert.failure == "first inequality fails: omega0 degenerate off the locus"
        assert cert.point == (0.375, 0.0, 0.0, 0.0)
