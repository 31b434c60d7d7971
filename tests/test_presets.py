import numpy as np
import pytest

from jflow.cohomology import verify_omega0_conditions
from jflow.presets import (
    PRESET_NAMES,
    PRESETS,
    _positive_scale,
    build_preset,
    cosine_modes,
    degenerate_profile,
    preset_grid,
    random_bandlimited_potential,
)
from jflow.torus import Grid, ScalarField, complex_hessian, positivity_margin


class TestBuildPreset:
    def test_all_presets_build(self):
        for name in PRESET_NAMES:
            pb = build_preset(name)
            assert pb.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_preset("bogus")

    def test_identity_background(self):
        pb = build_preset("identity", n=8)
        assert positivity_margin(pb.chi0.realized) == 1.0
        assert pb.chi0_class().m11 == 1.0

    def test_smooth_profile_realization(self):
        pb = build_preset("smooth_split", n=16)
        f, g = pb.omega0.realized
        x = pb.grid.coords()[0]
        assert np.abs(f - (1 + 0.5 * np.sin(2 * np.pi * x))).max() < 1e-12
        assert np.abs(g - 1.0).max() < 1e-12

    def test_degenerate_profile_and_classes(self):
        pb = build_preset("degenerate_split", n=16)
        f, _ = pb.omega0.realized
        assert abs(f.min()) < 1e-12  # vanishes on the divisor
        assert np.isclose(f.max(), 2.0)
        cls = pb.omega_eps_class(0.0)
        assert np.isclose(cls.m11, 1.0) and np.isclose(cls.m22, 1.0)

    def test_divisor_model_consistency(self):
        pb = build_preset("degenerate_split", n=16)
        div = pb.divisor
        assert div.beta == 1.0 and div.rho == 0.5
        # r_h lies in c1([D]) = diag(1, 0)
        assert np.isclose(div.r_h.cls.m11, 1.0) and np.isclose(div.r_h.cls.m22, 0.0)
        # omega0 - rho * R_H is the constant form diag(1 - rho, 1)
        shifted = pb.omega0.add(div.r_h.scale(-div.rho))
        a, b = shifted.realized
        assert np.abs(a - 0.5).max() < 1e-12
        assert np.abs(b - 1.0).max() < 1e-12
        full = pb.to_full()
        cert = verify_omega0_conditions(full.omega0, full.divisor, full.omega_hat)
        assert cert.ok and np.isclose(cert.c0, 2.0, atol=1e-9)

    def test_nonsplit_perturbation(self):
        pb = build_preset("nonsplit_perturbed", n=12)
        assert pb.backend == "full"
        margin = positivity_margin(pb.chi0.realized)
        # Id + dd^c(0.05 cos(2pi(x1+x2))): eigenvalues 1 and 1 - 0.1 pi^2 cos,
        # and cos = 1 is attained on the grid
        assert np.isclose(margin, 1.0 - 0.1 * np.pi ** 2, atol=1e-12)

    def test_s2_proxy_matches_degenerate_profile(self):
        pb = build_preset("degenerate_split", n=16)
        s2 = pb.divisor.s2_proxy(pb.grid).values
        assert np.abs(s2 - degenerate_profile(pb.grid)).max() == 0.0

    def test_offsets_move_locus_off_grid(self):
        pb = build_preset("degenerate_split", n=16, offsets=(0.003, 0.0))
        s2 = pb.divisor.s2_proxy(pb.grid).values
        assert s2.min() > 0.0

    @pytest.mark.parametrize("name, offsets", [
        ("identity", (0.01, 0.01)),
        ("nonsplit_perturbed", (0.01, 0.01)),
        ("smooth_split", (0.01, 0.01, 0.01, 0.01)),
        ("degenerate_split", (0.01, 0.01, 0.0, 0.0)),
    ])
    def test_wrong_offset_count_refused(self, name, offsets):
        with pytest.raises(ValueError, match="offsets"):
            build_preset(name, n=8, offsets=offsets)

    @pytest.mark.parametrize("offsets", [[], ()])
    def test_empty_offsets_are_a_count_not_zero_offsets(self, offsets):
        # an empty list was read as "none given" and built at zero offsets;
        # only None means zero offsets
        with pytest.raises(ValueError, match="degenerate_split takes 2 offsets, got 0"):
            build_preset("degenerate_split", n=8, offsets=offsets)
        with pytest.raises(ValueError, match="an explicit problem takes 4 offsets, got 0"):
            preset_grid("", 8, offsets)
        assert preset_grid("", 8, None).offsets == (0.0,) * 4

    @pytest.mark.parametrize(
        "name", [n for n in PRESET_NAMES if build_preset(n, n=8).backend == "split"]
    )
    def test_split_class_matches_assembled_form(self, name):
        pb = build_preset(name, n=8)
        full = pb.to_full()
        assert pb.chi0.cls == full.chi0.cls == pb.chi0_class()
        for eps in (0.0, 0.1):
            cls = pb.omega_eps(eps).cls
            assert cls == full.omega_eps(eps).cls == pb.omega_eps_class(eps)
            # the class is the mean of the assembled representative
            w = full.omega_eps(eps).realized
            assert np.isclose(w[0].mean(), cls.m11) and np.isclose(w[1].mean(), cls.m22)


class TestPresetTable:
    def test_names_are_the_named_rows(self):
        assert PRESET_NAMES == ("identity", "smooth_split", "degenerate_split",
                                "nonsplit_perturbed")
        assert set(PRESETS) == {""} | set(PRESET_NAMES)

    def test_row_dim_is_the_lattice_built(self):
        for name in PRESET_NAMES:
            assert len(build_preset(name, n=8).grid.shape) == PRESETS[name]["dim"]
        assert len(preset_grid("", 8).shape) == PRESETS[""]["dim"] == 4


class TestCosineModes:
    def test_factor_and_4d_lattices(self):
        # amp * cos(2 pi k . x + phase), one wavenumber per axis of the grid
        fgrid = Grid(8, (0.01, 0.02))
        x, y = fgrid.coords()
        v = cosine_modes(fgrid, [(0.5, (1, -2), 0.3), (2.0, (0, 1), 0.0)])
        expected = 0.5 * np.cos(2 * np.pi * (x - 2 * y) + 0.3) + 2.0 * np.cos(2 * np.pi * y)
        assert v.shape == fgrid.shape and np.abs(v - expected).max() < 1e-14
        grid = Grid(4)
        assert np.array_equal(cosine_modes(grid, []), np.zeros(grid.shape))
        x1, _, x2, _ = grid.coords()
        assert np.array_equal(
            build_preset("nonsplit_perturbed", n=4).chi0.potential.values,
            np.broadcast_to(0.05 * np.cos(2 * np.pi * (x1 + x2)), grid.shape))


class TestRandomPotential:
    def test_split_potential_positive(self):
        pb = build_preset("degenerate_split", n=12)
        rng = np.random.default_rng(5)
        for _ in range(3):
            phi = random_bandlimited_potential(pb, rng)
            full = pb.to_full()
            chi = full.chi0.realized + complex_hessian(phi.assemble(full.grid))
            assert positivity_margin(chi) > 0.2

    def test_full_potential_positive(self):
        pb = build_preset("nonsplit_perturbed", n=8)
        rng = np.random.default_rng(6)
        phi = random_bandlimited_potential(pb, rng)
        chi = pb.chi0.realized + complex_hessian(phi)
        assert positivity_margin(chi) > 0.0

    def test_deterministic_given_seed(self):
        pb = build_preset("smooth_split", n=8)
        a = random_bandlimited_potential(pb, np.random.default_rng(7))
        b = random_bandlimited_potential(pb, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)


def test_positive_scale_keeps_a_potential_of_nonnegative_ddc():
    # on the torus a potential with dd^c phi >= 0 is constant, whose dd^c is
    # exactly 0: it needs no rescaling to keep chi0 + dd^c phi positive
    pb = build_preset("nonsplit_perturbed", n=4)
    phi = ScalarField.zeros(pb.grid)
    assert positivity_margin(complex_hessian(phi)) == 0.0
    assert _positive_scale(pb.chi0, phi) == 1.0
