import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jflow import torus
from jflow.cohomology import ClosedForm, CohomologyClass
from jflow.errors import PositivityError
from jflow.split import SplitPotential
from jflow.torus import (
    Grid,
    ScalarField,
    SpectralOps,
    _det,
    _lam_lo,
    _wedge,
    complex_hessian,
    generalized_eigenvalues,
    positivity_margin,
)
from oracles import _critical_density, _trace, integrate, trace_with


@pytest.fixture(scope="module")
def grid():
    return Grid(12)


def make_field(grid, fn):
    x1, y1, x2, y2 = grid.coords()
    return ScalarField(grid, np.broadcast_to(fn(x1, y1, x2, y2), grid.shape).copy())


def form(grid, *h):
    """The (4,) + shape block of the components h (floats or grid arrays)."""
    return np.stack([np.broadcast_to(np.asarray(x, dtype=float), grid.shape) for x in h])


def random_bandlimited(grid, rng, amp=0.1, kmax=2):
    """Random real trigonometric polynomial with modes up to kmax."""
    v = np.zeros(grid.shape)
    x = grid.coords()
    for _ in range(6):
        k = rng.integers(-kmax, kmax + 1, size=4)
        if not np.any(k):
            continue
        phase = rng.uniform(0, 2 * np.pi)
        arg = sum(2 * np.pi * ki * xi for ki, xi in zip(k, x))
        v = v + rng.normal() * np.cos(arg + phase)
    v *= amp / max(np.abs(v).max(), 1e-30)
    return ScalarField(grid, v)


class TestGrid:
    def test_rejects_odd_or_tiny(self):
        # and a size that is not an integer: Grid(8.0) was accepted and
        # failed later, in ScalarField.zeros or SpectralOps.of
        for n in (15, 2, 8.0, np.float64(8), True, np.bool_(True)):
            with pytest.raises(ValueError, match="an even integer >= 4"):
                Grid(n)
        grid = Grid(np.int64(8))
        assert ScalarField.zeros(grid).values.shape == (8,) * 4
        assert SpectralOps.of(grid).shape == (8,) * 4

    def test_field_of_another_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"field shape \(4, 4\) != grid shape "
                                             r"\(4, 4, 4, 4\)"):
            ScalarField(Grid(4), np.zeros((4, 4)))

    def test_offsets_validated(self):
        Grid(8, (0.01, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            Grid(8, (0.2, 0.0, 0.0, 0.0))

    def test_factor_lattice_validated_alike(self):
        assert Grid(8, (0.01, 0.0)).shape == (8, 8)
        for offsets in ((0.0,), (0.0, 0.0, 0.0), (0.2, 0.0)):
            with pytest.raises(ValueError, match="offsets"):
                Grid(8, offsets)

    def test_product_samples_z2_on_the_factor_lattice(self):
        # a z2 cosine sampled on the factor lattice, assembled, is the cosine
        # at the 4-D grid's own z2 coordinates (the z2 offsets are the factor's)
        fg = Grid(8, (0.01, 0.0))
        x, _ = fg.coords()
        wave = np.broadcast_to(np.cos(2 * np.pi * x), fg.shape)
        phi = SplitPotential(fg, np.stack((np.zeros(fg.shape), wave))).assemble()
        _, _, x2, _ = phi.grid.coords()
        exact = np.broadcast_to(np.cos(2 * np.pi * x2), phi.grid.shape)
        assert np.abs(phi.values - exact).max() == 0.0
        assert phi.grid == fg.product() == Grid(8, (0.01, 0.0, 0.01, 0.0))


class TestComplexHessian:
    def test_zero_potential(self, grid):
        h = complex_hessian(ScalarField.zeros(grid))
        assert h.shape == (4,) + grid.shape and h.flags.c_contiguous
        assert np.all(h == 0.0)

    def test_single_mode_x1(self, grid):
        phi = make_field(grid, lambda x1, y1, x2, y2: 0.1 * np.cos(2 * np.pi * x1))
        h = complex_hessian(phi)
        x1 = grid.coords()[0]
        expected = np.broadcast_to(-0.1 * np.pi ** 2 * np.cos(2 * np.pi * x1), grid.shape)
        assert np.abs(h[0] - expected).max() < 1e-12
        assert np.abs(h[1:]).max() < 1e-12

    def test_diagonal_mode(self, grid):
        phi = make_field(
            grid, lambda x1, y1, x2, y2: 0.1 * np.cos(2 * np.pi * (x1 + x2))
        )
        h = complex_hessian(phi)
        x1, _, x2, _ = grid.coords()
        expected = np.broadcast_to(
            -0.1 * np.pi ** 2 * np.cos(2 * np.pi * (x1 + x2)), grid.shape
        )
        assert np.abs(h[:3] - expected).max() < 1e-12
        assert np.abs(h[3]).max() < 1e-12

    def test_mixed_mode_imaginary_part(self, grid):
        # phi = cos(2pi x1) cos(2pi y2) has h12 = pi^2 sin(2pi x1) sin(2pi y2) * i/... :
        # d_z1 d_z2bar phi = (1/4)(dx1 + i ... ) check against closed form
        phi = make_field(
            grid,
            lambda x1, y1, x2, y2: np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2),
        )
        h = complex_hessian(phi)
        x1, _, _, y2 = grid.coords()
        # d_{x1}d_{y2} phi = 4 pi^2 sin sin ; h12 = (1/4)(phi_{x1 x2} + phi_{y1 y2}
        # + i (phi_{x1 y2} - phi_{y1 x2})) = i pi^2 sin(2pi x1) sin(2pi y2)
        expected = np.broadcast_to(
            np.pi ** 2 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * y2), grid.shape
        )
        assert np.abs(h[3] - expected).max() < 1e-11
        assert np.abs(h[2]).max() < 1e-11

    def test_diagonal_mean_zero(self, grid):
        rng = np.random.default_rng(7)
        phi = random_bandlimited(grid, rng)
        h = complex_hessian(phi)
        assert abs(h[0].mean()) < 1e-15
        assert abs(h[1].mean()) < 1e-15

    def test_rejects_nonfinite(self, grid):
        v = np.zeros(grid.shape)
        v[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            complex_hessian(ScalarField(grid, v))

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(st.sampled_from((4, 8, 12)).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.lists(st.integers(1 - n // 2, n // 2 - 1), min_size=4,
                                    max_size=4),
                           st.floats(-1.0, 1.0), st.floats(0.0, 2 * np.pi)),
                 min_size=1, max_size=6))))
    def test_exact_on_band_limited_fields(self, case):
        # a trigonometric polynomial with every |k| < N/2 has the closed-form
        # dd^c: cos(2 pi k.x + theta) goes to s(k) cos(2 pi k.x + theta), with
        # s11 = -pi^2 (a^2 + b^2), s22 = -pi^2 (c^2 + d^2) and
        # s12 = -pi^2 (a - ib)(c + id) for k = (a, b, c, d)
        n, terms = case
        grid = Grid(n)
        x = grid.coords()
        v = np.zeros(grid.shape)
        ref = [np.zeros(grid.shape) for _ in range(4)]
        scale = 0.0
        for (a, b, c, d), amp, theta in terms:
            wave = amp * np.cos(sum(2 * np.pi * k * xi for k, xi in zip((a, b, c, d), x))
                                + theta)
            v = v + wave
            syms = (a * a + b * b, c * c + d * d, a * c + b * d, a * d - b * c)
            for r, s in zip(ref, syms):
                r -= np.pi ** 2 * s * wave
            scale += np.pi ** 2 * abs(amp) * (a * a + b * b + c * c + d * d)
        # scale bounds every exact component (triangle inequality)
        h = complex_hessian(ScalarField(grid, v))
        for comp, r in zip(h, ref):
            assert np.abs(comp - r).max() <= 1e-11 * scale


def hessian_symbols(grid):
    """Spectral symbols of dd^c on a 4-D lattice: (s11, s22, s12_even,
    s12_odd), the operator ``SpectralOps.hessian`` applies.

    s11/s22 are the symbols of d_{z_j} d_{zbar_j}; the mixed component
    splits as s12 = s12_even + i*s12_odd, products of two first-derivative
    symbols whose Nyquist rows are 0 (e.g. Trefethen, Spectral Methods in
    MATLAB, ch. 3).  So every symbol is real and even, s(k) = s(-k mod N).
    """
    a, b, c, d = grid._wavenumbers()
    pi2 = np.pi ** 2
    s11 = -pi2 * (a * a + b * b)
    s22 = -pi2 * (c * c + d * d)
    # -pi^2 (a - ib)(c + id) = -pi^2 [(ac + bd) + i(ad - bc)]
    a, b, c, d = grid._wavenumbers(odd=True)
    return s11, s22, -pi2 * (a * c + b * d), -pi2 * (a * d - b * c)


def grid_id(g):
    return f"{'Factor' if len(g.shape) == 2 else ''}Grid{g.n}"


class TestSpectralOps:
    def test_cached_per_grid(self):
        assert SpectralOps.of(Grid(8)) is SpectralOps.of(Grid(8))

    def test_factor_laplacian_is_hessian_block(self):
        # phi = u(z1) + w(z2): dd^c phi = diag(d_z1 d_z1bar u, d_z2 d_z2bar w)
        fg = Grid(8, (0.0, 0.0))
        rng = np.random.default_rng(11)
        x, y = fg.coords()
        parts = []
        for _ in range(2):
            v = np.zeros(fg.shape)
            for _ in range(4):
                kx, ky = rng.integers(-3, 4, size=2)
                v = v + rng.normal() * np.cos(
                    2 * np.pi * (kx * x + ky * y) + rng.uniform(0, 2 * np.pi)
                )
            parts.append(v)
        ops = SpectralOps.of(fg)
        h = complex_hessian(SplitPotential(fg, np.stack(parts)).assemble())
        assert np.abs(h[0] - ops.laplacian(parts[0])[:, :, None, None]).max() < 1e-12
        assert np.abs(h[1] - ops.laplacian(parts[1])[None, None, :, :]).max() < 1e-12
        assert np.abs(h[2:]).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_stacked_hessian_is_per_block(self, n):
        # each trailing grid block is shifted by its own first sample; a
        # batched 4-D family drops members mid-run, so the same operators see
        # (3,), (2,) and (1,) batches in turn, each with its own scratch.
        # base is shared or one per member (stacked (4, m) + grid), and out=
        # a caller's block
        g = Grid(n)
        ops = SpectralOps.of(g)
        rng = np.random.default_rng(n)
        for m in (3, 2, 1, 3):
            stack = np.stack([random_bandlimited(g, rng).values + k for k in range(m)])
            shared = tuple(rng.normal(size=g.shape) for _ in range(4))
            own = rng.normal(size=(4, m) + g.shape)
            for kw, single_kw in (({}, lambda k: {}),
                                  ({"c": 0.7}, lambda k: {"c": 0.7}),
                                  ({"base": shared}, lambda k: {"base": shared}),
                                  ({"base": shared, "c": 0.7},
                                   lambda k: {"base": shared, "c": 0.7}),
                                  ({"base": own, "c": 0.7},
                                   lambda k: {"base": own[:, k], "c": 0.7})):
                batched = ops.hessian(stack, **kw)
                into = np.empty((4,) + stack.shape)
                assert all(np.shares_memory(h, into)
                           for h in ops.hessian(stack, out=into, **kw))
                for k in range(m):
                    single = ops.hessian(stack[k], **single_kw(k))
                    for b, o, s in zip(batched, into, single):
                        assert np.array_equal(b[k], s) and np.array_equal(o[k], s)
        # products write through reshaped views, so out= must be contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            ops.hessian(stack, out=np.empty((4,) + stack.shape, order="F"))

    @staticmethod
    def trace(g, v):
        """tr_Id dd^c v: the factor Laplacian, or the Hessian's h11 + h22 on
        a 4-D lattice."""
        ops = SpectralOps.of(g)
        if len(g.shape) == 2:
            return ops.laplacian(v)
        h = ops.hessian(v)
        return h[0] + h[1]

    def test_laplacian_refuses_a_4d_grid(self):
        g = Grid(4)
        with pytest.raises(ValueError, match="hessian's h11 \\+ h22"):
            SpectralOps.of(g).laplacian(np.zeros(g.shape))

    @pytest.mark.parametrize("g", [Grid(n, (0.0, 0.0)) for n in (4, 8, 12)]
                             + [Grid(n) for n in (4, 8)], ids=grid_id)
    def test_laplacian_base_and_out(self, g):
        # each kernel's chi = base + dd^c v as one call, fresh or into the
        # caller's out: the split kernel's factor Laplacian, the full
        # kernel's Hessian (whose h11 + h22 is tr_Id dd^c); a batched family
        # narrows from 3 members to 2 to 1, so the same operators see each
        # batch with its own scratch
        ops = SpectralOps.of(g)
        full = len(g.shape) == 4
        chi, rows = (ops.hessian, (4,)) if full else (ops.laplacian, ())
        rng = np.random.default_rng(g.n)
        base = rng.normal(size=rows + (2,) + g.shape)
        for m in (3, 2, 1):
            v = rng.normal(size=(m, 2) + g.shape) + rng.normal(size=(m, 2) + (1,) * len(g.shape))
            ref = base[:, None] + chi(v) if full else base + chi(v)
            into = np.empty(rows + v.shape)
            assert chi(v, base=base, out=into) is into
            fresh = chi(v, base=base)
            assert np.array_equal(into, ref) and np.array_equal(fresh, ref)
            for k in range(m):
                assert np.array_equal(chi(v[k], base=base), ref[:, k] if full else ref[k])
            if full:  # the trace is the Laplacian: tr_Id of each batch entry
                trace = fresh[0] + fresh[1] - (base[0] + base[1])
                assert np.abs(trace - self.trace(g, v)).max() <= 1e-12 * np.abs(trace).max()
            # no returned array shares the scratch kept for its shape, and a
            # later call leaves an earlier result as it was
            kept = fresh.copy()
            chi(v + 1.0, base=base)
            assert np.array_equal(fresh, kept)
            _, u, pq, t = ops._plan(v.shape)
            for a in (ref, into, fresh):
                assert not any(np.shares_memory(a, s) for s in (u[-1], t, *(x[-1] for x in pq)))
        # products write through reshaped views, so out= must be contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            chi(v, out=np.empty(rows + v.shape, order="F"))

    def test_divide_inverts_laplacian_off_the_mean(self, grid):
        ops = SpectralOps.of(grid)
        u = random_bandlimited(grid, np.random.default_rng(12)).values
        u = u - u.mean()
        assert np.abs(ops.divide(self.trace(grid, u)) - u).max() < 1e-12

    # every kind of grid the operators serve: factor grids and 4-D grids
    GRIDS_4D = [Grid(n) for n in (4, 8, 12)]
    GRIDS = [Grid(n, (0.0, 0.0)) for n in (4, 8, 12, 32)] + GRIDS_4D

    @staticmethod
    def transform_reference(grid, v, symbols):
        """The symbols applied by an open-coded rfftn / irfftn pair."""
        axes = tuple(range(v.ndim))
        half = (slice(None),) * (v.ndim - 1) + (slice(0, grid.n // 2 + 1),)
        f = np.fft.rfftn(v, axes=axes)
        return [np.fft.irfftn(sym[half] * f, s=v.shape, axes=axes) for sym in symbols]

    @staticmethod
    def noise(grid, seed):
        # white noise: every mode is present, Nyquist rows included
        return np.random.default_rng(seed).normal(size=grid.shape)

    @pytest.mark.parametrize("g", GRIDS, ids=grid_id)
    def test_laplacian_matches_transform(self, g):
        v = self.noise(g, 21)
        (ref,) = self.transform_reference(g, v, [g.laplace_symbol()])
        lap = self.trace(g, v)
        assert np.abs(lap - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("g", GRIDS_4D, ids=grid_id)
    def test_hessian_matches_transform(self, g):
        v = self.noise(g, 22)
        refs = self.transform_reference(g, v, hessian_symbols(g))
        for h, ref in zip(SpectralOps.of(g).hessian(v), refs):
            assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("g", GRIDS_4D, ids=grid_id)
    def test_hessian_commutes_with_torus_isometries(self, g):
        # the z1 <-> z2 swap takes (h11, h22, h12) to (h22, h11, conj h12), the
        # reflection y1, y2 -> -y1, -y2 takes h12 to conj h12; white noise
        # carries the Nyquist rows, where both need a first derivative that
        # is odd, i.e. 0 on the Nyquist mode
        ops = SpectralOps.of(g)
        v = self.noise(g, 26)
        h = ops.hessian(v)
        scale = max(np.abs(c).max() for c in h)
        swap = lambda a: np.ascontiguousarray(a.transpose(2, 3, 0, 1))
        flip = (-np.arange(g.n)) % g.n
        reflect = lambda a: np.ascontiguousarray(a[:, flip][:, :, :, flip])
        for iso, exact in ((swap, (h[1], h[0], h[2], -h[3])),
                           (reflect, (h[0], h[1], h[2], -h[3]))):
            for got, want in zip(ops.hessian(iso(v)), exact):
                assert np.abs(got - iso(want)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("g", GRIDS_4D, ids=grid_id)
    def test_hessian_symbols_are_even(self, g):
        # s(k) = s(-k mod N) elementwise: each symbol is a real operator that
        # commutes with the point reflection x -> -x
        neg = np.ix_(*[(-np.arange(g.n)) % g.n] * 4)
        for s in hessian_symbols(g):
            s = np.broadcast_to(s, g.shape)
            assert np.array_equal(s, s[neg])

    def test_hessian_calls_no_transform(self, monkeypatch):
        # all four entries, complex_hessian included, are matrix products
        g = Grid(8)
        ops = SpectralOps.of(g)
        v = self.noise(g, 27)
        ref = ops.hessian(v)

        def refuse(*args, **kwargs):
            raise AssertionError("transform called")

        for name in ("rfftn", "irfftn", "fftn", "ifftn", "rfft", "irfft"):
            monkeypatch.setattr(torus.sfft, name, refuse)
        assert all(np.array_equal(a, b) for a, b in zip(ops.hessian(v), ref))
        complex_hessian(ScalarField(g, v))
        ops.hessian(v, base=ref, c=0.5)

    @pytest.mark.parametrize("g", GRIDS, ids=grid_id)
    def test_constants_map_to_zero(self, g):
        ops = SpectralOps.of(g)
        v = np.full(g.shape, -2.3)
        assert np.all(self.trace(g, v) == 0.0)
        if len(g.shape) == 4:
            assert all(np.all(h == 0.0) for h in ops.hessian(v))

    @pytest.mark.parametrize("n", (4, 8, 12, 32))
    def test_stacked_laplacian_is_per_block(self, n):
        # the split backend's stacked (2, n, n) state: the batched call
        # gives exactly the two per-factor calls, shift and mean included
        ops = SpectralOps.of(Grid(n, (0.0, 0.0)))
        rng = np.random.default_rng(24)
        for _ in range(5):
            v = rng.normal(size=(2, n, n)) + rng.normal(size=(2, 1, 1))
            ref = np.stack([ops.laplacian(v[0].copy()), ops.laplacian(v[1].copy())])
            assert np.array_equal(ops.laplacian(v), ref)

    @pytest.mark.parametrize("n", (4, 8, 12, 32))
    def test_stacked_divide_is_per_block(self, n):
        # the split Newton step divides both factors in one call
        ops = SpectralOps.of(Grid(n, (0.0, 0.0)))
        v = np.random.default_rng(25).normal(size=(2, n, n))
        ref = np.stack([ops.divide(v[0].copy()), ops.divide(v[1].copy())])
        assert np.array_equal(ops.divide(v), ref)
        assert np.abs(ref.mean((1, 2))).max() < 1e-15

    @staticmethod
    def transform_division(grid, v, weights):
        """sum_j w_j Delta_{z_j} inverted by an open-coded rfftn / irfftn
        pair over the grid axes, the mean mode dropped."""
        d = len(grid.shape)
        axes = tuple(range(-d, 0))
        k = grid._wavenumbers()
        sym = sum(-np.pi ** 2 * w * (a * a + b * b)
                  for w, a, b in zip(weights, k[::2], k[1::2]))
        sym = np.broadcast_to(sym, grid.shape)[..., : grid.n // 2 + 1].copy()
        sym[(0,) * d] = 1.0
        f = np.fft.rfftn(v, axes=axes) / sym
        f[(Ellipsis,) + (0,) * d] = 0.0
        return np.fft.irfftn(f, s=grid.shape, axes=axes)

    @pytest.mark.parametrize("g", GRIDS, ids=grid_id)
    @pytest.mark.parametrize("plane_weights", [None, (0.7, 1.9)], ids=["laplacian", "planes"])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
    def test_divide_matches_transform(self, g, plane_weights, batch):
        # white noise, Nyquist rows included; a factor lattice has one plane
        weights = plane_weights and plane_weights[: len(g.shape) // 2]
        ops = SpectralOps.of(g)
        v = np.random.default_rng(28).normal(size=batch + g.shape)
        ref = self.transform_division(g, v, weights or (1.0, 1.0))
        got = ops.divide(v, weights)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        # the mean mode is dropped: a constant shift does not reach the result
        block = tuple(range(-len(g.shape), 0))
        assert np.abs(got.mean(block)).max() <= 1e-15 * np.abs(got).max()
        assert np.abs(ops.divide(v + 2.5, weights) - got).max() <= 1e-13 * np.abs(got).max()

    @pytest.mark.parametrize("g", GRIDS, ids=grid_id)
    def test_second_derivatives_have_zero_mean(self, g):
        ops = SpectralOps.of(g)
        v = self.noise(g, 23)
        outs = [self.trace(g, v)]
        if len(g.shape) == 4:
            outs += ops.hessian(v)[:2]
        for h in outs:
            assert abs(h.mean()) <= 1e-15 * np.abs(h).max()


class TestWedgeAndTrace:
    def test_identity_wedge(self, grid):
        i = form(grid, 1.0, 1.0, 0.0, 0.0)
        assert np.all(_wedge(i, i) == 2.0)

    def test_diagonal_wedge(self, grid):
        a = form(grid, 2.0, 3.0, 0.0, 0.0)
        b = form(grid, 5.0, 7.0, 0.0, 0.0)
        assert np.all(_wedge(a, b) == 2.0 * 7.0 + 3.0 * 5.0)

    def test_offdiag_wedge(self, grid):
        a = form(grid, 1.0, 1.0, 0.0, 0.5)
        assert np.allclose(_wedge(a, a), 1.5)

    def test_trace_identity_background(self, grid):
        i = form(grid, 1.0, 1.0, 0.0, 0.0)
        b = form(grid, 3.0, 4.0, 0.0, 0.0)
        assert np.allclose(trace_with(i, b, grid).values, 7.0)

    def test_trace_self_is_dimension(self, grid):
        a = form(grid, 2.0, 4.0, 0.0, 0.0)
        assert np.allclose(trace_with(a, a, grid).values, 2.0)

    def test_trace_wedge_identity_random(self, grid):
        rng = np.random.default_rng(3)
        a = form(grid, 2.0 + rng.uniform(-0.5, 0.5, grid.shape),
                 2.0 + rng.uniform(-0.5, 0.5, grid.shape),
                 rng.uniform(-0.3, 0.3, grid.shape), rng.uniform(-0.3, 0.3, grid.shape))
        b = rng.normal(size=(4,) + grid.shape)
        tr = trace_with(a, b, grid).values
        alt = 2.0 * _wedge(a, b) / _wedge(a, a)
        assert np.abs(tr - alt).max() < 1e-13

    def test_trace_rejects_nonpositive(self, grid):
        bad = form(grid, -1.0, 1.0, 0.0, 0.0)
        with pytest.raises(PositivityError) as err:
            trace_with(bad, form(grid, 1.0, 1.0, 0.0, 0.0), grid)
        assert err.value.margin == -1.0
        assert err.value.point == grid.point(0)


class TestFormAlgebra:
    def test_plus_ddc_refuses_other_offsets(self, grid):
        shifted = Grid(grid.n, (0.5 / grid.n, 0.0, 0.0, 0.0))
        chi = ClosedForm.from_class(CohomologyClass.identity(), grid)
        with pytest.raises(ValueError, match="grids differ"):
            chi.plus_ddc(ScalarField.zeros(shifted))

    def test_realized_is_a_read_only_block(self, grid):
        # kernels share the cached block: no caller may write into it
        rng = np.random.default_rng(4)
        chi = ClosedForm(CohomologyClass(1.5, 0.7, 0.2j), random_bandlimited(grid, rng))
        block = chi.realized
        assert block is chi.realized and not block.flags.writeable
        assert block.shape == (4,) + grid.shape and block.flags.c_contiguous
        chi_phi = chi.plus_ddc(random_bandlimited(grid, rng))
        assert chi_phi.flags.writeable and not np.shares_memory(chi_phi, block)


class TestPointwiseHelpers:
    """The raw-tuple helpers against dense 2x2 Hermitian linear algebra."""

    @staticmethod
    def _random_pair(rng, shape=(64,)):
        a = (2.0 + rng.uniform(-0.5, 0.5, shape), 2.0 + rng.uniform(-0.5, 0.5, shape),
             rng.uniform(-0.4, 0.4, shape), rng.uniform(-0.4, 0.4, shape))
        b = tuple(rng.normal(size=shape) for _ in range(4))
        return a, b

    @staticmethod
    def _matrix(h):
        m12 = h[2] + 1j * h[3]
        return np.stack([np.stack([h[0] + 0j, m12], -1),
                         np.stack([m12.conj(), h[1] + 0j], -1)], -2)

    def test_against_dense_linear_algebra(self):
        rng = np.random.default_rng(11)
        a, b = self._random_pair(rng)
        ma, mb = self._matrix(a), self._matrix(b)
        assert np.allclose(_det(a), np.linalg.det(ma).real, rtol=1e-13, atol=0)
        assert np.allclose(_lam_lo(a), np.linalg.eigvalsh(ma)[:, 0], rtol=1e-13, atol=0)
        # tr_a b = a^{j kbar} b_{j kbar} = tr(a^-1 b) for Hermitian matrices
        dense_tr = np.trace(np.linalg.solve(ma, mb), axis1=-2, axis2=-1).real
        assert np.allclose(_trace(a, b), dense_tr, rtol=1e-12, atol=1e-13)
        assert np.allclose(_wedge(a, a), 2.0 * _det(a), rtol=1e-14, atol=0)

    def test_critical_density(self):
        rng = np.random.default_rng(12)
        chi, w = self._random_pair(rng)
        c = 1.7
        expected = 2.0 * _wedge(chi, w) - c * _wedge(chi, chi)
        assert np.allclose(_critical_density(chi, w, c), expected, rtol=1e-13, atol=1e-13)

    def test_floats_and_fields_agree(self, grid):
        # the class helpers run on floats, the field helpers on arrays
        h = (1.3, 0.7, 0.2, -0.25)
        field = form(grid, *h)
        assert np.all(_lam_lo(field) == _lam_lo(h))
        assert np.all(trace_with(field, field, grid).values == _trace(h, h))


class TestGeneralizedEigenvalues:
    def test_diagonal(self, grid):
        i = form(grid, 1.0, 1.0, 0.0, 0.0)
        lo, hi = generalized_eigenvalues(i, form(grid, 3.0, 5.0, 0.0, 0.0), grid)
        assert np.allclose(lo, 3.0) and np.allclose(hi, 5.0)

    def test_scaled_background(self, grid):
        a = form(grid, 2.0, 2.0, 0.0, 0.0)
        lo, hi = generalized_eigenvalues(a, form(grid, 1.0, 1.0, 0.0, 0.0), grid)
        assert np.allclose(lo, 0.5) and np.allclose(hi, 0.5)

    def test_symmetric_offdiag(self, grid):
        i = form(grid, 1.0, 1.0, 0.0, 0.0)
        lo, hi = generalized_eigenvalues(i, form(grid, 2.0, 2.0, 1.0, 0.0), grid)
        assert np.allclose(lo, 1.0) and np.allclose(hi, 3.0)

    def test_product_is_determinant_ratio(self, grid):
        rng = np.random.default_rng(11)
        a = form(grid, 2.0 + rng.uniform(-0.5, 0.5, grid.shape),
                 2.0 + rng.uniform(-0.5, 0.5, grid.shape),
                 rng.uniform(-0.3, 0.3, grid.shape), rng.uniform(-0.3, 0.3, grid.shape))
        b = rng.normal(size=(4,) + grid.shape)
        lo, hi = generalized_eigenvalues(a, b, grid)
        assert np.abs(lo * hi - _wedge(b, b) / _wedge(a, a)).max() < 1e-12

    def test_refuses_nonpositive_alpha_at_its_point(self, grid):
        a = form(grid, 1.0, 1.0, 0.0, 0.0).copy()
        a[0].flat[5] = -1.0
        with pytest.raises(PositivityError, match="generalized_eigenvalues") as err:
            generalized_eigenvalues(a, a, grid)
        assert err.value.point == grid.point(5) and err.value.margin == -1.0


class TestIntegrateAndMargin:
    def test_unit_density(self, grid):
        assert integrate(np.ones(grid.shape)) == 4.0

    def test_mean_zero_mode(self, grid):
        f = make_field(grid, lambda x1, y1, x2, y2: np.cos(2 * np.pi * x1))
        assert abs(integrate(f.values)) < 1e-14

    def test_identity_wedge_integral(self, grid):
        i = form(grid, 1.0, 1.0, 0.0, 0.0)
        assert integrate(_wedge(i, i)) == 8.0

    def test_margin_identity(self, grid):
        assert positivity_margin(form(grid, 1.0, 1.0, 0.0, 0.0)) == 1.0

    def test_margin_degenerate_profile(self):
        g = Grid(8)  # contains x1 = y1 = 0
        x1, y1, _, _ = g.coords()
        f = np.sin(np.pi * x1) ** 2 + np.sin(np.pi * y1) ** 2
        assert positivity_margin(form(g, f, 1.0, 0.0, 0.0)) == 0.0

    def test_margin_negative(self, grid):
        assert positivity_margin(form(grid, -1.0, 1.0, 0.0, 0.0)) == -1.0


@st.composite
def by_parts_cases(draw):
    """A 4-D lattice (N in {4, 6, 8}, offsets in [0, 1/N)), three random
    potentials on it band-limited to |k| <= (N - 1) / 3 per axis, so that no
    product of three of them aliases, and a class."""
    n = draw(st.sampled_from((4, 6, 8)))
    offset = st.floats(0.0, 1.0 / n, exclude_max=True)
    grid = Grid(n, tuple(draw(offset) for _ in range(4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, v, w = (random_bandlimited(grid, rng, amp=draw(st.floats(0.01, 1.0)),
                                  kmax=(n - 1) // 3) for _ in range(3))
    entry = st.floats(-2.0, 2.0)
    cls = CohomologyClass(draw(entry), draw(entry), complex(draw(entry), draw(entry)))
    return u, v, w, cls


def wedge_size(a, b):
    """A pointwise bound on |D(a, b)|, the size its rounding is relative to."""
    return 2.0 * np.abs(a).sum(axis=0) * np.abs(b).sum(axis=0)


by_parts_settings = settings(derandomize=True, deadline=None, max_examples=40,
                             database=None)


class TestExactness:
    """Integration by parts on the torus holds to rounding, for band-limited
    data on any lattice."""

    @by_parts_settings
    @given(by_parts_cases())
    def test_exact_form_pairs_to_zero(self, case):
        # int dd^c u ^ alpha = 0 for closed alpha = [class] + dd^c w
        u, _, w, cls = case
        exact, closed = complex_hessian(u), ClosedForm(cls, w).realized
        assert abs(integrate(_wedge(exact, closed))) <= 1e-13 * integrate(
            wedge_size(exact, closed))

    @by_parts_settings
    @given(by_parts_cases())
    def test_exact_wedge_exact_vanishes(self, case):
        u, v, _, _ = case
        a, b = complex_hessian(u), complex_hessian(v)
        assert abs(integrate(_wedge(a, b))) <= 1e-13 * integrate(wedge_size(a, b))

    @by_parts_settings
    @given(by_parts_cases())
    def test_ddc_is_symmetric(self, case):
        # int u dd^c v ^ alpha = int v dd^c u ^ alpha for closed alpha
        u, v, w, cls = case
        alpha = ClosedForm(cls, w).realized
        hu, hv = complex_hessian(u), complex_hessian(v)
        lhs = integrate(u.values * _wedge(hv, alpha))
        rhs = integrate(v.values * _wedge(hu, alpha))
        size = integrate(np.abs(u.values) * wedge_size(hv, alpha)
                         + np.abs(v.values) * wedge_size(hu, alpha))
        assert abs(lhs - rhs) <= 1e-13 * size
