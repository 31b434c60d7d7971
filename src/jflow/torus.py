"""Discrete calculus on the flat complex 2-torus.

The torus is T^4 = [0,1)^4 with complex coordinates z_j = x_j + i*y_j,
j = 1, 2, sampled on a uniform N^4 lattice stored row-major as
(x1, y1, x2, y2).  ``Grid`` describes this lattice and, with two offsets,
the N^2 lattice (x, y) of one complex factor, on which the split backend
samples both factor potentials.  Real (1,1)-forms are pointwise 2x2
Hermitian matrices.
Derivatives are pseudospectral: exact for band-limited data, which is what
makes the energy identities in the rest of the package hold to rounding.
``SpectralOps`` applies them: every Hessian entry and the Laplacian as
products with dense 1-D spectral derivative matrices along single axes
(the second-derivative matrix for the diagonal entries, the first-derivative
matrix twice for the mixed ones), symbol division through real FFTs.
Every transform is ``numpy.fft``'s (bound here as ``sfft``), so importing
the package loads no scipy module.

The pointwise form algebra is written once, here, on raw component tuples
(h11, h22, h12_re, h12_im) of arrays or floats: ``_wedge``, ``_det``,
``_lam_lo``, ``_trace`` and ``_critical_density``.  Every other module calls
these helpers instead of spelling out a formula.

Conventions fixed here and used everywhere else:

* d_{z_j} = (d_{x_j} - i d_{y_j}) / 2, so the complex Hessian is
  (dd^c u)_{j kbar} = d2 u / dz_j dzbar_k, i.e. a quarter of the real
  Hessian blocks.
* i dz ^ dzbar = 2 dx ^ dy, hence the integral of a top form with wedge
  density D is 4 * mean(D) over the unit box.

All field values are plain float64 numpy arrays; fields are treated as
immutable values (kernels never write into their inputs).
"""

import functools
from dataclasses import dataclass

import numpy as np
import numpy.fft as sfft

from .errors import PositivityError

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on [0,1)^d, optionally shifted by per-axis offsets:
    the 4-D lattice (x1, y1, x2, y2) with 4 offsets (the default), or the
    lattice of one complex factor (x, y) with 2 offsets.

    Offsets move lattice points off distinguished loci (e.g. a divisor)
    without changing the spectral operators, which are shift-invariant.
    """

    n: int
    offsets: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        if len(self.offsets) not in (2, 4):
            raise ValueError(f"offsets must have 2 or 4 entries, got {len(self.offsets)}")
        object.__setattr__(self, "offsets", tuple(float(o) for o in self.offsets))
        for o in self.offsets:
            if not (0.0 <= o < 1.0 / self.n):
                raise ValueError(f"offsets must lie in [0, 1/N) = [0, {1.0 / self.n:g}), "
                                 f"got {o}")

    @property
    def shape(self):
        return (self.n,) * len(self.offsets)

    @property
    def spacing(self):
        return 1.0 / self.n

    def product(self):
        """The 4-D lattice of a factor lattice: z1 and z2 each sampled on it."""
        return Grid(self.n, self.offsets * 2)

    def _along(self, i, v):
        """v reshaped to broadcast along axis i."""
        return v.reshape(tuple(-1 if j == i else 1 for j in range(len(self.shape))))

    def axis(self, i):
        """Sample points along real axis i, offset included."""
        return (np.arange(self.n) + 0.0) / self.n + self.offsets[i]

    def coords(self):
        """Broadcastable coordinate arrays, (x1, y1, x2, y2) or (x, y)."""
        return tuple(self._along(i, self.axis(i)) for i in range(len(self.shape)))

    def point(self, index):
        """Coordinates of the lattice point at a flat or tuple index."""
        idx = np.unravel_index(index, self.shape) if np.isscalar(index) else tuple(index)
        return tuple(self.axis(i)[int(j)] for i, j in enumerate(idx))

    # Frequency grids for the spectral operators.  Integer frequencies in
    # cycles per unit length; in the even symbols (the Laplacian, s11, s22)
    # the Nyquist row is assigned to -N/2 (fftfreq convention), applied
    # uniformly so that the discrete Parseval identities used by the energy
    # functionals hold exactly.  A first-derivative factor, being odd, has
    # 0 there.
    def _wavenumbers(self, odd=False):
        """Broadcastable integer frequencies, one per axis.  With ``odd`` the
        Nyquist row is 0 instead: the frequencies of a first derivative,
        odd under k -> -k mod N."""
        k = sfft.fftfreq(self.n) * self.n
        if odd:
            k[self.n // 2] = 0.0
        return tuple(self._along(i, k) for i in range(len(self.shape)))

    def hessian_symbols(self):
        """Spectral symbols of dd^c on the 4-D lattice: (s11, s22, s12_even,
        s12_odd).

        s11/s22 are the symbols of d_{z_j} d_{zbar_j}; the mixed component
        splits as s12 = s12_even + i*s12_odd, products of two first-derivative
        symbols whose Nyquist rows are 0 (e.g. Trefethen, Spectral Methods in
        MATLAB, ch. 3).  So every symbol is real and even, s(k) = s(-k mod N),
        and they are exactly the operator ``SpectralOps.hessian`` applies.
        """
        a, b, c, d = self._wavenumbers()
        pi2 = np.pi ** 2
        s11 = -pi2 * (a * a + b * b)
        s22 = -pi2 * (c * c + d * d)
        # -pi^2 (a - ib)(c + id) = -pi^2 [(ac + bd) + i(ad - bc)]
        a, b, c, d = self._wavenumbers(odd=True)
        s12e = -pi2 * (a * c + b * d)
        s12o = -pi2 * (a * d - b * c)
        return s11, s22, s12e, s12o

    def laplace_symbol(self):
        """Symbol of tr_Id dd^c = quarter Laplacian: s11 + s22 on the 4-D
        lattice, d_z d_zbar on a factor lattice."""
        k = self._wavenumbers()
        pi2 = np.pi ** 2
        sym = -pi2 * (k[0] * k[0] + k[1] * k[1])
        if len(k) == 4:
            sym = sym + -pi2 * (k[2] * k[2] + k[3] * k[3])
        return sym


def _circulant(line):
    """The real n x n matrix of a 1-D symbol given on the n fftfreq
    frequencies (Hermitian: its Nyquist entry real), and its transpose."""
    n = len(line)
    # response to a unit impulse at 0, circulated: m[i, j] = col[i - j]
    col = sfft.irfft(line[: n // 2 + 1], n=n)
    m = col[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    return m, np.ascontiguousarray(m.T)


class SpectralOps:
    """The spectral operators of one grid; ``SpectralOps.of(grid)`` caches
    one per grid.  Serves the 4-D lattice and the factor lattice of the
    split backend alike.

    * Derivatives are matrix products along single axes, with no transform.
      ``d2`` is the n x n circulant matrix of the 1-D symbol -pi^2 k^2 (the
      grid's Laplace symbol along axis 0, so the Nyquist mode is treated as
      the transforms treat it); the Laplacian sums it applied along every
      axis, h11 along axes 0 and 1, h22 along axes 2 and 3.  On 4-D
      lattices ``d1`` is the circulant of the odd symbol i*pi*k with k = 0
      on the Nyquist row, d_x / 2 in the spectral sense.  With p, q = ``d1``
      along axes 0, 1 (d_{x1} / 2, d_{y1} / 2), the mixed entries are
      h12_re = d1_2 p + d1_3 q and h12_im = d1_3 p - d1_2 q, the symbols of
      ``Grid.hessian_symbols``.  The input is shifted by its first sample,
      so a constant maps to exactly 0; the outputs of ``d2`` also have their
      mean subtracted, so they are mean-free as with the transform.
      Otherwise they agree with the transform of the symbols to rounding.
    * ``divide`` applies a symbol, cropped to the half-spectrum, through
      ``numpy.fft``'s real transforms.
    """

    def __init__(self, grid):
        self.grid = grid
        self.shape = grid.shape
        self.axes = tuple(range(len(self.shape)))
        self._block = tuple(range(-len(self.shape), 0))  # the grid axes, from the end
        n = grid.n
        half = (slice(None),) * (len(self.shape) - 1) + (slice(0, n // 2 + 1),)
        lap = grid.laplace_symbol()
        self.laplace = np.ascontiguousarray(lap[half])
        self.d2, self._d2t = _circulant(lap[(slice(None),) + (0,) * (len(self.shape) - 1)])
        self.hessian_syms = None
        if len(self.shape) == 4:
            k = grid._wavenumbers(odd=True)[0].ravel()
            self.d1, self._d1t = _circulant(1j * np.pi * k)
            self.hessian_syms = tuple(
                np.ascontiguousarray(s[half]) for s in grid.hessian_symbols()
            )

    @classmethod
    @functools.lru_cache(maxsize=32)
    def of(cls, grid):
        return cls(grid)

    def _apply_along(self, m, mt, u, axis):
        """The 1-D matrix m (mt its transpose) applied along one grid axis of
        u, as a matmul over a reshaped view; leading batch axes of u are
        matmul batch axes."""
        n = self.grid.n
        lead = u.shape[: u.ndim - len(self.shape)]
        if axis == 0:
            out = m @ u.reshape(lead + (n, -1))
        elif axis == len(self.shape) - 1:
            out = u.reshape(lead + (-1, n)) @ mt
        else:
            out = m @ u.reshape(lead + (n ** axis, n, -1))
        return out.reshape(u.shape)

    def _d2_sum(self, u, axes):
        """Sum of ``d2`` along the grid ``axes`` of u, mean-free per grid block."""
        out = self._apply_along(self.d2, self._d2t, u, axes[0])
        for axis in axes[1:]:
            out += self._apply_along(self.d2, self._d2t, u, axis)
        out -= out.sum(self._block, keepdims=True) / self.grid.n ** len(self.shape)
        return out

    def hessian(self, v, base=None, c=None):
        """Components (h11, h22, h12_re, h12_im) of dd^c v for raw values v
        on a 4-D lattice, each as ``base_k + c * H_k`` when ``base`` / ``c``
        are given."""
        u = v - v.item(0)
        d1 = functools.partial(self._apply_along, self.d1, self._d1t)
        p, q = d1(u, 0), d1(u, 1)
        out = [self._d2_sum(u, (0, 1)), self._d2_sum(u, (2, 3)),
               d1(p, 2) + d1(q, 3), d1(p, 3) - d1(q, 2)]
        if c is not None:
            out = [c * h for h in out]
        if base is not None:
            out = [b + h for b, h in zip(base, out)]
        return tuple(out)

    def laplacian(self, v):
        """tr_Id dd^c v (on a factor lattice: d_z d_zbar v) for raw values v.

        Axes of v before the grid's are batch axes: each trailing grid block
        is shifted by its own first sample and made mean-free on its own, so
        a stack of fields gives the stack of their Laplacians.
        """
        first = v[(Ellipsis,) + (slice(0, 1),) * len(self.shape)]
        return self._d2_sum(v - first, self.axes)

    def divide(self, v, sym=None):
        """Mean-zero inverse of a symbol (the Laplacian's by default) applied
        to raw values v: the mean mode is dropped, not divided.  Axes of v
        before the grid's are batch axes, as in ``laplacian``."""
        sym = self.laplace if sym is None else sym
        safe = sym.copy()
        safe[(0,) * len(self.shape)] = 1.0
        f = sfft.rfftn(v, axes=self._block)
        f /= safe
        f[(Ellipsis,) + (0,) * len(self.shape)] = 0.0
        return sfft.irfftn(f, s=self.shape, axes=self._block)


@dataclass(frozen=True)
class ScalarField:
    """Real function sampled on the grid, periodic by construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    def mean(self):
        return float(self.values.mean())

    def sup(self):
        return float(np.abs(self.values).max())

    def shifted(self, c):
        return ScalarField(self.grid, self.values + float(c))

    def mean_normalized(self):
        return self.shifted(-self.mean())


@dataclass(frozen=True)
class HermitianFormField:
    """Pointwise 2x2 Hermitian matrix field: a real (1,1)-form.

    Stored componentwise; h12 is the (1, 2bar) entry, the (2, 1bar) entry is
    its conjugate by construction.  Positivity is a checked property, never
    assumed.
    """

    grid: Grid
    h11: np.ndarray
    h22: np.ndarray
    h12_re: np.ndarray
    h12_im: np.ndarray

    def __post_init__(self):
        for name in ("h11", "h22", "h12_re", "h12_im"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != self.grid.shape:
                v = np.broadcast_to(v, self.grid.shape)
            object.__setattr__(self, name, v)

    @classmethod
    def constant(cls, grid, m11, m22, m12=0.0):
        m12 = complex(m12)
        full = lambda v: np.full(grid.shape, float(v))
        return cls(grid, full(m11), full(m22), full(m12.real), full(m12.imag))

    @classmethod
    def identity(cls, grid):
        return cls.constant(grid, 1.0, 1.0)

    def add(self, other):
        if other.grid != self.grid:
            raise ValueError(
                f"HermitianFormField.add: grids differ ({self.grid} vs {other.grid})"
            )
        return HermitianFormField(
            self.grid,
            self.h11 + other.h11,
            self.h22 + other.h22,
            self.h12_re + other.h12_re,
            self.h12_im + other.h12_im,
        )

    def scale(self, c):
        c = float(c)
        return HermitianFormField(
            self.grid, c * self.h11, c * self.h22, c * self.h12_re, c * self.h12_im
        )

    def components(self):
        """(h11, h22, h12_re, h12_im): the raw tuple the kernels work on."""
        return self.h11, self.h22, self.h12_re, self.h12_im

    def min_eigenvalue(self):
        """Pointwise lowest eigenvalue (against the identity)."""
        return _lam_lo(self.components())


def complex_hessian(phi):
    """dd^c of a scalar potential: (dd^c phi)_{j kbar} = d2 phi/dz_j dzbar_k.

    Spectral, hence exact for band-limited input; diagonal components have
    exactly zero mean (the form is dd^c-exact).
    """
    v = phi.values
    if not np.all(np.isfinite(v)):
        raise ValueError("complex_hessian: input field has non-finite entries")
    return HermitianFormField(phi.grid, *SpectralOps.of(phi.grid).hessian(v))


def poisson_solve(src, tol=1e-12):
    """Mean-zero u with tr_Id dd^c u = src (spectral symbol division), on
    either lattice: on a factor lattice, d_z d_zbar u = src."""
    m = src.mean()
    if abs(m) > tol:
        raise ValueError(f"poisson_solve: source mean {m:.3e} exceeds {tol:.1e}")
    return ScalarField(src.grid, SpectralOps.of(src.grid).divide(src.values - m))


def holomorphic_gradient(phi):
    """(d_{z1} phi, d_{z2} phi) as complex arrays (spectral).

    The first-derivative frequencies are the Hessian's, 0 on the Nyquist
    row, so the gradient commutes with the torus's isometries (reflections
    and z1 <-> z2) as dd^c does.
    """
    a, b, c, d = phi.grid._wavenumbers(odd=True)
    f = sfft.fftn(phi.values)
    # d_z = (d_x - i d_y)/2 acts as multiplication by i*pi*(k_x - i k_y)
    dz1 = sfft.ifftn(1j * np.pi * (a - 1j * b) * f)
    dz2 = sfft.ifftn(1j * np.pi * (c - 1j * d) * f)
    return dz1, dz2


def _wedge(a, b):
    """Wedge density D(a, b): a ^ b = D (i dz1 dz1bar)(i dz2 dz2bar)."""
    return a[0] * b[1] + a[1] * b[0] - 2.0 * (a[2] * b[2] + a[3] * b[3])


def _det(a):
    """det a = D(a, a) / 2."""
    return a[0] * a[1] - a[2] ** 2 - a[3] ** 2


def _lam_lo(a):
    """Lowest eigenvalue of a against the identity."""
    return 0.5 * (a[0] + a[1]) - np.sqrt((0.5 * (a[0] - a[1])) ** 2 + a[2] ** 2 + a[3] ** 2)


def _trace(a, b):
    """tr_a b = a^{j kbar} b_{j kbar} = D(a, b) / det a, for positive a."""
    return _wedge(a, b) / _det(a)


def _critical_density(chi, w, c):
    """Density of 2 chi ^ w - c chi^2 (the critical residual, the J-gradient)."""
    return 2.0 * _wedge(chi, w) - c * (2.0 * _det(chi))


def wedge_density(alpha, beta):
    """Density D of the top form alpha ^ beta.

    alpha ^ beta = D * (i dz1 dz1bar)(i dz2 dz2bar) with
    D = a11*b22 + a22*b11 - 2 Re(a12 * conj(b12)); symmetric in (alpha, beta).
    """
    return ScalarField(alpha.grid, _wedge(alpha.components(), beta.components()))


def integrate(density):
    """Integral of a top form over the torus: 4 * mean of its wedge density.

    (i dz ^ dzbar = 2 dx ^ dy per factor; the trapezoid rule on a periodic
    grid is the spectrally exact mean.)
    """
    return 4.0 * density.mean()


def _positivity_check(alpha, what):
    lo = alpha.min_eigenvalue()
    idx = int(np.argmin(lo))
    margin = float(lo.flat[idx])
    if margin <= 0.0:
        point = alpha.grid.point(idx)
        raise PositivityError(
            f"{what}: form not positive definite at grid point {point} "
            f"(margin {margin:.3e})",
            index=idx,
            point=point,
            margin=margin,
        )


def trace_with(alpha, beta, check=True):
    """tr_alpha beta = alpha^{j kbar} beta_{j kbar} for positive alpha.

    In complex dimension 2 this equals D(alpha, beta) / det alpha, which is
    how it is computed (no matrix inversion).
    """
    if check:
        _positivity_check(alpha, "trace_with")
    return ScalarField(alpha.grid, _trace(alpha.components(), beta.components()))


def generalized_eigenvalues(alpha, beta, check=True):
    """Pointwise roots of det(beta - lambda * alpha), sorted ascending.

    Requires alpha positive.  The roots solve
    (D(a,a)/2) l^2 - D(a,b) l + D(b,b)/2 = 0; their product is
    D(b,b)/D(a,a) and their sum is tr_alpha beta.
    """
    if check:
        _positivity_check(alpha, "generalized_eigenvalues")
    daa = wedge_density(alpha, alpha).values
    dab = wedge_density(alpha, beta).values
    dbb = wedge_density(beta, beta).values
    # Discriminant of the pencil; clamp tiny negatives from roundoff.
    disc = dab * dab - daa * dbb
    disc = np.sqrt(np.maximum(disc, 0.0))
    lo = (dab - disc) / daa
    hi = (dab + disc) / daa
    g = alpha.grid
    return ScalarField(g, lo), ScalarField(g, hi)


def positivity_margin(alpha, mask=None):
    """Smallest pointwise eigenvalue of alpha over the grid (or a mask).

    Negative values are a valid result: the form fails positivity there.
    """
    lo = alpha.min_eigenvalue()
    if mask is not None:
        lo = lo[mask]
    return float(lo.min())
