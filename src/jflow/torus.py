"""Discrete calculus on the flat complex 2-torus.

The torus is T^4 = [0,1)^4 with complex coordinates z_j = x_j + i*y_j,
j = 1, 2, sampled on a uniform N^4 lattice stored row-major as
(x1, y1, x2, y2).  ``Grid`` describes this lattice and, with two offsets,
the N^2 lattice (x, y) of one complex factor, on which the split backend
samples both factor potentials.  Real (1,1)-forms are pointwise 2x2
Hermitian matrices; a realised form is one C-contiguous (4,) + shape block
of its components (h11, h22, h12_re, h12_im), h12 the (1, 2bar) entry (the
(2, 1bar) entry is its conjugate), as ``complex_hessian`` and
``SpectralOps.hessian`` return it.  Positivity is a checked property, never
assumed.
Derivatives are pseudospectral: exact for band-limited data, which is what
makes the energy identities in the rest of the package hold to rounding.
``SpectralOps`` applies them as products with dense 1-D matrices along
single axes: every Hessian entry and the Laplacian with spectral derivative
matrices (the second-derivative matrix for the diagonal entries, the
first-derivative matrix twice for the mixed ones), symbol division with the
lattice's real Fourier basis, in which the second-derivative matrix is
diagonal.  No operator makes a transform; ``numpy.fft`` (bound here as
``sfft``) only builds the matrices, so importing the package loads no scipy
module.

The pointwise form algebra is written once, here, on blocks and on raw
component tuples (h11, h22, h12_re, h12_im) of floats: ``_wedge``, ``_det``,
``_lam_lo`` and ``_cowedge`` (the co-wedge block that turns D into one
contraction).  Every other module calls these helpers instead of spelling
out a formula; the tests' trace, critical density and integral are in
``tests/oracles.py``.

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

from .errors import PositivityError, is_integer, is_number

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
        if not is_integer(self.n) or self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be an even integer >= 4, got {self.n!r}")
        if len(self.offsets) not in (2, 4):
            raise ValueError(f"offsets must have 2 or 4 entries, got {len(self.offsets)}")
        for o in self.offsets:
            if not (is_number(o) and 0.0 <= o < 1.0 / self.n):
                raise ValueError(f"offsets must lie in [0, 1/N) = [0, {1.0 / self.n:g}), "
                                 f"got {o}")
        object.__setattr__(self, "offsets", tuple(float(o) for o in self.offsets))

    @property
    def shape(self):
        return (self.n,) * len(self.offsets)

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
        return tuple(float(self.axis(i)[int(j)]) for i, j in enumerate(idx))

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

    def laplace_symbol(self, weights=None):
        """Symbol of sum_j w_j Delta_{z_j}, Delta_{z_j} = d_{z_j} d_{zbar_j} on
        the plane of z_j: one weight per complex factor of the lattice, all 1
        by default, when it is tr_Id dd^c, the quarter Laplacian (s11 + s22 on
        the 4-D lattice, d_z d_zbar on a factor lattice)."""
        k = self._wavenumbers()
        w = weights or (1.0,) * (len(k) // 2)
        return sum(wj * -np.pi ** 2 * (a * a + b * b) for wj, a, b in zip(w, k[::2], k[1::2]))


def _fourier_basis(n):
    """The n-point lattice's orthonormal real Fourier basis as the columns of
    an n x n matrix V, in fftfreq order: the cos of each frequency k >= 0
    (the Nyquist checkerboard at n/2), the sin of |k| for k < 0.  So
    V^T d2 V is the diagonal of the 1-D symbol -pi^2 k^2 ``d2`` is made of."""
    k = np.abs(sfft.fftfreq(n) * n)
    sin = np.arange(n) > n // 2  # cos(x - pi/2): the sin columns
    arg = (_TWO_PI / n) * (np.outer(np.arange(n), k) % n) - 0.5 * np.pi * sin
    return np.cos(arg) * np.sqrt(np.where((k == 0) | (2 * k == n), 1.0, 2.0) / n)


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
    one per grid.  ``hessian`` serves the 4-D lattice (dd^c as its four
    components), ``laplacian`` the factor lattice of the split backend
    (d_z d_zbar; on the 4-D lattice tr_Id dd^c is ``hessian``'s h11 + h22),
    and ``divide`` both.

    * Derivatives are matrix products along single axes, with no transform.
      ``d2`` is the n x n circulant matrix of the 1-D symbol -pi^2 k^2 (the
      grid's Laplace symbol along axis 0, so the Nyquist mode is treated as
      the transforms treat it); the factor Laplacian is it applied along x
      plus along y, h11 along axes 0 and 1, h22 along axes 2 and 3.  On 4-D
      lattices ``d1`` is the circulant of the odd symbol i*pi*k with k = 0
      on the Nyquist row, d_x / 2 in the spectral sense.  With p, q = ``d1``
      along axes 0, 1 (d_{x1} / 2, d_{y1} / 2), the mixed entries are
      h12_re = d1_2 p + d1_3 q and h12_im = d1_3 p - d1_2 q: the real, even
      parts of -pi^2 (a - ib)(c + id), a product of two first-derivative
      symbols (Trefethen, Spectral Methods in MATLAB, ch. 3).  The input is
      shifted by its first sample, so a constant maps to exactly 0; the
      outputs of ``d2`` also have their mean subtracted, so they are
      mean-free as with the transform.  Otherwise they agree with the
      transform of the symbols to rounding.
    * ``divide`` inverts sum_j w_j Delta_{z_j} in the basis V of
      ``_fourier_basis``, where its diagonal is the grid's symbol
      (``laplace`` for the Laplacian): V^T along every axis, the inverse
      symbol (0 on the mean mode), V along every axis.

    Scratch: ``hessian``, ``laplacian`` and ``divide`` keep their
    intermediates (the shifted input and the first-derivative and product
    blocks, or the basis coefficients) in arrays
    made once per input shape and reused by every later call with that
    shape, so a batch that narrows gets its own.  No array they return
    shares that scratch: the result is fresh, or the caller's ``out``.  The
    operators are therefore not reentrant across threads.
    """

    def __init__(self, grid):
        self.grid = grid
        self.shape = grid.shape
        self._block = tuple(range(-len(self.shape), 0))  # the grid axes, from the end
        self._first = (Ellipsis,) + (slice(0, 1),) * len(self.shape)  # each block's first sample
        self._count = grid.n ** len(self.shape)  # points per block
        self.laplace = lap = grid.laplace_symbol()
        self.d2, self._d2t = _circulant(lap[(slice(None),) + (0,) * (len(self.shape) - 1)])
        self._plans = {}  # the matmul shapes and scratch, per input shape
        if len(self.shape) == 4:
            k = grid._wavenumbers(odd=True)[0].ravel()
            self.d1, self._d1t = _circulant(1j * np.pi * k)
            self._neg_d1 = -self.d1
        self._v = _fourier_basis(grid.n)  # divide's basis
        self._vt = np.ascontiguousarray(self._v.T)
        self._inv = ((), None)  # divide's last weights and inverse diagonal

    @classmethod
    @functools.lru_cache(maxsize=32)
    def of(cls, grid):
        return cls(grid)

    def _plan(self, shape):
        """Matmul shapes for an input of ``shape`` (the 1-D matrix applied
        along each grid axis as a matmul over a reshape: (n, n^(d-1)) along
        the first, (n^(d-1), n) along the last, (n^i, n, n^(d-1-i)) along
        axis i between, so on a factor lattice (d = 2) the first is
        ``shape`` itself; leading batch axes are matmul batch axes), then
        ``shape`` itself;
        and scratch for them: the shifted input as its views of those
        shapes, and a block of products (on a factor lattice one, the
        Laplacian's d2 along y; on a 4-D lattice four,
        ``hessian``'s second product of each entry, plus its p and q as
        views like the input's); ``divide`` alternates between the input's
        array and the first product block.  Made on the first call with that
        shape and kept."""
        plan = self._plans.get(shape)
        if plan is None:
            n, d = self.grid.n, len(self.shape)
            lead = shape[:-d]
            rest = n ** (d - 1)
            views = tuple(lead + ((n, rest) if i == 0 else (rest, n) if i == d - 1
                                  else (n ** i, n, rest // n ** i)) for i in range(d)) + (shape,)
            u, *pq = (tuple(a.reshape(r) for r in views)
                      for a in np.empty((3 if d == 4 else 1,) + shape))
            t = np.empty((4 if d == 4 else 1,) + shape)
            plan = self._plans[shape] = (views, u, pq, t)
        return plan

    @staticmethod
    def _into(out, shape, who):
        """``out`` when it is a C-contiguous array of ``shape`` (the products
        write its reshaped views), a fresh array when it is None."""
        if out is None:
            return np.empty(shape)
        if out.shape == shape and out.flags.c_contiguous:
            return out
        raise ValueError(f"{who}: out must be a C-contiguous {shape} array")

    def hessian(self, v, base=None, out=None):
        """Components (h11, h22, h12_re, h12_im) of dd^c v for raw values v
        on a 4-D lattice, each as ``base_k + H_k`` when ``base`` is given
        (stacked to a (4,) + shape array broadcast to v's shape).  Axes of v
        before the grid's are batch axes, as in ``laplacian``.

        Returns the four rows of one C-contiguous (4,) + v.shape block:
        ``out`` when it is given (not overlapping v), else a fresh one.  The
        intermediates live in scratch kept per input shape, which no
        returned array shares.  The ten 1-D products are d1 along axes 0
        and 1 (p, q), then two per entry: d2 along 0 and 1 (h11), d2 along 2
        and 3 (h22), d1 of p along 2 and of q along 3 (h12_re), d1 of p
        along 3 and -d1 of q along 2 (h12_im: adding the negated product is
        the same float operation as subtracting it).  Each entry's first
        product goes into the block, its second into scratch, and one
        in-place sum adds all four; the mean subtraction and ``base`` are
        one in-place operation each.
        """
        (r0, r1, r2, r3, _), u, (p, q), t = self._plan(v.shape)
        h = self._into(out, t.shape, "hessian")
        d1, d1t, d2, d2t = self.d1, self._d1t, self.d2, self._d2t
        mm = np.matmul
        # v shifted by its first sample, so that a constant maps to exactly 0
        np.subtract(v, v[(Ellipsis,) + (slice(0, 1),) * 4], out=u[4])
        mm(d1, u[0], out=p[0])
        mm(d1, u[1], out=q[1])
        mm(d2, u[0], out=h[0].reshape(r0))
        mm(d2, u[1], out=t[0].reshape(r1))
        mm(d2, u[2], out=h[1].reshape(r2))
        mm(u[3], d2t, out=t[1].reshape(r3))
        mm(d1, p[2], out=h[2].reshape(r2))
        mm(q[3], d1t, out=t[2].reshape(r3))
        mm(p[3], d1t, out=h[3].reshape(r3))
        mm(self._neg_d1, q[2], out=t[3].reshape(r2))
        h += t
        # the d2 entries made mean-free, as with the transform
        hd = h[:2]
        hd -= hd.sum(self._block, keepdims=True) / self.grid.n ** 4
        if base is not None:
            b = np.asarray(base)
            h += b.reshape(b.shape[:1] + (1,) * (h.ndim - b.ndim) + b.shape[1:])
        return h

    def laplacian(self, v, base=None, out=None):
        """d_z d_zbar v for raw values v on a factor lattice, as
        ``base + Lv`` when ``base`` (broadcast to v's shape) is given.  A 4-D
        lattice is refused: there tr_Id dd^c v is ``hessian``'s h11 + h22.

        Axes of v before the grid's are batch axes: each trailing grid block
        is shifted by its own first sample and made mean-free on its own, so
        a stack of fields gives the stack of their Laplacians.  The result
        is ``out`` when it is given (C-contiguous, v's shape, not overlapping
        v), else a fresh array; the intermediates live in the scratch kept
        for v's shape, which no returned array shares.  ``d2`` along x goes
        into the result, along y into scratch and is added in place; the
        mean subtraction and ``base`` are one in-place operation each.
        """
        if len(self.shape) != 2:
            raise ValueError("laplacian serves the factor lattice; on a 4-D lattice "
                             "tr dd^c is hessian's h11 + h22")
        _, u, _, t = self._plan(v.shape)
        u, t = u[-1], t[0]  # on a factor lattice every matmul shape is v's own
        h = self._into(out, v.shape, "laplacian")
        np.subtract(v, v[self._first], out=u)
        np.matmul(self.d2, u, out=h)
        np.matmul(u, self._d2t, out=t)
        h += t
        mean = np.add.reduce(h, axis=self._block, keepdims=True)
        mean /= self._count
        h -= mean
        if base is not None:
            h += base
        return h

    def divide(self, v, weights=None):
        """Mean-zero inverse of sum_j w_j Delta_{z_j} (``weights`` as in
        ``Grid.laplace_symbol``; by default the Laplacian's) applied to raw
        values v: the mean mode is dropped, not divided.  Axes of v before
        the grid's are batch axes, as in ``laplacian``.  The coefficients
        live in the scratch kept for v's shape; the result is fresh.  The
        inverse diagonal is kept for the last weights."""
        d = len(self.shape)
        if self._inv[0] != weights:
            diag = self.grid.laplace_symbol(weights)
            diag[(0,) * d] = np.inf  # the mean mode: dropped
            self._inv = (weights, 1.0 / diag)
        views, u, _, t = self._plan(v.shape)
        bufs, out, x = (u[-1], t[0]), np.empty(v.shape), v
        for k in range(2 * d):  # V^T along every axis, then V
            i, back = k % d, k >= d
            dst = (out if k == 2 * d - 1 else bufs[k % 2]).reshape(views[i])
            if i == d - 1:  # along the last axis: x V^T is V applied
                np.matmul(x.reshape(views[i]), self._vt if back else self._v, out=dst)
            else:
                np.matmul(self._v if back else self._vt, x.reshape(views[i]), out=dst)
            x = dst
            if k == d - 1:
                np.multiply(bufs[k % 2], self._inv[1], out=bufs[k % 2])
        return out


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

    def mean(self):
        return float(self.values.mean())

    def sup(self):
        return float(np.abs(self.values).max())

    def shifted(self, c):
        return ScalarField(self.grid, self.values + float(c))

    def mean_normalized(self):
        return self.shifted(-self.mean())

    def assemble(self):
        """The field as a 4-D ScalarField: itself (``SplitPotential.assemble``
        builds one from the factor potentials)."""
        return self


def complex_hessian(phi, base=None):
    """dd^c of a scalar potential: (dd^c phi)_{j kbar} = d2 phi/dz_j dzbar_k,
    as a fresh C-contiguous (4,) + shape block (h11, h22, h12_re, h12_im),
    plus ``base`` (a block, or the four constants of a class) when given.

    Spectral, hence exact for band-limited input; diagonal components have
    exactly zero mean (the form is dd^c-exact).
    """
    v = phi.values
    if not np.all(np.isfinite(v)):
        raise ValueError("complex_hessian: input field has non-finite entries")
    return SpectralOps.of(phi.grid).hessian(v, base=base)


def poisson_solve(src):
    """Mean-zero u with tr_Id dd^c u = src (spectral symbol division), on
    either lattice: on a factor lattice, d_z d_zbar u = src.  A source mean
    above 1e-12 is an error, not roundoff."""
    m = src.mean()
    if abs(m) > 1e-12:
        raise ValueError(f"poisson_solve: source mean {m:.3e} exceeds 1.0e-12")
    return ScalarField(src.grid, SpectralOps.of(src.grid).divide(src.values - m))


# Each helper below evaluates its formula left to right, as the one-line
# expression in its docstring would, but accumulates into the first fresh
# product with +=, -=, *=: the same float operations with fewer temporaries.
# The components of one tuple are all floats or all arrays of one shape,
# so every product of two components already has the result's shape.


def _wedge(a, b):
    """Wedge density D(a, b) = a0 b1 + a1 b0 - 2 (a2 b2 + a3 b3):
    a ^ b = D (i dz1 dz1bar)(i dz2 dz2bar)."""
    d = a[0] * b[1]
    d += a[1] * b[0]
    s = a[2] * b[2]
    s += a[3] * b[3]
    s *= 2.0
    d -= s
    return d


def _det(a):
    """det a = a0 a1 - a2^2 - a3^2 = D(a, a) / 2."""
    d = a[0] * a[1]
    d -= a[2] ** 2
    d -= a[3] ** 2
    return d


def _lam_lo(a):
    """Lowest eigenvalue of a against the identity,
    0.5 (a0 + a1) - sqrt((0.5 (a0 - a1))^2 + a2^2 + a3^2)."""
    m = a[0] + a[1]
    m *= 0.5
    r = a[0] - a[1]
    r *= 0.5
    r **= 2
    r += a[2] ** 2
    r += a[3] ** 2
    m -= np.sqrt(r)
    return m


def _cowedge(b):
    """The (4,) + shape block b' = (b1, b0, -2 b2, -2 b3): D(a, b) is the one
    contraction np.einsum("k...,k...->...", a, b')."""
    return np.stack((b[1], b[0], -2.0 * b[2], -2.0 * b[3]))


def _positivity_check(alpha, grid, what):
    lo = _lam_lo(alpha)
    idx = int(np.argmin(lo))
    margin = float(lo.flat[idx])
    if margin <= 0.0:
        point = grid.point(idx)
        raise PositivityError(
            f"{what}: form not positive definite at grid point {point} "
            f"(margin {margin:.3e})",
            index=idx,
            point=point,
            margin=margin,
        )


def generalized_eigenvalues(alpha, beta, grid):
    """Pointwise roots of det(beta - lambda * alpha), sorted ascending, for
    blocks alpha and beta on ``grid``.

    Requires alpha positive (the error names a point of ``grid``).  The roots
    solve (D(a,a)/2) l^2 - D(a,b) l + D(b,b)/2 = 0; their product is
    D(b,b)/D(a,a) and their sum is tr_alpha beta.
    """
    _positivity_check(alpha, grid, "generalized_eigenvalues")
    daa, dab, dbb = _wedge(alpha, alpha), _wedge(alpha, beta), _wedge(beta, beta)
    # Discriminant of the pencil; clamp tiny negatives from roundoff.
    disc = dab * dab - daa * dbb
    disc = np.sqrt(np.maximum(disc, 0.0))
    return (dab - disc) / daa, (dab + disc) / daa


def positivity_margin(alpha):
    """Smallest pointwise eigenvalue of the block alpha over the grid.

    Negative values are a valid result: the form fails positivity there.
    """
    return float(_lam_lo(alpha).min())
