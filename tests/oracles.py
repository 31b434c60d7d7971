"""Independent test oracles for the ``jflow`` checks.

Nothing in the package calls these: they are the references the tests hold
the library against.  The path quadratures ``J_path`` and ``mabuchi_path``
check the closed-form J and M by Romberg quadrature (along the default
linear path the J integrand is quadratic in the path parameter, so
``J_path`` is exact to rounding); ``J_gradient_check`` checks J's gradient
density by finite differences; ``j_closed_split`` and ``i_functional_split``
evaluate J and I on split data, and ``energies_split`` (on
``split_wedge_mean``) is the per-wedge reference for the factor means
they read; ``rkc_error`` is RKC's error ratio with one RMS per norm; ``split_critical`` is the closed-form
critical point of the product ansatz, and ``degenerate_limit`` and
``nonsplit_limit`` the closed-form limits of ``degenerate_split`` and
``nonsplit_perturbed`` built on it; ``flow_rhs`` is the flow velocity
through the public form API, with its positivity check.  ``trace_with`` (and
its raw ``_trace``), ``_critical_density`` and ``integrate`` are the
pointwise trace, the J-gradient density and the integral of a top form,
written on ``jflow.torus``'s form algebra; forms are (4,) + shape blocks.

The tests import this module as ``oracles`` (pytest puts ``tests/`` on the
import path).
"""

import numpy as np

from jflow import flow
from jflow.functionals import J_closed, _check_curvature_margin, _energies_split
from jflow.presets import degenerate_profile
from jflow.split import SplitPotential
from jflow.torus import (
    Grid,
    ScalarField,
    _det,
    _positivity_check,
    _wedge,
    complex_hessian,
    poisson_solve,
)


def _romberg(samples):
    """Romberg value over [0, 1] from 2^k + 1 equispaced samples of the
    integrand."""
    m = len(samples) - 1
    k = int(round(np.log2(m)))
    if 2 ** k != m:
        raise ValueError("romberg needs 2^k + 1 samples")
    samples = np.asarray(samples, dtype=float)
    row = []
    for j in range(k + 1):
        stride = 2 ** (k - j)
        pts = samples[::stride]
        h = 1.0 / 2 ** j
        row.append(h * (pts.sum() - 0.5 * (pts[0] + pts[-1])))
    table = np.array(row)
    for m_level in range(1, k + 1):
        factor = 4.0 ** m_level
        table = (factor * table[1:] - table[:-1]) / (factor - 1.0)
    return float(table[0])


def j_gradient_density(phi, chi0, omega0, c0):
    """The density of the J-gradient: 2 chi_phi ^ omega0 - c0 chi_phi^2."""
    chi = chi0.plus_ddc(phi)
    return ScalarField(phi.grid, _critical_density(chi, omega0.realized, c0))


def J_path(phi, chi0, omega0, c0, steps=16, reparam=None):
    """J by quadrature along a path s -> r(s) * phi (linear by default).

    ``steps`` must be a power of two >= 8; ``reparam`` is an optional pair
    of callables (r, r') with r(0) = 0, r(1) = 1 for path-independence
    experiments.
    """
    if steps < 8:
        raise ValueError("J_path needs at least 8 quadrature steps")
    chi0r = chi0.realized
    w = omega0.realized
    p = phi.values
    hess = complex_hessian(phi)
    samples = []
    for j in range(steps + 1):
        s = j / steps
        r = s if reparam is None else reparam[0](s)
        rp = 1.0 if reparam is None else reparam[1](s)
        chi_s = chi0r + r * hess
        dens = _critical_density(chi_s, w, c0)
        samples.append(4.0 * float(np.mean(rp * p * dens)))
    return _romberg(samples)


def J_gradient_check(phi, v, chi0, omega0, c0):
    """Relative error between a central finite difference of J and the
    analytic directional derivative 4 mean(v g) along v, g the gradient
    density.

    The error is relative to the size of the pairing before its two terms
    cancel, 4 mean(|v| (|2 D(chi, omega)| + |c0| |D(chi, chi)|)), a bound on
    |analytic| (or to |fd| or |analytic| where either is larger).  It stays
    defined, and small, when the derivative along v is zero, also where g
    vanishes identically (at a critical point, say): the finite difference's
    roundoff is then relative to the size of the terms of g, not to g. A zero
    difference returns 0.0, also for v = 0. The error includes the O(h^2)
    truncation of the difference and its roundoff of about eps |J| / h at
    its step h = 1e-4.
    """
    h = 1e-4
    plus = ScalarField(phi.grid, phi.values + h * v.values)
    minus = ScalarField(phi.grid, phi.values - h * v.values)
    fd = (J_closed(plus, chi0, omega0, c0) - J_closed(minus, chi0, omega0, c0)) / (2.0 * h)
    g = j_gradient_density(phi, chi0, omega0, c0).values
    analytic = 4.0 * float(np.mean(v.values * g))
    diff = abs(fd - analytic)
    if diff == 0.0:
        return 0.0
    chi = chi0.plus_ddc(phi)
    d_cw = _wedge(chi, omega0.realized)
    terms = np.abs(2.0 * d_cw) + abs(c0) * np.abs(2.0 * _det(chi))
    scale = 4.0 * float(np.mean(np.abs(v.values) * terms))
    return diff / max(abs(analytic), abs(fd), scale)


def scalar_curvature(chi, grid):
    """Scalar curvature of a positive (1,1)-form block on ``grid``.

    R = tr_chi Ric with Ric = -dd^c log det(chi); flat backgrounds give 0.
    """
    _check_curvature_margin(chi, "scalar_curvature")
    ric = complex_hessian(ScalarField(grid, -np.log(_det(chi))))
    return ScalarField(grid, _trace(chi, ric))


def mean_scalar_curvature(chi, grid):
    """Average R over the chi-volume: int R chi^2 / int chi^2 (0 on the torus)."""
    vol = _wedge(chi, chi)
    return integrate(scalar_curvature(chi, grid).values * vol) / integrate(vol)


def mabuchi_path(phi, chi0, steps=16):
    """Mabuchi energy by quadrature along the linear path, the test oracle
    of ``mabuchi_closed``; every intermediate form must stay positive.
    Rbar is the average scalar curvature of the background."""
    if steps < 8:
        raise ValueError("mabuchi_path needs at least 8 quadrature steps")
    chi0r = chi0.realized
    rbar = mean_scalar_curvature(chi0r, phi.grid)
    hess = complex_hessian(phi)
    p = phi.values
    samples = []
    for j in range(steps + 1):
        s = j / steps
        chi_s = chi0r + s * hess
        r_s = scalar_curvature(chi_s, phi.grid)
        vol = _wedge(chi_s, chi_s)
        samples.append(-4.0 * float(np.mean(p * (r_s.values - rbar) * vol)))
    return _romberg(samples)


def _split_terms(phi, chi0):
    return phi.values, chi0.plus_ddc(phi), chi0.realized


def j_closed_split(phi, chi0, omega, c):
    """J_closed for split data, via factor means."""
    return float(_energies_split(*_split_terms(phi, chi0), omega.realized, c)[0])


def i_functional_split(phi, chi0):
    return float(_energies_split(*_split_terms(phi, chi0), None, 0.0)[1])


def split_wedge_mean(phi, chi, omega):
    """mean of phi * D(chi, omega) for split phi and split forms, each a
    stacked factor array (..., 2, n, n).

    D(diag(A,B), diag(F,G)) = A*G + B*F; with phi = phi1 + phi2 the mean
    splits into four products of factor means.
    """
    def mean4(u, v):
        return np.mean(u, axis=(-2, -1)) * np.mean(v, axis=(-2, -1))

    (a, b), (f, g), (p1, p2) = ((x[..., 0, :, :], x[..., 1, :, :]) for x in (chi, omega, phi))
    return mean4(p1 * a, g) + mean4(a, p2 * g) + mean4(p1 * f, b) + mean4(f, p2 * b)


def energies_split(v, chi, bg, w, c):
    """(J, I) on split data, one ``split_wedge_mean`` per wedge: the
    reference for ``functionals._energies_split``, which reads the same
    factor means from one reduction."""
    t2 = split_wedge_mean(v, chi, chi) + split_wedge_mean(v, chi, bg) + split_wedge_mean(v, bg, bg)
    t1 = split_wedge_mean(v, chi, w) + split_wedge_mean(v, bg, w)
    return 4.0 * t1 - (c / 3.0) * 4.0 * t2, (4.0 / 3.0) * t2


def rkc_error(kernel, v, new, k1, k_new, h):
    """RKC's error ratio per member with one ``flow._rms`` per norm, as numpy
    arrays: the reference for ``flow._rkc_error``, which takes the three
    sums from one reduction and finishes in Python floats."""
    axes = kernel.member_axes
    d = v - new
    tol = np.maximum(np.minimum(flow._RKC_ATOL, flow._RKC_RTOL * flow._rms(d, axes)),
                     flow._RKC_ROUNDING * flow._rms(v, axes))
    est = flow._rms(0.8 * d + (0.4 * h) * (k1 + k_new), axes)
    return np.divide(est, tol, out=np.where(est == 0.0, 0.0, np.inf), where=tol > 0.0)


def split_critical(f, g, fgrid):
    """Closed-form critical data for the product ansatz on the factor grid
    ``fgrid``.

    For profiles f(z1), g(z2) >= 0 with positive means and the identity
    class: c_i = mean of the profile (then c1 + c2 = c0), and the factor
    potentials solve dd^c phi_i = profile/c_i - 1.  The assembled
    chi = diag(f/c1, g/c2) satisfies the critical equation exactly.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    c1, c2 = float(f.mean()), float(g.mean())
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("split_critical: profiles need positive means")
    phi1 = poisson_solve(ScalarField(fgrid, f / c1 - 1.0)).values
    phi2 = poisson_solve(ScalarField(fgrid, g / c2 - 1.0)).values
    return c1, c2, phi1, phi2


def degenerate_limit(fgrid, eps):
    """The limit of ``degenerate_split`` at ``eps`` on the factor lattice
    ``fgrid`` in closed form, up to an additive constant: the split critical
    point phi*_eps of omega_eps = diag(f + eps, 1 + eps), a SplitPotential."""
    f = degenerate_profile(fgrid) + eps
    _, _, p1, p2 = split_critical(f, np.full(fgrid.shape, 1.0 + eps), fgrid)
    return SplitPotential(fgrid, np.stack((p1, p2)))


def nonsplit_limit(problem, eps):
    """The limit of ``nonsplit_perturbed`` at ``eps`` in closed form, up to
    an additive constant: phi*_eps - p0.  Its chi0 is the identity form of
    ``degenerate_split`` plus dd^c p0, and the critical metric depends only
    on the class, so the limit is ``degenerate_limit``'s phi*_eps, assembled,
    minus p0.  p0 is the preset's own chi0 potential, so the oracle cannot
    drift from it."""
    grid = problem.grid
    phi = degenerate_limit(Grid(grid.n, grid.offsets[:2]), eps).assemble(grid)
    return ScalarField(grid, phi.values - problem.chi0.potential.values)


def flow_rhs(phi, chi0, omega_eps, c_eps):
    """Right-hand side c_eps - tr_{chi_phi} omega_eps on the full backend.

    Raises PositivityError (with the offending point) when chi_phi fails
    to be positive.
    """
    tr = trace_with(chi0.plus_ddc(phi), omega_eps.realized, phi.grid)  # checks positivity
    return ScalarField(phi.grid, c_eps - tr.values)


# pointwise trace, critical density and integral, on the form algebra of
# ``jflow.torus``


def _trace(a, b):
    """tr_a b = a^{j kbar} b_{j kbar} = D(a, b) / det a, for positive a."""
    t = _wedge(a, b)
    t /= _det(a)
    return t


def _critical_density(chi, w, c):
    """Density of 2 chi ^ w - c chi^2 (the critical residual, the J-gradient)."""
    return 2.0 * _wedge(chi, w) - c * (2.0 * _det(chi))


def integrate(density):
    """Integral of a top form over the torus: 4 * mean of its wedge density,
    an array of grid values.

    (i dz ^ dzbar = 2 dx ^ dy per factor; the trapezoid rule on a periodic
    grid is the spectrally exact mean.)
    """
    return 4.0 * float(np.mean(density))


def trace_with(alpha, beta, grid):
    """tr_alpha beta = alpha^{j kbar} beta_{j kbar} for positive blocks alpha
    and beta on ``grid``, whose point a positivity failure names.

    In complex dimension 2 this equals D(alpha, beta) / det alpha, which is
    how it is computed (no matrix inversion).
    """
    _positivity_check(alpha, grid, "trace_with")
    return ScalarField(grid, _trace(alpha, beta))
