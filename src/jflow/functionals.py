"""Energy functionals: the flow energy J, the conserved normalization I, the
Aubin-Yau energy E, scalar curvature and the Mabuchi energy M, plus the
decomposition report M = J + F.

J, I, E and M are closed forms.  The path integrals ``J_path`` and
``mabuchi_path`` serve only as their test oracles, by Romberg quadrature;
along the default linear path the J integrand is quadratic in the path
parameter, so ``J_path`` is exact to rounding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .torus import (
    ScalarField,
    SpectralOps,
    _critical_density,
    _det,
    _wedge,
    complex_hessian,
    integrate,
    positivity_margin,
    trace_with,
    wedge_density,
)
from . import split as sp


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
    chi = chi0.plus_ddc(phi).components()
    return ScalarField(phi.grid, _critical_density(chi, omega0.realized.components(), c0))


def _energies_full(v, chi, bg, w, c):
    """(J, I) from raw potential values v and the raw component tuples of
    chi_phi, chi0 and omega (J is None when omega is): the one full-backend
    formula, shared by the flow's history rows and ``J_closed`` /
    ``I_functional``.  Means are over the trailing grid axes, so axes
    before them (a batch of runs, with c per run) give one (J, I) each."""
    def mean(x):
        return np.mean(x, axis=(-4, -3, -2, -1))

    t2 = 2.0 * _det(chi) + _wedge(chi, bg) + _wedge(bg, bg)
    i = (4.0 / 3.0) * mean(v * t2)
    if w is None:
        return None, i
    t1 = _wedge(chi, w) + _wedge(bg, w)
    j = 4.0 * mean(v * t1) - (c / 3.0) * 4.0 * mean(v * t2)
    return j, i


def _energies_split(pair, chi, bg, w, c):
    """Split-backend counterpart of ``_energies_full`` on factor pairs, via
    separable factor means (no 4-D assembly); batch axes as there."""
    t2 = (
        sp.split_wedge_mean(pair, chi, chi)
        + sp.split_wedge_mean(pair, chi, bg)
        + sp.split_wedge_mean(pair, bg, bg)
    )
    i = (4.0 / 3.0) * t2
    if w is None:
        return None, i
    t1 = sp.split_wedge_mean(pair, chi, w) + sp.split_wedge_mean(pair, bg, w)
    return 4.0 * t1 - (c / 3.0) * 4.0 * t2, i


def _full_terms(phi, chi0):
    return phi.values, chi0.plus_ddc(phi).components(), chi0.realized.components()


def J_closed(phi, chi0, omega0, c0):
    """Closed-form J: needs no path, extends to the weak space."""
    return float(_energies_full(*_full_terms(phi, chi0), omega0.realized.components(),
                                c0)[0])


def J_path(phi, chi0, omega0, c0, steps=16, reparam=None):
    """J by quadrature along a path s -> r(s) * phi (linear by default).

    ``steps`` must be a power of two >= 8; ``reparam`` is an optional pair
    of callables (r, r') with r(0) = 0, r(1) = 1 for path-independence
    experiments.
    """
    if steps < 8:
        raise ValueError("J_path needs at least 8 quadrature steps")
    chi0r = chi0.realized
    w = omega0.realized.components()
    p = phi.values
    hess = complex_hessian(phi)
    samples = []
    for j in range(steps + 1):
        s = j / steps
        r = s if reparam is None else reparam[0](s)
        rp = 1.0 if reparam is None else reparam[1](s)
        chi_s = chi0r.add(hess.scale(r)).components()
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
    chi = chi0.plus_ddc(phi).components()
    d_cw = _wedge(chi, omega0.realized.components())
    terms = np.abs(2.0 * d_cw) + abs(c0) * np.abs(2.0 * _det(chi))
    scale = 4.0 * float(np.mean(np.abs(v.values) * terms))
    return diff / max(abs(analytic), abs(fd), scale)


def I_functional(phi, chi0):
    """The conserved normalization: (1/3) int phi (chi^2 + chi chi0 + chi0^2)."""
    return float(_energies_full(*_full_terms(phi, chi0), None, 0.0)[1])


def E_aubin_yau(phi, chi0):
    """int i d(phi) ^ dbar(phi) ^ (chi0 + chi_phi), nonnegative whenever
    chi0 + chi_phi is; by parts, -int phi dd^c phi ^ (chi0 + chi_phi)."""
    h = SpectralOps.of(phi.grid).hessian(phi.values)
    total = tuple(2.0 * b + x for b, x in zip(chi0.realized.components(), h))
    return -4.0 * float(np.mean(phi.values * _wedge(h, total)))


# the smallest positivity margin at which the scalar curvature is taken
_CURVATURE_MARGIN = 1e-10


def _check_curvature_margin(chi, what):
    margin = positivity_margin(chi)
    if margin <= _CURVATURE_MARGIN:
        raise PositivityError(f"{what}: form not positive (margin {margin:.3e})",
                              margin=margin)


def scalar_curvature(chi):
    """Scalar curvature of a positive (1,1)-form field.

    R = tr_chi Ric with Ric = -dd^c log det(chi); flat backgrounds give 0.
    """
    _check_curvature_margin(chi, "scalar_curvature")
    ric = complex_hessian(ScalarField(chi.grid, -np.log(_det(chi.components()))))
    return trace_with(chi, ric, check=False)


def mean_scalar_curvature(chi):
    """Average R over the chi-volume: int R chi^2 / int chi^2 (0 on the torus)."""
    r = scalar_curvature(chi)
    vol = wedge_density(chi, chi)
    num = integrate(ScalarField(chi.grid, r.values * vol.values))
    return num / integrate(vol)


def mabuchi_closed(phi, chi0):
    """Mabuchi energy by Chen's decomposition (X. X. Chen, IMRN 2000):
    M = int log(det chi_phi / det chi0) chi_phi^2 + int phi rho ^ (chi0 +
    chi_phi) + Rbar I(phi), rho = dd^c log det chi0, Rbar = 0 as c1(T^4) = 0.

    lambda_min is concave, so no form of the linear path is less positive
    than both ends: checking the two raises ``PositivityError`` exactly when
    the test oracle ``mabuchi_path`` does.
    """
    bg, chi = chi0.realized, chi0.plus_ddc(phi)
    for form in (bg, chi):
        _check_curvature_margin(form, "mabuchi_closed")
    bg, chi = bg.components(), chi.components()
    det0, det = _det(bg), _det(chi)
    rho = SpectralOps.of(phi.grid).hessian(np.log(det0))
    total = tuple(a + b for a, b in zip(bg, chi))
    return 4.0 * float(np.mean(2.0 * det * np.log(det / det0)
                               + phi.values * _wedge(rho, total)))


def mabuchi_path(phi, chi0, steps=16):
    """Mabuchi energy by quadrature along the linear path, the test oracle
    of ``mabuchi_closed``; every intermediate form must stay positive.
    Rbar is the average scalar curvature of the background."""
    if steps < 8:
        raise ValueError("mabuchi_path needs at least 8 quadrature steps")
    chi0r = chi0.realized
    rbar = mean_scalar_curvature(chi0r)
    hess = complex_hessian(phi)
    p = phi.values
    samples = []
    for j in range(steps + 1):
        s = j / steps
        chi_s = chi0r.add(hess.scale(s))
        r_s = scalar_curvature(chi_s)
        vol = wedge_density(chi_s, chi_s).values
        samples.append(-4.0 * float(np.mean(p * (r_s.values - rbar) * vol)))
    return _romberg(samples)


@dataclass(frozen=True)
class FunctionalReport:
    """Snapshot of all functionals, each in closed form; M and F = M - J
    are None (and ``notes`` says why) when chi0 or chi_phi is not positive."""

    j: float
    i: float
    e: float
    m: float = None
    f: float = None
    notes: str = ""

    def to_dict(self):
        return {
            "J": self.j,
            "I": self.i,
            "E": self.e,
            "M": self.m,
            "F": self.f,
            "notes": self.notes,
        }


def evaluate_suite(phi, chi0, omega0, c0):
    """FunctionalReport for one potential: J, I, E and M (``mabuchi_closed``)
    in closed form; M and F are skipped, with a note, when chi0 or chi_phi
    is not positive."""
    j = J_closed(phi, chi0, omega0, c0)
    i = I_functional(phi, chi0)
    e = E_aubin_yau(phi, chi0)
    m = f = None
    notes = ""
    try:
        m = mabuchi_closed(phi, chi0)
        f = m - j
    except PositivityError as err:
        notes = f"mabuchi skipped: {err}"
    return FunctionalReport(j, i, e, m, f, notes)


# --- split-backend evaluations (separable products, no 4-D assembly) -----


def _split_terms(phi, chi0):
    return (phi.phi1, phi.phi2), chi0.plus_ddc(phi), chi0.profiles()


def j_closed_split(phi, chi0, omega, c):
    """J_closed for split data, via factor means."""
    return float(_energies_split(*_split_terms(phi, chi0), omega.profiles(), c)[0])


def i_functional_split(phi, chi0):
    return float(_energies_split(*_split_terms(phi, chi0), None, 0.0)[1])
