"""Energy functionals: the flow energy J, the conserved normalization I, the
Aubin-Yau energy E and the Mabuchi energy M, plus the decomposition report
M = J + F.

J, I, E and M are closed forms.  Their test oracles (the path quadratures
``J_path`` and ``mabuchi_path``, the J-gradient check, scalar curvature and
the split-backend J and I) live in the test helper ``tests/oracles.py``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .torus import SpectralOps, _det, _wedge, positivity_margin


def _energies_full(v, chi, bg, w, c):
    """(J, I) from raw potential values v and the (4,) + shape blocks of
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


def _energies_split(v, chi, bg, w, c):
    """Split-backend counterpart of ``_energies_full`` on stacked factor
    arrays (..., 2, n, n) of phi, chi_phi, chi0 and omega; batch axes as
    there.  With phi = phi1 + phi2 and D(diag(A, B), diag(F, G)) = AG + BF,
    each 4-D mean of phi D(X, Y) is a sum of four products of factor means,
    so no 4-D grid is made; the 12 factor means come from one reduction."""
    terms = (v * chi, chi, v * bg, bg) + (() if w is None else (v * w, w))
    x = np.stack(np.broadcast_arrays(*terms))
    # factor 1 and factor 2 means of each term, (len(terms),) + batch shape
    m1, m2 = np.moveaxis(np.add.reduce(x, axis=(-2, -1)) / (x.shape[-2] * x.shape[-1]), -1, 0)

    def wedge(k, q):  # mean of phi * D(X, Y), X's terms at k, k + 1 and Y's at q, q + 1
        return m1[k] * m2[q + 1] + m1[k + 1] * m2[q] + m1[q] * m2[k + 1] + m1[q + 1] * m2[k]

    chi_, bg_, w_ = 0, 2, 4  # where each form's terms start
    t2 = wedge(chi_, chi_) + wedge(chi_, bg_) + wedge(bg_, bg_)
    i = (4.0 / 3.0) * t2
    if w is None:
        return None, i
    t1 = wedge(chi_, w_) + wedge(bg_, w_)
    return 4.0 * t1 - (c / 3.0) * 4.0 * t2, i


def _full_terms(phi, chi0):
    return phi.values, chi0.plus_ddc(phi), chi0.realized


def J_closed(phi, chi0, omega0, c0):
    """Closed-form J: needs no path, extends to the weak space."""
    return float(_energies_full(*_full_terms(phi, chi0), omega0.realized, c0)[0])


def I_functional(phi, chi0):
    """The conserved normalization: (1/3) int phi (chi^2 + chi chi0 + chi0^2)."""
    return float(_energies_full(*_full_terms(phi, chi0), None, 0.0)[1])


def E_aubin_yau(phi, chi0):
    """int i d(phi) ^ dbar(phi) ^ (chi0 + chi_phi), nonnegative whenever
    chi0 + chi_phi is; by parts, -int phi dd^c phi ^ (chi0 + chi_phi)."""
    chi0.check_lattice(phi, "E_aubin_yau")
    h = SpectralOps.of(phi.grid).hessian(phi.values)
    total = 2.0 * chi0.realized + h
    return -4.0 * float(np.mean(phi.values * _wedge(h, total)))


# the smallest positivity margin at which log det, and so M, is taken
_CURVATURE_MARGIN = 1e-10


def _check_curvature_margin(chi, what):
    margin = positivity_margin(chi)
    if margin <= _CURVATURE_MARGIN:
        raise PositivityError(f"{what}: form not positive (margin {margin:.3e})",
                              margin=margin)


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
    det0, det = _det(bg), _det(chi)
    rho = SpectralOps.of(phi.grid).hessian(np.log(det0))
    return 4.0 * float(np.mean(2.0 * det * np.log(det / det0)
                               + phi.values * _wedge(rho, bg + chi)))


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
