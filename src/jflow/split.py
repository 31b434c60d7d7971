"""Split (product) backend: per-factor 2-D fields on the two elliptic-curve
factors of the torus.

Product data diag(f(z1), g(z2)) with additive potentials
phi = phi1(z1) + phi2(z2) is preserved by the flow and by the critical
equation, so a surface problem factors into two problems on 2-D tori.
Both factor fields are sampled on one factor lattice, a ``torus.Grid``
with two offsets, so the assembled 4-D grid is its ``product()``.  This
module holds the factor-level spectral kernels, the separable-product
integrals used to evaluate energy functionals without ever materialising
the 4-D grid, and lazy assembly to full 4-D fields when a pointwise 4-D
quantity is genuinely needed.

Everything here is pure-functional over immutable arrays.
"""

from dataclasses import dataclass

import numpy as np
import numpy.fft as sfft  # noqa: F401 - numpy.fft, kept for the benchmark tracer to proxy

from .cohomology import ClosedForm, CohomologyClass
from .torus import Grid, ScalarField, SpectralOps, poisson_solve


@dataclass(frozen=True)
class SplitForm:
    """Closed (1,1)-form of product type diag(A(z1), B(z2)).

    Stored as a diagonal constant class (a1, a2) plus factor potentials;
    the realised profiles are A = a1 + dd^c p1 and B = a2 + dd^c p2, each a
    2-D field on its own factor.  Closed by construction.
    """

    grid: Grid  # the factor lattice
    a1: float
    a2: float
    p1: np.ndarray
    p2: np.ndarray

    @classmethod
    def constant(cls, grid, a1, a2):
        z = np.zeros(grid.shape)
        return cls(grid, float(a1), float(a2), z, z)

    @classmethod
    def from_profiles(cls, grid, f):
        """Build the form with realised profiles f(z1) and 1.

        The class entry a1 is f's mean; the potential p1 comes from a factor
        Poisson solve (exact for band-limited profiles).
        """
        a1 = float(np.mean(f))
        p1 = poisson_solve(ScalarField(grid, f - a1)).values
        return cls(grid, a1, 1.0, p1, np.zeros(grid.shape))

    backend = "split"

    @property
    def cls(self):
        """The cohomology class diag(a1, a2)."""
        return CohomologyClass.diag(self.a1, self.a2)

    def profiles(self):
        """Realised factor profiles (A, B) as 2-D arrays."""
        lap = SpectralOps.of(self.grid).laplacian
        return self.a1 + lap(self.p1), self.a2 + lap(self.p2)

    def plus_ddc(self, phi):
        """Realised factor profiles (A, B) of chi_phi = self + dd^c phi for a
        SplitPotential phi."""
        a, b = self.profiles()
        lap = SpectralOps.of(phi.grid).laplacian
        return a + lap(phi.phi1), b + lap(phi.phi2)

    def scale(self, c):
        c = float(c)
        return SplitForm(self.grid, c * self.a1, c * self.a2, c * self.p1, c * self.p2)

    def add(self, other):
        if other.grid != self.grid:
            raise ValueError(f"SplitForm.add: grids differ ({self.grid} vs {other.grid})")
        return SplitForm(
            self.grid,
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.p1 + other.p1,
            self.p2 + other.p2,
        )


@dataclass(frozen=True)
class SplitPotential:
    """Additive potential phi(z1, z2) = phi1(z1) + phi2(z2)."""

    grid: Grid  # the factor lattice
    phi1: np.ndarray
    phi2: np.ndarray

    def assemble(self, grid4=None):
        """Materialise the 4-D ScalarField phi1 (+) phi2, by default on the
        product of the factor lattice."""
        if grid4 is None:
            grid4 = self.grid.product()
        v = self.phi1[:, :, None, None] + self.phi2[None, None, :, :]
        return ScalarField(grid4, np.broadcast_to(v, grid4.shape).copy())


def assemble_form(form, grid4=None):
    """Materialise a SplitForm as a full-backend closed form (by default on
    the product of its factor lattice)."""
    pot = SplitPotential(form.grid, form.p1, form.p2).assemble(grid4)
    return ClosedForm(form.cls, pot)


# --- separable integrals -------------------------------------------------
#
# For split data every wedge density is a sum of terms u(z1) * v(z2), so
# 4-D means reduce to products of factor means.  The helpers below spell
# out the combinations the flow and the functionals need.


def mean4(u, v):
    """Mean over the 4-D grid of u(z1) * v(z2); axes before the factor
    grid's are batch axes."""
    return np.mean(u, axis=(-2, -1)) * np.mean(v, axis=(-2, -1))


def split_wedge_mean(phi, chi, omega):
    """mean of phi * D(chi, omega) for split phi and split forms.

    D(diag(A,B), diag(F,G)) = A*G + B*F; with phi = phi1 + phi2 the mean
    splits into four factor products.
    """
    a, b = chi
    f, g = omega
    p1, p2 = phi
    return (
        mean4(p1 * a, g)
        + mean4(a, p2 * g)
        + mean4(p1 * f, b)
        + mean4(f, p2 * b)
    )
