"""Split (product) backend: per-factor 2-D fields on the two elliptic-curve
factors of the torus.

Product data diag(f(z1), g(z2)) with additive potentials
phi = phi1(z1) + phi2(z2) is preserved by the flow and by the critical
equation, so a surface problem factors into two problems on 2-D tori.
Both factor fields are sampled on one factor lattice, a ``torus.Grid``
with two offsets, so the assembled 4-D grid is its ``product()``.  This
module holds ``SplitPotential``, the factor potentials as one (2, n, n)
stack (a split closed form is a ``cohomology.ClosedForm`` with it), the
separable-product integrals used to evaluate energy functionals without
ever materialising the 4-D grid, and assembly to a 4-D field.

Everything here is pure-functional over immutable arrays.
"""

from dataclasses import dataclass

import numpy as np
import numpy.fft as sfft  # noqa: F401 - numpy.fft, kept for the benchmark tracer to proxy

from .torus import Grid, ScalarField


@dataclass(frozen=True)
class SplitPotential:
    """Additive potential phi(z1, z2) = phi1(z1) + phi2(z2), its factor
    potentials stacked as one (2, n, n) array ``values``."""

    grid: Grid  # the factor lattice
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2,) + self.grid.shape:
            raise ValueError(f"split potential shape {v.shape} != {(2,) + self.grid.shape}")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((2,) + grid.shape))

    def assemble(self, grid4=None):
        """Materialise the 4-D ScalarField phi1 (+) phi2, by default on the
        product of the factor lattice."""
        if grid4 is None:
            grid4 = self.grid.product()
        p1, p2 = self.values
        v = p1[:, :, None, None] + p2[None, None, :, :]
        return ScalarField(grid4, np.broadcast_to(v, grid4.shape).copy())


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
    (a, b), (f, g), (p1, p2) = chi, omega, phi
    return mean4(p1 * a, g) + mean4(a, p2 * g) + mean4(p1 * f, b) + mean4(f, p2 * b)
