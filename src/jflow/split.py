"""Split (product) backend: per-factor 2-D fields on the two elliptic-curve
factors of the torus.

Product data diag(f(z1), g(z2)) with additive potentials
phi = phi1(z1) + phi2(z2) is preserved by the flow and by the critical
equation, so a surface problem factors into two problems on 2-D tori.
Both factor fields are sampled on one factor lattice, a ``torus.Grid``
with two offsets, so the assembled 4-D grid is its ``product()``.  This
module holds ``SplitPotential``, the factor potentials as one (2, n, n)
stack (a split closed form is a ``cohomology.ClosedForm`` with it), and
assembly to a 4-D field; the energy functionals take factor means
(``functionals._energies_split``) without ever materialising the 4-D
grid.

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
