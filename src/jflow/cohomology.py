"""Cohomology classes, intersection pairings, cone conditions and the
degenerate-form certificate.

On the flat 2-torus every (1,1)-class has a unique constant (harmonic)
representative, so a class is just a constant 2x2 Hermitian matrix and a
closed form is a (class, potential) pair -- closed by construction, which
removes any need for numerical closedness testing.  ``ClosedForm`` is the
one closed-form type on both lattices.  Realised, it is the (4,) + shape
block of ``torus.complex_hessian`` on the 4-D lattice and, on a factor
lattice (a ``SplitPotential``, a diagonal class), the (2, n, n) profile
stack (A, B) of diag(A(z1), B(z2)).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PositivityError
from .split import SplitPotential
from .torus import (ScalarField, SpectralOps, _lam_lo, _wedge, complex_hessian,
                    generalized_eigenvalues)


@dataclass(frozen=True)
class CohomologyClass:
    """Constant Hermitian 2x2 matrix: the harmonic representative."""

    m11: float
    m22: float
    m12: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "m11", float(self.m11))
        object.__setattr__(self, "m22", float(self.m22))
        object.__setattr__(self, "m12", complex(self.m12))

    @classmethod
    def identity(cls):
        return cls(1.0, 1.0, 0.0)

    @classmethod
    def diag(cls, a, b):
        return cls(a, b, 0.0)

    def components(self):
        """(m11, m22, Re m12, Im m12): the raw tuple of the form algebra."""
        return self.m11, self.m22, self.m12.real, self.m12.imag

    def min_eigenvalue(self):
        """Lowest eigenvalue, from the components scaled by the power of two
        that brings the largest into [0.5, 1), and scaled back.  Scaling by
        a power of two is exact, so in the normal range the result has the
        unscaled formula's bits; a subnormal or huge entry no longer
        squares to 0 or to inf."""
        comps = self.components()
        e = math.frexp(max(abs(x) for x in comps))[1]
        return math.ldexp(float(_lam_lo(tuple(math.ldexp(x, -e) for x in comps))), e)

    def add(self, other):
        return CohomologyClass(
            self.m11 + other.m11, self.m22 + other.m22, self.m12 + other.m12
        )

    def scale(self, c):
        c = float(c)
        return CohomologyClass(c * self.m11, c * self.m22, c * self.m12)


def class_pairing(a, b):
    """Intersection number of two classes: the integral of their wedge.

    4 * (a11 b22 + a22 b11 - 2 Re(a12 conj(b12))); symmetric bilinear.
    """
    return 4.0 * _wedge(a.components(), b.components())


def c_constant(x, w):
    """The flow constant c = 2 [X].[W] / [X]^2 for a Kahler class X."""
    lam = x.min_eigenvalue()
    if not lam > 0.0:
        raise PositivityError(
            f"c_constant: class X is not Kahler (min eigenvalue {lam:.3e})", margin=lam)
    return 2.0 * class_pairing(x, w) / class_pairing(x, x)


def cone_condition(x, w):
    """Margin of the cone condition c[X] - [W] > 0.

    Returns the smallest eigenvalue of the constant matrix c*X - W; the
    condition holds iff the margin is positive (on the torus the Kahler
    cone is exactly the positive-definite matrices).  A nonpositive margin
    is a valid verdict, not an error.

    For 2 x 2 classes c*X - W = X adj(W) X / det X, which is congruent to
    adj(W), so for a Kahler [X] the margin is positive iff [W] > 0: the
    check cannot fail for a Kahler [W] and always fails for one that is
    not.  (The paper's cone condition bites on curves of negative
    self-intersection, which the flat torus does not have.)  W is first
    scaled by a power of two, as in ``min_eigenvalue``, and the margin scaled
    back: exact in the normal range, and a subnormal W no longer rounds.
    """
    e = math.frexp(max(abs(v) for v in w.components()))[1]
    m11, m22, re, im = (math.ldexp(v, -e) for v in w.components())
    w = CohomologyClass(m11, m22, complex(re, im))
    diff = x.scale(c_constant(x, w)).add(w.scale(-1.0))
    return math.ldexp(diff.min_eigenvalue(), e)


@dataclass(frozen=True)
class ClosedForm:
    """Closed (1,1)-form: constant class plus dd^c of a potential, a
    ``ScalarField`` on the 4-D lattice or, with a diagonal class, a
    ``SplitPotential`` on a factor lattice (the form diag(A(z1), B(z2))).
    A form owns its lattice: ``field`` builds a potential of its type there,
    and ``check_lattice`` is the one check that a field or form is sampled
    there too (the same N at other offsets is another lattice)."""

    cls: CohomologyClass
    potential: object  # ScalarField | SplitPotential

    def __post_init__(self):
        if self.backend == "split" and self.cls.m12 != 0.0:
            raise ValueError(f"ClosedForm: off-diagonal class {self.cls} on a factor lattice")

    @property
    def grid(self):
        return self.potential.grid

    @property
    def backend(self):  # the lattice's: "split" on a factor lattice
        return "split" if len(self.grid.shape) == 2 else "full"

    @cached_property
    def realized(self):
        """The class's constant representative plus dd^c of the potential, as
        a read-only block that kernels share: (4,) + shape on the 4-D
        lattice, the (2, n, n) profile stack (A, B) on a factor lattice."""
        if self.backend == "split":
            base = np.array([self.cls.m11, self.cls.m22])[:, None, None]
            block = SpectralOps.of(self.grid).laplacian(self.potential.values, base=base)
        else:
            block = complex_hessian(self.potential, base=np.array(self.cls.components()))
        block.flags.writeable = False
        return block

    @classmethod
    def from_class(cls, cohomology_class, grid):
        """The class's constant form: zeros of the lattice's potential type."""
        zeros = SplitPotential.zeros if len(grid.shape) == 2 else ScalarField.zeros
        return cls(cohomology_class, zeros(grid))

    def field(self, values):
        """``values`` as a potential of this form's type on its lattice."""
        return type(self.potential)(self.grid, values)

    def check_lattice(self, other, who):
        """Raise ValueError unless the field or form ``other`` is on this
        lattice, with a potential of this form's type."""
        if other.grid != self.grid:
            raise ValueError(f"{who}: grids differ ({self.grid} vs {other.grid})")
        kind = type(other.potential if isinstance(other, ClosedForm) else other)
        if kind is not type(self.potential):
            raise ValueError(f"{who}: potential types differ "
                             f"({type(self.potential).__name__} vs {kind.__name__})")

    def plus_ddc(self, phi):
        """chi_phi = self + dd^c phi, realised as a fresh block."""
        self.check_lattice(phi, "ClosedForm.plus_ddc")
        if self.backend == "split":
            return SpectralOps.of(self.grid).laplacian(phi.values, base=self.realized)
        return complex_hessian(phi, base=self.realized)

    def assemble(self, grid4=None):
        """The form on a 4-D lattice, by default the product of its factor
        lattice: itself on the 4-D lattice."""
        if self.backend == "full":
            return self
        return ClosedForm(self.cls, self.potential.assemble(grid4))

    def scale(self, c):
        return ClosedForm(self.cls.scale(c), self.field(float(c) * self.potential.values))

    def add(self, other):
        self.check_lattice(other, "ClosedForm.add")
        pot = self.field(self.potential.values + other.potential.values)
        return ClosedForm(self.cls.add(other.cls), pot)


def epsilon_form(omega0, eps, omega_hat):
    """The regularised family member omega_eps = omega0 + eps * omega_hat.

    Class and potential add componentwise, on either lattice.
    """
    if not 0.0 <= eps < math.inf:  # nan compares false
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps}")
    if eps == 0.0:
        return omega0
    return omega0.add(omega_hat.scale(eps))


# s2 proxy values below this count as lying on the divisor locus
_LOCUS_TOL = 1e-12


@dataclass(frozen=True)
class DivisorModel:
    """Model of the degeneracy divisor D = {z1 = 0} and its line-bundle data.

    ``s2_proxy`` stands in for |s|^2_H: it vanishes to second order exactly
    on the locus and is used by every estimate monitor; the true Hermitian
    metric H is never constructed, so fitted constants (not exponents) are
    proxy-dependent.  ``r_h`` is a smooth representative of the class
    c1([D]) = diag(1, 0) chosen so that omega0 - rho * r_h is constant.
    """

    beta: float
    rho: float
    r_h: ClosedForm

    @staticmethod
    def s2_proxy(grid):
        """Proxy |s|^2 on the 4-D or the z1 factor lattice (a function of z1
        only): sin^2(pi x1) + sin^2(pi y1)."""
        x1, y1 = grid.coords()[:2]
        v = np.sin(np.pi * x1) ** 2 + np.sin(np.pi * y1) ** 2
        return ScalarField(grid, np.broadcast_to(v, grid.shape).copy())

    def locus_mask(self, grid):
        """Boolean mask of grid points lying on the divisor locus."""
        return self.s2_proxy(grid).values < _LOCUS_TOL


@dataclass(frozen=True)
class Omega0Certificate:
    """Verdict of the degenerate-form condition scan."""

    ok: bool
    c0: float
    beta: float
    rho: float
    failure: str = ""
    point: tuple = ()


def verify_omega0_conditions(omega0, div, omega_hat):
    """Scan the grid for the smallest C0 certifying the degeneracy condition.

    Checks pointwise (i) omega0 >= (1/C0) * s2^beta * omega_hat and
    (ii) omega0 - rho * r_h >= (1/C0) * omega_hat, reporting the smallest
    C0 that works for both, or a structured failure with the violating
    point and inequality.
    """
    grid = omega0.grid
    w0 = omega0.realized
    what = omega_hat.realized
    s2 = div.s2_proxy(grid).values ** div.beta

    def fail(failure, idx):
        return Omega0Certificate(False, np.inf, div.beta, div.rho, failure=failure,
                                 point=grid.point(idx))

    # (i): largest t with omega0 >= t*omega_hat pointwise is the smaller
    # generalized eigenvalue of the pencil (omega_hat, omega0).
    mu, _ = generalized_eigenvalues(what, w0, grid)
    off = s2 > _LOCUS_TOL
    neg = ~off & (mu < -1e-10)
    if np.any(neg):  # argmax of a mask: its first True point
        return fail("omega0 not nonnegative on the divisor locus", int(np.argmax(neg)))
    ratio = np.where(off, s2 / np.where(off, mu, 1.0), 0.0)
    bad = off & (mu <= 0.0)
    if np.any(bad):
        return fail("first inequality fails: omega0 degenerate off the locus",
                    int(np.argmax(bad)))
    c0_first = float(ratio.max())

    # (ii): omega0 - rho * r_h >= (1/C0) * omega_hat needs a positive floor.
    shifted = omega0.add(div.r_h.scale(-div.rho)).realized
    nu, _ = generalized_eigenvalues(what, shifted, grid)
    nu_min = float(nu.min())
    if nu_min <= 0.0:
        return fail("second inequality fails: omega0 - rho*R_H not positive",
                    int(np.argmin(nu)))
    c0_second = 1.0 / nu_min

    return Omega0Certificate(True, max(c0_first, c0_second), div.beta, div.rho)
