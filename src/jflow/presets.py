"""Pinned experiment presets and the Problem container the drivers consume.

Presets (every form a ``cohomology.ClosedForm``, the split presets' on the
factor lattice):

* ``identity``           chi0 = omega0 = omega_hat = Id; stationary at phi = 0.
* ``smooth_split``       omega0 = diag(1 + sin(2pi x1)/2, 1); Kahler, split.
* ``degenerate_split``   omega0 = diag(sin^2(pi x1) + sin^2(pi y1), 1);
                         degenerates on the divisor {z1 = 0}; split; carries
                         the divisor model (beta = 1, rho = 0.5, C0 = 2).
* ``nonsplit_perturbed`` degenerate_split plus a 0.05 cos(2pi(x1+x2)) mode in
                         the chi0 potential; genuinely 4-D (full backend).

The divisor representative R_H is (1/rho)(omega0 - diag(1 - rho, 1)): a
smooth form in c1([D]) = diag(1, 0) that makes omega0 - rho R_H constant.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cohomology import ClosedForm, CohomologyClass, DivisorModel, epsilon_form
from .split import SplitPotential
from .torus import Grid, ScalarField, complex_hessian, poisson_solve, positivity_margin

# One row per preset, and "" for an explicit problem: the default grid size
# and eps ladder (chosen for desk-scale runtimes), the lattice dimension (2:
# the factor lattice, split backend; 4: the 4-D one) and the family's
# uniform-estimate budgets, ``diagnostics.uniformity_report``'s keywords
# (desk-scale version of the uniform L-infinity bounds, independent of eps).
PRESETS = {
    "": dict(n=8, eps=(0.0,), dim=4, budget={}),
    "identity": dict(n=8, eps=(0.0,), dim=4, budget={}),
    "smooth_split": dict(n=32, eps=(0.0,), dim=2, budget={}),
    "degenerate_split": dict(n=16, eps=(0.2, 0.1, 0.05), dim=2,
                             budget=dict(budget_phi=1 / np.pi ** 2 + 0.01, budget_phidot=1.05)),
    "nonsplit_perturbed": dict(n=12, eps=(0.1,), dim=4, budget=dict(budget_phi=0.35)),
}
PRESET_NAMES = tuple(name for name in PRESETS if name)

# random initial potentials: modes drawn per factor (twice as many on the
# 4-D lattice), the largest |k| of a mode per lattice direction, and the
# share of chi0's positivity margin they may use up
_RANDOM_MODES = 4
_RANDOM_KMAX = 2
_RANDOM_MARGIN_FRAC = 0.5


@dataclass(frozen=True)
class Problem:
    """Everything a driver needs: background forms and divisor; the backend
    is the forms' own."""

    name: str
    chi0: ClosedForm
    omega0: ClosedForm
    omega_hat: ClosedForm
    divisor: Optional[DivisorModel] = None

    @property
    def backend(self):
        return self.chi0.backend  # "full" | "split"

    @property
    def grid(self):
        return self.chi0.grid  # the 4-D (full) or the factor (split) lattice

    def omega_eps(self, eps):
        return epsilon_form(self.omega0, eps, self.omega_hat)

    def chi0_class(self):
        return self.chi0.cls

    def omega_eps_class(self, eps):
        return self.omega_eps(eps).cls

    def to_full(self, grid4=None):
        """Assemble a split problem on a 4-D grid, by default the product of
        its factor lattice (identity on full ones)."""
        if self.backend == "full":
            return self
        div = self.divisor
        if div is not None:
            div = replace(div, r_h=div.r_h.assemble(grid4))
        forms = (self.chi0, self.omega0, self.omega_hat)
        return Problem(self.name, *(f.assemble(grid4) for f in forms), div)


def degenerate_profile(fgrid):
    """f = sin^2(pi x1) + sin^2(pi y1), the s2 proxy: zero exactly on the divisor."""
    return DivisorModel.s2_proxy(fgrid).values


def smooth_profile(fgrid):
    """f = 1 + sin(2 pi x1) / 2: Kahler split profile."""
    x, _ = fgrid.coords()
    return np.broadcast_to(1.0 + 0.5 * np.sin(2 * np.pi * x), fgrid.shape).copy()


def make_divisor(fgrid, rho=0.5, beta=1.0):
    """Divisor model of the split degenerate preset on a factor lattice.

    R_H = (1/rho)(omega0 - diag(1-rho, 1)) = diag((f - (1-rho))/rho, 0); its
    class is diag(1, 0) = c1([D]) and omega0 - rho R_H = diag(1-rho, 1).
    """
    f = degenerate_profile(fgrid)
    r1 = (f - (1.0 - rho)) / rho
    r_h = replace(_from_profile(fgrid, r1), cls=CohomologyClass.diag(1.0, 0.0))
    return DivisorModel(beta=beta, rho=rho, r_h=r_h)


def _from_profile(fgrid, f):
    """The split form with realised profiles f(z1) and 1: class diag(mean f,
    1), potential a factor Poisson solve (exact for band-limited f)."""
    a1 = float(np.mean(f))
    p1 = poisson_solve(ScalarField(fgrid, f - a1)).values
    pot = SplitPotential(fgrid, np.stack((p1, np.zeros(fgrid.shape))))
    return ClosedForm(CohomologyClass.diag(a1, 1.0), pot)


def preset_grid(name, n, offsets=None):
    """The lattice preset ``name`` is built on, of its row's dimension: the
    factor lattice for the split presets, the 4-D one otherwise (an explicit
    problem, name "", too).  Zero offsets for None; raises ValueError on a
    wrong offset count, 0 included, or an offset outside [0, 1/N)."""
    dim = PRESETS[name or ""]["dim"]
    offsets = (0.0,) * dim if offsets is None else tuple(offsets)
    if len(offsets) != dim:
        raise ValueError(f"{name or 'an explicit problem'} takes {dim} offsets, "
                         f"got {len(offsets)}")
    return Grid(n, offsets)


def build_preset(name, n=None, offsets=None):
    """Construct a preset Problem at grid size n (defaults per preset)."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    n = PRESETS[name]["n"] if n is None else int(n)
    grid = preset_grid(name, n, offsets)

    if name == "identity":
        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        return Problem(name, ident, ident, ident)

    fgrid = Grid(n, grid.offsets[:2])
    one = ClosedForm.from_class(CohomologyClass.identity(), fgrid)

    if name == "smooth_split":
        return Problem(name, one, _from_profile(fgrid, smooth_profile(fgrid)), one)

    omega0 = _from_profile(fgrid, degenerate_profile(fgrid))
    degenerate = Problem(name, one, omega0, one, make_divisor(fgrid))
    if name == "degenerate_split":
        return degenerate

    # nonsplit_perturbed: the degenerate preset, whose z2 potentials all
    # vanish, assembled on the 4-D grid, with chi0 perturbed by an
    # off-diagonal potential mode.
    full = degenerate.to_full(grid)
    pot = ScalarField(grid, cosine_modes(grid, [(0.05, (1, 0, 1, 0), 0.0)]))
    chi0 = ClosedForm(CohomologyClass.identity(), pot)
    return Problem(name, chi0, full.omega0, full.omega_hat, full.divisor)


def cosine_modes(grid, modes):
    """The sum of amp * cos(2 pi k . x + phase) over ``modes``, (amp, k,
    phase) triples with one wavenumber in k per axis of ``grid`` and the
    phase in radians: an array of the grid's shape."""
    x = grid.coords()
    v = np.zeros(grid.shape)
    for amp, k, phase in modes:
        arg = 2 * np.pi * sum(ki * xi for ki, xi in zip(k, x))
        v = v + amp * np.cos(arg + phase)
    return v


def random_bandlimited_potential(problem, rng):
    """Random trigonometric initial potential keeping chi_phi positive.

    Draws a handful of low-frequency modes and rescales so the positivity
    margin of chi0 + dd^c(phi) stays above half of chi0's own margin.
    Deterministic given the rng state.
    """
    grid = problem.grid

    def draw(count):  # per mode: k, then its phase and amplitude (none for k = 0)
        modes = []
        for _ in range(count):
            k = rng.integers(-_RANDOM_KMAX, _RANDOM_KMAX + 1, size=len(grid.shape))
            if np.any(k):
                phase = rng.uniform(0, 2 * np.pi)
                modes.append((rng.normal(), k, phase))
        return cosine_modes(grid, modes)

    if problem.backend == "split":
        v = np.stack([draw(_RANDOM_MODES) for _ in range(2)])
    else:
        v = draw(2 * _RANDOM_MODES)
    scale = _positive_scale(problem.chi0.assemble(), problem.chi0.field(v).assemble())
    return problem.chi0.field(scale * v)


def _positive_scale(chi0, phi):
    base = positivity_margin(chi0.realized)
    hess_margin = positivity_margin(complex_hessian(phi))
    if hess_margin >= 0.0:
        return 1.0
    return min(1.0, (1.0 - _RANDOM_MARGIN_FRAC) * base / (-hess_margin))
