"""Pinned experiment presets and the Problem container the drivers consume.

Presets:

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cohomology import ClosedForm, CohomologyClass, DivisorModel, epsilon_form
from .split import FactorGrid, SplitForm, SplitPotential, assemble_form
from .torus import Grid, ScalarField, complex_hessian, positivity_margin

PRESET_NAMES = ("identity", "smooth_split", "degenerate_split", "nonsplit_perturbed")

# Default grid sizes and epsilon ladders, chosen for desk-scale runtimes.
PRESET_DEFAULTS = {
    "identity": dict(backend="full", n=8, eps=[0.0], divisor=False),
    "smooth_split": dict(backend="split", n=32, eps=[0.0], divisor=False),
    "degenerate_split": dict(backend="split", n=16, eps=[0.2, 0.1, 0.05], divisor=True),
    "nonsplit_perturbed": dict(backend="full", n=12, eps=[0.1], divisor=True),
}

# Uniform-estimate budgets for the degenerate family (desk-scale version of
# the uniform L-infinity bounds): sup|phi| <= 1/pi^2 + 0.01 and
# sup|phi_dot| <= 1 + 0.05, independent of epsilon.
FAMILY_BUDGETS = {
    "degenerate_split": dict(sup_phi=1.0 / np.pi ** 2 + 0.01, sup_phidot=1.05),
    "nonsplit_perturbed": dict(sup_phi=0.35, sup_phidot=None),
}

# Q-monitor constants compatible with the preset divisor (A*delta >= 2*beta
# with beta = 1).  The generic defaults (A=10, delta=0.1) suit beta <= 1/2
# only, so the presets carry their own pair.
PRESET_QMONITOR = {"A": 4.0, "delta": 0.5}


@dataclass(frozen=True)
class Problem:
    """Everything a driver needs: background forms, divisor, backend."""

    name: str
    backend: str  # "full" | "split"
    chi0: object  # ClosedForm | SplitForm
    omega0: object
    omega_hat: object
    divisor: Optional[DivisorModel] = None

    @property
    def grid(self):
        return self.chi0.grid  # Grid (full) or FactorGrid (split)

    def omega_eps(self, eps):
        return epsilon_form(self.omega0, eps, self.omega_hat)

    def chi0_class(self):
        return self.chi0.cls

    def omega_eps_class(self, eps):
        return self.omega_eps(eps).cls

    def full_grid(self):
        if self.backend == "split":
            return Grid(self.grid.n, self.grid.offsets + (0.0, 0.0))
        return self.grid

    def to_full(self):
        """Assemble a split problem on the 4-D grid (identity on full ones)."""
        if self.backend == "full":
            return self
        g4 = self.full_grid()
        div = self.divisor
        if div is not None:
            div = DivisorModel(div.beta, div.rho, assemble_form(div.r_h, g4))
        return Problem(
            self.name,
            "full",
            assemble_form(self.chi0, g4),
            assemble_form(self.omega0, g4),
            assemble_form(self.omega_hat, g4),
            div,
        )


def degenerate_profile(fgrid):
    """f = sin^2(pi x1) + sin^2(pi y1): vanishes exactly on the divisor."""
    x, y = fgrid.coords()
    return np.sin(np.pi * x) ** 2 + np.sin(np.pi * y) ** 2


def smooth_profile(fgrid):
    """f = 1 + sin(2 pi x1) / 2: Kahler split profile."""
    x, _ = fgrid.coords()
    return np.broadcast_to(1.0 + 0.5 * np.sin(2 * np.pi * x), fgrid.shape).copy()


def _split_divisor(fgrid, rho=0.5, beta=1.0):
    """Divisor model for the split degenerate preset.

    R_H = (1/rho)(omega0 - diag(1-rho, 1)) = diag((f - (1-rho))/rho, 0); its
    class is diag(1, 0) = c1([D]) and omega0 - rho R_H = diag(1-rho, 1).
    """
    f = degenerate_profile(fgrid)
    r1 = (f - (1.0 - rho)) / rho
    r_h = SplitForm.from_profiles(fgrid, f=r1, g=None)
    r_h = SplitForm(fgrid, 1.0, 0.0, r_h.p1, np.zeros(fgrid.shape))
    return DivisorModel(beta=beta, rho=rho, r_h=r_h)


def make_divisor(fgrid, rho=0.5, beta=1.0):
    """Public hook for divisor models with non-default rho/beta."""
    return _split_divisor(fgrid, rho=rho, beta=beta)


def build_preset(name, n=None, offsets=None):
    """Construct a preset Problem at grid size n (defaults per preset)."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    defaults = PRESET_DEFAULTS[name]
    n = defaults["n"] if n is None else int(n)

    if name == "identity":
        grid = Grid(n, tuple(offsets) if offsets else (0.0,) * 4)
        ident = ClosedForm.from_class(CohomologyClass.identity(), grid)
        return Problem(name, "full", ident, ident, ident)

    fgrid = FactorGrid(n, tuple(offsets[:2]) if offsets else (0.0, 0.0))
    one = SplitForm.constant(fgrid, 1.0, 1.0)

    if name == "smooth_split":
        omega0 = SplitForm.from_profiles(fgrid, f=smooth_profile(fgrid))
        return Problem(name, "split", one, omega0, one)

    if name == "degenerate_split":
        omega0 = SplitForm.from_profiles(fgrid, f=degenerate_profile(fgrid))
        return Problem(name, "split", one, omega0, one, _split_divisor(fgrid))

    # nonsplit_perturbed: assemble the degenerate preset on the 4-D grid and
    # perturb chi0 by an off-diagonal potential mode.
    split_problem = Problem(
        "degenerate_split",
        "split",
        one,
        SplitForm.from_profiles(fgrid, f=degenerate_profile(fgrid)),
        one,
        _split_divisor(fgrid),
    )
    full = split_problem.to_full()
    g4 = full.grid
    x1, _, x2, _ = g4.coords()
    mode = 0.05 * np.cos(2 * np.pi * (x1 + x2))
    pot = ScalarField(g4, np.broadcast_to(mode, g4.shape).copy())
    chi0 = ClosedForm(CohomologyClass.identity(), pot)
    return Problem(name, "full", chi0, full.omega0, full.omega_hat, full.divisor)


def random_bandlimited_potential(problem, rng, kmax=2, n_modes=4, margin_frac=0.5):
    """Random trigonometric initial potential keeping chi_phi positive.

    Draws a handful of low-frequency modes and rescales so the positivity
    margin of chi0 + dd^c(phi) stays above ``margin_frac`` times chi0's own
    margin.  Deterministic given the rng state.
    """
    if problem.backend == "split":
        fgrid = problem.grid
        parts = []
        for _ in range(2):
            x, y = fgrid.coords()
            v = np.zeros(fgrid.shape)
            for _ in range(n_modes):
                kx, ky = rng.integers(-kmax, kmax + 1, size=2)
                if kx == 0 and ky == 0:
                    continue
                phase = rng.uniform(0, 2 * np.pi)
                v = v + rng.normal() * np.cos(2 * np.pi * (kx * x + ky * y) + phase)
            parts.append(v)
        phi = SplitPotential(fgrid, parts[0], parts[1])
        full = phi.assemble(problem.full_grid())
        scale = _positive_scale(problem.to_full(), full, margin_frac)
        return SplitPotential(fgrid, scale * parts[0], scale * parts[1])

    grid = problem.grid
    x = grid.coords()
    v = np.zeros(grid.shape)
    for _ in range(2 * n_modes):
        k = rng.integers(-kmax, kmax + 1, size=4)
        if not np.any(k):
            continue
        phase = rng.uniform(0, 2 * np.pi)
        arg = sum(2 * np.pi * ki * xi for ki, xi in zip(k, x))
        v = v + rng.normal() * np.cos(arg + phase)
    phi = ScalarField(grid, v)
    scale = _positive_scale(problem, phi, margin_frac)
    return ScalarField(grid, scale * v)


def _positive_scale(full_problem, phi, margin_frac):
    base = positivity_margin(full_problem.chi0.realized)
    hess_margin = positivity_margin(complex_hessian(phi))
    if hess_margin >= 0.0:
        return 1.0
    return min(1.0, (1.0 - margin_frac) * base / (-hess_margin))
