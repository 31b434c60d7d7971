"""Elliptic side of the lab: the reduction of the critical equation to a
complex Monge-Ampere equation, a damped Newton-Krylov solver for it,
spectral Poisson solves, and the split-ansatz closed-form oracle.

The critical equation 2 chi ^ omega = c chi^2 for chi = chi0 + dd^c(phi)
is algebraically equivalent to

    (alpha + c dd^c psi)^2 = omega^2,    alpha := c chi0 - omega,

so a converged Newton solution is an independent check on the flow limit.
Newton runs on the log-quotient G(psi) = log (A_psi)^2 - log (target)^2,
whose linearization is the variable-coefficient complex Laplacian
c tr_{A_psi} dd^c; each step is solved by GMRES preconditioned with the
constant-coefficient operator built from the mean of A_psi.  For product
data the equation factorises into log(a_i + c dd^c psi_i) = log t_i on each
factor, whose linearization is a Poisson solve; the two factors are one
stacked (2, n, n) problem.  Both backends run the same damped Newton loop,
``_damped_newton``: one positivity check, one backtracking line search and
one set of failure errors.

scipy's Krylov layer (``gmres``, ``LinearOperator``) is imported on the
first Newton-Krylov direction, not with the module, so that importing the
package loads no scipy module.
"""

from dataclasses import dataclass

import numpy as np
import numpy.fft as sfft  # noqa: F401 - numpy.fft, kept for the benchmark tracer to proxy

from .cohomology import class_pairing, cone_condition, c_constant, epsilon_form
from .errors import ConeConditionError, MAConvergenceError, PositivityError
from .split import SplitPotential
from .torus import (
    Grid,
    ScalarField,
    SpectralOps,
    _critical_density,
    _det,
    _lam_lo,
    _trace,
    poisson_solve,
    positivity_margin,
)


@dataclass(frozen=True)
class MASolverConfig:
    newton_tol: float = 1e-10   # sup norm of the log residual
    max_newton: int = 50

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if not isinstance(self.max_newton, int) or self.max_newton < 1:
            raise ValueError("max_newton must be an integer >= 1")


def build_alpha(chi0, omega_eps, c_eps):
    """alpha = c_eps * chi0 - omega_eps, with the cone margin enforced and
    the class identity [alpha]^2 = [omega_eps]^2 verified."""
    x_cls, w_cls = chi0.cls, omega_eps.cls
    margin = cone_condition(x_cls, w_cls)
    if margin <= 0.0:
        raise ConeConditionError(
            f"build_alpha: cone margin {margin:.6e} <= 0", margin=margin
        )
    alpha = chi0.scale(c_eps).add(omega_eps.scale(-1.0))
    a_cls = x_cls.scale(c_eps).add(w_cls.scale(-1.0))
    lhs = class_pairing(a_cls, a_cls)
    rhs = class_pairing(w_cls, w_cls)
    if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
        raise AssertionError(
            f"class identity [alpha]^2 = [omega]^2 violated: {lhs} vs {rhs}"
        )
    return alpha


def critical_residual(phi, chi0, omega, c):
    """sup |2 chi_phi ^ omega - c chi_phi^2| in density form.

    No division: finite even where chi degenerates, so it extends to the
    weak space.
    """
    chi = chi0.plus_ddc(phi).components()
    return float(np.abs(_critical_density(chi, omega.realized.components(), c)).max())


def split_critical(f, g, x11=1.0, x22=1.0, fgrid=None):
    """Closed-form critical data for the product ansatz.

    For profiles f(z1), g(z2) >= 0 with positive means and diagonal class
    X: c_i = mean/X_ii (then c1 + c2 = c0), and the factor potentials solve
    dd^c phi_i = profile/c_i - X_ii.  The assembled chi = diag(f/c1, g/c2)
    satisfies the critical equation exactly.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if fgrid is None:
        fgrid = Grid(f.shape[0], (0.0, 0.0))
    mf, mg = float(f.mean()), float(g.mean())
    if mf <= 0.0 or mg <= 0.0:
        raise ValueError("split_critical: profiles need positive means")
    c1 = mf / x11
    c2 = mg / x22
    phi1 = poisson_solve(ScalarField(fgrid, f / c1 - x11)).values
    phi2 = poisson_solve(ScalarField(fgrid, g / c2 - x22)).values
    return c1, c2, phi1, phi2


# --------------------------------------------------------------------------
# Newton solver

_DAMPING = 0.5       # line-search factor: the step halves after each refused trial
_LINEAR_TOL = 1e-12  # floor of the GMRES relative tolerance


def _gauge(psi, gauge):
    if gauge == "sup":
        return ScalarField(psi.grid, psi.values - psi.values.max())
    return psi.mean_normalized()


@dataclass
class MASolution:
    psi: object
    residuals: list
    newton_iterations: int

    def residual(self):
        return self.residuals[-1] if self.residuals else np.inf


def _damped_newton(name, psi, evaluate, direction, cfg, grid_ndim):
    """Damped Newton on the log residual G from the mean-zero start psi.

    ``evaluate(p)`` gives (A_p, positivity margin of A_p, G(p)), with G
    None where the margin is not positive; ``direction(G, A, sup|G|)``
    gives the Newton step and the GMRES ``info`` of its linear solve (0 for
    a direct solve).  The trial psi + s delta is recentred to mean zero on
    each grid block (the last ``grid_ndim`` axes) and accepted when its A is
    positive and sup|G| decreases or reaches ``newton_tol``; s is halved
    after each refused trial, 40 times at most.  Converging on the last of
    the ``max_newton`` iterations is success.  Returns (psi, residuals).
    """
    block = tuple(range(-grid_ndim, 0))
    a, m, g_res = evaluate(psi)
    if m <= 0.0:
        raise PositivityError(
            f"{name}: initial A_psi not positive (margin {m:.3e})", margin=m
        )
    residuals = [float(np.abs(g_res).max())]
    while residuals[-1] > cfg.newton_tol:
        if len(residuals) > cfg.max_newton:
            raise MAConvergenceError(
                f"{name}: not converged in {cfg.max_newton} iterations "
                f"(residual {residuals[-1]:.3e})",
                residuals=residuals,
            )
        delta, info = direction(g_res, a, residuals[-1])
        s = 1.0
        for _ in range(40):
            trial = psi + s * delta
            trial -= trial.mean(block, keepdims=True)
            a_trial, m, g_trial = evaluate(trial)
            if m > 0.0:
                r_trial = float(np.abs(g_trial).max())
                if r_trial < residuals[-1] or r_trial <= cfg.newton_tol:
                    break
            s *= _DAMPING
        else:
            unconverged = f" after an unconverged GMRES solve (info={info})" if info else ""
            raise MAConvergenceError(
                f"{name}: no acceptable damped step at iteration "
                f"{len(residuals) - 1}{unconverged}",
                residuals=residuals,
            )
        psi, a, g_res = trial, a_trial, g_trial
        residuals.append(r_trial)
    return psi, residuals


def solve_ma(alpha, c, target, cfg=None, psi0=None, gauge="mean"):
    """Newton-Krylov solve of (alpha + c dd^c psi)^2 = target^2, full grid.

    The unknown is mean-zero; ``gauge="sup"`` shifts the output to the
    sup psi = 0 normalization on export.  If the realized alpha is not
    positive and no psi0 is given, the iteration starts from the harmonic
    gauge psi = -potential(alpha)/c, which makes the initial A_psi the
    (positive) constant class representative.
    """
    cfg = cfg or MASolverConfig()
    grid = alpha.grid
    a_real = alpha.realized
    t_dens = 2.0 * _det(target.realized.components())
    if t_dens.min() <= 1e-12 * max(float(t_dens.max()), 1.0):
        raise PositivityError(
            "solve_ma: target density vanishes; use epsilon-continuation "
            "for degenerate targets",
            margin=float(t_dens.min()),
        )
    log_t = np.log(t_dens)

    if psi0 is not None:
        psi = psi0.values - psi0.values.mean()
    elif positivity_margin(a_real) <= 0.0:
        psi = -alpha.potential.values / c
        psi = psi - psi.mean()
    else:
        psi = np.zeros(grid.shape)

    ops = SpectralOps.of(grid)
    base = a_real.components()

    def evaluate(p):
        a = ops.hessian(p, base=base, c=c)
        m = float(_lam_lo(a).min())
        return a, m, (np.log(2.0 * _det(a)) - log_t if m > 0.0 else None)

    def direction(g_res, a, res_sup):
        return _newton_direction(g_res, a, c, ops, res_sup)

    psi, residuals = _damped_newton("solve_ma", psi, evaluate, direction, cfg, 4)
    out = ScalarField(grid, psi)
    return MASolution(_gauge(out, gauge), residuals, len(residuals) - 1)


def __getattr__(name):
    """PEP 562: scipy.sparse.linalg's ``gmres`` and ``LinearOperator``,
    imported on first use.  Each is then a module attribute, and a
    replacement set there (e.g. a traced ``gmres``) is the one
    ``_newton_direction`` calls."""
    if name not in ("LinearOperator", "gmres"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.sparse import linalg

    return globals().setdefault(name, getattr(linalg, name))


def _newton_direction(g_res, a, c, ops, res_sup):
    """Solve c tr_A dd^c(delta) = -G by preconditioned GMRES (mean-zero);
    returns (delta, GMRES info)."""
    LinearOperator, gmres = __getattr__("LinearOperator"), __getattr__("gmres")
    shape, sym = ops.shape, ops.hessian_syms
    size = g_res.size

    def matvec(p):
        out = c * _trace(a, ops.hessian(p - p.mean()))
        return (out - out.mean()).ravel()

    # constant-coefficient preconditioner from the mean matrix of A
    am = tuple(float(x.mean()) for x in a)
    denom = c * _trace(am, sym)

    def precond(r):
        return ops.divide(r.reshape(shape), denom).ravel()

    rhs = -(g_res - g_res.mean()).ravel()
    op = LinearOperator((size, size), matvec=lambda p: matvec(p.reshape(shape)))
    pre = LinearOperator((size, size), matvec=precond)
    # inexact Newton: modest relative tolerance early, _LINEAR_TOL near the end
    rtol = float(np.clip(0.01 * res_sup, _LINEAR_TOL, 1e-2))
    delta, info = gmres(op, rhs, M=pre, rtol=rtol, atol=0.0, restart=60, maxiter=40)
    if info != 0 and not np.all(np.isfinite(delta)):
        raise MAConvergenceError(f"solve_ma: GMRES breakdown (info={info})")
    delta = delta.reshape(shape)
    return delta - delta.mean(), info


def solve_ma_split(alpha, c, target, cfg=None, gauge="mean"):
    """Split-mode Monge-Ampere solve: the product equation factorises into
    one log-linear equation log(a_i + c dd^c psi_i) = log(t_i) per factor.
    Both are solved as one stacked (2, n, n) Newton problem whose linear
    step is a constant-coefficient Poisson solve per factor.

    The partition constant kappa between the factors is fixed by the class
    means (the factor problems must each balance in cohomology).
    """
    cfg = cfg or MASolverConfig()
    fgrid = alpha.grid
    f, g = target.profiles()
    floor = 1e-12 * max(float(f.max()), float(g.max()), 1.0)
    if f.min() <= floor or g.min() <= floor:
        raise PositivityError(
            "solve_ma_split: target profile vanishes; use epsilon-continuation",
            margin=float(min(f.min(), g.min())),
        )
    kappa = alpha.a1 / float(f.mean())
    side = np.stack(alpha.profiles())
    goal = np.stack((kappa * f, g / kappa))
    side_mean, goal_mean = side.mean((1, 2)), goal.mean((1, 2))
    if np.any(np.abs(side_mean - goal_mean) > 1e-8 * np.abs(goal_mean)):
        raise ValueError("solve_ma_split: class means of side and target disagree")
    log_t = np.log(goal)
    ops = SpectralOps.of(fgrid)

    def evaluate(p):
        a = side + c * ops.laplacian(p)
        m = float(a.min())
        return a, m, (np.log(a) - log_t if m > 0.0 else None)

    def direction(g_res, a, res_sup):
        # linearization (c/A) dd^c delta = -G  <=>  c dd^c delta = -A G on
        # each factor; divide drops each factor's mean mode (solvability)
        return ops.divide(-a * g_res) / c, 0

    psi, residuals = _damped_newton(
        "solve_ma_split", np.zeros(side.shape), evaluate, direction, cfg, 2
    )
    if gauge == "sup":
        psi = psi - psi.max((1, 2), keepdims=True)
    return MASolution(SplitPotential(fgrid, psi[0], psi[1]), residuals,
                      len(residuals) - 1)


def solve_ma_continuation(chi0, omega0, omega_hat, eps_ladder, cfg=None, gauge="mean"):
    """Warm-started epsilon-continuation toward a degenerate target.

    Solves the Monge-Ampere problem at each epsilon in the (descending)
    ladder, reusing the previous solution as the Newton start.  Returns the
    list of (eps, MASolution) pairs.
    """
    cfg = cfg or MASolverConfig()
    out = []
    psi_prev = None
    for eps in eps_ladder:
        omega_eps = epsilon_form(omega0, eps, omega_hat)
        c_eps = c_constant(chi0.cls, omega_eps.cls)
        alpha = build_alpha(chi0, omega_eps, c_eps)
        if chi0.backend == "split":
            sol = solve_ma_split(alpha, c_eps, omega_eps, cfg, gauge=gauge)
        else:
            sol = solve_ma(alpha, c_eps, omega_eps, cfg, psi0=psi_prev, gauge=gauge)
            psi_prev = sol.psi
        out.append((eps, sol))
    return out
