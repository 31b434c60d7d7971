"""Elliptic side of the lab: the reduction of the critical equation to a
complex Monge-Ampere equation and its solver.
The split-ansatz closed-form critical point, ``split_critical``, is a test
oracle and lives in the test helper ``tests/oracles.py``.

The critical equation 2 chi ^ omega = c chi^2 for chi = chi0 + dd^c(phi)
is algebraically equivalent to

    (alpha + c dd^c psi)^2 = omega^2,    alpha := c chi0 - omega,

so a converged solution is an independent check on the flow limit.
``solve_ma`` is the one entry point; alpha's lattice picks the solve.
On the 4-D lattice (``_full_newton``) damped Newton runs on G(psi) =
log (A_psi)^2 - log (target)^2 from a given psi0 (each rung of
``solve_ma_continuation`` from the last psi) or a cold start; its
linearization c tr_{A_psi} dd^c is solved by GMRES, preconditioned with
the constant-coefficient operator of the diagonal of the mean of A_psi,
conformally scaled (``_newton_direction``).  On a factor lattice
(``_split_solve``) the equation is linear: the product ansatz
A_1(z1) A_2(z2) = F(z1) G(z2) separates it into a_i + c Delta psi_i = t_i
per factor, one stacked (2, n, n) Poisson solve, which needs no start
and solves eps = 0 too on a lattice off the divisor; its residual is
relative, sup|A - goal| / sup goal, since a log residual there divides the
solve's rounding by a target that is small near the divisor.

The GMRES is the lab's own (``krylov.gmres``, scipy's operation for
operation), so a solve, like the rest of the package, loads numpy only.
``_newton_direction`` calls it through the module attribute ``gmres``,
where a replacement set on this module (e.g. a traced ``gmres``) is the one
it calls.
"""

from dataclasses import dataclass

import numpy as np
import numpy.fft as sfft  # noqa: F401 - numpy.fft, kept for the benchmark tracer to proxy

from .cohomology import class_pairing, cone_condition, c_constant, epsilon_form
from .errors import ConeConditionError, MAConvergenceError, PositivityError, check_numbers
from .krylov import Operator, gmres
from .torus import SpectralOps, _cowedge, _det, positivity_margin


@dataclass(frozen=True)
class MASolverConfig:
    newton_tol: float = 1e-10   # sup|log residual|; sup|A - goal| / sup goal on a factor lattice

    def __post_init__(self):
        check_numbers(self)
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")


def build_alpha(chi0, omega_eps, c_eps):
    """alpha = c_eps * chi0 - omega_eps, with the cone margin enforced and
    the class identity [alpha]^2 = [omega_eps]^2 checked: a ValueError
    names both pairings when ``c_eps`` is not the classes' flow constant."""
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
        raise ValueError(f"build_alpha: c_eps = {c_eps} breaks [alpha]^2 = [omega]^2: "
                         f"[alpha]^2 = {lhs}, [omega]^2 = {rhs}")
    return alpha


# --------------------------------------------------------------------------
# Solvers

_MAX_NEWTON = 50     # Newton iterations on the 4-D lattice; converging on the last counts
_DAMPING = 0.5       # line-search factor: the step halves after each refused trial
_LINEAR_TOL = 1e-12  # floor of the GMRES relative tolerance


@dataclass
class MASolution:
    psi: object
    residuals: list
    newton_iterations: int
    precond_applies: int = 0  # GMRES preconditioner applications, all directions
    gmres_info_max: int = 0  # the largest GMRES info (0: every solve converged)

    def residual(self):
        return self.residuals[-1] if self.residuals else np.inf


def solve_ma(alpha, c, target, cfg=None, psi0=None):
    """Solve (alpha + c dd^c psi)^2 = target^2 on alpha's lattice to
    ``cfg.newton_tol``: on the 4-D lattice by damped Newton from psi0 if it
    is given, else from the cold start, to a sup norm of the log residual
    within it; on a factor lattice by one direct solve (psi0 is checked but
    not needed, ``newton_iterations`` is 0), to a relative residual within
    it.  The returned psi is mean-zero (per factor on a factor lattice).
    Refuses a target or psi0 off alpha's lattice.
    """
    cfg = cfg or MASolverConfig()
    for other in (target,) if psi0 is None else (target, psi0):
        alpha.check_lattice(other, "solve_ma")
    ops = SpectralOps.of(alpha.grid)
    if alpha.backend == "split":
        psi, residuals = _split_solve(alpha, c, target, ops, cfg)
        return MASolution(alpha.field(psi), residuals, len(residuals) - 1)
    psi, residuals, *stats = _full_newton(alpha, c, target, ops, cfg, psi0)
    # recentred once more: the 4-D psi's recorded bits include it
    return MASolution(alpha.field(psi).mean_normalized(), residuals, len(residuals) - 1, *stats)


def _full_newton(alpha, c, target, ops, cfg, psi0):
    """Damped Newton-Krylov on G = log det A_psi - log det target on the 4-D
    lattice, from psi0 or, if it is None, from the cold start: psi =
    -potential(alpha)/c if the realized alpha is not positive, which makes
    the initial A_psi the (positive) constant class representative, else 0.

    The start and each trial psi + s delta are recentred to mean zero; a
    trial is accepted when its A is positive and sup|G| decreases or reaches
    ``newton_tol``, and s is halved after each refused trial, 40 times at
    most.  Converging on the last of the ``_MAX_NEWTON`` iterations is
    success.  Returns (psi, residuals, preconditioner applications, largest
    GMRES info).
    """
    a_real = alpha.realized
    t_dens = 2.0 * _det(target.realized)
    if t_dens.min() <= 1e-12 * max(float(t_dens.max()), 1.0):
        raise PositivityError("solve_ma: target density vanishes on the lattice; set "
                              "offsets off the divisor", margin=float(t_dens.min()))
    log_t = np.log(t_dens)
    if psi0 is not None:
        psi = psi0.values
    elif positivity_margin(a_real) <= 0.0:
        psi = -alpha.potential.values / c
    else:
        psi = np.zeros(alpha.grid.shape)

    def evaluate(p):
        a = ops.hessian(p)
        a *= c
        a += a_real
        m = positivity_margin(a)
        return a, m, (np.log(2.0 * _det(a)) - log_t if m > 0.0 else None)

    psi = psi - psi.mean()
    a, m, g_res = evaluate(psi)
    if not m > 0.0:  # a nan margin too
        raise PositivityError(
            f"solve_ma: initial A_psi not positive (margin {m:.3e})", margin=m
        )
    residuals = [float(np.abs(g_res).max())]
    applies = info_max = 0
    while residuals[-1] > cfg.newton_tol:
        if len(residuals) > _MAX_NEWTON:
            raise MAConvergenceError(
                f"solve_ma: not converged in {_MAX_NEWTON} iterations "
                f"(residual {residuals[-1]:.3e})",
                residuals=residuals,
            )
        delta, info, n_pre = _newton_direction(g_res, a, c, ops, residuals[-1])
        applies, info_max = applies + n_pre, max(info_max, info)
        s = 1.0
        for _ in range(40):
            trial = psi + s * delta
            trial -= trial.mean()
            a_trial, m, g_trial = evaluate(trial)
            if m > 0.0:
                r_trial = float(np.abs(g_trial).max())
                if r_trial < residuals[-1] or r_trial <= cfg.newton_tol:
                    break
            s *= _DAMPING
        else:
            unconverged = f" after an unconverged GMRES solve (info={info})" if info else ""
            raise MAConvergenceError(
                f"solve_ma: no acceptable damped step at iteration "
                f"{len(residuals) - 1}{unconverged}",
                residuals=residuals,
            )
        psi, a, g_res = trial, a_trial, g_trial
        residuals.append(r_trial)
    return psi, residuals, applies, info_max


def _split_solve(alpha, c, target, ops, cfg):
    """The factor lattice's linear problem side + c Delta psi = goal: one
    stacked (2, n, n) Poisson solve.  The partition constant kappa between
    the factors is fixed by the class means (the factor problems must each
    balance in cohomology).  Accepted when the relative residual
    sup|A - goal| / sup goal is at most ``newton_tol``; returns (psi, [that
    residual])."""
    f, g = target.realized
    floor = 1e-12 * max(float(f.max()), float(g.max()), 1.0)
    if f.min() <= floor or g.min() <= floor:
        raise PositivityError("solve_ma: target profile vanishes on the lattice; set "
                              "offsets off the divisor", margin=float(min(f.min(), g.min())))
    kappa = alpha.cls.m11 / float(f.mean())
    side = alpha.realized
    goal = np.stack((kappa * f, g / kappa))
    side_mean, goal_mean = side.mean((1, 2)), goal.mean((1, 2))
    if np.any(np.abs(side_mean - goal_mean) > 1e-8 * np.abs(goal_mean)):
        raise ValueError("solve_ma: class means of side and target disagree")
    # divide drops each factor's mean mode, which balances (solvability)
    psi = ops.divide(goal - side) / c
    a = side + c * ops.laplacian(psi)
    m = float(a.min())
    if not m > 0.0:  # a nan margin too
        raise PositivityError(f"solve_ma: A_psi not positive (margin {m:.3e})", margin=m)
    residual = float(np.abs(a - goal).max()) / float(goal.max())
    if residual > cfg.newton_tol:
        raise MAConvergenceError(
            f"solve_ma: relative residual {residual:.3e} above newton_tol "
            f"{cfg.newton_tol:.1e} after the direct solve", residuals=[residual])
    return psi, [residual]


def _newton_direction(g_res, a, c, ops, res_sup):
    """Solve c tr_A dd^c(delta) = -G by preconditioned GMRES (mean-zero);
    returns (delta, GMRES info, preconditioner applications).

    The matvec contracts dd^c delta with c A' / det A (A' = ``_cowedge(A)``),
    formed once per direction.  With Abar = diag(Abar11, Abar22) the diagonal
    of the mean of A, the preconditioner is P^-1 r = Lbar^-1 (s r) with
    Lbar = c tr_Abar dd^c = c (Delta_{z1} / Abar11 + Delta_{z2} / Abar22) and
    s = sqrt(det A / det Abar): if A = s Abar pointwise, c tr_A dd^c = Lbar / s."""
    shape, size = ops.shape, g_res.size
    ap = _cowedge(a)
    ap *= c / _det(a)

    def matvec(p):
        out = np.einsum("k...,k...->...", ap, ops.hessian(p - p.mean()))
        return (out - out.mean()).ravel()

    a11, a22 = float(a[0].mean()), float(a[1].mean())
    s = np.sqrt(_det(a) / (a11 * a22))
    weights, applies = (c / a11, c / a22), 0

    def precond(r):
        nonlocal applies
        applies += 1
        return ops.divide(s * r.reshape(shape), weights).ravel()

    rhs = -(g_res - g_res.mean()).ravel()
    op = Operator((size, size), lambda p: matvec(p.reshape(shape)))
    pre = Operator((size, size), precond)
    # inexact Newton: modest relative tolerance early, _LINEAR_TOL near the end
    rtol = float(np.clip(0.01 * res_sup, _LINEAR_TOL, 1e-2))
    delta, info = gmres(op, rhs, M=pre, rtol=rtol, atol=0.0, restart=60, maxiter=40)
    if info != 0 and not np.all(np.isfinite(delta)):
        raise MAConvergenceError(f"solve_ma: GMRES breakdown (info={info})")
    delta = delta.reshape(shape)
    return delta - delta.mean(), info, applies


def solve_ma_continuation(chi0, omega0, omega_hat, eps_ladder, cfg=None):
    """Epsilon-continuation toward a degenerate target.

    Solves the Monge-Ampere problem at each epsilon in the (descending)
    ladder, passing the previous solution as psi0: the start of the next
    Newton solve on the 4-D lattice, checked but not needed on a factor
    lattice, where every rung is a direct solve.  Returns the list of
    (eps, MASolution) pairs.
    """
    cfg = cfg or MASolverConfig()
    out = []
    psi_prev = None
    for eps in eps_ladder:
        omega_eps = epsilon_form(omega0, eps, omega_hat)
        c_eps = c_constant(chi0.cls, omega_eps.cls)
        sol = solve_ma(build_alpha(chi0, omega_eps, c_eps), c_eps, omega_eps, cfg, psi_prev)
        psi_prev = sol.psi
        out.append((eps, sol))
    return out
