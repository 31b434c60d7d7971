"""Method-of-lines integrator for the J-flow

    d(phi)/dt = c_eps - tr_{chi_phi} omega_eps,

its epsilon-regularised family driver, and the maximum-principle monitors.

The flow is parabolic with spectral radius rho = lambda_max(chi^-1 omega
chi^-1) * (pi N)^2.  Two explicit integrators step it
(``FlowConfig.integrator``):

* ``"rkc"`` (default): damped second-order Runge-Kutta-Chebyshev (Sommeijer,
  Shampine & Verwer, J. Comput. Appl. Math. 88, 1998).  A step h takes
  s ~ sqrt(h rho) stages, capped at _RKC_MAX_STAGES, against ~h rho for RK4.
  ``evolve`` controls h by RKC's embedded error estimate: a step passes when
  the estimate is within both an absolute tolerance and a fraction of the
  step's own increment, and the next h follows from the error ratio.
* ``"rk4"``: classical RK4 at the explicit stability limit ``adaptive_dt``.
  It is fourth order in time, which the dissipation identity of criterion 3
  and 1e-9 conservation of I need.

One loop, ``_advance``, takes every step of either integrator: it works on
the kernel's raw arrays, and a step whose endpoint is not finite or loses
positivity (at eps = 0 only off the divisor locus, where omega_0
degenerates) is rejected and retried at half the step, up to twenty times
before it raises DegenerateStiffnessError.  ``step`` wraps one such step as
a FlowState; ``evolve`` calls it in a loop on the raw arrays and wraps the
potential only where it records a snapshot.  A single run is sequential
with data-parallel pointwise kernels; family members are independent and
may be dispatched to worker processes.

Two backends share the driver: the full backend integrates a 4-D potential
with spectral Hessians; the split backend integrates two 2-D factor
potentials for product data (see `split`), for which every history
quantity reduces to factor means.  Both take their transforms from
``torus.SpectralOps`` and their J and I from the formulas in
``functionals``.

A backend is a kernel object; the generic stepping (``_rk4``, ``_rkc``,
``_sup``, ``_advance``) is written once against this contract:

* ``shape``: the shape of the raw state, a plain float array that numpy
  adds and scales (the 4-D grid, or (2, n, n) for the stacked factor
  potentials); velocities have the same shape;
* ``wrap(raw)`` / ``unwrap(phi)``: raw array to potential object and back;
* ``rhs_only(raw)``: the velocity; ``metrics(raw)``: (velocity, metric,
  positivity margin, finite) from one evaluation of the same formula; each
  call adds one to ``rhs_evals``;
* ``extrema(x)``: (max, min) over the grid of a raw-shaped array, from
  which ``_sup`` takes sup |x|;
* ``lam_max(chi)``: the spectral radius bound rho, from which
  ``adaptive_dt(chi)`` = dt_safety / rho and the RKC stage count follow;
* ``row_functionals(raw, rhs, chi)``: the (J, I, dJ/dt) of a history row.

These methods are defined on each kernel class, not on a shared base: the
benchmark tracer wraps the public methods of the kernel's own class, and
counts one RHS evaluation per ``rhs_only`` or ``metrics`` call (so
``metrics`` does not call ``rhs_only``).
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import numpy.fft as sfft  # noqa: F401 - numpy.fft, kept for the benchmark tracer to proxy

from .cohomology import c_constant, cone_condition, epsilon_form
from .errors import (
    ConeConditionError,
    DegenerateStiffnessError,
    PositivityError,
)
from .functionals import _energies_full, _energies_split
from .split import SplitForm, SplitPotential
from .torus import (
    ScalarField,
    SpectralOps,
    _det,
    _lam_lo,
    _trace,
    trace_with,
)

_MAX_REJECTIONS = 20
INTEGRATORS = ("rkc", "rk4")
# RKC: stage cap, safety on the spectral radius bound the stage count is
# chosen from, and the absolute and increment-relative error tolerances
_RKC_MAX_STAGES = 320
_RKC_RHO_SAFETY = 1.2
_RKC_ATOL = 3e-8
_RKC_RTOL = 3e-2
_MAX_FIELD_SNAPSHOTS = 96  # more halve the kept snapshots and double the stride


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters; eps = 0 must be acknowledged explicitly because the
    equation is then only degenerate-parabolic."""

    eps: float = 0.0
    dt_safety: float = 0.2
    stop_tolerance: float = 1e-9
    max_time: float = 5.0
    snapshot_stride: int = 50
    allow_degenerate: bool = False
    fixed_dt: Optional[float] = None  # testing hook; bypasses the adaptive rule
    integrator: str = "rkc"  # or "rk4"

    def __post_init__(self):
        # comparisons written so that nan fails them too
        if not (0.0 < self.dt_safety < 1.0):
            raise ValueError("dt_safety must lie in (0, 1)")
        if not (self.stop_tolerance > 0.0 and self.max_time > 0.0):
            raise ValueError("tolerances and max_time must be positive")
        if not isinstance(self.snapshot_stride, int) or self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be an integer >= 1")
        if not self.eps >= 0.0:
            raise ValueError("eps must be nonnegative")
        if self.fixed_dt is not None and not self.fixed_dt > 0.0:
            raise ValueError("fixed_dt must be positive")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, "
                             f"got {self.integrator!r}")


@dataclass(frozen=True)
class HistoryRow:
    t: float
    sup_phi: float
    j: float
    i: float
    margin: float
    max_phidot: float
    min_phidot: float
    j_rate: float

    @property
    def sup_phidot(self):
        """sup |phi_dot|, also the row's residual of the flow equation."""
        return max(self.max_phidot, -self.min_phidot)

    residual = sup_phidot

    def csv_values(self):
        return (self.t, self.sup_phi, self.sup_phidot, self.j, self.i,
                self.margin, self.residual)


@dataclass
class Trajectory:
    """History plus decimated field snapshots of one run."""

    backend: str
    eps: float
    c_eps: float
    rows: list
    snapshots: list  # (t, potential) pairs, potential per backend
    final: object
    stop_reason: str
    steps: int
    rejections: int  # attempts refused, by positivity or by the error test
    integrator: str
    rhs_evals: int  # every stage of every attempt, the initial evaluation too
    chi0_form: object = None  # background form, for snapshot re-analysis

    @property
    def sup_phidot0(self):
        return self.rows[0].sup_phidot

    @property
    def final_residual(self):
        """sup |phi_dot| at the end (the last row is the final state)."""
        return self.rows[-1].residual

    def final_potential(self):
        """Final potential as a 4-D ScalarField regardless of backend."""
        if self.backend == "split":
            return self.final.assemble()
        return self.final

    def sup_phi_over_run(self):
        return max(r.sup_phi for r in self.rows)

    def sup_phidot_over_run(self):
        return max(r.sup_phidot for r in self.rows)

    def write_csv(self, path):
        from .io import write_history_csv

        write_history_csv(path, self.rows)


# --------------------------------------------------------------------------
# backend kernels


class _FullKernel:
    backend = "full"

    def __init__(self, chi0, omega_eps, c_eps, cfg, divisor=None):
        grid = chi0.grid
        self.grid = grid
        self.shape = grid.shape
        self.c = float(c_eps)
        self.cfg = cfg
        self.rhs_evals = 0
        self._ops = SpectralOps.of(grid)
        self._bg = chi0.realized.components()
        self._w = omega_eps.realized.components()
        self._w_det = _det(self._w)
        self._kmax2 = (np.pi * grid.n) ** 2
        self._off = None
        if divisor is not None and cfg.eps == 0.0:
            # omega_eps > 0 on the divisor for eps > 0: no exemption then
            mask = ~divisor.locus_mask(grid)
            if not mask.all():
                self._off = mask

    # raw representation: plain ndarray of potential values
    def unwrap(self, phi):
        return phi.values

    def wrap(self, v):
        return ScalarField(self.grid, v)

    def chi(self, v):
        return self._ops.hessian(v, base=self._bg)

    def _rhs(self, chi):
        with np.errstate(all="ignore"):
            return self.c - _trace(chi, self._w)

    def rhs_only(self, v):
        self.rhs_evals += 1
        return self._rhs(self.chi(v))

    def metrics(self, v):
        """(rhs, chi, positivity margin, finite) in one pass."""
        self.rhs_evals += 1
        chi = self.chi(v)
        rhs = self._rhs(chi)
        lam_lo = _lam_lo(chi)
        margin = float((lam_lo if self._off is None else lam_lo[self._off]).min())
        return rhs, chi, margin, bool(np.isfinite(rhs).all())

    def extrema(self, x):
        """(max, min) of the potential-shaped raw array x over the grid."""
        return float(x.max()), float(x.min())

    def lam_max(self, chi):
        """Spectral radius bound lambda_max(chi^-1 omega chi^-1) * (pi N)^2.

        The eigenvalues come from the trace tr(adj(chi)^2 omega) / det^2 and
        the determinant det(omega) / det^2, both real: no complex arrays.
        """
        h11, h22, h12r, h12i = chi
        w11, w22, w12r, w12i = self._w
        x2 = h12r * h12r + h12i * h12i
        det2 = _det(chi) ** 2
        tr = ((h22 * h22 + x2) * w11 + (h11 * h11 + x2) * w22
              - 2.0 * (h11 + h22) * (h12r * w12r + h12i * w12i)) / det2
        det_h = self._w_det / det2
        lam = 0.5 * tr + np.sqrt(np.maximum(0.25 * tr ** 2 - det_h, 0.0))
        return float(lam.max()) * self._kmax2

    def adaptive_dt(self, chi):
        """Explicit RK4 step size dt_safety / lam_max(chi)."""
        return self.cfg.dt_safety / self.lam_max(chi)

    def row_functionals(self, v, rhs, chi):
        """(J, I, dJ/dt) from the cached chi arrays."""
        j, i = _energies_full(v, chi, self._bg, self._w, self.c)
        # -int phidot^2 chi^2 with chi^2 density D(chi, chi) = 2 det chi
        j_rate = -8.0 * float(np.mean(rhs * rhs * _det(chi)))
        return j, i, j_rate


class _SplitKernel:
    """Raw state: the factor potentials (phi1, phi2) stacked as one
    (2, n, n) array; the factor velocities (rhs) and the factor profiles
    (A, B) of chi_phi (chi) are stacked the same way."""

    backend = "split"

    def __init__(self, chi0, omega_eps, c_eps, cfg, divisor=None):
        fgrid = chi0.grid
        self.grid = fgrid
        self.shape = (2,) + fgrid.shape
        self.cfg = cfg
        self.rhs_evals = 0
        self.c = float(c_eps)
        self._bg = np.stack(chi0.profiles())
        self._w = np.stack(omega_eps.profiles())
        # factor constants: c = c1 + c2 with c_i = mean(omega factor)/chi0 class
        self._cs = np.array([float(np.mean(self._w[0])) / chi0.a1,
                             float(np.mean(self._w[1])) / chi0.a2])[:, None, None]
        self._lap = SpectralOps.of(fgrid).laplacian
        self._kmax2 = (np.pi * fgrid.n) ** 2
        self._off = None
        if divisor is not None and cfg.eps == 0.0:
            # the divisor lies in the first factor: exempt it from A only
            mask = ~divisor.locus_mask(fgrid)
            if not mask.all():
                self._off = np.stack((mask, np.ones_like(mask)))

    def unwrap(self, phi):
        return np.stack((phi.phi1, phi.phi2))

    def wrap(self, v):
        return SplitPotential(self.grid, v[0], v[1])

    def chi(self, v):
        return self._bg + self._lap(v)

    def _rhs(self, chi):
        with np.errstate(all="ignore"):
            return self._cs - self._w / chi

    def rhs_only(self, v):
        self.rhs_evals += 1
        return self._rhs(self.chi(v))

    def metrics(self, v):
        """(rhs, chi, positivity margin, finite) in one pass."""
        self.rhs_evals += 1
        chi = self.chi(v)
        rhs = self._rhs(chi)
        margin = float((chi if self._off is None else chi[self._off]).min())
        return rhs, chi, margin, bool(np.isfinite(rhs).all())

    def extrema(self, x):
        """(max, min) over the product grid of x[0](z1) + x[1](z2), exact."""
        return float(x[0].max() + x[1].max()), float(x[0].min() + x[1].min())

    def lam_max(self, chi):
        """Spectral radius bound max(omega / chi^2) * (pi N)^2 over both factors."""
        return float((self._w / chi ** 2).max()) * self._kmax2

    def adaptive_dt(self, chi):
        """Explicit RK4 step size dt_safety / lam_max(chi)."""
        return self.cfg.dt_safety / self.lam_max(chi)

    def row_functionals(self, v, rhs, chi):
        """(J, I, dJ/dt) via separable factor means."""
        a, b = chi
        r1, r2 = rhs
        j, i = _energies_split(v, chi, self._bg, self._w, self.c)
        # -int phidot^2 chi^2 with phidot = r1 + r2 and chi^2 density 2AB
        m = (
            float(np.mean(r1 * r1 * a)) * float(np.mean(b))
            + 2.0 * float(np.mean(r1 * a)) * float(np.mean(r2 * b))
            + float(np.mean(a)) * float(np.mean(r2 * r2 * b))
        )
        return j, i, -8.0 * m


def _make_kernel(chi0, omega_eps, c_eps, cfg, divisor=None):
    if isinstance(chi0, SplitForm):
        return _SplitKernel(chi0, omega_eps, c_eps, cfg, divisor)
    return _FullKernel(chi0, omega_eps, c_eps, cfg, divisor)


# --------------------------------------------------------------------------
# public operations


def flow_rhs(phi, chi0, omega_eps, c_eps):
    """Right-hand side c_eps - tr_{chi_phi} omega_eps on the full backend.

    Raises PositivityError (with the offending point) when chi_phi fails
    to be positive.
    """
    tr = trace_with(chi0.plus_ddc(phi), omega_eps.realized)  # checks positivity
    return ScalarField(phi.grid, c_eps - tr.values)


@dataclass
class FlowState:
    """Potential at time t with the raw velocity ``rhs``, metric ``chi`` and
    positivity margin of its last evaluation, plus the accepted dt and the
    rejections of the step that produced it."""

    kernel: object
    phi: object
    t: float
    rhs: object
    chi: object
    margin: float
    last_dt: float = 0.0
    last_rejections: int = 0


def make_state(cfg, chi0, omega0, omega_hat, phi0=None, divisor=None):
    """Assemble a FlowState at t = 0, enforcing the run preconditions."""
    if cfg.eps == 0.0 and not cfg.allow_degenerate:
        raise ValueError(
            "eps = 0 runs the degenerate equation; set allow_degenerate=True "
            "to acknowledge"
        )
    omega_eps = epsilon_form(omega0, cfg.eps, omega_hat)
    x_cls, w_cls = chi0.cls, omega_eps.cls
    margin = cone_condition(x_cls, w_cls)
    if margin <= 0.0:
        raise ConeConditionError(
            f"cone condition fails for eps={cfg.eps}: margin {margin:.6e} <= 0",
            margin=margin,
        )
    c_eps = c_constant(x_cls, w_cls)
    kernel = _make_kernel(chi0, omega_eps, c_eps, cfg, divisor)
    raw = np.zeros(kernel.shape) if phi0 is None else kernel.unwrap(phi0)
    rhs, chi, margin0, finite = kernel.metrics(raw)
    if not finite or margin0 <= 0.0:
        raise PositivityError(
            f"initial potential leaves chi0 + dd^c(phi) non-positive "
            f"(margin {margin0:.3e})",
            margin=margin0,
        )
    return FlowState(kernel, kernel.wrap(raw), 0.0, rhs, chi, margin0)


def adaptive_dt(state):
    """Explicit-stability RK4 step size from the current metric,
    dt = dt_safety / (lambda_max(chi^-1 omega chi^-1) * (pi N)^2); also the
    first step of an error-controlled RKC run."""
    return state.kernel.adaptive_dt(state.chi)


def _rk4(kernel, v, k1, dt):
    """Classical RK4 step of the raw state v, whose velocity k1 is known."""
    k2 = kernel.rhs_only(v + 0.5 * dt * k1)
    k3 = kernel.rhs_only(v + 0.5 * dt * k2)
    k4 = kernel.rhs_only(v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.lru_cache(maxsize=_RKC_MAX_STAGES)
def _rkc_coefficients(s):
    """Coefficients of the s-stage damped second-order RKC method (Sommeijer,
    Shampine & Verwer 1998, damping 2/13): mu~_1 of the first stage and
    (mu_j, nu_j, 1 - mu_j - nu_j, mu~_j, gamma~_j) of stages j = 2..s."""
    w0 = 1.0 + 2.0 / (13.0 * s * s)
    t1 = w0 * w0 - 1.0
    t2 = math.sqrt(t1)
    arg = s * math.log(w0 + t2)
    w1 = math.sinh(arg) * t1 / (math.cosh(arg) * s * t2 - w0 * math.sinh(arg))
    # Chebyshev T_j, T_j', T_j'' at w0 by their recurrences; b_j = T_j'' / T_j'^2
    # for j >= 2 and b_0 = b_1 = b_2
    b1 = 1.0 / (2.0 * w0) ** 2
    b_prev2 = b_prev = b1
    z_prev2, z_prev = 1.0, w0
    dz_prev2, dz_prev = 0.0, 1.0
    d2z_prev2, d2z_prev = 0.0, 0.0
    stages = []
    for _ in range(2, s + 1):
        z = 2.0 * w0 * z_prev - z_prev2
        dz = 2.0 * w0 * dz_prev - dz_prev2 + 2.0 * z_prev
        d2z = 2.0 * w0 * d2z_prev - d2z_prev2 + 4.0 * dz_prev
        b = d2z / dz ** 2
        mu = 2.0 * w0 * b / b_prev
        nu = -b / b_prev2
        mu_t = mu * w1 / w0
        stages.append((mu, nu, 1.0 - mu - nu, mu_t, -(1.0 - z_prev * b_prev) * mu_t))
        b_prev2, b_prev = b_prev, b
        z_prev2, z_prev = z_prev, z
        dz_prev2, dz_prev = dz_prev, dz
        d2z_prev2, d2z_prev = d2z_prev, d2z
    return w1 * b1, tuple(stages)


def _rkc_stages(h, rho):
    """Stages an RKC step h needs to be stable at spectral radius rho,
    capped at _RKC_MAX_STAGES."""
    return min(_RKC_MAX_STAGES, max(2, 1 + int(math.sqrt(1.0 + 1.54 * h * rho))))


def _rkc(kernel, v, k1, h, s):
    """s-stage second-order RKC step of the raw state v, whose velocity k1
    is known: s - 1 further right-hand sides."""
    mu1, stages = _rkc_coefficients(s)
    y2, y1 = v, v + (mu1 * h) * k1
    for mu, nu, mu0, mu_t, gamma_t in stages:
        f = kernel.rhs_only(y1)
        y2, y1 = y1, mu * y1 + nu * y2 + mu0 * v + (mu_t * h) * f + (gamma_t * h) * k1
    return y1


def _rms(x):
    return math.sqrt(float(np.mean(x * x)))


def _rkc_error(v, new, k1, k_new, h):
    """RKC's embedded error estimate 0.8 (v - new) + 0.4 h (k1 + k_new) over
    its tolerance: at most 1 when its RMS norm is within both _RKC_ATOL and
    _RKC_RTOL times the RMS norm of the increment."""
    est = _rms(0.8 * (v - new) + (0.4 * h) * (k1 + k_new))
    if est == 0.0:
        return 0.0
    tol = min(_RKC_ATOL, _RKC_RTOL * _rms(new - v))
    return est / tol if tol > 0.0 else math.inf


def _sup(kernel, x):
    """sup |x| over the grid of a potential-shaped raw array x."""
    hi, lo = kernel.extrema(x)
    return max(hi, -lo)


def _advance(kernel, raw, rhs, chi, dt, t):
    """One step of the configured integrator from the raw potential ``raw``
    with velocity ``rhs`` and metric ``chi`` at time t; RKC takes its stage
    count from the spectral radius bound ``kernel.lam_max(chi)``.

    A step whose endpoint is not finite or not positive is retried at half
    the step, up to _MAX_REJECTIONS times.  Returns (new, new_rhs, new_chi,
    new_margin, accepted_dt, rejections).
    """
    rkc = kernel.cfg.integrator == "rkc"
    rho = _RKC_RHO_SAFETY * kernel.lam_max(chi) if rkc else 0.0
    rejections = 0
    while True:
        if rkc:
            new = _rkc(kernel, raw, rhs, dt, _rkc_stages(dt, rho))
        else:
            new = _rk4(kernel, raw, rhs, dt)
        new_rhs, new_chi, new_margin, finite = kernel.metrics(new)
        if finite and new_margin > 0.0:
            return new, new_rhs, new_chi, new_margin, dt, rejections
        rejections += 1
        if rejections > _MAX_REJECTIONS:
            raise DegenerateStiffnessError(
                f"step rejected {rejections} times at t={t:.6g}; "
                f"margin {new_margin:.3e}",
                t=t, dt=dt, margin=new_margin,
            )
        dt *= 0.5


def _controlled_rkc(kernel, raw, rhs, chi, h, t, t_end):
    """One error-controlled RKC step of at most h, ending no later than t_end.

    A step whose error estimate (``_rkc_error``) exceeds 1 is retried at the
    step the controller proposes, up to _MAX_REJECTIONS times.  Returns
    ``_advance``'s tuple, with the rejections of both kinds, and the step
    proposed for the next call.
    """
    rejections = 0
    refused = 0
    while True:
        new, new_rhs, new_chi, new_margin, dt, halvings = _advance(
            kernel, raw, rhs, chi, min(h, t_end - t), t
        )
        rejections += halvings
        err = _rkc_error(raw, new, rhs, new_rhs, dt)
        h = dt * min(10.0, max(0.1, 0.8 / max(err, 1e-300) ** (1.0 / 3.0)))
        if err <= 1.0:
            return (new, new_rhs, new_chi, new_margin, dt, rejections), h
        rejections += 1
        refused += 1
        if refused > _MAX_REJECTIONS:
            raise DegenerateStiffnessError(
                f"step refused by the error test {refused} times at t={t:.6g}; "
                f"error {err:.3e} of tolerance at dt={dt:.3e}",
                t=t, dt=dt, margin=new_margin,
            )


def step(state, dt):
    """One step of the configured integrator with positivity rejection;
    returns the advanced state.

    A rejected step halves dt and retries (up to 20 times before raising
    DegenerateStiffnessError); the accepted dt is in ``last_dt``.  There is
    no error test: that belongs to ``evolve``'s step-size control.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    kernel = state.kernel
    new, rhs, chi, margin, dt, rejections = _advance(
        kernel, kernel.unwrap(state.phi), state.rhs, state.chi, dt, state.t
    )
    return FlowState(kernel, kernel.wrap(new), state.t + dt, rhs, chi, margin,
                     last_dt=dt, last_rejections=rejections)


def evolve(cfg, chi0, omega0, omega_hat, phi0=None, divisor=None):
    """Run the flow until sup|rhs| < stop_tolerance or t > max_time.

    RK4 steps at ``adaptive_dt``; RKC starts there and then takes the step
    its error control proposes.  ``fixed_dt`` runs take whole steps of the
    configured integrator without either rule.  Returns a Trajectory with
    per-snapshot history (J decreasing and I constant along conforming runs)
    and decimated field snapshots.
    """
    state = make_state(cfg, chi0, omega0, omega_hat, phi0, divisor)
    kernel = state.kernel
    raw = kernel.unwrap(state.phi)
    rhs, chi, margin = state.rhs, state.chi, state.margin

    rows = []
    snapshots = []
    t = 0.0
    steps = 0
    rejections = 0
    snap_mult = 1

    def record(force=False):
        nonlocal snap_mult
        hi, lo = kernel.extrema(rhs)
        j, i, j_rate = kernel.row_functionals(raw, rhs, chi)
        rows.append(HistoryRow(t, _sup(kernel, raw), j, i, margin, hi, lo, j_rate))
        idx = len(rows) - 1
        if force or idx % snap_mult == 0:
            snapshots.append((t, kernel.wrap(raw.copy())))
            if len(snapshots) > _MAX_FIELD_SNAPSHOTS:
                del snapshots[1::2]
                snap_mult *= 2

    record()
    stop_reason = "max_time"
    # fixed-dt runs take a whole number of steps so that runs with dt and
    # dt/2 land on identical times (integrator-order checks)
    n_fixed = (
        max(1, round(cfg.max_time / cfg.fixed_dt)) if cfg.fixed_dt is not None else None
    )
    controlled = n_fixed is None and cfg.integrator == "rkc"
    h = kernel.adaptive_dt(chi) if controlled else None
    while True:
        if _sup(kernel, rhs) < cfg.stop_tolerance:
            stop_reason = "converged"
            break
        if n_fixed is not None:
            if steps >= n_fixed:
                break
        elif t >= cfg.max_time:
            break
        if controlled:
            (raw, rhs, chi, margin, dt, tries), h = _controlled_rkc(
                kernel, raw, rhs, chi, h, t, cfg.max_time
            )
        else:
            if n_fixed is not None:
                dt = cfg.fixed_dt
            else:
                dt = min(kernel.adaptive_dt(chi), cfg.max_time - t)
            raw, rhs, chi, margin, dt, tries = _advance(kernel, raw, rhs, chi, dt, t)
        rejections += tries
        t += dt
        steps += 1
        if steps % cfg.snapshot_stride == 0:
            record()

    if not rows or rows[-1].t < t:
        record(force=True)
    return Trajectory(
        kernel.backend,
        cfg.eps,
        kernel.c,
        rows,
        snapshots,
        kernel.wrap(raw.copy()),
        stop_reason,
        steps,
        rejections,
        cfg.integrator,
        kernel.rhs_evals,
        chi0_form=chi0,
    )


# --------------------------------------------------------------------------
# epsilon family


@dataclass
class FamilyMember:
    eps: float
    trajectory: Optional[Trajectory]
    error: str = ""

    @property
    def ok(self):
        return self.trajectory is not None


@dataclass
class FamilyReport:
    """Aggregated record of an epsilon sweep."""

    members: list
    sup_phi_by_eps: dict
    sup_phidot_by_eps: dict
    consecutive_diffs: list  # (eps_hi, eps_lo, sup_full, sup_off_divisor)
    failures: dict

    @property
    def ok(self):
        return not self.failures

    def max_sup_phi(self):
        return max(self.sup_phi_by_eps.values()) if self.sup_phi_by_eps else math.nan

    def max_sup_phidot(self):
        return max(self.sup_phidot_by_eps.values()) if self.sup_phidot_by_eps else math.nan

    def to_dict(self):
        return {
            "eps": [m.eps for m in self.members],
            "sup_phi_by_eps": {str(k): v for k, v in self.sup_phi_by_eps.items()},
            "sup_phidot_by_eps": {str(k): v for k, v in self.sup_phidot_by_eps.items()},
            "consecutive_diffs": [
                {"eps_hi": a, "eps_lo": b, "sup_full_grid": c, "sup_off_divisor": d}
                for (a, b, c, d) in self.consecutive_diffs
            ],
            "failures": dict(self.failures),
            "final_residuals": {
                str(m.eps): (m.trajectory.final_residual if m.ok else None)
                for m in self.members
            },
        }


def _family_worker(args):
    cfg, chi0, omega0, omega_hat, phi0, divisor = args
    try:
        return evolve(cfg, chi0, omega0, omega_hat, phi0, divisor), ""
    except Exception as err:  # recorded by the caller: partial report
        return None, f"{type(err).__name__}: {err}"


def epsilon_family(cfg, eps_list, chi0, omega0, omega_hat, phi0=None,
                   divisor=None, workers=1):
    """Independent runs for a descending positive epsilon ladder.

    Limits are compared after mean normalization (runs share phi0 but carry
    their own conserved-I gauge); differences are reported on the full grid
    and on the off-divisor region {s2_proxy >= 0.1}.  A failing member is
    recorded and the report stays partial rather than raising.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("epsilon_family needs strictly positive epsilons")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly descending")

    jobs = [
        (replace(cfg, eps=e), chi0, omega0, omega_hat, phi0, divisor)
        for e in eps_list
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_family_worker, jobs))
    else:
        results = [_family_worker(job) for job in jobs]
    members = [
        FamilyMember(e, traj, err) for e, (traj, err) in zip(eps_list, results)
    ]

    sup_phi = {m.eps: m.trajectory.sup_phi_over_run() for m in members if m.ok}
    sup_phidot = {m.eps: m.trajectory.sup_phidot_over_run() for m in members if m.ok}
    failures = {m.eps: m.error for m in members if not m.ok}

    diffs = []
    ok_members = [m for m in members if m.ok]
    for hi, lo in zip(ok_members, ok_members[1:]):
        a = hi.trajectory.final_potential().mean_normalized()
        b = lo.trajectory.final_potential().mean_normalized()
        delta = np.abs(a.values - b.values)
        full = float(delta.max())
        off = full
        if divisor is not None:
            mask = divisor.s2_proxy(a.grid).values >= 0.1
            off = float(delta[mask].max())
        diffs.append((hi.eps, lo.eps, full, off))

    return FamilyReport(members, sup_phi, sup_phidot, diffs, failures)


# --------------------------------------------------------------------------
# maximum-principle monitors


@dataclass(frozen=True)
class MonitorVerdict:
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def max_principle_monitor(traj, tol=1e-8):
    """sup phi_dot must not increase, inf phi_dot must not decrease, and the
    trace of omega_eps in chi never exceeds c_eps + sup|phi_dot(0)|."""
    rows = traj.rows
    if len(rows) < 3:
        raise ValueError("max_principle_monitor needs at least 3 snapshots")
    failures = []
    for prev, cur in zip(rows, rows[1:]):
        if cur.max_phidot > prev.max_phidot + tol:
            failures.append(
                (cur.t, "sup phi_dot increased", cur.max_phidot - prev.max_phidot)
            )
        if cur.min_phidot < prev.min_phidot - tol:
            failures.append(
                (cur.t, "inf phi_dot decreased", prev.min_phidot - cur.min_phidot)
            )
    failures += [
        (t, "trace bound exceeded", trace_sup - bound)
        for t, trace_sup, bound in _trace_bound_excess(traj, tol)
    ]
    return MonitorVerdict(not failures, tuple(failures))


def _trace_bound_excess(traj, tol=1e-8):
    """Rows where sup tr_{chi} omega_eps exceeds c_eps + sup|phi_dot(0)| + tol,
    as (t, trace_sup, bound) triples.

    The flow identity tr = c_eps - phi_dot pointwise makes the sup of the
    trace c_eps - inf phi_dot, which turns the lower metric bound into this
    trace form.
    """
    bound = traj.c_eps + traj.sup_phidot0 + tol
    return [
        (row.t, traj.c_eps - row.min_phidot, bound)
        for row in traj.rows
        if traj.c_eps - row.min_phidot > bound
    ]
