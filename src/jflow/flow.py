"""Method-of-lines integrator for the J-flow

    d(phi)/dt = c_eps - tr_{chi_phi} omega_eps,

its epsilon-regularised family driver, and the maximum-principle monitors.

The flow is parabolic: its linearization is g-weighted dd^c with the
pointwise coefficient g = lambda_max(chi^-1 omega chi^-1) (omega / chi^2 per
factor on the split backend), so its spectral radius is at most
rho = max g * |L|, |L| the largest symbol of the Laplacian of the lattice the
kernel steps: (pi N)^2 on the 4-D lattice, (pi N)^2 / 2 on a factor lattice.
(g L is similar to g^1/2 L g^1/2, whose norm is at most max g |L|.)  No mode
attains that bound: it reads 2-4x the radius.  Two explicit integrators step
the flow (``FlowConfig.integrator``):

* ``"rkc"`` (default): damped second-order Runge-Kutta-Chebyshev (Sommeijer,
  Shampine & Verwer, J. Comput. Appl. Math. 88, 1998).  A step h takes
  s ~ sqrt(h rho) stages, capped at _RKC_MAX_STAGES, against ~h rho for RK4;
  rho is _RKC_RHO_SAFETY times the power estimate ``_SpectralRadius``.
  ``evolve`` controls h by RKC's embedded error estimate: a step passes when
  the estimate is within both an absolute tolerance and a fraction of the
  step's own increment, and the next h follows from the error ratio.
* ``"rk4"``: classical RK4 at the explicit stability limit ``adaptive_dt``
  = dt_safety / (max g * (pi N)^2) on both backends, so on the split
  backend a factor 2 below its own bound: the step that the RK4 tests and
  criterion 3 are calibrated on.  It is fourth order in time, which the
  dissipation identity of criterion 3 and 1e-9 conservation of I need.

One loop, ``_advance``, takes every step of either integrator on the
kernel's raw arrays and holds the one refusal policy.  An attempt whose
endpoint is not finite or loses positivity at some lattice point is retried
at half the step; under RKC's error control an attempt that fails the error
test is retried at the step the controller proposes.  A step may be refused
_MAX_REJECTIONS = 20 times, for either cause; the next refusal raises
DegenerateStiffnessError.  ``step`` takes one such step of a FlowState and
is how fixed-step runs advance; ``_evolve_members`` calls ``_advance`` in a
loop under its step-size rule on the raw arrays and builds a potential
only for a snapshot or a final state.  ``evolve`` is its one-member case;
``epsilon_family`` steps all members of an eps ladder as one state with a
leading member axis, so they share every dt and every right-hand-side call.
``make_state`` and ``_evolve_members`` share one set-up, ``_start``, and one
run record, ``FamilyMember``.  The tests' reference velocity ``flow_rhs`` is
in ``tests/oracles.py``.

eps = 0, the degenerate flow itself, runs on any lattice off the divisor
{z1 = 0}; ``check_eps_zero`` refuses a lattice that samples it.

Two backends share the driver: the full backend integrates a 4-D potential
with spectral Hessians; the split backend integrates two 2-D factor
potentials for product data (see `split`), for which every history
quantity reduces to factor means.  Both take their transforms from
``torus.SpectralOps`` and a history row's J, I and dJ/dt from the
formulas in ``functionals``.

A backend is a kernel object; the generic stepping (``_rk4``, ``_rkc``,
``_advance``) is written once against this contract.  A run's lattice and
potential type come from ``chi0``: ``_start`` refuses forms and a start
potential sampled elsewhere (``ClosedForm.check_lattice``), and every
potential a run returns is built by ``chi0.field``.

* it is built as ``(chi0, omegas, cs, cfg)`` by ``_make_kernel``;
* ``shape``: the shape of the raw state, a plain float array that numpy
  adds and scales (the 4-D grid, or (2, n, n) for the stacked factor
  potentials), behind a leading member axis in a batch; velocities have
  the same shape; ``member_axes`` are the trailing axes of one member;
* ``rhs_only(raw)``: the velocity; ``metrics(raw)``: (velocity, metric,
  ok, sup) from one evaluation of the same formula, ok and sup lists of
  Python values, one per member: ok that the velocity is finite and the
  metric positive at every point (det chi > 0 and chi11 > 0 on the 4-D
  lattice, both profiles > 0 on the split one), sup the velocity's
  sup |.|, which ``_advance`` hands to ``_evolve_members``' convergence
  test; both come from the velocity's per-member max and min, taken once.
  Each call adds one to ``rhs_evals``.  Both return fresh arrays, which the
  steppers may keep (RK4 holds three velocities) or overwrite (``_rkc``
  scales each stage's velocity in place).  The metric that ``rhs_only``
  needs on the way is transient: each kernel writes it into scratch it
  owns, made again when a batch narrows, and overwrites it on the next
  call; the metric ``metrics`` returns is fresh.  Neither call enters
  ``np.errstate``: a non-positive metric divides by zero, and ``_advance``
  enters it once per attempt (``_start`` once around the first
  evaluation), then refuses what is not finite or not positive;
* ``margin(chi)``: per member, the lowest eigenvalue of the metric over the
  grid, for history rows, ``_start``'s refusals, ``step`` and errors only;
* ``extrema(x)``: per member, (max, min) over the grid of a raw-shaped
  array;
* ``adaptive_dt(chi)``: dt_safety / (max g * (pi N)^2) of the stiffest
  member, RK4's step and RKC's first trial step: the only use of g;
* ``row_functionals(raw, rhs, chi)``: per member, the (J, I, dJ/dt) of a
  history row, one call of the backend's formula in ``functionals``;
* ``_keep(idx, chi)``: narrow a batch to the members ``idx``.

Per-member values come from reductions over ``member_axes`` only, so a
single run, whose kernel has no member axis, does the same float
operations with or without batching.  What the step loop does per member
(the error test, the refusals, the convergence test, narrowing a batch) is
Python arithmetic on lists, from one ``.tolist()`` per reduction.

These methods are defined on each kernel class, not on a shared base: the
benchmark tracer wraps the public methods of the kernel's own class, and
counts one RHS evaluation per ``rhs_only`` or ``metrics`` call (so
``metrics`` does not call ``rhs_only``).
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import numpy.fft as sfft  # noqa: F401 - numpy.fft, kept for the benchmark tracer to proxy

from .cohomology import c_constant, cone_condition, epsilon_form
from .errors import (ConeConditionError, DegenerateStiffnessError, JFlowError,
                     PositivityError, check_numbers, is_integer, is_number)
from .functionals import _energies_full, _energies_split
from .torus import SpectralOps, _cowedge, _det, _lam_lo

_MAX_REJECTIONS = 20
INTEGRATORS = ("rkc", "rk4")
# RKC: stage cap, safety on the spectral radius estimate the stage count is
# chosen from, the absolute and increment-relative error tolerances, and
# their floor relative to the state
_RKC_MAX_STAGES = 320
_RKC_RHO_SAFETY = 1.2
_RKC_ATOL = 3e-8
_RKC_RTOL = 3e-2
_RKC_ROUNDING = 64 * math.ulp(1.0)
# the radius estimate: power iterations at most, their relative change that
# ends one, and the accepted steps after which the estimate is refreshed
_RADIUS_MAX_ITERS = 20
_RADIUS_RTOL = 0.01
_RADIUS_REFRESH = 25
_SQRT_EPS = math.sqrt(math.ulp(1.0))  # the radius estimate's relative perturbation
_MAX_FIELD_SNAPSHOTS = 96  # more halve the kept snapshots and double the stride
_MONITOR_TOL = 1e-8  # slack of the maximum-principle and trace-bound monitors
# s2 proxy values at or above this bound the off-divisor region of family diffs
_OFF_DIVISOR_S2 = 0.1


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters.  eps = 0 runs the degenerate equation, which
    ``_start`` refuses on a lattice that samples the divisor."""

    eps: float = 0.0
    dt_safety: float = 0.2
    stop_tolerance: float = 1e-9
    max_time: float = 5.0
    snapshot_stride: int = 50
    integrator: str = "rkc"  # or "rk4"

    def __post_init__(self):
        check_numbers(self)
        if not (0.0 < self.dt_safety < 1.0):
            raise ValueError("dt_safety must lie in (0, 1)")
        if not (self.stop_tolerance > 0.0 and self.max_time > 0.0):
            raise ValueError("stop_tolerance and max_time must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be an integer >= 1")
        if not self.eps >= 0.0:
            raise ValueError("eps must be nonnegative")
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


@dataclass
class Trajectory:
    """History plus decimated field snapshots of one run.

    A member of a batched ``epsilon_family`` shares its steps with the
    others: its counts cover the batched steps, refusals and right-hand-side
    calls made while it was in the batch (each call covered every member
    then in it).
    """

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
    # RKC: rhs_evals spent on radius estimates; accepted steps' stage counts
    radius_evals: int = 0
    rkc_stages_max: Optional[int] = None
    rkc_stages_median: Optional[float] = None

    @property
    def sup_phidot0(self):
        return self.rows[0].sup_phidot

    @property
    def final_residual(self):
        """sup |phi_dot| at the end (the last row is the final state)."""
        return self.rows[-1].sup_phidot

    def final_potential(self):
        """Final potential as a 4-D ScalarField regardless of backend."""
        return self.final.assemble()


# --------------------------------------------------------------------------
# backend kernels


def _stack(items):
    """The one item of a one-member run, else the items stacked on a new
    leading member axis."""
    return items[0] if len(items) == 1 else np.stack(items)


def _verdict(hi, lo, low):
    """``metrics``' (ok, sup) lists from the velocity's per-member max hi and
    min lo and the metric's test value low: ok when hi and lo are finite (a
    nan or an infinity anywhere reaches one of them) and low > 0."""
    hi, lo, low = (x.reshape(-1).tolist() for x in (hi, lo, low))
    ok = [math.isfinite(a) and math.isfinite(b) and m > 0.0 for a, b, m in zip(hi, lo, low)]
    return ok, [max(a, -b) for a, b in zip(hi, lo)]


class _FullKernel:
    backend = "full"

    def __init__(self, chi0, omegas, cs, cfg):
        self.grid = grid = chi0.grid
        self.cfg = cfg
        self.rhs_evals = 0
        self._ops = SpectralOps.of(grid)
        self._bg = chi0.realized
        self.member_axes = (-4, -3, -2, -1)
        self._kmax2 = (np.pi * grid.n) ** 2
        omega = tuple(_stack(x) for x in zip(*(w.realized for w in omegas)))
        self._members(_stack([float(c) for c in cs]), _cowedge(omega))

    def _members(self, c, wp):
        """Set the members' c and omega' = ``_cowedge(omega)``."""
        self.c = c
        self._c = np.reshape(c, np.shape(c) + (1,) * 4) if np.ndim(c) else c
        self._wp = wp
        self.shape = np.shape(c) + self.grid.shape
        # rhs_only's transient chi, made again when a batch narrows
        self._chi_scratch = np.empty((4,) + self.shape)

    @property
    def _w(self):
        """omega's components (w11, w22, w12_re, w12_im), from omega' exactly."""
        wp = self._wp
        return wp[1], wp[0], -0.5 * wp[2], -0.5 * wp[3]

    def _keep(self, idx, chi):
        """Narrow a batch to the members ``idx``; returns their chi."""
        self._members(self.c[idx], self._wp[:, idx])
        return chi[:, idx]

    def chi(self, v):
        return self._ops.hessian(v, base=self._bg)

    def _rhs(self, chi, det):
        # tr_chi omega = D(chi, omega) / det chi, D one contraction
        tr = np.einsum("k...,k...->...", chi, self._wp)
        tr /= det
        return np.subtract(self._c, tr, out=tr)

    def rhs_only(self, v):
        """The velocity, a fresh array; its chi is written into the
        kernel's scratch and overwritten by the next call."""
        self.rhs_evals += 1
        chi = self._ops.hessian(v, base=self._bg, out=self._chi_scratch)
        return self._rhs(chi, _det(chi))

    def metrics(self, v):
        """(rhs, chi, ok, sup) in one pass; a 2x2 Hermitian chi is positive
        iff det chi > 0 and chi11 > 0."""
        self.rhs_evals += 1
        chi, axes = self.chi(v), self.member_axes
        det = _det(chi)
        rhs = self._rhs(chi, det)
        low = np.minimum(det.min(axis=axes), chi[0].min(axis=axes))
        return (rhs, chi) + _verdict(*self.extrema(rhs), low)

    def margin(self, chi):
        return _lam_lo(chi).min(axis=self.member_axes)

    def extrema(self, x):
        """(max, min) of the potential-shaped raw array x over the grid, per
        member."""
        return x.max(axis=self.member_axes), x.min(axis=self.member_axes)

    def _stiffness(self, chi):
        """max over the grid of g = lambda_max(chi^-1 omega chi^-1), of the
        stiffest member: the linearized velocity is g-weighted dd^c.

        chi^-1 omega chi^-1 = M / det^2, M = adj(chi) omega adj(chi), whose
        larger eigenvalue takes the discriminant ((m11 - m22) / 2)^2 + |m12|^2,
        a sum of squares: a double eigenvalue adds no rounding through the
        square root.  Real arrays only.
        """
        h11, h22, h12r, h12i = chi
        w11, w22, w12r, w12i = self._w
        x2 = h12r * h12r + h12i * h12i  # |h12|^2
        m = h12r * w12r + h12i * w12i  # Re(h12 conj(w12))
        m11 = h22 * h22 * w11 + x2 * w22 - 2.0 * h22 * m
        m22 = h11 * h11 * w22 + x2 * w11 - 2.0 * h11 * m
        # m12 = h11 h22 w12 + h12^2 conj(w12) - h12 (h22 w11 + h11 w22)
        e, k = h11 * h22, h22 * w11 + h11 * w22
        re2, im2 = h12r * h12r - h12i * h12i, 2.0 * h12r * h12i  # h12^2
        m12r = (e + re2) * w12r + im2 * w12i - h12r * k
        m12i = (e - re2) * w12i + im2 * w12r - h12i * k
        lam = 0.5 * (m11 + m22) + np.sqrt((0.5 * (m11 - m22)) ** 2 + m12r ** 2 + m12i ** 2)
        return float((lam / _det(chi) ** 2).max())

    def adaptive_dt(self, chi):
        """Explicit RK4 step size dt_safety / (max g * (pi N)^2)."""
        return self.cfg.dt_safety / (self._stiffness(chi) * self._kmax2)

    def row_functionals(self, v, rhs, chi):
        return _energies_full(v, chi, self._bg, self._w, self.c, rhs)


class _SplitKernel:
    """Raw state: the factor potentials (phi1, phi2) stacked as one
    (2, n, n) array; the factor velocities (rhs) and the factor profiles
    (A, B) of chi_phi (chi) are stacked the same way."""

    backend = "split"

    def __init__(self, chi0, omegas, cs, cfg):
        self.grid = fgrid = chi0.grid
        self.cfg = cfg
        self.rhs_evals = 0
        self._bg = chi0.realized
        self.member_axes = (-3, -2, -1)
        self._ops = SpectralOps.of(fgrid)
        self._kmax2 = (np.pi * fgrid.n) ** 2
        ws = [w.realized for w in omegas]
        # factor constants: c = c1 + c2 with c_i = mean(omega factor)/chi0 class
        factor_cs = [np.array([float(np.mean(w[0])) / chi0.cls.m11,
                               float(np.mean(w[1])) / chi0.cls.m22])[:, None, None]
                     for w in ws]
        self._members(_stack([float(c) for c in cs]), _stack(ws), _stack(factor_cs))

    def _members(self, c, w, cs):
        self.c, self._w = c, w
        self.shape = w.shape
        # the factor constants and chi0 spread over the raw shape: a
        # contiguous operand adds faster than a broadcast one
        self._cs = np.ascontiguousarray(np.broadcast_to(cs, self.shape))
        self._base = np.ascontiguousarray(np.broadcast_to(self._bg, self.shape))
        # rhs_only's transient chi, made again when a batch narrows
        self._chi_scratch = np.empty(self.shape)

    def _keep(self, idx, chi):
        """Narrow a batch to the members ``idx``; returns their chi."""
        self._members(self.c[idx], self._w[idx], self._cs[idx])
        return chi[idx]

    def chi(self, v):
        return self._ops.laplacian(v, base=self._base)

    def _rhs(self, chi):
        r = np.divide(self._w, chi)
        return np.subtract(self._cs, r, out=r)

    def rhs_only(self, v):
        """The velocity, a fresh array; its chi is written into the
        kernel's scratch and overwritten by the next call."""
        self.rhs_evals += 1
        return self._rhs(self._ops.laplacian(v, base=self._base, out=self._chi_scratch))

    def metrics(self, v):
        """(rhs, chi, ok, sup) in one pass."""
        self.rhs_evals += 1
        chi = self.chi(v)
        rhs = self._rhs(chi)
        return (rhs, chi) + _verdict(*self.extrema(rhs), chi.min(axis=self.member_axes))

    def margin(self, chi):
        return chi.min(axis=self.member_axes)

    def extrema(self, x):
        """(max, min) over the product grid of x[0](z1) + x[1](z2), exact,
        per member."""
        hi, lo = x.max(axis=(-2, -1)), x.min(axis=(-2, -1))  # per factor
        return hi[..., 0] + hi[..., 1], lo[..., 0] + lo[..., 1]

    def _stiffness(self, chi):
        """max over both factors of g = omega / chi^2, of the stiffest
        member: the linearized velocity is g times each factor's Laplacian."""
        g = chi * chi
        return float(np.divide(self._w, g, out=g).max())

    def adaptive_dt(self, chi):
        """Explicit RK4 step size dt_safety / (max g * (pi N)^2): the step
        RK4 is calibrated on, from the 4-D lattice's largest symbol, twice
        the factor lattice's."""
        return self.cfg.dt_safety / (self._stiffness(chi) * self._kmax2)

    def row_functionals(self, v, rhs, chi):
        return _energies_split(v, chi, self._bg, self._w, self.c, rhs)


def _make_kernel(chi0, omegas, cs, cfg):
    """The backend kernel of one run (``omegas`` and ``cs`` of length 1), or
    of a batch of members that differ only in omega_eps and c_eps, stacked
    on a leading member axis."""
    kernel = _SplitKernel if chi0.backend == "split" else _FullKernel
    return kernel(chi0, omegas, cs, cfg)


# --------------------------------------------------------------------------
# public operations


@dataclass
class FlowState:
    """Potential at time t with the raw velocity ``rhs``, metric ``chi`` and
    positivity margin of its last evaluation, the accepted dt and the
    rejections of the step that produced it, and RKC's spectral radius
    estimate as that step left it."""

    kernel: object
    phi: object
    t: float
    rhs: object
    chi: object
    margin: float
    last_dt: float = 0.0
    last_rejections: int = 0
    radius: object = None


@dataclass
class FamilyMember:
    """One run's record: its eps and c_eps, the history rows and snapshots
    ``_evolve_members`` records while it steps, then the trajectory it ends
    with or the error that refused or ended it."""

    eps: float
    c_eps: float = math.nan
    rows: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    snap_mult: int = 1
    trajectory: Optional[Trajectory] = None
    error: Optional[Exception] = None

    @property
    def ok(self):
        return self.trajectory is not None

    def record(self, row, raw, as_field, force=False):
        """Append a history row, and a snapshot ``as_field(raw)`` every
        snap_mult rows (kept to _MAX_FIELD_SNAPSHOTS by halving)."""
        self.rows.append(row)
        if force or (len(self.rows) - 1) % self.snap_mult == 0:
            self.snapshots.append((row.t, as_field(raw.copy())))
            if len(self.snapshots) > _MAX_FIELD_SNAPSHOTS:
                del self.snapshots[1::2]
                self.snap_mult *= 2


def check_eps_zero(eps, grid, divisor):
    """Raise ValueError if eps = 0 would run on a ``grid`` with points on
    ``divisor``, where omega_0 = 0 and so phi_dot = c_0 forever; the message
    names their count and the first."""
    on = np.argwhere(divisor.locus_mask(grid)) if eps == 0.0 and divisor is not None else ()
    if len(on):
        raise ValueError(f"eps = 0 on a lattice with {len(on)} point(s) on the divisor, "
                         f"the first at {grid.point(on[0])}: omega_0 vanishes there; "
                         "set offsets that move the lattice off the divisor")


def _start(cfg, members, chi0, omega0, omega_hat, phi0=None, divisor=None):
    """Set up a run of ``members`` (FamilyMember records, the rest of ``cfg``
    shared): each one's omega_eps and c_eps under the run preconditions (eps
    = 0 only on a lattice off ``divisor``, the cone condition), one kernel
    for those that pass, and the metrics of the raw start, whose positivity
    margin covers every lattice point.  A member refused there or by a
    non-positive start keeps the error; forms or a ``phi0`` off chi0's
    lattice raise ValueError first.  Returns (live, kernel, raw, rhs, chi,
    margin, sup), sup from ``metrics``, or None when no member passes."""
    for other in (omega0, omega_hat) if phi0 is None else (omega0, omega_hat, phi0):
        chi0.check_lattice(other, "flow")
    live, omegas = [], []
    for mem in members:
        try:  # recorded, not raised: a family report stays partial
            check_eps_zero(mem.eps, chi0.grid, divisor)
            omega_eps = epsilon_form(omega0, mem.eps, omega_hat)
            margin = cone_condition(chi0.cls, omega_eps.cls)
            if margin <= 0.0:
                raise ConeConditionError(f"cone condition fails for eps={mem.eps}: "
                                         f"margin {margin:.6e} <= 0", margin=margin)
            mem.c_eps = c_constant(chi0.cls, omega_eps.cls)
        except (ValueError, JFlowError) as err:
            mem.error = err
            continue
        live.append(mem)
        omegas.append(omega_eps)
    if not live:
        return None
    kernel = _make_kernel(chi0, omegas, [m.c_eps for m in live], cfg)
    raw = np.zeros(kernel.shape) if phi0 is None else np.broadcast_to(phi0.values, kernel.shape)
    with np.errstate(all="ignore"):  # a non-positive start is refused below
        rhs, chi, ok, sup = kernel.metrics(raw)
        margin = kernel.margin(chi)
    for mem, m, good in zip(live, np.reshape(margin, -1), ok):
        if not good:
            mem.error = PositivityError(
                f"initial potential leaves chi0 + dd^c(phi) non-positive "
                f"(margin {m:.3e})", margin=float(m))
    return live, kernel, raw, rhs, chi, margin, sup


def make_state(cfg, chi0, omega0, omega_hat, phi0=None, divisor=None):
    """Assemble a FlowState at t = 0, enforcing the run preconditions."""
    member = FamilyMember(float(cfg.eps))
    start = _start(cfg, [member], chi0, omega0, omega_hat, phi0, divisor)
    if member.error is not None:
        raise member.error
    _, kernel, raw, rhs, chi, margin, _ = start
    return FlowState(kernel, chi0.field(raw), 0.0, rhs, chi, float(margin),
                     radius=_SpectralRadius())


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


@dataclass
class _SpectralRadius:
    """Warm-started power estimate of the spectral radius of the velocity's
    Jacobian, which RKC's stage count follows (Sommeijer, Shampine & Verwer
    1998; their rkc.f refreshes it on the same schedule).

    An estimate iterates v <- F(y + delta v / |v|) - F(y) on ``rhs_only``,
    per member, |.| the RMS over the member's grid, delta = sqrt(machine
    eps) |y| (|y| taken as 1 at y = 0); it is the largest member's
    |F(y + delta v / |v|) - F(y)| / delta once that changes by at most
    _RADIUS_RTOL relative, or after _RADIUS_MAX_ITERS right-hand sides
    (counted in ``rhs_evals`` and ``evals``).  The first starts from the
    lattice checkerboard (-1)^(sum of indices), the top mode of every
    lattice Laplacian (a smooth start such as F(y) can lie in a symmetric
    subspace without the stiffest modes); later ones from the last vector.
    ``_advance`` refreshes it after _RADIUS_REFRESH accepted steps and
    before the retry of a refused attempt; the error test refuses a step
    that an under-estimate left unstable.
    """

    v: Optional[np.ndarray] = None  # the last iteration's direction
    rho: float = math.nan
    age: int = _RADIUS_REFRESH  # accepted steps since the estimate: due
    evals: int = 0

    def keep(self, idx):
        """Narrow a batch's vector to the members ``idx``."""
        if self.v is not None:
            self.v = self.v[idx]

    def estimate(self, kernel, y, fy):
        """The radius at the raw state y, whose velocity is fy."""
        axes = kernel.member_axes

        def per_point(x):  # a per-member value against the member's grid
            return np.reshape(x, np.shape(x) + (1,) * len(axes))

        if self.v is None:
            parity = np.indices(kernel.shape[-len(axes):]).sum(axis=0) % 2
            self.v = np.broadcast_to(1.0 - 2.0 * parity, kernel.shape)
        delta = _SQRT_EPS * _rms(y, axes)
        delta = np.where(delta > 0.0, delta, _SQRT_EPS)
        rho = math.nan
        for _ in range(_RADIUS_MAX_ITERS):
            d = kernel.rhs_only(y + per_point(delta / _rms(self.v, axes)) * self.v)
            self.evals += 1
            d -= fy
            sigma = _rms(d, axes)
            prev, rho = rho, float(np.max(sigma / delta))
            if np.all(sigma > 0.0):  # else the old direction stays
                self.v = d
            if abs(rho - prev) <= _RADIUS_RTOL * rho:
                break
        self.rho, self.age = rho, 0
        return rho


def _rkc(kernel, v, k1, h, s):
    """s-stage second-order RKC step of the raw state v, whose velocity k1
    is known: s - 1 further right-hand sides.

    Each stage is built in place, left to right, in a buffer that the
    stage two back has released: the same float operations as the
    one-line recurrence, without its temporaries.  v and k1 are only read;
    the returned state is an array of its own."""
    mu1, stages = _rkc_coefficients(s)
    y1 = np.multiply(k1, mu1 * h)
    y1 += v  # v + (mu1 h) k1
    y2, new, tmp = v, np.empty(v.shape), np.empty(v.shape)
    for mu, nu, mu0, mu_t, gamma_t in stages:
        f = kernel.rhs_only(y1)
        # new = mu y1 + nu y2 + mu0 v + (mu_t h) f + (gamma_t h) k1, left to right
        np.multiply(y1, mu, out=new)
        new += np.multiply(y2, nu, out=tmp)
        new += np.multiply(v, mu0, out=tmp)
        f *= mu_t * h
        new += f
        new += np.multiply(k1, gamma_t * h, out=tmp)
        # the old y2 is not read again: it takes the next stage (never v)
        y2, y1, new = y1, new, (np.empty(v.shape) if y2 is v else y2)
    return y1


def _rms(x, axes):
    """Root mean square over ``axes``: np.mean's sum and division, without
    its per-call overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=axes) / math.prod(x.shape[a] for a in axes))


def _rkc_error(kernel, v, new, k1, k_new, h):
    """RKC's embedded error estimate 0.8 (v - new) + 0.4 h (k1 + k_new) over
    its tolerance, per member as a list of floats: at most 1 when its RMS
    norm is within both _RKC_ATOL and _RKC_RTOL times the RMS norm of the
    member's increment.

    The tolerance is never below _RKC_ROUNDING times the RMS norm of v: once
    the increment is rounding, so is the estimate, and no smaller step
    could meet a tolerance that shrinks with the increment.  The three sums
    of squares come from one reduction, which adds each block as ``_rms``
    would; the rest is the same float operations in Python."""
    axes = kernel.member_axes
    sq = np.empty((3,) + new.shape)  # the squares of v - new, v and the estimate
    d = np.subtract(v, new, out=sq[0])
    est = np.add(k1, k_new, out=sq[2])
    est *= 0.4 * h
    est += d * 0.8
    d *= d  # the squares of new - v, bit for bit
    np.multiply(v, v, out=sq[1])
    est *= est
    sums = np.add.reduce(sq, axis=axes).reshape(3, -1)
    n = new.size // sums.shape[1]  # points per member
    errs = []
    for dd, vv, ee in zip(*sums.tolist()):
        tol = max(min(_RKC_ATOL, _RKC_RTOL * math.sqrt(dd / n)), _RKC_ROUNDING * math.sqrt(vv / n))
        e = math.sqrt(ee / n)
        # e / tol where tol > 0; else 0 for a zero estimate and inf otherwise
        errs.append(e / tol if tol > 0.0 else 0.0 if e == 0.0 else math.inf)
    return errs


def _advance(kernel, radius, raw, rhs, chi, dt, t, controlled=False):
    """One step of the configured integrator from the raw potential ``raw``
    with velocity ``rhs`` and metric ``chi`` at time t; RKC takes its stage
    count from ``radius`` (a _SpectralRadius), refreshed here when due.
    With ``controlled``, an RKC attempt is first cut to the longest step
    that _RKC_MAX_STAGES stages keep stable: the error test refuses longer.

    An attempt is refused when its endpoint is not finite or not positive
    for some member, and retried at half the step; with ``controlled``,
    also when the largest member's error estimate (``_rkc_error``) exceeds
    1, and retried at the step the error controller proposes.  After
    _MAX_REJECTIONS refusals of either kind the next one raises
    DegenerateStiffnessError, whose ``members`` flags the members that
    failed that attempt (a list of bools).  Returns (new, new_rhs, new_chi,
    new_sup, accepted_dt, next_dt, rejections, stages), where new_sup is
    the new state's sup |velocity| per member (``metrics``' list), next_dt
    the controller's proposal for the following step (the accepted dt when
    not ``controlled``) and stages the RKC stage count (None under RK4).
    """
    rkc = kernel.cfg.integrator == "rkc"
    stages = None
    rejections = 0
    while True:
        # an attempt that leaves the positive cone is refused, not warned about
        with np.errstate(all="ignore"):
            if rkc:
                if radius.age >= _RADIUS_REFRESH:
                    radius.estimate(kernel, raw, rhs)
                rho = _RKC_RHO_SAFETY * radius.rho
                if controlled:  # no longer than the stage cap keeps stable
                    dt = min(dt, ((_RKC_MAX_STAGES - 1) ** 2 - 1) / (1.54 * rho))
                stages = _rkc_stages(dt, rho)
                new = _rkc(kernel, raw, rhs, dt, stages)
            else:
                new = _rk4(kernel, raw, rhs, dt)
            new_rhs, new_chi, ok, sup = kernel.metrics(new)
        if not all(ok):
            bad, retry, cause = [not g for g in ok], 0.5 * dt, "not finite or not positive"
        elif controlled:
            err = _rkc_error(kernel, raw, new, rhs, new_rhs, dt)
            worst = max(err)
            retry = dt * min(10.0, max(0.1, 0.8 / max(worst, 1e-300) ** (1.0 / 3.0)))
            if worst <= 1.0:
                break
            bad, cause = [e > 1.0 for e in err], f"error {worst:.3e} of tolerance"
        else:
            retry = dt
            break
        rejections += 1
        radius.age = _RADIUS_REFRESH
        if rejections > _MAX_REJECTIONS:
            with np.errstate(all="ignore"):
                margin = float(np.min(kernel.margin(new_chi)))
            raise DegenerateStiffnessError(
                f"step rejected {rejections} times at t={t:.6g}, last at "
                f"dt={dt:.3e} ({cause}); margin {margin:.3e}",
                t=t, dt=dt, margin=margin, members=bad,
            )
        dt = retry
    radius.age += 1
    return new, new_rhs, new_chi, sup, dt, retry, rejections, stages


def step(state, dt):
    """One step of the configured integrator with positivity rejection;
    returns the advanced state.

    A rejected step halves dt and retries (up to _MAX_REJECTIONS times
    before raising DegenerateStiffnessError); the accepted dt is in
    ``last_dt``.  There is no error test: that belongs to ``evolve``'s
    step-size control.
    """
    if not (is_number(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    kernel = state.kernel
    radius = replace(state.radius)  # the new state's: ``state`` keeps its own
    new, rhs, chi, _, dt, _, rejections, _ = _advance(
        kernel, radius, state.phi.values, state.rhs, state.chi, dt, state.t
    )
    return FlowState(kernel, replace(state.phi, values=new), state.t + dt, rhs, chi,
                     float(kernel.margin(chi)),
                     last_dt=dt, last_rejections=rejections, radius=radius)


def _evolve_members(cfg, eps_list, chi0, omega0, omega_hat, phi0=None, divisor=None):
    """Run the flow at every eps of ``eps_list`` (the rest of ``cfg`` shared)
    as one batched state; ``evolve`` is the one-member case, whose kernel
    has no member axis.  Returns one FamilyMember per eps, with its
    trajectory or the error that ended it.

    Every step has one dt and, under RKC, one stage count, set by the
    stiffest live member, and every right-hand side covers every live
    member.  A member that converges (or reaches max_time) leaves the batch
    with its own rows, stop time, step count and ``rhs_evals``.  A member
    refused at the start (``_start``), or flagged by a
    DegenerateStiffnessError, keeps the error; the others go on from the last
    accepted state.
    """
    members = [FamilyMember(float(e)) for e in eps_list]
    start = _start(cfg, members, chi0, omega0, omega_hat, phi0, divisor)
    if start is None:
        return members
    live, kernel, raw, rhs, chi, margin, sup = start
    one = np.ndim(margin) == 0  # a single run: no member axis
    t, steps, rejections = 0.0, 0, 0
    radius, stages = _SpectralRadius(), []  # stages of every accepted RKC step
    stop = cfg.stop_tolerance

    def raw_of(p):
        return raw if one else raw[p]

    def drop(gone):
        """Take the members flagged in the list ``gone`` out of the batch."""
        nonlocal live, raw, rhs, chi, sup
        if not any(gone):
            return
        keep = [p for p, g in enumerate(gone) if not g]
        live, sup = [live[p] for p in keep], [sup[p] for p in keep]
        if live:  # a single run's state is never narrowed: its member leaves
            raw, rhs = raw[keep], rhs[keep]
            chi = kernel._keep(keep, chi)
            radius.keep(keep)

    def record(which=None, force=False):
        (top, bottom), (hi, lo) = kernel.extrema(raw), kernel.extrema(rhs)
        j, i, j_rate = kernel.row_functionals(raw, rhs, chi)
        cols = [np.reshape(x, -1).tolist() for x in
                (np.maximum(top, -bottom), j, i, kernel.margin(chi), hi, lo, j_rate)]
        for p, mem in enumerate(live):
            if which is None or which[p]:
                mem.record(HistoryRow(t, *(x[p] for x in cols)), raw_of(p), chi0.field, force)

    drop([m.error is not None for m in live])
    if live:
        record()
    controlled = cfg.integrator == "rkc"
    h = kernel.adaptive_dt(chi) if controlled and live else None
    while live:
        over = t >= cfg.max_time
        if over or min(sup) < stop:
            done = [over or x < stop for x in sup]
            if live[0].rows[-1].t < t:  # live members share their row times
                record(done, force=True)
            for p in [p for p, end in enumerate(done) if end]:
                mem = live[p]
                mem.trajectory = Trajectory(
                    kernel.backend, mem.eps, mem.c_eps, mem.rows, mem.snapshots,
                    chi0.field(raw_of(p).copy()),
                    "converged" if sup[p] < stop else "max_time",
                    steps, rejections, cfg.integrator, kernel.rhs_evals,
                    chi0_form=chi0, radius_evals=radius.evals,
                    rkc_stages_max=max(stages, default=None),
                    rkc_stages_median=_median(stages),
                )
            drop(done)
            if not live:
                break
        dt = min(h if controlled else kernel.adaptive_dt(chi), cfg.max_time - t)
        try:
            raw, rhs, chi, sup, dt, h, tries, s = _advance(
                kernel, radius, raw, rhs, chi, dt, t, controlled
            )
        except DegenerateStiffnessError as err:
            for mem, gone in zip(live, err.members):
                if gone:
                    mem.error = err
            rejections += _MAX_REJECTIONS + 1
            drop(err.members)
            continue
        rejections += tries
        t += dt
        steps += 1
        if controlled:
            stages.append(s)
        if steps % cfg.snapshot_stride == 0:
            record()
    return members


def _median(xs):
    """None when empty; plain Python (np.median raised peak RSS 0.5 MB)."""
    s = sorted(xs)
    return 0.5 * (s[(len(s) - 1) // 2] + s[len(s) // 2]) if s else None


def evolve(cfg, chi0, omega0, omega_hat, phi0=None, divisor=None):
    """Run the flow until sup|rhs| < stop_tolerance or t > max_time.

    RK4 steps at ``adaptive_dt``; RKC starts there and then takes the step
    its error control proposes.  The last step is cut to end at
    ``max_time``; fixed-step runs call ``step`` instead.  Each step is one
    ``_advance`` call, whose refusals (positivity and, under error control,
    the error test) are counted together in ``Trajectory.rejections``.
    Returns a Trajectory with per-snapshot history (J decreasing and I
    constant along conforming runs) and decimated field snapshots.
    """
    (run,) = _evolve_members(cfg, [cfg.eps], chi0, omega0, omega_hat, phi0, divisor)
    if run.error is not None:
        raise run.error
    return run.trajectory


# --------------------------------------------------------------------------
# epsilon family


@dataclass
class FamilyReport:
    """Aggregated record of an epsilon sweep."""

    members: list  # each ran member's sups are in its own rows
    consecutive_diffs: list  # (eps_hi, eps_lo, sup_full, sup_off_divisor)
    failures: dict

    @property
    def ok(self):
        return not self.failures


def check_ladder(eps_list):
    """Raise ValueError unless ``eps_list`` is an eps ladder that
    ``epsilon_family`` runs: non-empty, finite, positive, strictly descending."""
    if len(eps_list) == 0 or not all(is_number(e) and e > 0.0 for e in eps_list):
        raise ValueError(f"epsilon_family needs one or more finite positive epsilons, "
                         f"got {eps_list}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"epsilon list must be strictly descending, got {eps_list}")


def epsilon_family(cfg, eps_list, chi0, omega0, omega_hat, phi0=None,
                   divisor=None, workers=1):
    """Runs for a descending positive epsilon ladder, stepped as one batched
    state (``_evolve_members``); ``workers`` must be 1.

    The members share dt, so a member's series is not bitwise the one its
    own ``evolve`` gives; its limit agrees to the error control's accuracy.
    Limits are compared after mean normalization (runs share phi0 but carry
    their own conserved-I constant); differences are reported on the full
    grid and on the off-divisor region {s2_proxy >= _OFF_DIVISOR_S2}.  A
    failing member is recorded and the report stays partial rather than
    raising.
    """
    if not is_integer(workers) or workers != 1:
        raise ValueError(f"epsilon_family steps its members as one batch; "
                         f"workers must be 1, got {workers!r}")
    check_ladder(eps_list)
    eps_list = [float(e) for e in eps_list]

    members = _evolve_members(cfg, eps_list, chi0, omega0, omega_hat, phi0, divisor)
    ok = [m for m in members if m.ok]
    failures = {m.eps: f"{type(m.error).__name__}: {m.error}" for m in members if not m.ok}

    diffs = []
    finals = [m.trajectory.final_potential().mean_normalized() for m in ok]
    for hi, lo, a, b in zip(ok, ok[1:], finals, finals[1:]):
        delta = np.abs(a.values - b.values)
        full = float(delta.max())
        off = full
        if divisor is not None:
            mask = divisor.s2_proxy(a.grid).values >= _OFF_DIVISOR_S2
            off = float(delta[mask].max())
        diffs.append((hi.eps, lo.eps, full, off))

    return FamilyReport(members, diffs, failures)


# --------------------------------------------------------------------------
# maximum-principle monitors


@dataclass(frozen=True)
class MonitorVerdict:
    ok: bool
    failures: tuple


def max_principle_monitor(traj):
    """sup phi_dot must not increase and inf phi_dot must not decrease from
    one history row to the next, each up to _MONITOR_TOL; failures are
    (t, what, by) triples.  A run of one row passes."""
    rows = traj.rows
    failures = []
    for prev, cur in zip(rows, rows[1:]):
        if cur.max_phidot > prev.max_phidot + _MONITOR_TOL:
            failures.append(
                (cur.t, "sup phi_dot increased", cur.max_phidot - prev.max_phidot)
            )
        if cur.min_phidot < prev.min_phidot - _MONITOR_TOL:
            failures.append(
                (cur.t, "inf phi_dot decreased", prev.min_phidot - cur.min_phidot)
            )
    return MonitorVerdict(not failures, tuple(failures))
