"""Method-of-lines integrator for the J-flow

    d(phi)/dt = c_eps - tr_{chi_phi} omega_eps,

its epsilon-regularised family driver, and the maximum-principle monitors.

Time stepping is classical explicit RK4 with an eigenvalue-based step-size
rule.  One loop, ``_advance``, takes every step: it works on the kernel's
raw arrays, and a step whose endpoint is not finite or loses positivity
(at eps = 0 only off the divisor locus, where omega_0 degenerates) is
rejected and retried at half the step, up to twenty times before it raises
DegenerateStiffnessError.  ``step`` wraps one such step as a FlowState;
``evolve`` calls it in a loop on the raw arrays and wraps the potential
only where it records a snapshot.  A single run is sequential with
data-parallel pointwise kernels; family members are independent and may
be dispatched to worker processes.

Two backends share the driver: the full backend integrates a 4-D potential
with spectral Hessians; the split backend integrates two 2-D factor
potentials for product data (see `split`), for which every history
quantity reduces to factor means.  Both take their transforms from
``torus.SpectralOps`` and their J and I from the formulas in
``functionals``.

A backend is a kernel object; the generic stepping (``_rk4``, ``_sup``,
``_advance``) is written once against this contract:

* ``shape``: the shape of the raw state, a plain float array that numpy
  adds and scales (the 4-D grid, or (2, n, n) for the stacked factor
  potentials); velocities have the same shape;
* ``wrap(raw)`` / ``unwrap(phi)``: raw array to potential object and back;
* ``rhs_only(raw)``: the velocity; ``metrics(raw)``: (velocity, metric,
  positivity margin, finite) from one evaluation of the same formula;
* ``extrema(x)``: (max, min) over the grid of a raw-shaped array, from
  which ``_sup`` takes sup |x|;
* ``adaptive_dt(chi)`` and ``row_functionals(raw, rhs, chi)``: the explicit
  step size and the (J, I, dJ/dt, critical residual) of a history row.

These methods are defined on each kernel class, not on a shared base: the
benchmark tracer wraps the public methods of the kernel's own class, and
counts one RHS evaluation per ``rhs_only`` or ``metrics`` call (so
``metrics`` does not call ``rhs_only``).
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.fft as sfft  # noqa: F401 - module attribute the benchmark tracer proxies

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
    _critical_density,
    _det,
    _lam_lo,
    _trace,
    trace_with,
)

_MAX_REJECTIONS = 20
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
    rejections: int
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
        return self._rhs(self.chi(v))

    def metrics(self, v):
        """(rhs, chi, positivity margin, finite) in one pass."""
        chi = self.chi(v)
        rhs = self._rhs(chi)
        lam_lo = _lam_lo(chi)
        margin = float((lam_lo if self._off is None else lam_lo[self._off]).min())
        return rhs, chi, margin, bool(np.isfinite(rhs).all())

    def extrema(self, x):
        """(max, min) of the potential-shaped raw array x over the grid."""
        return float(x.max()), float(x.min())

    def adaptive_dt(self, chi):
        """dt = safety / (lambda_max(chi^-1 omega chi^-1) * (pi N)^2).

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
        lam_max = float(lam.max())
        return self.cfg.dt_safety / (lam_max * self._kmax2)

    def row_functionals(self, v, rhs, chi):
        """(J, I, dJ/dt, critical residual) from the cached chi arrays."""
        w, c = self._w, self.c
        j, i = _energies_full(v, chi, self._bg, w, c)
        # -int phidot^2 chi^2 with chi^2 density D(chi, chi) = 2 det chi
        j_rate = -8.0 * float(np.mean(rhs * rhs * _det(chi)))
        crit = float(np.abs(_critical_density(chi, w, c)).max())
        return j, i, j_rate, crit


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
        return self._rhs(self.chi(v))

    def metrics(self, v):
        """(rhs, chi, positivity margin, finite) in one pass."""
        chi = self.chi(v)
        rhs = self._rhs(chi)
        margin = float((chi if self._off is None else chi[self._off]).min())
        return rhs, chi, margin, bool(np.isfinite(rhs).all())

    def extrema(self, x):
        """(max, min) over the product grid of x[0](z1) + x[1](z2), exact."""
        return float(x[0].max() + x[1].max()), float(x[0].min() + x[1].min())

    def adaptive_dt(self, chi):
        lam_max = float((self._w / chi ** 2).max())
        return self.cfg.dt_safety / (lam_max * self._kmax2)

    def row_functionals(self, v, rhs, chi):
        """(J, I, dJ/dt, critical residual) via separable factor means."""
        a, b = chi
        r1, r2 = rhs
        c = self.c
        j, i = _energies_split(v, chi, self._bg, self._w, c)
        # -int phidot^2 chi^2 with phidot = r1 + r2 and chi^2 density 2AB
        m = (
            float(np.mean(r1 * r1 * a)) * float(np.mean(b))
            + 2.0 * float(np.mean(r1 * a)) * float(np.mean(r2 * b))
            + float(np.mean(a)) * float(np.mean(r2 * r2 * b))
        )
        j_rate = -8.0 * m
        # critical residual |2 chi^omega - c chi^2| = 2|A(g - cB) + fB|
        crit = 2.0 * _split_pairwise_abs_max(a, self._w[0], self._w[1] - c * b, b)
        return j, i, j_rate, crit


def _support_candidates(p, q):
    """Points of the 2-D cloud {(p_j, q_j)} that can maximise a linear
    functional.  Product presets generate collinear clouds, which reduce to
    the segment's endpoints; any other cloud is returned whole."""
    pts = np.column_stack([p.ravel(), q.ravel()])
    d = pts - pts.mean(0)
    w, v = np.linalg.eigh(d.T @ d)
    if w[0] <= 1e-24 * max(w[1], 1e-300):
        t = d @ v[:, 1]
        return pts[[int(t.argmin()), int(t.argmax())]]
    return pts


def _split_pairwise_abs_max(u1, v1, p2, q2):
    """Exact sup over the product grid of |u1(z1) p2(z2) + v1(z1) q2(z2)|."""
    cand = _support_candidates(p2, q2)
    u = u1.ravel()[:, None]
    v = v1.ravel()[:, None]
    return float(np.abs(u * cand[:, 0][None, :] + v * cand[:, 1][None, :]).max())


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
    """Explicit-stability step size from the current metric:
    dt = dt_safety / (lambda_max(chi^-1 omega chi^-1) * (pi N)^2)."""
    return state.kernel.adaptive_dt(state.chi)


def _rk4(kernel, v, k1, dt):
    """Classical RK4 step of the raw state v, whose velocity k1 is known."""
    k2 = kernel.rhs_only(v + 0.5 * dt * k1)
    k3 = kernel.rhs_only(v + 0.5 * dt * k2)
    k4 = kernel.rhs_only(v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _sup(kernel, x):
    """sup |x| over the grid of a potential-shaped raw array x."""
    hi, lo = kernel.extrema(x)
    return max(hi, -lo)


def _advance(kernel, raw, rhs, dt, t):
    """One RK4 step of the raw potential ``raw`` with velocity ``rhs`` at time t.

    A step whose endpoint is not finite or not positive is retried at half
    the step, up to _MAX_REJECTIONS times.  Returns (new, new_rhs, new_chi,
    new_margin, accepted_dt, rejections).
    """
    rejections = 0
    while True:
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


def step(state, dt):
    """One RK4 step with positivity rejection; returns the advanced state.

    A rejected step halves dt and retries (up to 20 times before raising
    DegenerateStiffnessError); the accepted dt is in ``last_dt``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    kernel = state.kernel
    new, rhs, chi, margin, dt, rejections = _advance(
        kernel, kernel.unwrap(state.phi), state.rhs, dt, state.t
    )
    return FlowState(kernel, kernel.wrap(new), state.t + dt, rhs, chi, margin,
                     last_dt=dt, last_rejections=rejections)


def evolve(cfg, chi0, omega0, omega_hat, phi0=None, divisor=None):
    """Run the flow until sup|rhs| < stop_tolerance or t > max_time.

    Returns a Trajectory with per-snapshot history (J decreasing and I
    constant along conforming runs) and decimated field snapshots.
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
        j, i, j_rate, crit = kernel.row_functionals(raw, rhs, chi)
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
    while True:
        if _sup(kernel, rhs) < cfg.stop_tolerance:
            stop_reason = "converged"
            break
        if n_fixed is not None:
            if steps >= n_fixed:
                break
            dt = cfg.fixed_dt
        else:
            if t >= cfg.max_time:
                break
            dt = min(kernel.adaptive_dt(chi), cfg.max_time - t)
        raw, rhs, chi, margin, dt, halvings = _advance(kernel, raw, rhs, dt, t)
        rejections += halvings
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
