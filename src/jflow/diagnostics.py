"""Estimate monitors: the a priori bounds of the theory turned into
assertions on computed runs.

Everything here analyses immutable trajectories and family reports and
returns values (verdicts, fits, distances); nothing mutates a trajectory or
writes a file, and the CLI lays out what it reports.  All
divisor-adjacent quantities use the s2 proxy for |s|^2_H (the exact
Hermitian bundle metric is never constructed), so fitted constants are
proxy-dependent while exponents are comparable: ``PROXY_NOTE`` says so
beside every reported bound.
"""

import numpy as np

from .cohomology import _LOCUS_TOL
from .errors import ConfigError, FitError
from .flow import _MONITOR_TOL, MonitorVerdict
from .torus import ScalarField

FIT_BAND = (1e-3, 0.5)
_FIT_MIN_POINTS = 8  # grid points in the band a profile fit needs
_TREND_RATIO = 1.1  # largest ratio of successive limit sups down the eps ladder
_J_TOL = 1e-12  # how far J may rise between history rows: rounding
_Q_A = 4.0  # Q's weight A of phi_tilde; its delta is beta/2, so A*delta = 2*beta
_Q_SLACK = 1.0  # how far q_max may rise above its value at t = 0
PROXY_NOTE = "s2 proxy in place of |s|^2_H: constants are proxy-scaled"


def uniformity_report(family, budget_phi=None, budget_phidot=None):
    """Uniform-in-epsilon bounds at desk scale.

    Asserts the run-wide sups of |phi| and |phi_dot| stay within the
    configured budgets for every member, and that the sups of the
    mean-normalized limits do not diverge as epsilon decreases (ratio of
    successive sups <= 1.1).  The budgets are those of a start at phi = 0;
    each member offsets them by its own start (its first row): sup|phi| may
    reach budget_phi + sup|phi0|, and sup|phi_dot| max(budget_phidot,
    sup|phi_dot(0)|), which the maximum principle allows.  At phi0 = 0 both
    are the budgets themselves.  The trend uses mean-normalized final
    potentials: the raw fields carry a conserved-I additive constant that
    is an epsilon-dependent offset, not a size statement.  Returns a
    MonitorVerdict of message lines, failing with "no member ran" if none did.
    """
    members = [m for m in family.members if m.ok]
    if not members:
        return MonitorVerdict(False, ("no member ran",))
    failures = []
    for m in members:
        rows = m.trajectory.rows
        checks = (
            ("sup|phi|", max(r.sup_phi for r in rows),
             None if budget_phi is None else budget_phi + rows[0].sup_phi),
            ("sup|phi_dot|", max(r.sup_phidot for r in rows),
             None if budget_phidot is None else max(budget_phidot, rows[0].sup_phidot)),
        )
        for what, sup, budget in checks:
            if budget is not None and sup > budget:
                failures.append(
                    f"eps={m.eps}: {what} {sup:.6g} exceeds budget {budget:.6g}"
                )
    sups = [m.trajectory.final_potential().mean_normalized().sup() for m in members]
    for (hi, lo, s_hi, s_lo) in zip(members, members[1:], sups, sups[1:]):
        if s_lo > _TREND_RATIO * s_hi:
            failures.append(
                f"divergent trend between eps={hi.eps} and eps={lo.eps}: "
                f"sup ratio {s_lo / s_hi:.4f} > {_TREND_RATIO}"
            )
    return MonitorVerdict(not failures, tuple(failures))


def trace_bound_check(traj):
    """sup tr_{chi} omega_eps <= c_eps + sup|phi_dot(0)| + flow._MONITOR_TOL
    at every history row.  The flow identity tr = c_eps - phi_dot makes the
    sup of the trace c_eps - inf phi_dot, which turns the lower metric bound
    into this trace form; failures are (t, "trace bound exceeded", excess)."""
    bound = traj.c_eps + traj.sup_phidot0 + _MONITOR_TOL
    failures = tuple((row.t, "trace bound exceeded", (traj.c_eps - row.min_phidot) - bound)
                     for row in traj.rows if traj.c_eps - row.min_phidot > bound)
    return MonitorVerdict(not failures, failures)


def j_monotone_check(traj):
    """J must not rise by more than _J_TOL from one history row to the next;
    a NaN J fails.  Failures are (t, "J increased", by) triples."""
    rows = traj.rows
    failures = tuple((cur.t, "J increased", cur.j - prev.j)
                     for prev, cur in zip(rows, rows[1:]) if not cur.j <= prev.j + _J_TOL)
    return MonitorVerdict(not failures, failures)


def fit_points(u, s2, band=FIT_BAND):
    """The points (-log s2, log u) a profile fit takes, as an (m, 2) array:
    the grid points with s2 in ``band`` and u > 0, in C order."""
    u = np.asarray(u, dtype=float).ravel()
    s2 = np.asarray(s2, dtype=float).ravel()
    sel = (s2 >= band[0]) & (s2 <= band[1]) & (u > 0.0)
    return np.column_stack([-np.log(s2[sel]), np.log(u[sel])])


def singular_profile_fit(u, s2, band=FIT_BAND):
    """Least-squares exponent of u against the divisor distance proxy.

    Fits log u = log C + gamma * (-log s2) over ``fit_points`` and returns
    (gamma_hat, C) with gamma_hat clamped at 0; a bounded u gives gamma ~ 0,
    a u ~ s2^(-gamma) profile returns gamma.  Raises FitError when the band
    holds fewer than ``_FIT_MIN_POINTS`` points or a single abscissa, where
    no line is determined.
    """
    points = fit_points(u, s2, band)
    if len(points) < _FIT_MIN_POINTS:
        raise FitError(
            f"singular_profile_fit: only {len(points)} grid points have "
            f"s2 in [{band[0]:g}, {band[1]:g}]; need {_FIT_MIN_POINTS}"
        )
    if np.ptp(points[:, 0]) == 0.0:
        raise FitError(f"singular_profile_fit: all {len(points)} points share "
                       f"-log s2 = {points[0, 0]:.6g}; no slope to fit")
    slope, intercept = np.polyfit(points[:, 0], points[:, 1], 1)
    return max(float(slope), 0.0), float(np.exp(intercept))


def q_values(phi, u, s2, beta, c0=None):
    """The barrier quantity Q = log u - A*phi_tilde + 1/(phi_tilde + C0) of
    arrays, with phi_tilde = phi - delta log s2, masked on the divisor locus.
    The divisor exponent ``beta`` fixes the constants: A = 4 and delta =
    beta/2 meet the estimate's A*delta >= 2*beta with equality.

    A missing shift ``c0`` is chosen here, as max(1.5 - min phi_tilde, 1.5),
    so that phi_tilde + C0 >= 1 with margin; ``q_monitor`` does so at t = 0
    and passes that C0 on to the later snapshots.  Returns (q_max, C0).
    Raises ConfigError when the locus mask eats more than 1% of the grid or
    the shift cannot keep the reciprocal term in [0, 1].
    """
    off = s2 >= _LOCUS_TOL
    if off.sum() < 0.99 * s2.size:
        raise ConfigError(
            f"q_monitor: locus mask covers {(1 - off.sum() / s2.size) * 100:.2f}% "
            "of the grid (> 1%); shift the grid offsets"
        )
    phit = phi[off] - 0.5 * beta * np.log(s2[off])
    if c0 is None:
        c0 = max(1.5 - float(phit.min()), 1.5)
    if float(phit.min()) + c0 < 1.0:
        raise ConfigError(
            f"q_monitor: phi_tilde + C0 dips to {float(phit.min()) + c0:.3g} < 1"
        )
    q = np.log(u[off]) - _Q_A * phit + 1.0 / (phit + c0)
    return float(q.max()), c0


def q_monitor(traj, div):
    """Evaluate Q on every retained snapshot of a run and check the
    boundedness assertion q_max(t) <= q_max(0) + 1.

    Works on both backends, with the s2 proxy and the exponent of the
    divisor ``div``.  Returns (series, verdict), the verdict's failures
    (t, what, by) triples.
    """
    series = []
    c0 = s2 = None
    for t, snap in traj.snapshots:
        phi4 = snap.assemble()
        grid = phi4.grid
        if s2 is None:  # every snapshot is on the run's lattice
            s2 = div.s2_proxy(grid).values
        u = _trace_field(traj, snap, grid)
        q, c0 = q_values(phi4.values, u, s2, div.beta, c0)
        series.append((t, q))
    q0 = series[0][1]
    failures = tuple((t, "q_max above q_max(0) + 1", q - (q0 + _Q_SLACK))
                     for t, q in series if q > q0 + _Q_SLACK)
    return series, MonitorVerdict(not failures, failures)


def _trace_field(traj, snap, grid):
    """u = tr_Id chi_phi on the snapshot, per backend."""
    chi = traj.chi0_form.plus_ddc(snap)
    if traj.backend == "split":
        a, b = chi
        return np.broadcast_to(a[:, :, None, None] + b[None, None, :, :], grid.shape)
    return chi[0] + chi[1]


def compare_up_to_constant(a, b, mask=None):
    """sup over the mask of |a - b - mean_mask(a - b)|: the distance between
    potentials modulo additive constants (a pseudometric), ScalarFields on one lattice."""
    if not (isinstance(a, ScalarField) and isinstance(b, ScalarField)):
        raise TypeError("compare_up_to_constant: a and b must be ScalarFields")
    if a.grid != b.grid:
        raise ValueError(f"compare_up_to_constant: grids differ ({a.grid} vs {b.grid})")
    diff = a.values - b.values
    if mask is not None:
        if not np.any(mask):
            raise ValueError("compare_up_to_constant: empty mask")
        diff = diff[mask]
    return float(np.abs(diff - diff.mean()).max())
