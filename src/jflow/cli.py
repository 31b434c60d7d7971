"""Command-line driver: config parsing, experiment orchestration,
persistence and report emission.

Configs are flat ``key=value`` pairs with dotted sections, separated by
commas or newlines (``preset=smooth_split, N=32, flow.max_time=2``); lists
use brackets.  Every command writes its artifacts atomically under the
output directory and exits 0 iff all asserted verdicts pass.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields as dc_fields

import numpy as np

from . import io as jio
from .cohomology import (
    ClosedForm,
    CohomologyClass,
    cone_condition,
    c_constant,
    verify_omega0_conditions,
)
from .diagnostics import (
    PROXY_NOTE,
    fit_points,
    j_monotone_check,
    q_monitor,
    singular_profile_fit,
    trace_bound_check,
    uniformity_report,
)
from .errors import ConfigError, JFlowError, is_number
from .flow import (
    FlowConfig,
    check_eps_zero,
    check_ladder,
    epsilon_family,
    evolve,
    max_principle_monitor,
)
from .functionals import evaluate_suite
from .ma import MASolverConfig, solve_ma_continuation
from .presets import (
    PRESET_NAMES,
    PRESETS,
    Problem,
    build_preset,
    cosine_modes,
    preset_grid,
    random_bandlimited_potential,
)
from .torus import ScalarField

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    version: int = SCHEMA_VERSION
    preset: str = ""
    n: int = None  # None: the preset row's
    offsets: list = None  # None: zero offsets
    eps: list = None  # None: the preset row's
    out: str = "out"
    seed: int = 0
    flow: dict = field(default_factory=dict)
    ma: dict = field(default_factory=dict)
    chi0: dict = field(default_factory=dict)
    omega0: dict = field(default_factory=dict)
    omegahat: dict = field(default_factory=dict)
    phi0: dict = field(default_factory=dict)

    def config_hash(self):
        text = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


# the flow and ma sections are the library's config types, their keys the
# types' fields (flow's eps is the top-level list)
_SECTIONS = {"flow": FlowConfig, "ma": MASolverConfig}
_SECTION_KEYS = {
    **{name: {f.name for f in dc_fields(t)} - {"eps"} for name, t in _SECTIONS.items()},
    "chi0": {"class", "modes"},
    "omega0": {"class", "modes"},
    "omegahat": {"class", "modes"},
    "phi0": {"modes", "random"},
}
_TOP_KEYS = {"version", "preset", "n", "offsets", "eps", "out", "seed"}


def _split_items(text):
    """Split on commas/newlines outside brackets."""
    items, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch in ",\n" and depth == 0:
            item = "".join(cur).strip()
            if item:
                items.append(item)
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        items.append(tail)
    return items


def _parse_value(text):
    text = text.strip()
    if text.startswith("["):
        return [_parse_value(v) for v in _split_items(text[1:-1])]
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config(text, out=None):
    """Parse and validate; raises ConfigError listing every problem.  A
    given ``out`` (the --out flag) replaces the output directory as a path,
    never parsed as a number.  Lines and items that start with ``#`` are comments."""
    cfg = RunConfig()
    problems = []
    text = "\n".join(line for line in text.split("\n") if not line.lstrip().startswith("#"))
    for item in _split_items(text):
        if item.startswith("#"):
            continue
        if "=" not in item:
            problems.append(f"not a key=value pair: {item!r}")
            continue
        key, _, raw = item.partition("=")
        key = key.strip()
        if raw.count("[") != raw.count("]"):
            problems.append(f"{key}: unbalanced brackets in {raw.strip()!r}")
            continue
        value = _parse_value(raw)
        lower = key.lower()
        if "." in lower:
            section, _, sub = lower.partition(".")
            if section not in _SECTION_KEYS:
                problems.append(f"unknown section: {key!r}")
            elif sub not in _SECTION_KEYS[section]:
                problems.append(f"unknown key {key!r} in section {section!r}")
            else:
                getattr(cfg, section)[sub] = value
        elif lower in _TOP_KEYS:
            if lower == "eps" and not isinstance(value, list):
                value = [value]
            setattr(cfg, lower, value)
        else:
            problems.append(f"unknown key: {key!r}")
    if out:
        cfg.out = out
    problems.extend(validate_config(cfg))
    if problems:
        raise ConfigError(problems)
    _fill_defaults(cfg)
    return cfg


def validate_config(cfg):
    problems = []
    if cfg.version != SCHEMA_VERSION:
        problems.append(
            f"version: schema version {cfg.version} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(cfg.preset, str):
        problems.append(f"preset: must be a preset name, got {cfg.preset!r}")
    elif cfg.preset and cfg.preset not in PRESET_NAMES:
        problems.append(f"preset: unknown preset {cfg.preset!r}")
    if not cfg.preset and "class" not in cfg.chi0:
        problems.append("either preset or explicit chi0/omega0/omegahat specs required")
    # a given N, eps or offsets stands or is refused; omitted (or none), the row's
    if cfg.n is not None and not (isinstance(cfg.n, int) and cfg.n >= 4 and cfg.n % 2 == 0):
        problems.append(f"N must be even and >= 4, got {cfg.n!r}")
    if cfg.eps == []:
        problems.append("eps: give at least one eps, got []")
    for i, e in enumerate(cfg.eps or ()):
        if not (is_number(e) and e >= 0):
            problems.append(f"eps[{i}]: entries must be nonnegative finite reals, "
                            f"got {e!r}")
    if cfg.offsets is not None and not _is_reals(cfg.offsets, (2, 4)):
        problems.append("offsets: give 2 (split presets) or 4 (others) finite reals, "
                        f"got {cfg.offsets!r}")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        problems.append(f"seed: must be an integer >= 0, got {cfg.seed!r}")
    if not isinstance(cfg.out, str) or not cfg.out:
        problems.append(f"out: must be a directory path, got {cfg.out!r}")
    for section in ("chi0", "omega0", "omegahat", "phi0"):
        spec = getattr(cfg, section)
        if "class" in spec and not _is_reals(spec["class"], (4,)):
            problems.append(f"{section}.class: must be 4 finite reals "
                            f"[m11, m22, Re m12, Im m12], got {spec['class']!r}")
        modes = spec.get("modes", [])
        if not (isinstance(modes, list) and all(_is_reals(m, (5, 6)) for m in modes)):
            problems.append(f"{section}.modes: must be a list of [amplitude, k_x1, "
                            f"k_y1, k_x2, k_y2, (phase)] lists of finite reals, "
                            f"got {modes!r}")
    if not isinstance(cfg.phi0.get("random", False), bool):
        problems.append(f"phi0.random: must be true or false, got {cfg.phi0['random']!r}")
    if cfg.phi0.get("random") and cfg.phi0.get("modes"):
        problems.append("phi0: give phi0.random=true or phi0.modes, not both")
    # the row is looked up only for a known preset: an unknown one, even a
    # list, is still being collected as a problem here
    row = PRESETS[cfg.preset] if cfg.preset in PRESET_NAMES else {}
    if cfg.phi0.get("modes") and row.get("dim") == 2:
        problems.append(f"phi0.modes: explicit modes need the full backend, and "
                        f"{cfg.preset} runs on the split one")
    # the sections are checked by the library's own config types
    for name in _SECTIONS:
        try:
            _section(cfg, name)
        except (TypeError, ValueError) as err:
            problems.append(f"{name}: {err}")
    return problems


def _is_reals(values, lengths):
    return (isinstance(values, list) and len(values) in lengths
            and all(is_number(v) for v in values))


def _fill_defaults(cfg):
    row = PRESETS[cfg.preset or ""]
    cfg.n = row["n"] if cfg.n is None else cfg.n
    cfg.eps = list(row["eps"]) if cfg.eps is None else cfg.eps


def build_problem(cfg):
    """Problem instance from a validated config."""
    if cfg.preset:
        return build_preset(cfg.preset, n=cfg.n, offsets=cfg.offsets)
    grid = preset_grid("", cfg.n, cfg.offsets)
    forms = {}
    for name, spec in (("chi0", cfg.chi0), ("omega0", cfg.omega0),
                       ("omegahat", cfg.omegahat)):
        cls_spec = spec.get("class", [1.0, 1.0, 0.0, 0.0])
        cls = CohomologyClass(cls_spec[0], cls_spec[1],
                              complex(cls_spec[2], cls_spec[3]))
        forms[name] = ClosedForm(cls, _modes_field(grid, spec.get("modes", [])))
    return Problem("explicit", forms["chi0"], forms["omega0"], forms["omegahat"])


def _modes_field(grid, modes):
    """Sum of cosine modes [amplitude, k_x1, k_y1, k_x2, k_y2, phase], the
    phase in cycles and subtracted."""
    return ScalarField(grid, cosine_modes(grid, [
        (m[0], m[1:5], -2 * np.pi * (m[5] if len(m) > 5 else 0.0)) for m in modes]))


def _section(cfg, name, **fixed):
    """The library config of section ``name`` from its keys that are set,
    plus ``fixed`` (flow's eps)."""
    kw = {k: v for k, v in getattr(cfg, name).items() if v is not None}
    return _SECTIONS[name](**fixed, **kw)


def _initial_potential(cfg, problem):
    if cfg.phi0.get("random"):
        rng = np.random.default_rng(cfg.seed)
        return random_bandlimited_potential(problem, rng)
    modes = cfg.phi0.get("modes")
    return _modes_field(problem.grid, modes) if modes else None


# --------------------------------------------------------------------------
# records


@dataclass
class RunRecord:
    command: str
    config_hash: str
    started: str
    finished: str = ""
    preset: str = ""
    n: int = 0
    eps: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    scalars: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(self.verdicts.values()) and not self.failures


def write_record(path, record):
    jio.write_json(path, asdict(record))


def read_record(path):
    try:
        payload = jio.read_json(path)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError([f"record {path}: unreadable ({err})"])
    required = {"command", "config_hash", "started", "verdicts", "artifacts"}
    missing = required - set(payload)
    if missing:
        raise ConfigError([f"record {path}: missing fields {sorted(missing)}"])
    known = {f.name for f in dc_fields(RunRecord)}
    return RunRecord(**{k: v for k, v in payload.items() if k in known})


def _timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _artifact(record, out, rel):
    """List ``rel`` among the record's artifacts; returns its path under
    ``out``, where the caller writes it."""
    record.artifacts.append(rel)
    return os.path.join(out, rel)


# --------------------------------------------------------------------------
# command implementations


def _new_record(cfg, command):
    return RunRecord(
        command=command,
        config_hash=cfg.config_hash(),
        started=_timestamp(),
        preset=cfg.preset or "explicit",
        n=cfg.n,
        eps=list(cfg.eps),
    )


def _cmd_check_classes(cfg, record, out):
    problem = build_problem(cfg)
    x = problem.chi0_class()
    per_eps = {}
    all_pass = True
    for eps in cfg.eps:
        w = problem.omega_eps_class(eps)
        margin = cone_condition(x, w)
        per_eps[str(eps)] = {"c": c_constant(x, w), "cone_margin": margin}
        all_pass &= margin > 0
    record.verdicts["cone_condition"] = bool(all_pass)
    payload = {"per_eps": per_eps}
    if problem.divisor is not None:
        full = problem.to_full()
        cert = verify_omega0_conditions(full.omega0, full.divisor, full.omega_hat)
        record.verdicts["omega0_conditions"] = bool(cert.ok)
        payload["omega0_certificate"] = {
            "ok": cert.ok, "C0": cert.c0, "beta": cert.beta, "rho": cert.rho,
            "failure": cert.failure, "point": list(cert.point),
        }
    jio.write_json(_artifact(record, out, "report.json"), payload)
    record.scalars.update(
        {f"c_eps[{k}]": v["c"] for k, v in per_eps.items()}
    )
    return record


def _record_verdict(record, name, verdict, tag=""):
    """Record a monitor's MonitorVerdict as verdict ``<tag><name>`` and each
    of its failures as the line ``<tag><failure>``."""
    record.verdicts[f"{tag}{name}"] = verdict.ok
    record.failures.extend(f"{tag}{f}" for f in verdict.failures)


def _record_trajectory(problem, traj, record, out, eps=None):
    """Write a finished run's history to series.csv and its final potential
    to fields/final.jflw (both names suffixed -eps<eps> for a family
    member), then record its telemetry and the monitors' verdicts, prefixed
    eps=<eps>: for a member.  A q-monitor that cannot be evaluated on this
    grid is a failure line, not the end of the run: the verdicts before it stand."""
    suffix, tag = ("", "") if eps is None else (f"-eps{eps:g}", f"eps={eps:g}:")
    jio.write_history_csv(_artifact(record, out, f"series{suffix}.csv"), traj.rows)
    jio.write_scalar(_artifact(record, out, f"fields/final{suffix}.jflw"),
                     traj.final_potential())
    record.scalars.update({f"{tag}{k}": getattr(traj, k) for k in (
        "steps", "rejections", "rhs_evals", "radius_evals", "rkc_stages_max",
        "rkc_stages_median")})
    _record_verdict(record, "max_principle", max_principle_monitor(traj), tag)
    _record_verdict(record, "trace_bound", trace_bound_check(traj), tag)
    _record_verdict(record, "j_nonincreasing", j_monotone_check(traj), tag)
    if problem.divisor is not None:
        try:
            series, verdict = q_monitor(traj, problem.divisor)
        except ConfigError as err:
            record.failures.append(f"{tag}q_monitor not evaluated: {err}")
        else:
            _record_verdict(record, "q_monitor", verdict, tag)
            record.scalars[f"{tag}q_max_final"] = series[-1][1]


def _cmd_run(cfg, record, out):
    problem = build_problem(cfg)
    eps = cfg.eps[0]
    traj = evolve(
        _section(cfg, "flow", eps=eps),
        problem.chi0, problem.omega0, problem.omega_hat,
        phi0=_initial_potential(cfg, problem),
        divisor=problem.divisor,
    )
    record.scalars.update(
        {"final_residual": traj.final_residual, "t_final": traj.rows[-1].t,
         "c_eps": traj.c_eps, "J_final": traj.rows[-1].j, "integrator": traj.integrator}
    )
    record.verdicts["completed"] = True
    _record_trajectory(problem, traj, record, out)
    return record


def _cmd_family(cfg, record, out):
    problem = build_problem(cfg)
    report = epsilon_family(
        _section(cfg, "flow", eps=cfg.eps[0]), cfg.eps,
        problem.chi0, problem.omega0, problem.omega_hat,
        phi0=_initial_potential(cfg, problem),
        divisor=problem.divisor,
    )
    record.verdicts["all_members_ran"] = report.ok
    record.failures.extend(f"eps={k}: {v}" for k, v in report.failures.items())
    est = uniformity_report(report, **PRESETS[cfg.preset]["budget"])
    _record_verdict(record, "uniform_bounds", est)
    ran = [m for m in report.members if m.ok]
    for m in ran:
        _record_trajectory(problem, m.trajectory, record, out, m.eps)
    sup_phi = {str(m.eps): max(r.sup_phi for r in m.rows) for m in ran}
    sup_phidot = {str(m.eps): max(r.sup_phidot for r in m.rows) for m in ran}
    family = {
        "eps": [m.eps for m in report.members],
        "sup_phi_by_eps": sup_phi,
        "sup_phidot_by_eps": sup_phidot,
        "consecutive_diffs": [
            {"eps_hi": a, "eps_lo": b, "sup_full_grid": c, "sup_off_divisor": d}
            for (a, b, c, d) in report.consecutive_diffs],
        "failures": dict(report.failures),
        "final_residuals": {str(m.eps): m.trajectory.final_residual if m.ok else None
                            for m in report.members},
    }
    uniformity = {"notes": [PROXY_NOTE], "ok": est.ok, "failures": list(est.failures)}
    jio.write_json(_artifact(record, out, "report.json"),
                   {"family": family, "uniformity": uniformity})
    if ran:  # no NaN in run.json when no member ran
        record.scalars["max_sup_phi"] = max(sup_phi.values())
        record.scalars["max_sup_phidot"] = max(sup_phidot.values())
    return record


def _cmd_solve_ma(cfg, record, out):
    problem = build_problem(cfg)
    sols = solve_ma_continuation(
        problem.chi0, problem.omega0, problem.omega_hat, cfg.eps, _section(cfg, "ma")
    )
    table = []
    for eps, sol in sols:
        table.extend((eps, k, r) for k, r in enumerate(sol.residuals))
        jio.write_scalar(_artifact(record, out, f"fields/psi-eps{eps:g}.jflw"),
                         sol.psi.assemble())
        record.scalars[f"newton_iterations[{eps:g}]"] = sol.newton_iterations
        record.scalars[f"newton_residual[{eps:g}]"] = sol.residual()
        record.scalars[f"precond_applies[{eps:g}]"] = sol.precond_applies
        record.scalars[f"gmres_info_max[{eps:g}]"] = sol.gmres_info_max
    jio.write_series_csv(_artifact(record, out, "newton.csv"),
                         ("eps", "iteration", "residual"), table)
    record.verdicts["newton_converged"] = True  # solve_ma raises unless it converged
    return record


def _cmd_functionals(cfg, record, out):
    problem = build_problem(cfg).to_full()
    snap_path = os.path.join(out, "fields", "final.jflw")
    if os.path.exists(snap_path):
        source = "fields/final.jflw"
        try:
            phi = jio.read_field(snap_path)
        except (OSError, ValueError) as err:
            raise ConfigError(f"functionals: {source} is unreadable: {err}")
        if phi.grid != problem.grid:
            raise ConfigError(f"functionals: {source} is on {phi.grid}, "
                              f"the problem on {problem.grid}")
    else:
        phi = ScalarField.zeros(problem.grid)
        source = "zero potential"
    eps = cfg.eps[0]
    w = problem.omega_eps(eps)
    c = c_constant(problem.chi0.cls, w.cls)
    rep = evaluate_suite(phi, problem.chi0, w, c)
    payload = {"J": rep.j, "I": rep.i, "E": rep.e, "M": rep.m, "F": rep.f,
               "notes": rep.notes, "source": source, "eps": eps}
    if problem.divisor is not None:
        chi = problem.chi0.plus_ddc(phi)
        u = chi[0] + chi[1]
        s2 = problem.divisor.s2_proxy(problem.grid).values
        try:
            gamma, c_fit = singular_profile_fit(u, s2)
            payload["gamma_fit"] = gamma
            payload["gamma_fit_C"] = c_fit
        except JFlowError as err:
            payload["gamma_fit_error"] = str(err)
        jio.write_series_csv(_artifact(record, out, "fit_scatter.csv"),
                             ("neg_log_s2", "log_u"), fit_points(u, s2))
    jio.write_json(_artifact(record, out, "report.json"), payload)
    record.verdicts["evaluated"] = True
    record.scalars.update({k: payload[k] for k in ("J", "I", "E") if payload.get(k) is not None})
    return record


def _cmd_report(cfg, record, out):
    path = os.path.join(out, "run.json")
    stored = read_record(path)
    warnings = []
    for rel in stored.artifacts:
        if not os.path.exists(os.path.join(out, rel)):
            warnings.append(f"integrity: missing artifact {rel}")
    if stored.config_hash != cfg.config_hash():
        warnings.append(
            "stale record: config hash mismatch "
            f"({stored.config_hash[:12]} != {cfg.config_hash()[:12]})"
        )
    lines = [
        f"record: {stored.command} started {stored.started}",
        f"preset {stored.preset} N={stored.n} eps={stored.eps}",
    ]
    for k, v in stored.verdicts.items():
        lines.append(f"  verdict {k}: {'PASS' if v else 'FAIL'}")
    for k, v in stored.scalars.items():
        lines.append(f"  {k} = {v:.6g}" if isinstance(v, float) else f"  {k} = {v}")
    for w in warnings:
        lines.append(f"  WARNING {w}")
    print("\n".join(lines))
    record.verdicts["stored_verdicts_pass"] = stored.ok
    record.verdicts["integrity"] = not any(w.startswith("integrity") for w in warnings)
    record.failures.extend(warnings)
    return record


_IMPLS = {
    "check-classes": _cmd_check_classes,
    "run": _cmd_run,
    "family": _cmd_family,
    "solve-ma": _cmd_solve_ma,
    "functionals": _cmd_functionals,
    "report": _cmd_report,
}
COMMANDS = tuple(_IMPLS)


def validate_command(cfg, command):
    """Problems of a parsed config that show only with the preset defaults
    filled in (the offsets against the preset's lattice and N) or with the
    command (one eps for ``run``, and no eps = 0 on a lattice that samples
    the preset's divisor; ``flow.check_ladder`` for ``family``'s list as
    given, so a 0 in it is a config error)."""
    if command not in COMMANDS:
        return [f"unknown command {command!r}; choose from {COMMANDS}"]
    problems = []
    if command == "run" and len(cfg.eps) > 1:
        problems.append(f"eps: run integrates one eps, got {cfg.eps}; "
                        "use the family command for several")
    if command == "family":
        try:
            check_ladder(cfg.eps)
        except ValueError as err:
            problems.append(f"eps: {err}")
    try:
        grid = preset_grid(cfg.preset, cfg.n, cfg.offsets)
    except ValueError as err:
        return problems + [f"offsets: {err}"]
    if command == "run" and cfg.preset and cfg.eps == [0.0]:
        try:
            check_eps_zero(0.0, grid, build_preset(cfg.preset, cfg.n, grid.offsets).divisor)
        except ValueError as err:
            problems.append(f"eps: {err}")
    return problems


def execute(cfg, command):
    """Run one command; returns (RunRecord, exit_code)."""
    problems = validate_command(cfg, command)
    if problems:
        raise ConfigError(problems)
    out = cfg.out
    os.makedirs(out, exist_ok=True)
    record = _new_record(cfg, command)
    try:
        record = _IMPLS[command](cfg, record, out)
    except JFlowError as err:
        record.failures.append(f"{type(err).__name__}: {err}")
        record.verdicts["completed"] = False
    record.finished = _timestamp()
    if command != "report":
        write_record(os.path.join(out, "run.json"), record)
    return record, (0 if record.ok else 1)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jflow",
        description="J-flow laboratory on the flat complex 2-torus",
    )
    parser.add_argument("--config", help="path to a config file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--eps", help="comma-separated epsilon list")
    parser.add_argument("--preset", help="preset name")
    parser.add_argument("--seed", type=int, help="seed for randomized potentials")
    args = parser.parse_args(argv)

    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    overrides = []
    if args.preset:
        overrides.append(f"preset={args.preset}")
    if args.eps:
        overrides.append(f"eps=[{args.eps}]")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        text = text + "\n" + "\n".join(overrides)
    try:
        cfg = parse_config(text, out=args.out)
        record, code = execute(cfg, args.command)
    except ConfigError as err:
        for p in err.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.command}: {status} ({len(record.verdicts)} verdicts)")
    for failure in record.failures:
        print(f"  {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
