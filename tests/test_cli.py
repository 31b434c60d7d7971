import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jflow import cli
from jflow.cli import (
    COMMANDS,
    _SECTION_KEYS,
    _TOP_KEYS,
    RunRecord,
    _record_verdict,
    _section,
    build_problem,
    execute,
    main,
    parse_config,
    read_record,
    validate_command,
    write_record,
)
from jflow.diagnostics import PROXY_NOTE
from jflow.errors import ConfigError
from jflow.flow import MonitorVerdict
from jflow.io import read_field
from jflow.presets import PRESET_NAMES, PRESETS, cosine_modes

KNOWN_KEYS = sorted(_TOP_KEYS) + sorted(
    f"{section}.{key}" for section, keys in _SECTION_KEYS.items() for key in keys
)
_scalars = st.one_of(
    st.integers(-10, 100).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.booleans().map(lambda b: "true" if b else "false"),
    st.sampled_from(PRESET_NAMES),
    st.text("abcdefxyz_.-0123456789", min_size=1, max_size=6),
)
_values = st.one_of(
    _scalars, st.lists(_scalars, max_size=4).map(lambda v: "[" + ", ".join(v) + "]")
)
_config_texts = st.lists(
    st.tuples(st.sampled_from(KNOWN_KEYS), _values), max_size=5
).map(lambda items: ", ".join(f"{k}={v}" for k, v in items))


class TestParseConfig:
    def test_minimal_preset(self):
        cfg = parse_config("preset=smooth_split, N=32")
        assert cfg.preset == "smooth_split"
        assert cfg.n == 32
        assert build_problem(cfg).backend == "split"  # the preset's backend
        assert cfg.eps == [0.0]

    def test_comment_items_are_skipped(self):
        cfg = parse_config("# a comment\npreset=identity, # N=12\neps=[0.1]")
        assert (cfg.preset, cfg.n, cfg.eps) == ("identity", 8, [0.1])

    def test_comment_lines_are_dropped_whole(self):
        # a comment line's commas do not split it into items that would be read
        cfg = parse_config("preset=identity\n# N=12, eps=[0.1]\n  # eps=[0.3], N=4")
        default = parse_config("preset=identity")
        assert (cfg.n, cfg.eps) == (default.n, default.eps) == (8, [0.0])

    def test_hash_inside_a_value_stays(self):
        assert parse_config("preset=identity, out=runs/#1\n").out == "runs/#1"

    @pytest.mark.parametrize("text, key, value", [
        ("preset=degenerate_split, eps=[0.2, 0.1", "eps", "[0.2, 0.1"),
        ("preset=degenerate_split, offsets=[0.01, 0.01", "offsets", "[0.01, 0.01"),
        ("preset=nonsplit_perturbed, phi0.modes=[[0.002, 1, 0, 0, 0]",
         "phi0.modes", "[[0.002, 1, 0, 0, 0]"),
    ])
    def test_unclosed_bracket_names_its_key(self, text, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [f"{key}: unbalanced brackets in {value!r}"]

    def test_degenerate_defaults(self):
        cfg = parse_config("preset=degenerate_split")
        assert cfg.n == 16
        assert cfg.eps == [0.2, 0.1, 0.05]
        assert build_problem(cfg).divisor is not None  # and with it the divisor monitors

    @pytest.mark.parametrize("text, n, eps", [
        ("preset=identity", 8, [0.0]),
        ("preset=smooth_split", 32, [0.0]),
        ("preset=degenerate_split", 16, [0.2, 0.1, 0.05]),
        ("preset=nonsplit_perturbed", 12, [0.1]),
        ("chi0.class=[1, 1, 0, 0]", 8, [0.0]),
        # given values stand; the row fills only what is missing, or none
        ("preset=degenerate_split, N=8, eps=[0.1]", 8, [0.1]),
        ("preset=degenerate_split, N=none, offsets=none", 16, [0.2, 0.1, 0.05]),
    ])
    def test_preset_row_defaults(self, text, n, eps):
        cfg = parse_config(text)
        assert (cfg.n, cfg.eps) == (n, eps)

    @pytest.mark.parametrize("text, problem", [
        ("N=0", "N must be even and >= 4, got 0"),
        ("N=false", "N must be even and >= 4, got False"),
        ("N=[]", "N must be even and >= 4, got []"),
        ("N=", "N must be even and >= 4, got ''"),
        ("eps=[]", "eps: give at least one eps, got []"),
        ("offsets=[]", "offsets: give 2 (split presets) or 4 (others) finite reals, got []"),
        ("offsets=", "offsets: give 2 (split presets) or 4 (others) finite reals, got ''"),
    ])
    def test_given_value_is_never_the_rows(self, text, problem):
        # N=0, N=false, N=[] and N= ran at the preset's N, eps=[] ran its
        # ladder and offsets=[] zero offsets
        with pytest.raises(ConfigError) as err:
            parse_config(f"preset=degenerate_split, {text}")
        assert err.value.problems == [problem]

    def test_random_start_takes_no_modes(self):
        # the random draw silently replaced the modes
        with pytest.raises(ConfigError) as err:
            parse_config("preset=nonsplit_perturbed, seed=1, phi0.random=true,"
                         " phi0.modes=[[0.002, 1, 0, 0, 0]]")
        assert err.value.problems == ["phi0: give phi0.random=true or phi0.modes, not both"]
        # with either one off, the other gives the start
        parse_config("preset=nonsplit_perturbed, phi0.random=false,"
                     " phi0.modes=[[0.002, 1, 0, 0, 0]]")
        parse_config("preset=nonsplit_perturbed, phi0.random=true, phi0.modes=[]")

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config("preset=smooth_split, N=15")

    def test_negative_eps_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("preset=degenerate_split, eps=[0.2, -0.1]")
        assert any("eps[1]" in p for p in err.value.problems)

    def test_all_errors_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("preset=nope, N=15, bogus=1, flow.nonsense=2, M, solver.tol=1")
        msgs = " | ".join(err.value.problems)
        assert "nope" in msgs and "N must be even" in msgs
        assert "bogus" in msgs and "nonsense" in msgs
        assert "not a key=value pair: 'M'" in err.value.problems
        assert "unknown section: 'solver.tol'" in err.value.problems
        assert len(err.value.problems) >= 6

    def test_version_mismatch(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config("preset=identity, version=99")

    def test_nested_sections_and_lists(self):
        cfg = parse_config(
            "preset=identity\nflow.max_time=2.5\nma.newton_tol=1e-9\n"
            "offsets=[0.01, 0.0, 0.0, 0.0]"
        )
        assert cfg.flow["max_time"] == 2.5
        assert cfg.ma["newton_tol"] == 1e-9
        assert cfg.offsets == [0.01, 0.0, 0.0, 0.0]

    def test_explicit_forms(self):
        cfg = parse_config(
            "n=8, chi0.class=[1,1,0,0], omega0.class=[1,1,0,0],"
            " omegahat.class=[1,1,0,0], omega0.modes=[[0.05,1,0,0,0,0]]"
        )
        problem = build_problem(cfg)
        assert problem.backend == "full"
        w = problem.omega0.realized
        assert w[0].std() > 0  # the mode deformed the profile

    def test_requires_preset_or_forms(self):
        with pytest.raises(ConfigError, match="preset or explicit"):
            parse_config("n=8")

    def test_fixed_newton_constants_are_not_keys(self):
        # the line-search factor and the GMRES tolerance floor are constants
        for key in ("ma.damping", "ma.linear_tol"):
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in section 'ma'"):
                parse_config(f"preset=identity, {key}=0.5")

    def test_retired_run_knobs_are_not_keys(self):
        # fixed-step runs go through flow.step; eps = 0 needs a lattice off
        # the divisor, not an acknowledgement; q_monitor works C0 out at t = 0
        # and A and delta from the divisor, so no q section is left
        for key in ("flow.fixed_dt", "flow.allow_degenerate"):
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in section 'flow'"):
                parse_config(f"preset=degenerate_split, {key}=0.5")
        for key in ("q.c0_shift", "q.a", "q.delta"):
            with pytest.raises(ConfigError, match=f"unknown section: '{key}'"):
                parse_config(f"preset=degenerate_split, {key}=0.5")
        # a divisor preset always runs its divisor monitors, the family
        # budgets are the preset row's, and Newton's cap is ma._MAX_NEWTON
        with pytest.raises(ConfigError, match="unknown key: 'divisor'"):
            parse_config("preset=degenerate_split, divisor=false")
        for key in ("budget.sup_phi", "budget.sup_phidot"):
            with pytest.raises(ConfigError, match=f"unknown section: '{key}'"):
                parse_config(f"preset=degenerate_split, {key}=0.5")
        with pytest.raises(ConfigError, match="unknown key 'ma.max_newton' in section 'ma'"):
            parse_config("preset=identity, ma.max_newton=8")

    def test_backend_is_not_a_key(self):
        # the preset alone picks the backend
        with pytest.raises(ConfigError, match="unknown key: 'backend'"):
            parse_config("preset=smooth_split, N=8, backend=full")

    def test_workers_is_not_a_key(self):
        # an epsilon family is one batched run: there is no pool to size
        with pytest.raises(ConfigError, match="unknown key: 'workers'"):
            parse_config("preset=degenerate_split, N=8, workers=2")

    @pytest.mark.parametrize("text, section", [
        ("preset=identity, N=4, ma.newton_tol=-1", "ma"),
        ("preset=identity, flow.snapshot_stride=0", "flow"),
        ("preset=identity, flow.max_time=abc", "flow"),
        ("preset=degenerate_split, flow.dt_safety=1.5", "flow"),
        ("preset=degenerate_split, N=8, flow.dt_safety=true", "flow"),
        ("preset=degenerate_split, N=8, ma.newton_tol=inf", "ma"),
        ("preset=identity, flow.snapshot_stride=2.5", "flow"),
        ("preset=identity, flow.dt_safety=[1]", "flow"),
        ("preset=identity, offsets=0.1", "offsets"),
    ])
    def test_bad_value_names_its_key(self, text, section):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(p.startswith(f"{section}:") for p in err.value.problems)

    def test_hash_is_stable_and_sensitive(self):
        c1 = parse_config("preset=identity, seed=1")
        c2 = parse_config("preset=identity, seed=1")
        c3 = parse_config("preset=identity, seed=2")
        assert c1.config_hash() == c2.config_hash()
        assert c1.config_hash() != c3.config_hash()


class TestRecords:
    def test_roundtrip(self, tmp_path):
        rec = RunRecord(
            command="family", config_hash="abc", started="2024-01-01T00:00:00",
            finished="2024-01-01T00:01:00", preset="degenerate_split", n=16,
            eps=[0.2, 0.1], verdicts={"ok": True}, failures=[],
            artifacts=["report.json"], scalars={"x": 1.5},
        )
        path = tmp_path / "run.json"
        write_record(path, rec)
        back = read_record(path)
        assert back == rec

    def test_every_verdict_records_its_failure_lines(self):
        # a family member's Q-monitor: the verdict and each (t, what, by)
        # line carry the member's tag; a passing verdict adds no line
        record = RunRecord("family", "hash", "now")
        failing = MonitorVerdict(False, ((1.0, "q_max above q_max(0) + 1", 0.5),))
        _record_verdict(record, "q_monitor", failing, "eps=0.1:")
        _record_verdict(record, "trace_bound", MonitorVerdict(True, ()), "eps=0.1:")
        assert record.verdicts == {"eps=0.1:q_monitor": False, "eps=0.1:trace_bound": True}
        assert record.failures == ["eps=0.1:(1.0, 'q_max above q_max(0) + 1', 0.5)"]
        assert not record.ok

    def test_corrupt_record(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="unreadable"):
            read_record(path)
        path.write_text(json.dumps({"command": "run"}))
        with pytest.raises(ConfigError, match="missing fields"):
            read_record(path)


class TestExecute:
    def test_check_classes_identity(self, tmp_path):
        cfg = parse_config(f"preset=identity, out={tmp_path}")
        record, code = execute(cfg, "check-classes")
        assert code == 0
        assert record.verdicts["cone_condition"]
        assert record.scalars["c_eps[0.0]"] == 2.0
        stored = read_record(tmp_path / "run.json")
        assert stored.ok

    def test_run_refused_on_bad_cone(self, tmp_path):
        cfg = parse_config(
            f"n=8, out={tmp_path}, chi0.class=[1,1,0,0],"
            " omega0.class=[1,1,1.2,0], omegahat.class=[1,1,0,0]"
        )
        record, code = execute(cfg, "run")
        assert code == 1
        assert any("ConeCondition" in f for f in record.failures)

    def test_run_and_report_roundtrip(self, tmp_path):
        cfg = parse_config(
            f"preset=smooth_split, N=8, out={tmp_path},"
            " flow.max_time=0.3, flow.stop_tolerance=1e-6, flow.dt_safety=0.8"
        )
        record, code = execute(cfg, "run")
        assert code == 0
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "fields" / "final.jflw").exists()
        record2, code2 = execute(cfg, "report")
        assert code2 == 0
        # stale after a config edit
        cfg3 = parse_config(
            f"preset=smooth_split, N=8, out={tmp_path}, flow.max_time=0.4"
        )
        record3, code3 = execute(cfg3, "report")
        assert any("stale" in f for f in record3.failures)

    @pytest.mark.parametrize("integrator", ["rkc", "rk4"])
    def test_run_records_integrator_telemetry(self, tmp_path, integrator):
        choice = "" if integrator == "rkc" else f", flow.integrator={integrator}"
        cfg = parse_config(
            f"preset=smooth_split, N=8, out={tmp_path}, flow.max_time=0.05,"
            f" flow.stop_tolerance=1e-6, flow.dt_safety=0.8{choice}"
        )
        record, code = execute(cfg, "run")
        assert code == 0
        stored = read_record(tmp_path / "run.json").scalars
        assert stored["integrator"] == integrator
        assert stored["rejections"] == 0
        # RK4: the initial evaluation and four per step; RKC: at least two per step
        per_step = (stored["rhs_evals"] - 1) / stored["steps"]
        assert per_step == 4 if integrator == "rk4" else per_step >= 2
        if integrator == "rk4":
            assert stored["radius_evals"] == 0
            assert stored["rkc_stages_max"] is stored["rkc_stages_median"] is None
        else:
            # the estimates are inside rhs_evals; every step takes 2 stages or more
            assert 0 < stored["radius_evals"] < stored["rhs_evals"]
            assert stored["rkc_stages_max"] >= stored["rkc_stages_median"] >= 2
        header = (tmp_path / "series.csv").read_text().splitlines()[0]
        assert not any(k in header for k in ("integrator", "rhs_evals", "rejections",
                                             "radius", "stages"))

    def test_report_flags_missing_artifact(self, tmp_path):
        cfg = parse_config(
            f"preset=smooth_split, N=8, out={tmp_path},"
            " flow.max_time=0.1, flow.stop_tolerance=1e-6, flow.dt_safety=0.8"
        )
        execute(cfg, "run")
        os.unlink(tmp_path / "series.csv")
        record, code = execute(cfg, "report")
        assert not record.verdicts["integrity"]
        assert code == 1

    def test_solve_ma_smooth(self, tmp_path):
        cfg = parse_config(f"preset=smooth_split, N=16, out={tmp_path}")
        record, code = execute(cfg, "solve-ma")
        assert code == 0
        assert record.verdicts["newton_converged"]
        assert (tmp_path / "newton.csv").exists()
        assert (tmp_path / "fields" / "psi-eps0.jflw").exists()

    def test_family_end_to_end(self, tmp_path):
        cfg = parse_config(
            f"preset=degenerate_split, N=8, out={tmp_path}, eps=[0.2, 0.1],"
            " flow.max_time=0.2, flow.dt_safety=0.8, offsets=[0.01, 0.01]"
        )
        record, code = execute(cfg, "family")
        assert code == 0 and not record.failures
        assert record.verdicts["all_members_ran"] and record.verdicts["uniform_bounds"]
        for eps in ("0.2", "0.1"):
            assert (tmp_path / f"series-eps{eps}.csv").exists()
            assert read_field(tmp_path / "fields" / f"final-eps{eps}.jflw").grid.n == 8
            for verdict in ("max_principle", "trace_bound", "j_nonincreasing", "q_monitor"):
                assert record.verdicts[f"eps={eps}:{verdict}"]
        assert len(record.verdicts) == 10
        assert record.scalars["max_sup_phidot"] > record.scalars["max_sup_phi"] > 0.0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"family", "uniformity"}
        assert set(report["family"]) == {
            "eps", "sup_phi_by_eps", "sup_phidot_by_eps", "consecutive_diffs",
            "failures", "final_residuals"}
        assert report["family"]["eps"] == [0.2, 0.1]
        assert report["family"]["failures"] == {}
        assert set(report["uniformity"]) == {"notes", "ok", "failures"}
        assert report["uniformity"]["ok"]
        assert report["uniformity"]["notes"] == [PROXY_NOTE] and "proxy" in PROXY_NOTE

    @pytest.mark.parametrize("text, refusal", [
        ("preset=identity, N=8, eps=[0.2, 0.1], phi0.modes=[[0.2, 1, 0, 0, 0, 0]]",
         "PositivityError: initial potential leaves chi0 + dd^c(phi) non-positive"),
        ("n=4, eps=[0.02, 0.01], chi0.class=[1,1,0,0], omega0.class=[1,1,1.2,0],"
         " omegahat.class=[1,1,0,0]", "ConeConditionError: cone condition fails"),
    ])
    def test_family_with_every_member_refused(self, tmp_path, text, refusal):
        # the uniformity check raised ValueError: a traceback, no run.json
        cfg = parse_config(f"{text}, out={tmp_path}")
        record, code = execute(cfg, "family")
        assert code == 1
        assert record.verdicts == {"all_members_ran": False, "uniform_bounds": False}
        assert [f.partition(": ")[0] for f in record.failures] == (
            [f"eps={e}" for e in cfg.eps] + ["no member ran"])
        assert all(refusal in f for f in record.failures[:-1])
        stored = json.loads((tmp_path / "run.json").read_text())
        assert stored["failures"] == record.failures and stored["scalars"] == {}
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["family"]["sup_phi_by_eps"] == {}
        assert set(report["family"]["final_residuals"].values()) == {None}
        assert (report["uniformity"]["ok"], report["uniformity"]["failures"]) == (
            False, ["no member ran"])
        assert record.artifacts == ["report.json"]

    def test_family_records_member_telemetry(self, tmp_path):
        # each member's flow telemetry, tagged as its verdicts are
        cfg = parse_config(
            f"preset=degenerate_split, N=8, out={tmp_path}, eps=[0.2, 0.1],"
            " flow.max_time=0.2, flow.dt_safety=0.8, offsets=[0.01, 0.01]"
        )
        record, code = execute(cfg, "family")
        assert code == 0
        stored = read_record(tmp_path / "run.json").scalars
        for eps in ("0.2", "0.1"):
            tel = {k: stored[f"eps={eps}:{k}"] for k in (
                "steps", "rejections", "rhs_evals", "radius_evals", "rkc_stages_max",
                "rkc_stages_median")}
            assert tel["steps"] > 0 and tel["rejections"] >= 0
            assert 0 < tel["radius_evals"] < tel["rhs_evals"]
            assert tel["rkc_stages_max"] >= tel["rkc_stages_median"] >= 2
        # the members share their steps while both are in the batch
        assert stored["eps=0.1:rhs_evals"] >= stored["eps=0.2:rhs_evals"]

    def test_solve_ma_records_newton_telemetry(self, tmp_path):
        cfg = parse_config(f"preset=nonsplit_perturbed, N=8, out={tmp_path}")
        record, code = execute(cfg, "solve-ma")
        assert code == 0
        stored = read_record(tmp_path / "run.json").scalars
        assert stored["newton_iterations[0.1]"] == 6
        assert 0 < stored["precond_applies[0.1]"] <= 65
        assert stored["gmres_info_max[0.1]"] == 0
        # the split solve's Newton step is a direct division: no GMRES
        cfg = parse_config(f"preset=smooth_split, N=16, out={tmp_path / 'split'}")
        execute(cfg, "solve-ma")
        stored = read_record(tmp_path / "split" / "run.json").scalars
        assert stored["precond_applies[0]"] == stored["gmres_info_max[0]"] == 0

    def test_family_budgets_follow_the_start(self, tmp_path, monkeypatch):
        # the preset budgets hold for phi0 = 0; a random start carries its own
        # sup|phi_dot(0)| (3.5 here), which the maximum principle keeps
        text = ("preset=degenerate_split, N=8, eps=[0.2, 0.1, 0.05],"
                " offsets=[0.01, 0.01], out={}, ")
        record, code = execute(parse_config(
            text.format(tmp_path / "random") + "seed=1, phi0.random=true"), "family")
        assert code == 0 and not record.failures
        assert record.verdicts["uniform_bounds"]
        assert record.scalars["max_sup_phidot"] > 3.0
        # a zero start reports what it did before: no failure at the preset
        # budgets, and the same lines for a row budget it exceeds
        record, code = execute(parse_config(text.format(tmp_path / "zero")), "family")
        assert code == 0 and record.verdicts["uniform_bounds"]
        monkeypatch.setitem(PRESETS["degenerate_split"], "budget", {"budget_phi": 0.05})
        record, code = execute(parse_config(text.format(tmp_path / "tight")), "family")
        assert code == 1 and not record.verdicts["uniform_bounds"]
        assert record.failures == [
            "eps=0.2: sup|phi| 0.0930636 exceeds budget 0.05",
            "eps=0.1: sup|phi| 0.102396 exceeds budget 0.05",
            "eps=0.05: sup|phi| 0.107794 exceeds budget 0.05",
        ]

    def test_functionals_on_snapshot(self, tmp_path):
        cfg = parse_config(
            f"preset=smooth_split, N=8, out={tmp_path},"
            " flow.max_time=0.2, flow.stop_tolerance=1e-6, flow.dt_safety=0.8"
        )
        execute(cfg, "run")
        record, code = execute(cfg, "functionals")
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert set(payload) == {"J", "I", "E", "M", "F", "notes", "source", "eps"}
        assert payload["source"] == "fields/final.jflw"
        assert payload["J"] is not None

    def test_check_classes_writes_the_certificate(self, tmp_path):
        record, code = execute(parse_config(f"preset=degenerate_split, out={tmp_path}"),
                               "check-classes")
        assert code == 0 and record.verdicts["omega0_conditions"]
        cert = json.loads((tmp_path / "report.json").read_text())["omega0_certificate"]
        assert cert["ok"] and abs(cert["C0"] - 2.0) < 1e-9
        assert (cert["beta"], cert["rho"], cert["failure"], cert["point"]) == (1.0, 0.5, "", [])

    def test_functionals_fits_the_divisor_profile(self, tmp_path):
        cfg = parse_config(
            f"preset=degenerate_split, N=8, eps=[0.1], offsets=[0.01, 0.01], out={tmp_path},"
            " flow.dt_safety=0.8, flow.stop_tolerance=1e-8"
        )
        execute(cfg, "run")
        record, code = execute(cfg, "functionals")
        assert code == 0
        assert record.artifacts == ["fit_scatter.csv", "report.json"]
        assert (tmp_path / "fit_scatter.csv").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["source"] == "fields/final.jflw"
        assert payload["gamma_fit"] == 0.0  # a bounded trace: the fit's clamp at 0

    def test_functionals_flat_fit_band_reports_the_fit_error(self, tmp_path):
        # every band point shares one s2 at N = 4: the fit read gamma 0.4995
        cfg = parse_config(f"preset=degenerate_split, N=4, offsets=[0.0001, 0.0001],"
                           f" out={tmp_path}")
        record, code = execute(cfg, "functionals")
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "gamma_fit" not in payload and "gamma_fit_C" not in payload
        assert payload["gamma_fit_error"].startswith("singular_profile_fit: all 32 points")

    def test_functionals_without_snapshot_is_the_zero_potential(self, tmp_path):
        cfg = parse_config(f"preset=nonsplit_perturbed, N=8, eps=[0.1],"
                           f" offsets=[0.01, 0.01, 0.01, 0.01], out={tmp_path}")
        record, code = execute(cfg, "functionals")
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["source"] == "zero potential"
        assert payload["J"] == payload["I"] == payload["M"] == 0.0

    def test_functionals_on_snapshot_from_another_grid(self, tmp_path):
        text = (f"preset=smooth_split, out={tmp_path}, flow.max_time=0.2,"
                " flow.stop_tolerance=1e-6, flow.dt_safety=0.8")
        execute(parse_config(text + ", N=8"), "run")
        (tmp_path / "run.json").unlink()
        record, code = execute(parse_config(text + ", N=12"), "functionals")
        assert code == 1 and not record.verdicts["completed"]
        assert len(record.failures) == 1
        assert record.failures[0].startswith("ConfigError: functionals:")
        assert "n=8" in record.failures[0] and "n=12" in record.failures[0]
        assert json.loads((tmp_path / "run.json").read_text())["failures"] == record.failures
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("cut", ["values", "header", "appended"])
    def test_functionals_on_an_unreadable_snapshot(self, tmp_path, cut):
        # a snapshot cut inside its values, a header whose N = 65536 implies
        # 8 N^4 bytes (more than a read can ask for), and 1,000 bytes past
        # the values: each a failure line in run.json, before any value is read
        text = (f"preset=smooth_split, N=8, out={tmp_path}, flow.max_time=0.2,"
                " flow.stop_tolerance=1e-6, flow.dt_safety=0.8")
        execute(parse_config(text), "run")
        path = tmp_path / "fields" / "final.jflw"
        raw = path.read_bytes()
        data, why = {
            "values": (raw[:-8], "truncated snapshot: 32760 bytes of values, N=8 implies 32768"),
            "header": (raw[:6] + struct.pack("<I", 65536) + raw[10:],
                       f"truncated snapshot: 32768 bytes of values, N=65536 implies "
                       f"{8 * 65536 ** 4}"),
            "appended": (raw + bytes(1000),
                         "overlong snapshot: 33768 bytes of values, N=8 implies 32768"),
        }[cut]
        path.write_bytes(data)
        record, code = execute(parse_config(text), "functionals")
        assert code == 1 and not record.verdicts["completed"]
        assert record.failures == [f"ConfigError: functionals: fields/final.jflw is "
                                   f"unreadable: {path}: {why}"]
        assert json.loads((tmp_path / "run.json").read_text())["failures"] == record.failures
        assert not (tmp_path / "report.json").exists()

    def test_determinism_bitwise_csv(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = parse_config(
                f"preset=degenerate_split, N=12, out={out}, seed=3,"
                " phi0.random=true, eps=[0.2],"
                " flow.max_time=0.2, flow.stop_tolerance=1e-6, flow.dt_safety=0.8"
            )
            record, code = execute(cfg, "run")
            assert code == 0
            texts.append((out / "series.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_run_refuses_several_eps(self, tmp_path):
        cfg = parse_config(f"preset=degenerate_split, N=8, out={tmp_path}, eps=[0.2, 0.1]")
        with pytest.raises(ConfigError, match="family"):
            execute(cfg, "run")
        # the preset's default eps list has three entries
        with pytest.raises(ConfigError, match="family"):
            execute(parse_config(f"preset=degenerate_split, N=8, out={tmp_path}"), "run")
        assert not (tmp_path / "run.json").exists()

    def test_monitor_config_error_keeps_run_completed(self, tmp_path):
        # zero grid offsets put 1/64 of the points on the divisor: the
        # q-monitor cannot be evaluated, the other monitors still can
        cfg = parse_config(
            f"preset=nonsplit_perturbed, N=8, out={tmp_path}, seed=3,"
            " phi0.random=true, eps=[0.1], flow.max_time=0.05"
        )
        record, code = execute(cfg, "run")
        assert code == 1
        assert record.verdicts["completed"]
        assert "q_monitor" not in record.verdicts
        for name in ("trace_bound", "j_nonincreasing"):
            assert name in record.verdicts
        assert any("q_monitor" in f and "locus mask" in f for f in record.failures)
        stored = read_record(tmp_path / "run.json")
        assert stored.verdicts == record.verdicts

    def test_run_records_j_failure_lines(self, tmp_path, monkeypatch):
        # the flow keeps J nonincreasing, so the last row's J is lifted
        # after the run: the verdict fails with one (t, what, by) line
        kept = []

        def lifted(*args, **kwargs):
            traj = cli_evolve(*args, **kwargs)
            traj.rows[-1] = replace(traj.rows[-1], j=traj.rows[-2].j + 0.5)
            kept.append(traj)
            return traj

        cli_evolve = cli.evolve
        monkeypatch.setattr(cli, "evolve", lifted)
        cfg = parse_config(f"preset=smooth_split, N=8, out={tmp_path}, flow.max_time=0.05")
        record, code = execute(cfg, "run")
        assert code == 1 and not record.verdicts["j_nonincreasing"]
        last, before = kept[0].rows[-1], kept[0].rows[-2]
        assert record.failures == [str((last.t, "J increased", last.j - before.j))]
        assert json.loads((tmp_path / "run.json").read_text())["failures"] == record.failures

    @pytest.mark.parametrize("text, ok", [
        # phi = 0 is the identity preset's limit: one row
        ("preset=identity, N=8, eps=[0]", True),
        # the first and last rows only, between which sup phi_dot rises
        ("preset=nonsplit_perturbed, N=8, eps=[0.1], offsets=[0.01, 0.01, 0.01, 0.01],"
         " flow.max_time=1e-4, flow.snapshot_stride=100000", False),
    ])
    def test_max_principle_is_decided_on_every_run(self, tmp_path, text, ok):
        record, code = execute(parse_config(f"{text}, out={tmp_path}"), "run")
        assert record.verdicts["max_principle"] is ok and code == (0 if ok else 1)
        assert all("sup phi_dot increased" in f for f in record.failures)
        assert len(record.failures) == (0 if ok else 1)

    def test_eps_zero_off_the_divisor_passes(self, tmp_path):
        # the degenerate flow itself, on a lattice off the divisor: every
        # verdict passes, the q-monitor's too
        cfg = parse_config(f"preset=degenerate_split, eps=[0], offsets=[0.01, 0.01],"
                           f" out={tmp_path}")
        record, code = execute(cfg, "run")
        assert code == 0 and not record.failures
        assert set(record.verdicts) == {"completed", "max_principle", "trace_bound",
                                        "j_nonincreasing", "q_monitor"}
        assert record.scalars["final_residual"] < 1e-9

    def test_eps_zero_on_the_divisor_names_the_count(self, tmp_path):
        # the degenerate preset's lattice samples its divisor at zero offsets
        cfg = parse_config(f"preset=degenerate_split, N=8, eps=[0], out={tmp_path}")
        problems = validate_command(cfg, "run")
        assert len(problems) == 1
        assert problems[0].startswith("eps: eps = 0 on a lattice with 1 point(s)")

    def test_phi0_modes_on_the_full_backend(self, tmp_path):
        # the start is the synthesized field: a phase of 1/4 cycle turns the
        # cosine into a sine
        cfg = parse_config(f"preset=nonsplit_perturbed, N=8, eps=[0.1], out={tmp_path},"
                           " offsets=[0.01, 0.01, 0.01, 0.01], flow.max_time=1e-3,"
                           " phi0.modes=[[0.002, 1, 0, 0, 0, 0.25]]")
        record, code = execute(cfg, "run")
        assert record.verdicts["completed"]
        grid = build_problem(cfg).grid
        field = cosine_modes(grid, [(0.002, (1, 0, 0, 0), -2 * np.pi * 0.25)])
        assert np.abs(field - 0.002 * np.sin(2 * np.pi * grid.coords()[0])).max() < 1e-17
        first = (tmp_path / "series.csv").read_text().splitlines()[1].split(",")
        assert float(first[1]) == np.abs(field).max()

    def test_nonsplit_snapshot_keeps_four_offsets(self, tmp_path):
        cfg = parse_config(
            f"preset=nonsplit_perturbed, N=8, out={tmp_path}, eps=[0.1],"
            " offsets=[0.01, 0.02, 0.03, 0.04], flow.max_time=0.002"
        )
        execute(cfg, "run")
        final = read_field(tmp_path / "fields" / "final.jflw")
        assert final.grid.offsets == (0.01, 0.02, 0.03, 0.04)


class TestMain:
    def test_cli_flags_override(self, tmp_path, capsys):
        code = main([
            "--command", "check-classes", "--preset", "identity",
            "--out", str(tmp_path), "--eps", "0.0,0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        stored = read_record(tmp_path / "run.json")
        assert stored.eps == [0.0, 0.1]

    def test_seed_flag_overrides_config(self, tmp_path):
        (tmp_path / "run.cfg").write_text("preset=identity\nseed=3\n")
        out = str(tmp_path / "out")
        code = main(["--command", "check-classes", "--config", str(tmp_path / "run.cfg"),
                     "--out", out, "--seed", "7"])
        assert code == 0
        stored = read_record(tmp_path / "out" / "run.json")
        assert stored.config_hash == parse_config("preset=identity, seed=7", out=out).config_hash()
        assert stored.config_hash != parse_config("preset=identity, seed=3", out=out).config_hash()

    def test_failure_lines_go_to_stderr(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("n=4, eps=[0.01], chi0.class=[1,1,0,0], "
                                          "omega0.class=[1,1,1.2,0], omegahat.class=[1,1,0,0]\n")
        code = main(["--command", "run", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert "run: FAIL" in captured.out
        assert "\n  ConeConditionError: cone condition fails" in "\n" + captured.err

    def test_unknown_command_is_a_config_error(self, tmp_path):
        cfg = parse_config(f"preset=identity, out={tmp_path / 'out'}")
        assert validate_command(cfg, "plot") == [
            f"unknown command 'plot'; choose from {COMMANDS}"]
        with pytest.raises(ConfigError, match="unknown command 'plot'"):
            execute(cfg, "plot")
        assert not (tmp_path / "out").exists()

    def test_run_with_several_eps_exit_2(self, tmp_path, capsys):
        code = main(["--command", "run", "--preset", "degenerate_split",
                     "--out", str(tmp_path), "--eps", "0.2,0.1"])
        assert code == 2
        assert "family" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("solve-ma", "preset=identity, N=4, ma.newton_tol=-1"),
        ("run", "preset=identity, N=4, flow.snapshot_stride=0"),
        ("run", "preset=identity, N=4, flow.max_time=abc"),
        ("family", "preset=degenerate_split, N=8, eps=[0.2], flow.dt_safety=1.5"),
        # no end time, or a tolerance that any state meets
        ("run", "preset=smooth_split, N=8, flow.max_time=inf"),
        ("run", "preset=smooth_split, N=8, flow.stop_tolerance=inf"),
        # a bool is no number, and every section refuses values that are not finite
        ("family", "preset=degenerate_split, N=8, eps=[0.2], flow.dt_safety=true"),
        ("family", "preset=degenerate_split, N=8, eps=[0.2], flow.dt_safety=inf"),
        ("family", "preset=degenerate_split, N=8, eps=[0.2], ma.newton_tol=inf"),
        ("family", "preset=degenerate_split, N=8, eps=[0.2], ma.newton_tol=1e400"),
        ("solve-ma", "preset=identity, N=4, ma.newton_tol=inf"),
    ])
    def test_bad_section_value_exit_2(self, tmp_path, capsys, command, text):
        out = tmp_path / "out"
        config = tmp_path / "run.cfg"
        config.write_text(f"{text}\nout={out}\n")
        code = main(["--command", command, "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("run", "preset=degenerate_split, N=8, eps=[0.2], seed=abc, phi0.random=true"),
        ("run", "preset=identity, N=4, out=2024"),
        ("run", "n=4, chi0.class=[a,1,0,0]"),
        ("family", "preset=degenerate_split, N=8, eps=[0.2], ma.newton_tol=abc"),
        # eps entries the library refuses: not finite, a bool, or a family
        # ladder that is not strictly descending
        ("check-classes", "preset=identity, eps=[nan]"),
        ("check-classes", "preset=identity, eps=[true]"),
        ("run", "preset=identity, N=4, eps=[nan]"),
        ("family", "preset=degenerate_split, N=8, eps=[0.1, 0.2]"),
        ("family", "preset=degenerate_split, N=8, eps=[0.2, 0.2]"),
        # a family ladder with a 0 in it (the member was dropped, and the
        # record still listed it); explicit modes on a split preset; eps = 0
        # on a lattice that samples the divisor (zero offsets)
        ("family", "preset=degenerate_split, N=8, eps=[0]"),
        ("family", "preset=degenerate_split, N=8, offsets=[0.01, 0.01], eps=[0.2, 0.1, 0]"),
        ("run", "preset=smooth_split, N=8, phi0.modes=[[0.01, 1, 0, 0, 0]]"),
        ("run", "preset=degenerate_split, eps=[0]"),
        ("run", "preset=nonsplit_perturbed, eps=[0]"),
        # values of the wrong type: phi0.random is a bool, and a bool is no count
        ("run", "preset=degenerate_split, N=8, eps=[0.1], phi0.random=maybe"),
        ("run", "preset=degenerate_split, N=8, eps=[0.1], phi0.random=3"),
        ("run", "preset=smooth_split, N=8, flow.snapshot_stride=true"),
        ("solve-ma", "preset=identity, N=4, ma.newton_tol=true"),
        # a given N, eps or offsets is never swapped for the preset row's
        ("check-classes", "preset=identity, N=0"),
        ("check-classes", "preset=identity, N=false"),
        ("check-classes", "preset=identity, N=[]"),
        ("check-classes", "preset=identity, N="),
        ("check-classes", "preset=degenerate_split, eps=[]"),
        ("check-classes", "preset=degenerate_split, N=8, offsets=[]"),
        # a random start with modes, which it would drop
        ("run", "preset=nonsplit_perturbed, N=8, eps=[0.1], seed=1, phi0.random=true, "
                "phi0.modes=[[0.002, 1, 0, 0, 0]]"),
    ])
    def test_bad_top_level_or_form_value_exit_2(self, tmp_path, monkeypatch, capsys,
                                                command, text):
        # outputs would land under the working directory ("out", or "2024")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{text}\n")
        code = main(["--command", command, "--config", "run.cfg"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("value", ["0", "false", "none"])
    def test_non_string_preset_exit_2(self, tmp_path, monkeypatch, capsys, value):
        # a falsy preset with chi0.class ran as an explicit problem
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"preset={value}, n=8, chi0.class=[1,1,0,0], "
                                          "omega0.class=[1,1,0,0], omegahat.class=[1,1,0,0]\n")
        code = main(["--command", "check-classes", "--config", "run.cfg"])
        assert code == 2
        assert "preset: must be a preset name" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("command, text", [
        ("run", "preset=degenerate_split, N=8, eps=[0.2], offsets=[0.2, 0.2]"),
        ("run", "preset=identity, offsets=[0.01, 0.01]"),
        ("run", "preset=smooth_split, N=8, offsets=[0.01, 0.01, 0.01, 0.01]"),
        ("check-classes", "n=8, chi0.class=[1,1,0,0], offsets=[0.01, 0.01]"),
    ])
    def test_bad_offsets_exit_2(self, tmp_path, monkeypatch, capsys, command, text):
        # a wrong offset count for the preset's lattice, or an offset outside
        # [0, 1/N), is a config error before anything runs or is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{text}\n")
        code = main(["--command", command, "--config", "run.cfg"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: offsets:" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("text, key", [
        ("preset=degenerate_split, eps=[0.2, 0.1", "eps"),
        ("preset=degenerate_split, offsets=[0.01, 0.01", "offsets"),
    ])
    def test_unclosed_bracket_exit_2(self, tmp_path, monkeypatch, capsys, text, key):
        # the list once ran as if closed at the end of the config
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{text}\n")
        code = main(["--command", "run", "--config", "run.cfg"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: unbalanced brackets" in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_numeric_out_flag_is_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["--command", "check-classes", "--preset", "identity", "--out", "2024"])
        assert code == 0
        assert read_record(tmp_path / "2024" / "run.json").ok
        # the flag also replaces a config file's out, whatever its value
        (tmp_path / "run.cfg").write_text("preset=identity\nout=2025\n")
        code = main(["--command", "check-classes", "--config", "run.cfg", "--out", "2026"])
        assert code == 0
        assert (tmp_path / "2026" / "run.json").exists()

    def test_unknown_integrator_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = tmp_path / "run.cfg"
        config.write_text("preset=identity\nflow.integrator=euler\n")
        code = main(["--command", "run", "--config", str(config), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: flow: integrator must be one of ('rkc', 'rk4')" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        code = main(["--command", "run", "--preset", "wrong"])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestConfigFuzz:
    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(st.sampled_from(PRESET_NAMES), _config_texts)
    @example("identity", "flow.max_time=abc")
    @example("identity", "flow.max_time=2.5, ma.newton_tol=8")
    def test_parse_returns_or_raises_config_error(self, preset, text):
        try:
            cfg = parse_config(f"preset={preset}, {text}")
        except ConfigError:
            return
        # whatever parses must build the library's config types
        _section(cfg, "flow", eps=0.1)
        _section(cfg, "ma")
