import csv
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from jsonschema import Draft202012Validator

from kahlerlab import cli, disks
from kahlerlab.cli import (CHECK_PARAM_SCHEMAS, CONFIG_SCHEMA, CSV_COLUMNS,
                           bundled_scenario_path, execute, load_config, main)
from kahlerlab.disks import scan_disks
from kahlerlab.errors import ConfigError
from kahlerlab.models import ModelSpace
from kahlerlab.psh import DiskSampler


def _read_csv(path, reader=csv.DictReader) -> list:
    with open(path, newline="") as f:
        return list(reader(f))


def _run(args):
    return CliRunner().invoke(main, args)


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _minimal_cfg(**check):
    return {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 0.0, "n": 2},
        "sampler": {"seed": 1, "count": 8, "interior_points": 4},
        "checks": [check]}]}


def test_bundled_models_scenario_passes(tmp_path):
    res = _run(["run", str(bundled_scenario_path("models.json")),
                "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = _read_csv(tmp_path / "results.csv")
    assert rows and all(r["verdict"] == "PASS" for r in rows)


def test_bundled_violation_scenario_exits_zero_with_witness(tmp_path):
    res = _run(["run", str(bundled_scenario_path("flat-K1-violation.json")),
                "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = _read_csv(tmp_path / "results.csv")
    fail = [r for r in rows if r["verdict"] == "FAIL"]
    assert fail and fail[0]["witness_ref"]
    wit = json.loads((tmp_path / fail[0]["witness_ref"]).read_text())
    assert "coeffs" in wit


def test_malformed_config_exits_three(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"scenarios": []}')  # missing version
    assert _run(["run", str(p), "--out", str(tmp_path)]).exit_code == 3
    p.write_text("{not json")
    assert _run(["run", str(p), "--out", str(tmp_path)]).exit_code == 3


def test_unknown_keys_rejected(tmp_path):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0, "bogus": 1})
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, cfg))
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    cfg["scenarios"][0]["surprise"] = True
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, cfg))


def test_schemas_are_valid_draft_2020_12():
    Draft202012Validator.check_schema(CONFIG_SCHEMA)
    for props in CHECK_PARAM_SCHEMAS.values():
        Draft202012Validator.check_schema({"type": "object", "properties": props})


@pytest.mark.parametrize("size_range", [[0.1], [0.3, 0.05], [0.0, 0.1]])
def test_bad_size_range_exits_three(tmp_path, size_range):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    cfg["scenarios"][0]["sampler"]["size_range"] = size_range
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert "size_range" in res.output


def test_k_threshold_failing_lower_endpoint_is_an_error_row(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 1.0, "n": 1},
        "sampler": {"seed": 2, "count": 10, "interior_points": 4,
                    "size_range": [0.05, 0.3]},
        "checks": [
            {"check": "psh", "id": "psh", "params": {"K": 1.0, "p": [[0.1, 0.05]]}},
            {"check": "k-threshold", "id": "thr",
             "params": {"p": [[0.1, 0.05]], "lo": 1.5, "hi": 2.0}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    rows = _read_csv(tmp_path / "o" / "results.csv")
    assert [(r["check_id"], r["verdict"]) for r in rows] \
        == [("psh", "PASS"), ("thr", "ERROR")]


# T[0, 1, 0] = 1/2, antisymmetric in the last two slots (acceptance 06)
_TORSION = {"kind": "torsion", "T": [[[0.0, -0.5], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}


@pytest.mark.parametrize("space, check, outcome", [
    (_TORSION, {"check": "comparison-scan", "params": {"K": 0.0, "count": 1}}, "row"),
    (_TORSION, {"check": "torsion-disk", "params": {"a": [1, 1], "b": [30, 0]}}, "ERROR"),
    (_TORSION, {"check": "psh", "params": {"K": 0.0}}, "ERROR"),
    ({"kind": "quotient"}, {"check": "psh", "params": {"K": 0.0}}, "ERROR"),
    ({"kind": "cone", "alpha": 0.5}, {"check": "min-bk-defect", "params": {"K": 0.0}}, "row"),
    ({"kind": "cone", "alpha": 0.5}, {"check": "annulus", "params": {"K": 0.0}}, "row"),
    ({"kind": "cone", "alpha": 1.5}, {"check": "psh", "params": {"K": 0.0}}, 3),
    ({"kind": "quotient", "delta": -1}, {"check": "quotient-bk2"}, 3),
], ids=["torsion-scan", "torsion-disk-off-chart", "torsion-psh", "quotient-psh",
        "cone-min-bk-defect", "cone-annulus", "cone-alpha", "quotient-delta"])
def test_any_space_gives_a_row_or_a_config_error(tmp_path, space, check, outcome):
    cfg = _minimal_cfg(check="psh", id="ok", params={"K": 0.0})
    cfg["scenarios"].append({"id": "t", "space": space,
                             "sampler": {"seed": 1, "count": 8, "interior_points": 4},
                             "checks": [dict(check, id="t")]})
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    if outcome == 3:
        assert res.exit_code == 3 and "config error" in res.output
        return
    rows = {r["check_id"]: r["verdict"]
            for r in _read_csv(tmp_path / "o" / "results.csv")}
    assert rows["ok"] == "PASS" and "t" in rows
    if outcome == "ERROR":
        assert rows["t"] == "ERROR" and res.exit_code == 2


@pytest.mark.parametrize("check", [
    {"check": "k-threshold", "params": {"resolution": 0}},
    {"check": "comparison-scan", "params": {"K": 0.0, "count": 0}},
    {"check": "domain-compare", "params": {"p": [-1, 0], "q": [1, 0], "count": 0}},
    {"check": "domain-compare", "params": {"p": [-1, 0], "q": [1, 0], "eps": 0}},
    {"check": "annulus", "params": {"K": 0.0, "eps_list": [0.05, 0]}},
], ids=["resolution", "scan-count", "domain-count", "domain-eps", "annulus-eps"])
def test_out_of_range_params_exit_three(tmp_path, check):
    res = _run(["run", _write(tmp_path, _minimal_cfg(**check)), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output


def test_scan_count_keeps_the_scenario_sampler(tmp_path, monkeypatch):
    scanned = []

    def spy(*args, **kwargs):
        out = sample_disks(*args, **kwargs)
        scanned.extend(out)
        return out

    sample_disks = disks.sample_disks
    monkeypatch.setattr(disks, "sample_disks", spy)
    cfg = _minimal_cfg(check="comparison-scan", params={"K": 0.0, "count": 10})
    cfg["scenarios"][0]["sampler"]["degree2_fraction"] = 0.0
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    assert len(scanned) == 10 and all(d.degree == 1 for d in scanned)


def test_k_threshold_default_point_fits_the_dimension(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 1.0, "n": 1},
        "sampler": {"seed": 2, "count": 10, "interior_points": 4,
                    "size_range": [0.05, 0.3]},
        "checks": [{"check": "k-threshold",
                    "params": {"lo": 0.5, "hi": 2.0, "expected": 1.0, "band": 1e-3}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    rows = _read_csv(tmp_path / "o" / "results.csv")
    assert [r["verdict"] for r in rows] == ["PASS"]


def test_unexpected_verdict_exits_one(tmp_path):
    cfg = _minimal_cfg(check="psh", expect="FAIL", params={"K": 0.0})
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 1


def test_csv_determinism_excluding_wall_ms(tmp_path):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    path = _write(tmp_path, cfg)
    for sub in ("a", "b"):
        assert _run(["run", path, "--out", str(tmp_path / sub)]).exit_code == 0

    def stripped(p):
        rows = _read_csv(p, csv.reader)
        return [r[:-1] for r in rows]

    assert stripped(tmp_path / "a" / "results.csv") \
        == stripped(tmp_path / "b" / "results.csv")


def test_jobs_do_not_change_the_reports(tmp_path):
    cfg = load_config(str(bundled_scenario_path("models.json")))
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs-{jobs}"
        assert execute(cfg, out, None, jobs, None) == 0
        rows = [r[:-1] for r in _read_csv(out / "results.csv", csv.reader)]
        summary = json.loads((out / "summary.json").read_text())
        for r in summary["rows"]:
            del r["wall_ms"]
        reports.append((rows, summary))
    assert reports[0] == reports[1]


def test_seed_override_changes_rows(tmp_path):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    path = _write(tmp_path, cfg)
    _run(["run", path, "--out", str(tmp_path / "a"), "--seed", "99"])
    rows = _read_csv(tmp_path / "a" / "results.csv")
    assert rows[0]["seed"] == "99"


def test_csv_columns_fixed(tmp_path):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    header = _read_csv(tmp_path / "o" / "results.csv", csv.reader)[0]
    assert header == CSV_COLUMNS


def test_scan_and_threshold_filters(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 1.0, "n": 1},
        "sampler": {"seed": 2, "count": 10, "interior_points": 4,
                    "size_range": [0.05, 0.3]},
        "checks": [
            {"check": "psh", "params": {"K": 1.0, "p": [[0.1, 0.05]]}},
            {"check": "k-threshold",
             "params": {"p": [[0.1, 0.05]], "lo": 0.5, "hi": 2.0,
                        "expected": 1.0, "band": 1e-3}}]}]}
    path = _write(tmp_path, cfg)
    res = _run(["threshold", path, "--out", str(tmp_path / "t")])
    assert res.exit_code == 0
    rows = _read_csv(tmp_path / "t" / "results.csv")
    assert len(rows) == 1 and rows[0]["check_id"].startswith("k-threshold")
    res = _run(["scan", path, "--out", str(tmp_path / "s")])
    rows = _read_csv(tmp_path / "s" / "results.csv")
    assert res.exit_code == 0 and rows == []


def test_plotdata_emits_columnar_files(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "v", "space": {"kind": "model", "K": 0.0, "n": 2},
        "checks": [{"check": "violation-study",
                    "params": {"K": 1.0, "eps2_list": [0.05, 0.025]}}]}]}
    out = tmp_path / "o"
    _run(["run", _write(tmp_path, cfg), "--out", str(out)])
    assert _run(["plotdata", str(out)]).exit_code == 0
    curves = _read_csv(out / "ratio_curves.csv")
    assert len(curves) == 2
    assert float(curves[0]["ratio"]) == pytest.approx(1.0, abs=0.2)


def test_plotdata_empty_dir_writes_headers(tmp_path):
    assert _run(["plotdata", str(tmp_path)]).exit_code == 0
    for name in ("ratio_curves.csv", "threshold_trace.csv", "defect_hist.csv"):
        lines = (tmp_path / name).read_text().strip().splitlines()
        assert len(lines) == 1


def test_scan_disks_flat_zero_is_clean():
    space = ModelSpace(K=0.0, n=2)
    res = scan_disks(space, np.array([0.1, 0.0]), 0.0,
                     DiskSampler(seed=0, count=10, size_range=(0.02, 0.25)))
    assert res.report.defect >= -1e-6
    assert not res.directed


def test_scan_disks_flat_half_finds_violation():
    space = ModelSpace(K=0.0, n=2)
    res = scan_disks(space, np.zeros(2, dtype=complex), 0.5,
                     DiskSampler(seed=0, count=10, size_range=(0.02, 0.25)))
    assert res.directed
    assert res.report.defect < -1e-6


def test_scan_disks_negative_model_is_clean():
    space = ModelSpace(K=-1.0, n=2)
    res = scan_disks(space, np.array([0.05, 0.0]), -1.0,
                     DiskSampler(seed=0, count=10, size_range=(0.02, 0.25),
                                 center_radius=0.2))
    assert res.report.defect >= -5e-3


def test_domain_compare_drops_candidates_that_cover_an_obstacle(tmp_path, monkeypatch):
    # a small rect inside the fixed candidate affine(q, eps), off its centre
    # and clear of its boundary; one seeded candidate has its centre in it
    cfg = {"version": 1, "scenarios": [{
        "id": "pinhole",
        "space": {"kind": "domain", "radius": 2.0,
                  "obstacles": [{"type": "rect", "center": [1.08, 0.0],
                                 "half_widths": [0.02, 0.02]}]},
        "sampler": {"seed": 1},
        "checks": [{"check": "domain-compare",
                    "params": {"p": [-1.0, 0.0], "q": [1.0, 0.0], "eps": 0.15,
                               "count": 10}}]}]}
    scanned = []

    def spy(metric, p, K, distance, candidates, **kw):
        scanned.extend(candidates)
        return worst_defect(metric, p, K, distance, candidates, **kw)

    worst_defect = cli.worst_defect
    monkeypatch.setattr(cli, "worst_defect", spy)
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    rows = _read_csv(tmp_path / "o" / "results.csv")
    assert rows[0]["verdict"] == "PASS"
    assert 0 < len(scanned) < 10
    for d in scanned:
        c, r = d.coeffs[0, 0], abs(d.coeffs[1, 0])
        gap = np.maximum(np.abs([c.real - 1.08, c.imag]) - 0.02, 0.0)
        assert np.linalg.norm(gap) > r
    assert not any(d.coeffs[0, 0] == 1.0 for d in scanned)


def test_domain_compare_with_q_in_an_obstacle_is_an_error_row(tmp_path, caplog):
    cfg = {"version": 1, "scenarios": [{
        "id": "blocked",
        "space": {"kind": "domain", "radius": 2.0,
                  "obstacles": [{"type": "rect", "center": [1.0, 0.0],
                                 "half_widths": [0.1, 0.1]}]},
        "checks": [{"check": "domain-compare",
                    "params": {"p": [-1.0, 0.0], "q": [1.0, 0.0]}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    rows = _read_csv(tmp_path / "o" / "results.csv")
    assert [r["verdict"] for r in rows] == ["ERROR"]
    wit = json.loads((tmp_path / "o" / rows[0]["witness_ref"]).read_text())
    assert wit["error"] == "endpoints must lie in the open domain"
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and not errors[0].exc_info
    assert "Traceback" not in caplog.text + res.output


def test_annulus_row_reports_the_change_under_the_doubled_rule(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "a", "space": {"kind": "model", "K": 1.0, "n": 2},
        "sampler": {"seed": 3, "count": 4},
        "checks": [{"check": "annulus", "params": {"K": 1.0, "p": [[0.05, 0.02], [0, 0]]}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    row = _read_csv(tmp_path / "o" / "results.csv")[0]
    space = ModelSpace(K=1.0, n=2)
    p = np.array([0.05 + 0.02j, 0.0])
    sampler = DiskSampler(seed=3, count=4)
    vals = [(disks.annulus_defect(space.metric(), d, p, 1.0, eps,
                                  distance=space.distance_field(p)), d, eps)
            for d in disks.sample_disks(space.chart, p, sampler, np.random.default_rng(3))
            for eps in (0.05, 0.02)]
    worst, d, eps = min(vals, key=lambda v: v[0])
    doubled = disks.annulus_defect(space.metric(), d, p, 1.0, eps,
                                   distance=space.distance_field(p),
                                   grid=disks.QuadratureGrid().doubled())
    assert float(row["value"]) == worst
    assert float(row["error_est"]) == abs(doubled - worst) < 1e-12


def test_each_row_is_logged_before_the_next_check_runs(monkeypatch, caplog):
    logged_before_second = []

    def first(space, params, sampler, tol):
        return dict(verdict="PASS", value=0.0, error_est=0.0)

    def second(space, params, sampler, tol):
        logged_before_second.extend(r.getMessage() for r in caplog.records)
        return dict(verdict="PASS", value=0.0, error_est=0.0)

    monkeypatch.setitem(cli.CHECK_RUNNERS, "curvature-match", first)
    monkeypatch.setitem(cli.CHECK_RUNNERS, "min-bk-defect", second)
    scenario = _minimal_cfg(check="curvature-match", id="one")["scenarios"][0]
    scenario["checks"].append({"check": "min-bk-defect", "id": "two"})
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        rows = cli.run_scenario(scenario, None, None)
    assert [r["check_id"] for r in rows] == ["one", "two"]
    assert logged_before_second == ["s/one: PASS (expected PASS) value=0 [ok]"]
    assert caplog.messages[-1] == "s/two: PASS (expected PASS) value=0 [ok]"
