import contextlib
import csv
import inspect
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from kahlerlab import cli, disks
from kahlerlab.cli import (CHECKS, CONFIG_SCHEMA, CSV_COLUMNS, bundled_scenario_path,
                           execute, load_config, main)
from kahlerlab.curvature import TangentPair, curvature_tensor
from kahlerlab.disks import scan_disks
from kahlerlab.errors import ConfigError, KahlerLabError
from kahlerlab.fields import ScalarField
from kahlerlab.models import ModelSpace
from kahlerlab.psh import DiskSampler, PshVerdict


def _read_csv(path, reader=csv.DictReader) -> list:
    with open(path, newline="") as f:
        return list(reader(f))


def _run(args):
    """``main(args)`` in process: its exit code, its stdout and stderr together,
    and its exception: None on exit 0, the SystemExit of any other exit, and
    any other exception, with exit code 1."""
    output, exit_code, exception = io.StringIO(), 0, None
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(args)
        except SystemExit as e:
            exit_code = e.code if isinstance(e.code, int) else int(e.code is not None)
            exception = e if exit_code else None
        except Exception as e:
            exit_code, exception = 1, e
    return SimpleNamespace(exit_code=exit_code, output=output.getvalue(), exception=exception)


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
    est = {r["check_id"]: float(r["error_est"])
           for r in rows if r["scenario_id"] == "model-positive"}
    assert 0.0 < est["curvature-match-0"] < 1e-10
    assert 0.0 < est["min-bk-defect-1"] < 1e-10


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


@pytest.mark.parametrize("config", ["directory", "utf-16"])
def test_an_unreadable_config_exits_three(tmp_path, config):
    path = tmp_path / config
    if config == "directory":
        path.mkdir()
    else:
        path.write_bytes(json.dumps(_minimal_cfg(check="psh")).encode("utf-16"))  # \xff\xfe...
    res = _run(["run", str(path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("config error: ") and res.output.count("\n") == 1
    assert str(path) in res.output and not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["file", "file/below"])
def test_an_out_that_cannot_be_a_directory_exits_three(tmp_path, monkeypatch, out):
    ran = []
    monkeypatch.setitem(CHECKS, "psh", replace(CHECKS["psh"], run=lambda *a: ran.append(a)))
    (tmp_path / "file").write_text("kept")
    cfg = _write(tmp_path, _minimal_cfg(check="psh", params={"K": 0.0}))
    res = _run(["run", cfg, "--out", str(tmp_path / out)])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("config error: --out ") and res.output.count("\n") == 1
    assert ran == [] and (tmp_path / "file").read_text() == "kept"


def test_a_witness_path_that_is_a_file_exits_three_before_any_check(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setitem(CHECKS, "psh", replace(CHECKS["psh"], run=lambda *a: ran.append(a)))
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "witness").write_text("kept")
    cfg = _write(tmp_path, _minimal_cfg(check="psh", params={"K": 0.0}))
    res = _run(["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("config error: --out ") and res.output.count("\n") == 1
    assert "witness" in res.output and ran == []
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["witness"]
    assert (tmp_path / "o" / "witness").read_text() == "kept"


@pytest.mark.parametrize("taken", ["results.csv", "summary.json", "witness/s-psh.json"])
def test_a_report_that_cannot_be_written_exits_three(tmp_path, monkeypatch, taken):
    ran = []

    def run(*a):
        ran.append(a)
        return dict(verdict="FAIL", value=-1.0, error_est=0.0, witness={"value": -1.0})

    monkeypatch.setitem(CHECKS, "psh", replace(CHECKS["psh"], run=run))
    (tmp_path / "o" / taken).mkdir(parents=True)          # a directory where a report goes
    cfg = _write(tmp_path, _minimal_cfg(check="psh", id="psh", params={"K": 0.0}))
    res = _run(["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("config error: --out ") and res.output.count("\n") == 1
    assert "cannot write the reports" in res.output and taken in res.output
    assert len(ran) == 1


@pytest.mark.parametrize("level", ["verbose", "10"])
def test_an_unknown_log_level_exits_three(tmp_path, monkeypatch, level):
    monkeypatch.setenv("LAB_LOG", level)
    cfg = _write(tmp_path, _minimal_cfg(check="psh", params={"K": 0.0}))
    res = _run(["run", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("config error: LAB_LOG") and res.output.count("\n") == 1
    assert all(name in res.output for name in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    assert not (tmp_path / "o").exists()


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
    for check in CHECKS.values():
        Draft202012Validator.check_schema(check.params)


@pytest.mark.parametrize("size_range", [[0.1], [0.3, 0.05], [0.0, 0.1]])
def test_bad_size_range_exits_three(tmp_path, size_range):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    cfg["scenarios"][0]["sampler"]["size_range"] = size_range
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert "size_range" in res.output


@pytest.mark.parametrize("key, value", [("degree2_fraction", 5), ("degree2_fraction", -1),
                                        ("center_radius", -2), ("seed", -1)])
def test_out_of_range_sampler_exits_three(tmp_path, key, value):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    cfg["scenarios"][0]["sampler"][key] = value
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert key in res.output and not (tmp_path / "o" / "results.csv").exists()


def test_psh_without_an_admissible_disk_is_an_error_row(tmp_path):
    # every disk of size 1.2 to 1.4 leaves the unit chart
    cfg = {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": -1.0, "n": 1},
        "sampler": {"seed": 0, "count": 20, "size_range": [1.2, 1.4]},
        "checks": [{"check": "psh", "id": "psh", "params": {"K": 3.0}},
                   {"check": "k-threshold", "id": "thr", "params": {"lo": -1.5, "hi": 1.0}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    rows = _read_csv(tmp_path / "o" / "results.csv")
    assert [(r["check_id"], r["verdict"]) for r in rows] == [("psh", "ERROR"), ("thr", "ERROR")]
    for r in rows:
        wit = json.loads((tmp_path / "o" / r["witness_ref"]).read_text())
        assert wit["error"] == "no admissible disk among 20 requested"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_lower_bound_is_an_error_row(tmp_path, monkeypatch, value):
    # the row of a lower-bound check: min-bk-defect, comparison-scan, annulus
    monkeypatch.setattr(cli, "min_bk_defect",
                        lambda *a, **k: (value, SimpleNamespace(X=np.ones(2), Y=np.ones(2)), 0.0))
    with pytest.raises(KahlerLabError, match="non-finite value"):
        cli._lower_bound_row(value, 0.0, 1e-6, {})
    cfg = {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 1.0, "n": 2},
        "checks": [{"check": "min-bk-defect", "id": "bk", "params": {"K": 1.0}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    [row] = _read_csv(tmp_path / "o" / "results.csv")
    assert row["verdict"] == "ERROR"
    assert json.loads((tmp_path / "o" / row["witness_ref"]).read_text()) \
        == {"seed": 0, "error": "non-finite value"}


def test_a_non_finite_psh_verdict_is_an_error_row(tmp_path, monkeypatch):
    # check_bk_lower on a NaN potential raises, and so does the row of a NaN verdict
    nan_potential = ScalarField(lambda zs: np.full(len(zs), np.nan), n=1)
    check_bk_lower = cli.check_bk_lower
    with pytest.raises(KahlerLabError, match="non-finite value"):
        check_bk_lower(ModelSpace(K=0.0, n=1), nan_potential, [0.0], 0.0,
                       sampler=DiskSampler(count=4, interior_points=2))
    v = PshVerdict(min_laplacian=math.nan, verdict="FAIL", tol=1e-6, samples=8, seed=0)
    with pytest.raises(KahlerLabError, match="non-finite value"):
        cli._psh_row(v)
    monkeypatch.setattr(cli, "check_bk_lower",
                        lambda space, potential, *a, **k: check_bk_lower(
                            space, nan_potential, *a, **k))
    cfg = {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 0.0, "n": 1},
        "sampler": {"seed": 2, "count": 4, "interior_points": 2},
        "checks": [{"check": "psh", "id": "psh", "params": {"K": 0.0}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    [row] = _read_csv(tmp_path / "o" / "results.csv")
    assert (row["verdict"], row["value"]) == ("ERROR", "nan")
    assert json.loads((tmp_path / "o" / row["witness_ref"]).read_text()) \
        == {"seed": 2, "error": "non-finite value"}


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
_MODEL2 = {"kind": "model", "K": 0.0, "n": 2}
_SHORT = (3, "point has dimension 1, expected 2")


@pytest.mark.parametrize("space, check, outcome", [
    (_TORSION, {"check": "comparison-scan", "params": {"K": 0.0, "count": 1}}, "row"),
    (_TORSION, {"check": "torsion-disk", "params": {"a": [1, 1], "b": [30, 0]}},
     ("ERROR", "disk image leaves the chart")),
    (_TORSION, {"check": "psh", "params": {"K": 0.0}}, "ERROR"),
    ({"kind": "quotient"}, {"check": "psh", "params": {"K": 0.0}}, "ERROR"),
    # the default base point is the apex: no curvature there, and u = 0 on every disk
    ({"kind": "cone", "alpha": 0.5}, {"check": "min-bk-defect", "params": {"K": 0.0}},
     ("ERROR", "singular point")),
    ({"kind": "cone", "alpha": 0.5}, {"check": "annulus", "params": {"K": 0.0}}, "PASS"),
    ({"kind": "cone", "alpha": 1.5}, {"check": "psh", "params": {"K": 0.0}},
     (3, "cone exponent must be < 1")),
    ({"kind": "quotient", "delta": -1}, {"check": "quotient-bk2"}, 3),
    ({"kind": "quotient", "delta": 0.5}, {"check": "quotient-bk2"}, 3),
    # a key that the space kind does not read
    ({"kind": "cone", "alpha": 0.5, "n": 3}, {"check": "psh", "params": {"K": 0.0}},
     (3, "'n' was unexpected")),
    ({"kind": "model", "K": 0.0, "n": 2, "alpha": 0.5}, {"check": "psh", "params": {"K": 0.0}},
     (3, "'alpha' was unexpected")),
    ({"kind": "quotient", "T": [1]}, {"check": "quotient-bk2"}, (3, "'T' was unexpected")),
    ({"kind": "torsion", "T": [[[1]]]},
     {"check": "torsion-disk", "params": {"a": [1], "b": [1]}},
     (3, "torsion tensor must be (n, n, n)")),
    # a T that is not a nested numeric array fails the schema, not the builder
    ({"kind": "torsion", "T": [{}]}, {"check": "torsion-disk", "params": {"a": [1], "b": [1]}},
     (3, "at scenarios/1/space/T/0: {} is not of type 'array'")),
    ({"kind": "torsion", "T": [[["x"]]]},
     {"check": "torsion-disk", "params": {"a": [1], "b": [1]}},
     (3, "'x' is not of type 'number'")),
    # a point whose dimension is not the space's
    (_MODEL2, {"check": "psh", "params": {"K": 0.0, "p": [0.1]}}, _SHORT),
    (_MODEL2, {"check": "psh", "params": {"K": 0.0, "center": [0.1]}}, _SHORT),
    (_MODEL2, {"check": "min-bk-defect", "params": {"K": 0.0, "z": [0.1]}}, _SHORT),
    (_MODEL2, {"check": "comparison-scan", "params": {"K": 0.0, "p": [0.1]}}, _SHORT),
    (_MODEL2, {"check": "annulus", "params": {"K": 0.0, "p": [0.1]}}, _SHORT),
    (_MODEL2, {"check": "k-threshold", "params": {"p": [0.1]}}, _SHORT),
    (_MODEL2, {"check": "psh-set", "params": {"K": 0.0, "S": [[0, 0], [0.1]]}}, _SHORT),
    (_MODEL2, {"check": "psh-set", "params": {"K": 0.0, "line": {"a": [0], "v": [1, 0]}}},
     _SHORT),
    (_MODEL2, {"check": "psh-set", "params": {"K": 0.0, "line": {"a": [0, 0], "v": [1]}}},
     _SHORT),
    (_TORSION, {"check": "torsion-disk", "params": {"a": [1], "b": [1, 0]}}, _SHORT),
    (_TORSION, {"check": "torsion-disk", "params": {"a": [1, 1], "b": [1]}}, _SHORT),
    # a check that does not run on the space is still an ERROR row, whatever its point
    (_TORSION, {"check": "psh", "params": {"K": 0.0, "p": [0.1]}}, "ERROR"),
    ({"kind": "domain", "radius": 2.0},
     {"check": "domain-compare", "params": {"p": [-1, 0], "q": [1.95, 0]}},
     ("ERROR", "disk image leaves the chart")),
    # a disk that the check builds itself and the chart rejects
    ({"kind": "model", "K": -1.0, "n": 2},
     {"check": "violation-study", "params": {"K": -1.0, "eps2_list": [0.9, 0.5]}},
     ("ERROR", "disk image leaves the chart")),
    ({"kind": "model", "K": 0.0, "n": 2},
     {"check": "comparison-scan", "params": {"K": 1.0, "p": [1.4, 0]}},
     ("ERROR", "disk image leaves the chart")),
], ids=["torsion-scan", "torsion-disk-off-chart", "torsion-psh", "quotient-psh",
        "cone-min-bk-defect", "cone-annulus", "cone-alpha", "quotient-delta",
        "quotient-non-round", "cone-n", "model-alpha", "quotient-T", "torsion-T",
        "torsion-T-object", "torsion-T-string",
        "psh-p", "psh-center", "min-bk-defect-z", "scan-p", "annulus-p", "k-threshold-p",
        "psh-set-S", "psh-set-line-a", "psh-set-line-v", "torsion-disk-a", "torsion-disk-b",
        "torsion-psh-p", "domain-compare-fixed-disk-off-chart",
        "violation-study-disk-off-chart", "scan-directed-disk-off-chart"])
def test_any_space_gives_a_row_or_a_config_error(tmp_path, caplog, space, check, outcome):
    cfg = _minimal_cfg(check="psh", id="ok", params={"K": 0.0})
    cfg["scenarios"].append({"id": "t", "space": space,
                             "sampler": {"seed": 1, "count": 8, "interior_points": 4},
                             "checks": [dict(check, id="t")]})
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert not any(r.exc_info for r in caplog.records)
    verdict, message = outcome if isinstance(outcome, tuple) else (outcome, "")
    if verdict == 3:
        # found at load, before any check runs
        assert res.exit_code == 3 and "config error" in res.output and message in res.output
        assert not (tmp_path / "o").exists()
        return
    rows = {r["check_id"]: r["verdict"]
            for r in _read_csv(tmp_path / "o" / "results.csv")}
    assert rows["ok"] == "PASS" and "t" in rows
    if outcome == "row":
        return
    assert rows["t"] == verdict
    if verdict == "ERROR":
        [row] = [r for r in json.loads((tmp_path / "o" / "summary.json").read_text())["rows"]
                 if r["check_id"] == "t"]
        assert res.exit_code == 2 and message in row["witness"]["error"]


_SPACES = {"model": {"kind": "model", "K": 1.0, "n": 2},
           "cone": {"kind": "cone", "alpha": 0.5},
           "orbifold": {"kind": "orbifold", "k": 3},
           "quotient": {"kind": "quotient"},
           "torsion": _TORSION,
           "domain": {"kind": "domain", "radius": 2.0}}

_SMALL_PARAMS = {
    "curvature-match": {"points": 2},
    "min-bk-defect": {"K": 0.0, "samples": 50},
    "comparison-scan": {"K": 0.0, "count": 1},
    "violation-study": {"K": 1.0},
    "annulus": {"K": 0.0, "eps_list": [0.05]},
    "psh": {"K": 0.0},
    "psh-set": {"K": 0.0, "S": [[0.1]]},      # padded with zeros to the space's dimension
    "radial-potential": {},
    "quotient-bk2": {},
    "k-threshold": {"lo": -0.5, "hi": 0.5, "resolution": 0.5},
    "torsion-disk": {"a": [1, 1], "b": [1, 0]},
    "domain-compare": {"p": [-1, 0], "q": [1, 0], "count": 1},
}


def test_every_space_and_check_gives_a_row_without_a_traceback(tmp_path, caplog):
    assert set(_SMALL_PARAMS) == set(CHECKS)
    scenarios = []
    for kind, spec in _SPACES.items():
        pad = [0.0] * (cli.build_space(spec).chart.n - 1)
        params = dict(_SMALL_PARAMS, **{"psh-set": {"K": 0.0, "S": [[0.1] + pad]}})
        scenarios.append({"id": kind, "space": spec,
                          "sampler": {"seed": 1, "count": 3, "interior_points": 2},
                          "checks": [{"check": check, "params": params[check]}
                                     for check in _SMALL_PARAMS]})
    for sc in load_config(_write(tmp_path, {"version": 1, "scenarios": scenarios})):
        caplog.clear()
        rows = cli.run_scenario(sc, None, None)
        assert not any(r.exc_info for r in caplog.records), sc.id
        assert [r["check"] for r in rows] == list(_SMALL_PARAMS)
        for row in rows:
            if sc.id not in CHECKS[row["check"]].spaces:       # the id is the space kind
                assert row["verdict"] == "ERROR", (sc.id, row["check"])
                assert re.fullmatch(rf"{row['check']} needs an? [a-z, ]+ space",
                                    row["witness"]["error"]), row["witness"]


def test_a_check_that_does_not_run_on_its_space_names_the_kinds_it_runs_on(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "t", "space": _TORSION,
        "checks": [{"check": "psh", "params": {"K": 0.0}},
                   {"check": "radial-potential"}, {"check": "domain-compare",
                                                   "params": {"p": [-1, 0], "q": [1, 0]}}]}]}
    [sc] = load_config(_write(tmp_path, cfg))
    assert [ch.misfit for ch in sc.checks] == [
        "psh needs a model, cone or orbifold space",
        "radial-potential needs a cone or orbifold space",
        "domain-compare needs a domain space"]
    rows = cli.run_scenario(sc, None, None)
    assert [r["witness"]["error"] for r in rows] == [ch.misfit for ch in sc.checks]


def test_a_run_builds_each_space_once(tmp_path, monkeypatch):
    built = []
    kind = cli.SPACES["model"]
    monkeypatch.setitem(cli.SPACES, "model",
                        replace(kind, build=lambda spec: built.append(spec) or kind.build(spec)))
    path = bundled_scenario_path("models.json")
    for jobs in ("1", "2"):
        built.clear()
        res = _run(["run", str(path), "--jobs", jobs, "--out", str(tmp_path / jobs)])
        assert res.exit_code == 0, res.output
        assert built == [sc["space"] for sc in json.loads(path.read_text())["scenarios"]]


def test_a_check_with_a_default_tol_takes_a_tol_param():
    for name, check in CHECKS.items():
        if check.tol is not None:
            assert "tol" in check.params["properties"], name


def test_readme_check_table_matches_the_records():
    # a row is | `name` | kind, kind (note) | tol (note) |, and "—" is no default tol
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = "| Check | Space kinds | Default `tol` |\n| --- | --- | --- |\n"
    assert readme.count(header) == 1
    table = {}
    for line in readme.split(header)[1].split("\n\n")[0].splitlines():
        name, kinds, tol = (re.sub(r"\(.*?\)", "", cell).strip()
                            for cell in line.strip().strip("|").split("|"))
        table[name.strip("`")] = (tuple(k.strip() for k in kinds.split(",")),
                                  None if tol == "—" else float(tol))
    assert table == {name: (check.spaces, check.tol) for name, check in CHECKS.items()}


def test_radial_potential_takes_the_scenario_seed(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "c", "space": {"kind": "cone", "alpha": 0.5},
        "checks": [{"check": "radial-potential"}]}]}
    path = _write(tmp_path, cfg)
    values = []
    for seed in ("1", "5"):
        res = _run(["run", path, "--seed", seed, "--out", str(tmp_path / seed)])
        assert res.exit_code == 0, res.output
        [row] = _read_csv(tmp_path / seed / "results.csv")
        values.append(float(row["value"]))
    assert values[0] != values[1]


@pytest.mark.parametrize("check", [
    {"check": "k-threshold", "params": {"resolution": 0}},
    {"check": "comparison-scan", "params": {"K": 0.0, "count": 0}},
    {"check": "domain-compare", "params": {"p": [-1, 0], "q": [1, 0], "count": 0}},
    {"check": "domain-compare", "params": {"p": [-1, 0], "q": [1, 0], "eps": 0}},
    {"check": "domain-compare", "params": {"p": [-1.2], "q": [1, 0]}},
    {"check": "domain-compare", "params": {"p": [0.5, 0.0], "q": [0.5, 0.0]}},
    {"check": "annulus", "params": {"K": 0.0, "eps_list": [0.05, 0]}},
    {"check": "quotient-bk2", "params": {"zprime": [0.1, 0.2, 0.3]}},
    {"check": "quotient-bk2", "params": {"zprime": [0, 0]}},
    {"check": "quotient-bk2", "params": {"zprime": [[0, 0], [0, 0]]}},
    {"check": "k-threshold", "params": {"lo": 0.5, "hi": 0.4}},
    {"check": "k-threshold", "params": {"hi": 0.4}},
    # params a runner cannot run without
    {"check": "comparison-scan", "params": {}},
    {"check": "min-bk-defect", "params": {"z": [0, 0]}},
    {"check": "violation-study", "params": {}},
    {"check": "annulus", "params": {"p": [0, 0]}},
    {"check": "psh", "params": {"p": [0.1, 0]}},
    {"check": "psh-set", "params": {"S": [[0, 0]]}},
    {"check": "psh-set", "params": {"K": 0.0, "line": {"a": [0, 0]}}},
    {"check": "psh-set", "params": {"K": 0.0, "line": {"v": [1, 0]}}},
    {"check": "psh-set", "params": {"K": 0.0}},
    {"check": "psh-set", "params": {"K": 0.0, "S": [[0, 0]],
                                    "line": {"a": [0, 0], "v": [1, 0]}}},
    {"check": "psh-set", "params": {"K": 0.0, "S": []}},
    {"check": "psh-set", "params": {"K": 0.0, "S": [0, 0]}},
    {"check": "torsion-disk", "params": {"a": [1, 0]}},
    {"check": "domain-compare", "params": {"p": [-1, 0]}},
    # params that would give a vacuous PASS or a traceback
    {"check": "curvature-match", "params": {"points": 0, "tol": 0}},
    {"check": "curvature-match", "params": {"points": -3}},
    {"check": "min-bk-defect", "params": {"K": 0.0, "samples": 0}},
    {"check": "violation-study", "params": {"K": 1.0, "eps2_list": []}},
    {"check": "violation-study", "params": {"K": 1.0, "eps2_list": [1.5]}},
    {"check": "violation-study", "params": {"K": 1.0, "band": [0.8]}},
    {"check": "annulus", "params": {"K": 0.0, "eps_list": []}},
    # a reversed band that no ratio can meet, and a negative crossing count
    {"check": "violation-study", "params": {"K": 1.0, "band": [1.2, 0.8]}},
    {"check": "psh", "params": {"K": 0.0, "crossing": -5}},
], ids=["resolution", "scan-count", "domain-count", "domain-eps", "domain-short-p",
        "domain-p-is-q", "annulus-eps", "quotient-zprime", "quotient-zprime-zero",
        "quotient-zprime-zero-pairs",
        "k-threshold-reversed", "k-threshold-hi-below-default-lo", "scan-no-K", "min-bk-defect-no-K",
        "violation-no-K", "annulus-no-K", "psh-no-K", "psh-set-no-K", "line-no-v",
        "line-no-a", "psh-set-no-set", "psh-set-both", "psh-set-empty-S",
        "psh-set-S-of-numbers", "torsion-no-b", "domain-no-q", "curvature-points-0",
        "curvature-points-negative", "min-bk-defect-samples-0", "violation-empty-eps2",
        "violation-eps2-above-1", "violation-short-band", "annulus-empty-eps",
        "violation-reversed-band", "psh-negative-crossing"])
def test_out_of_range_params_exit_three(tmp_path, check):
    cfg = _minimal_cfg(**check)
    own = {"quotient-bk2": {"kind": "quotient"}, "domain-compare": {"kind": "domain"}}
    if check["check"] in own:       # their params are checked on their own space
        cfg["scenarios"][0]["space"] = own[check["check"]]
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output


def test_negative_seed_option_exits_three(tmp_path):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    res = _run(["run", _write(tmp_path, cfg), "--seed", "-1", "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output and not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_three(tmp_path, jobs):
    cfg = _minimal_cfg(check="psh", params={"K": 0.0})
    res = _run(["run", _write(tmp_path, cfg), "--jobs", jobs, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output and not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, code", [
    (["run", "CFG", "--seed", "abc"], 2),
    (["run", "CFG", "--se", "3"], 2),
    (["run", "CFG", "--verbose"], 2),
    (["run"], 2),
    ([], 2),
    (["--help"], 0),
    (["run", "--help"], 0),
    (["scan", "--help"], 0),
    (["threshold", "--help"], 0),
    (["plotdata", "--help"], 0),
    (["run", "CFG", "--seed", "-1"], 3),
    (["run", "CFG", "--jobs", "0"], 3),
], ids=["seed-not-an-int", "abbreviated-option", "unknown-option", "no-config",
        "no-command", "help", "run-help", "scan-help", "threshold-help", "plotdata-help",
        "negative-seed", "no-jobs"])
def test_the_command_line_surface(tmp_path, args, code):
    # usage errors exit 2, help exits 0, and option values the runner rejects exit 3
    cfg = _write(tmp_path, _minimal_cfg(check="psh", params={"K": 0.0}))
    out = ["--out", str(tmp_path / "o")] if "CFG" in args else []
    res = _run([cfg if a == "CFG" else a for a in args] + out)
    assert res.exit_code == code, res.output
    assert not (tmp_path / "o").exists()
    if code == 0:
        names = {"--help": ("run", "scan", "threshold", "plotdata"), "plotdata": ("DIRECTORY",)}
        expected = names.get(args[0], ("CONFIG", "--seed", "--jobs", "--tol", "--out"))
        assert all(name in res.output for name in expected), res.output


def test_runners_read_only_required_or_tested_params():
    # a runner reads params["key"] only when its schema requires the key,
    # when it tests "key" in params first, or when the key is one of an
    # exactly-one-of group whose other keys it tests
    for name, check in CHECKS.items():
        src = inspect.getsource(check.run)
        schema = check.params
        tested = set(re.findall(r"""["'](\w+)["'] in params""", src))
        safe = set(schema["required"]) | tested
        group = {branch["required"][0] for branch in schema.get("oneOf", ())}
        safe |= {key for key in group if group - {key} <= tested}
        read = set(re.findall(r"""params\[\s*["'](\w+)["']\s*\]""", src))
        assert read <= safe, (name, read - safe)


def test_cli_tol_zero_is_a_tolerance(tmp_path):
    # the sampled minimum here is about -5.2e-9: below 0, above -1e-6
    cfg = {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 1.0, "n": 1},
        "sampler": {"seed": 0, "count": 50},
        "checks": [{"check": "psh", "id": "psh",
                    "params": {"K": 1.0, "p": [[0.1, 0.05]]}}]}]}
    path = _write(tmp_path, cfg)
    verdicts = {}
    for tol in ("0", "1e-6"):
        res = _run(["run", path, "--tol", tol, "--out", str(tmp_path / tol)])
        [row] = _read_csv(tmp_path / tol / "results.csv")
        verdicts[tol] = (row["verdict"], res.exit_code)
        assert -1e-6 < float(row["value"]) < 0.0
    assert verdicts == {"0": ("FAIL", 1), "1e-6": ("PASS", 0)}


@pytest.mark.parametrize("obstacle, message", [
    ({"type": "rect", "center": [0], "half_widths": [0.15, 1.2]}, "is too short"),
    ({"type": "disk", "center": [0, 0], "radius": -0.3}, "less than or equal to the minimum"),
    ({"type": "rect", "center": [0, 0], "half_widths": [0.15, 0]},
     "less than or equal to the minimum"),
    ({"type": "rect", "center": [0, 0]}, "'half_widths' is a required property"),
    ({"type": "disk", "center": [0, 0], "radius": 0.3, "half_widths": [0.1, 0.1]},
     "'half_widths' was unexpected"),
], ids=["short-center", "negative-radius", "zero-half-width", "rect-no-half-widths",
        "disk-with-half-widths"])
def test_malformed_obstacles_exit_three(tmp_path, obstacle, message):
    cfg = {"version": 1, "scenarios": [{
        "id": "d", "space": {"kind": "domain", "radius": 2.0, "obstacles": [obstacle]},
        "checks": [{"check": "domain-compare", "params": {"p": [-1.2, 0], "q": [1, 0]}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "at scenarios/0/space/obstacles/0" in res.output and message in res.output
    assert not (tmp_path / "o").exists()


def _scan_scenario(sid, **check):
    return {"id": sid, "space": {"kind": "model", "K": 0.0, "n": 2},
            "sampler": {"seed": 1, "count": 2},
            "checks": [dict(check="comparison-scan", params={"K": 1.5, "count": 1}, **check)]}


@pytest.mark.parametrize("scenarios, message", [
    ([_scan_scenario("flat", id="scan"), _scan_scenario("flat", id="scan")],
     "at scenarios/1/checks/0: witness name 'flat-scan' is taken"),
    # a default check id counts: the first check is comparison-scan-0
    ([_scan_scenario("a"), _scan_scenario("a-comparison-scan", id="0")],
     "at scenarios/1/checks/0: witness name 'a-comparison-scan-0' is taken"),
    ([_scan_scenario("../escaped", id="scan")], "at scenarios/0/id: '../escaped' does not match"),
    ([_scan_scenario("s", id="sub/scan")], "at scenarios/0/checks/0/id: 'sub/scan' does not match"),
    ([_scan_scenario("s", id="")], "at scenarios/0/checks/0/id: '' does not match"),
], ids=["repeated", "repeated-default-id", "escaping-scenario-id", "check-id-with-slash",
        "empty-check-id"])
def test_ids_that_share_or_escape_a_witness_file_exit_three(tmp_path, scenarios, message):
    path = _write(tmp_path, {"version": 1, "scenarios": scenarios})
    res = _run(["run", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and message in res.output, res.output
    assert not (tmp_path / "o").exists()


def test_scan_count_keeps_the_scenario_sampler(tmp_path, monkeypatch):
    scanned = []

    def spy(*args, **kwargs):
        out = sample_disk_stack(*args, **kwargs)
        scanned.extend(out)
        return out

    sample_disk_stack = disks.sample_disk_stack
    monkeypatch.setattr(disks, "sample_disk_stack", spy)
    cfg = _minimal_cfg(check="comparison-scan", params={"K": 0.0, "count": 10})
    cfg["scenarios"][0]["sampler"]["degree2_fraction"] = 0.0
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    assert len(scanned) == 10 and all(len(disks.disk_coeffs(c)) == 2 for c in scanned)


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


def test_psh_set_across_a_bisector_passes(tmp_path):
    # u = max_j (Re<z, p_j> - |p_j|^2 / 2) is psh; under seed 5 a stencil point
    # lies 1.3e-4 from the bisector of S, and Richardson's step once read -12.5 there
    cfg = {"version": 1, "scenarios": [{
        "id": "flat", "space": {"kind": "model", "K": 0, "n": 1},
        "checks": [{"check": "psh-set", "params": {"K": 0, "S": [[0.15], [[-0.15, 0.05]]]}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--seed", "5", "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    [row] = _read_csv(tmp_path / "o" / "results.csv")
    assert row["verdict"] == "PASS" and row["seed"] == "5"


def test_unexpected_verdict_exits_one(tmp_path):
    cfg = _minimal_cfg(check="psh", expect="FAIL", params={"K": 0.0})
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 1


def _integer_spellings(number):
    """A config with ``number`` at every integer position: the model's n,
    the sampler's seed, count and interior_points, and the counts of
    curvature-match, min-bk-defect, comparison-scan and psh."""
    return {"version": 1, "scenarios": [{
        "id": "s", "space": {"kind": "model", "K": 1.0, "n": number(2)},
        "sampler": {"seed": number(1), "count": number(4), "interior_points": number(3)},
        "checks": [
            {"check": "curvature-match", "params": {"points": number(3)}},
            {"check": "min-bk-defect", "params": {"K": 1.0, "samples": number(10)}},
            {"check": "comparison-scan", "params": {"K": 1.0, "count": number(3)}},
            {"check": "psh", "params": {"K": 1.0, "crossing": number(1)}}]},
        {"id": "o", "space": {"kind": "orbifold", "k": number(3)},
         "sampler": {"count": number(4)},
         "checks": [{"check": "radial-potential"}]}]}


def test_an_integral_float_at_an_integer_position_reads_as_its_int(tmp_path):
    reports = []
    for number in (int, float):
        out = tmp_path / number.__name__
        res = _run(["run", _write(tmp_path, _integer_spellings(number)), "--out", str(out)])
        assert res.exit_code == 0, res.output
        reports.append([r[:-1] for r in _read_csv(out / "results.csv", csv.reader)])
    assert reports[0] == reports[1]
    assert [r[2] for r in reports[0][1:]] == ["PASS"] * 5


@pytest.mark.parametrize("scenario, key", [(0, "space"), (0, "sampler"), (1, "space")])
def test_a_fractional_float_at_an_integer_position_exits_three(tmp_path, scenario, key):
    cfg = _integer_spellings(int)
    part = cfg["scenarios"][scenario][key]
    name = next(k for k, v in part.items() if isinstance(v, int) and k != "seed")
    part[name] = 2.5
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output and "2.5 is not of type 'integer'" in res.output
    assert not (tmp_path / "o").exists()


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


def test_plotdata_missing_directory_exits_three(tmp_path):
    res = _run(["plotdata", str(tmp_path / "none")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output and "not a directory" in res.output


@pytest.mark.parametrize("summary", [b"{not json", b"\xff\xfe", b"[]"],
                         ids=["bad-json", "bad-utf8", "not-an-object"])
def test_plotdata_unreadable_summary_exits_three(tmp_path, summary):
    (tmp_path / "summary.json").write_bytes(summary)
    res = _run(["plotdata", str(tmp_path)])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output and "summary.json" in res.output


@pytest.mark.parametrize("row", [
    {"check": "violation-study", "scenario_id": "s", "check_id": "c", "witness": {"x": 1}},
    {"check": "k-threshold", "scenario_id": "s", "check_id": "c", "extra": {"x": 1}},
    {"check": "annulus", "scenario_id": "s", "check_id": "c"},
    ["not", "a", "row"]], ids=["violation-study-no-curve", "k-threshold-no-trace",
                               "annulus-no-value", "not-an-object"])
def test_plotdata_row_of_another_shape_exits_three(tmp_path, row):
    (tmp_path / "summary.json").write_text(json.dumps({"rows": [{}, row]}))
    res = _run(["plotdata", str(tmp_path)])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert "config error" in res.output and "rows/1" in res.output
    assert len(res.output.strip().splitlines()) == 1
    assert not (tmp_path / "ratio_curves.csv").exists()


def test_plotdata_skips_error_rows(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "c", "space": {"kind": "cone", "alpha": 0.5},
        "checks": [{"check": "violation-study", "params": {"K": 1.0, "eps2_list": [0.05]}}]}]}
    out = tmp_path / "o"
    assert _run(["run", _write(tmp_path, cfg), "--out", str(out)]).exit_code == 2
    assert _run(["plotdata", str(out)]).exit_code == 0
    assert _read_csv(out / "ratio_curves.csv") == []


def test_plotdata_histogram_skips_error_rows(tmp_path):
    # an annulus check does not run on a torsion space: an ERROR row with value nan
    cfg = _minimal_cfg(check="annulus", id="a", params={"K": 0.0, "eps_list": [0.05]})
    cfg["scenarios"].append({"id": "t", "space": _TORSION,
                             "checks": [{"check": "annulus", "id": "a", "params": {"K": 0.0}}]})
    out = tmp_path / "o"
    assert _run(["run", _write(tmp_path, cfg), "--out", str(out)]).exit_code == 2
    assert _run(["plotdata", str(out)]).exit_code == 0
    assert [r["scenario_id"] for r in _read_csv(out / "defect_hist.csv")] == ["s"]


@pytest.mark.parametrize("space_K, K", [(0.0, 1.0), (1.0, 2.0), (-1.0, 0.5)])
def test_violation_study_stack_has_the_bits_of_one_disk_at_a_time(space_K, K):
    space = ModelSpace(K=space_K, n=2)
    params = {"K": K, "eps2_list": [0.05, 0.025, 0.0125]}
    row = CHECKS["violation-study"].run(space, params, DiskSampler(), 1e-6)
    metric, p = space.metric(), np.zeros(2, dtype=complex)
    pair = TangentPair(X=np.array([1.0, 0.0]), Y=np.array([0.0, 1.0]),
                       G=curvature_tensor(metric, p).G)
    curve = row["witness"]["curve"]
    assert [c["eps2"] for c in curve] == params["eps2_list"]
    for c in curve:
        disk = disks.violation_disk(metric, p, pair, c["eps1"], c["eps2"])
        rep = disks.comparison_defect(metric, disk, p, K, distance=space.distance_field(p))
        assert (c["defect"], c["error_est"]) == (rep.defect, rep.error_estimate)
        assert c["ratio"] == rep.defect / c["predicted"]
    assert row["value"] == curve[-1]["ratio"]
    assert row["error_est"] == max(c["error_est"] / abs(c["predicted"]) for c in curve)


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


@pytest.mark.parametrize("p", [[0.0, 0.0], [0.05, 0.0], [0.1, 0.05j]])
def test_scan_disks_builds_no_directed_disk_at_the_equality_level(p):
    # min_bk_defect reads about -1e-11 here, inside its own error bound
    res = scan_disks(ModelSpace(2.0, 2), np.array(p, dtype=complex), 2.0,
                     DiskSampler(seed=1, count=5))
    assert not res.directed


def test_min_bk_defect_on_a_cone_off_the_apex_passes(tmp_path):
    cfg = {"version": 1, "scenarios": [{
        "id": "cone", "space": {"kind": "cone", "alpha": 0.5}, "sampler": {"seed": 1},
        "checks": [{"check": "min-bk-defect", "id": "bk",
                    "params": {"K": 0.0, "z": [[0.3, 0.0]], "tol": 1e-6}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    [row] = _read_csv(tmp_path / "o" / "results.csv")
    assert row["verdict"] == "PASS"
    assert abs(float(row["value"])) <= float(row["error_est"]) < 1e-9


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
        c, r = d[0, 0], abs(d[1, 0])
        gap = np.maximum(np.abs([c.real - 1.08, c.imag]) - 0.02, 0.0)
        assert np.linalg.norm(gap) > r
    assert not any(d[0, 0] == 1.0 for d in scanned)


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


@pytest.mark.parametrize("K", [0.0, 1.0], ids=["flat-K0", "sphere-K1"])
def test_violation_study_without_a_leading_term_is_an_error_row(tmp_path, caplog, K):
    # rprime is 0 on the flat model at K = 0, and within its curvature error
    # of 0 on the K = 1 model at K = 1: no prediction to take a ratio with
    cfg = {"version": 1, "scenarios": [{
        "id": "v", "space": {"kind": "model", "K": K, "n": 2},
        "checks": [{"check": "violation-study", "params": {"K": K}}]}]}
    res = _run(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    rows = _read_csv(tmp_path / "o" / "results.csv")
    assert [r["verdict"] for r in rows] == ["ERROR"]
    wit = json.loads((tmp_path / "o" / rows[0]["witness_ref"]).read_text())
    assert "within its error bound" in wit["error"]
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and not errors[0].exc_info
    assert "Traceback" not in caplog.text + res.output


def test_annulus_skips_a_disk_that_enters_an_obstacle(tmp_path, monkeypatch):
    # the sampler knows only the chart box: under seed 3 the first disk is
    # centred at 0.187+0.133i, inside the obstacle, and its distance raises
    cfg = {"version": 1, "scenarios": [{
        "id": "ring",
        "space": {"kind": "domain", "radius": 2.0,
                  "obstacles": [{"type": "disk", "center": [0, 0], "radius": 0.3}]},
        "sampler": {"count": 4},
        "checks": [{"check": "annulus", "params": {"p": [1.0], "K": 0.0}}]}]}
    path = _write(tmp_path, cfg)
    calls = []                  # (disks in the stack, whether it returned)

    def spy(metric, ds, *args, **kwargs):
        try:
            value = annulus_defects(metric, ds, *args, **kwargs)
        except KahlerLabError:
            calls.append((len(ds), False))
            raise
        calls.append((len(ds), True))
        return value

    annulus_defects = cli.annulus_defects
    monkeypatch.setattr(cli, "annulus_defects", spy)
    for seed in (0, 1, 3):
        calls.clear()
        res = _run(["run", path, "--seed", str(seed), "--out", str(tmp_path / str(seed))])
        assert res.exit_code == 0, res.output
        [row] = _read_csv(tmp_path / str(seed) / "results.csv")
        assert row["verdict"] == "PASS"
        # the stack of all four disks raises under seed 3 only; then each
        # disk runs alone, at both eps, and only the first raises
        stack, *alone = calls
        assert stack == (4, seed != 3)
        assert alone == ([(1, False)] + [(1, True)] * 3 if seed == 3 else [])


def test_annulus_at_the_apex_passes_on_every_seed(tmp_path):
    # the default base point is the apex, where phi = d^2/2: u = 0 on every disk
    spaces = ({"kind": "cone", "alpha": 1 / 3}, {"kind": "cone", "alpha": 0.5},
              {"kind": "cone", "alpha": 2 / 3}, {"kind": "orbifold", "k": 3})
    cfg = {"version": 1, "scenarios": [
        {"id": f"apex{i}", "space": space, "sampler": {"count": 20},
         "checks": [{"check": "annulus", "params": {"K": 0.0}}]}
        for i, space in enumerate(spaces)]}
    for sc in load_config(_write(tmp_path, cfg)):
        for seed in range(32):
            [row] = cli.run_scenario(sc, seed, None)
            assert row["verdict"] == "PASS" and abs(row["value"]) <= 1e-14, (sc.id, seed, row)


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
    vals = [(disks.annulus_defects(space.metric(), d[None], 1.0, [eps],
                                   distance=space.distance_field(p))[0][0, 0], d, eps)
            for d in disks.sample_disk_stack(space.chart, p, sampler, np.random.default_rng(3))
            for eps in (0.05, 0.02)]
    worst, d, eps = min(vals, key=lambda v: v[0])
    doubled = disks.annulus_defects(space.metric(), d[None], 1.0, [eps],
                                    distance=space.distance_field(p),
                                    grid=disks.QuadratureGrid().doubled())[0][0, 0]
    assert float(row["value"]) == worst
    assert float(row["error_est"]) == abs(doubled - worst) < 1e-12


def test_each_row_is_logged_before_the_next_check_runs(tmp_path, monkeypatch, caplog):
    logged_before_second = []

    def first(space, params, sampler, tol):
        return dict(verdict="PASS", value=0.0, error_est=0.0)

    def second(space, params, sampler, tol):
        logged_before_second.extend(r.getMessage() for r in caplog.records)
        return dict(verdict="PASS", value=0.0, error_est=0.0)

    for name, run in (("curvature-match", first), ("min-bk-defect", second)):
        monkeypatch.setitem(CHECKS, name, replace(CHECKS[name], run=run))
    cfg = _minimal_cfg(check="curvature-match", id="one")
    cfg["scenarios"][0]["checks"].append({"check": "min-bk-defect", "id": "two",
                                          "params": {"K": 0.0}})
    [scenario] = load_config(_write(tmp_path, cfg))
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        rows = cli.run_scenario(scenario, None, None)
    assert [r["check_id"] for r in rows] == ["one", "two"]
    assert logged_before_second == ["s/one: PASS (expected PASS) value=0 [ok]"]
    assert caplog.messages[-1] == "s/two: PASS (expected PASS) value=0 [ok]"


def test_the_package_runs_as_a_module(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    scenario = str(bundled_scenario_path("flat-K1-violation.json"))
    for args in (["kahlerlab", "run", scenario, "--out", str(tmp_path / "o")],
                 ["kahlerlab.cli", "--help"]):
        res = subprocess.run([sys.executable, "-W", "error", "-m", *args], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


_NONE_LOADED = """
loaded = sorted({"scipy", "jsonschema", "click"} & {name.split(".")[0] for name in sys.modules})
assert loaded == [], loaded
"""

_LAZY_IMPORTS = """
import sys
import tempfile
from pathlib import Path

import numpy as np
from kahlerlab import (ComplexChart, ConeSurface, DiskObstacle, DiskSampler, ModelSpace,
                       PlanarDomain, RectObstacle, check_bk_lower, curvature_tensor,
                       k_threshold, min_bk_defect)
from kahlerlab.cli import bundled_scenario_path, execute, load_config

# the psh checks
cone = ConeSurface(0.5)
v = check_bk_lower(cone, cone.potential(), np.array([0.3 + 0.1j]), 0.0,
                   sampler=DiskSampler(seed=0, count=20))
m = ModelSpace(1.0, 1)
K = k_threshold(m, m.potential(), np.array([0.1 + 0.05j]), 0.5, 2.0,
                sampler=DiskSampler(seed=0, count=20, size_range=(0.05, 0.3)))
assert v.passed and abs(K - 1.0) < 1e-2, (v.passed, K)

# min_bk_defect and a planar domain's distance field
val, _, err = min_bk_defect(curvature_tensor(m.metric(), np.array([0.1 + 0.05j])), 1.0)
assert abs(val) <= 1e-6 and err < 1e-6, (val, err)
dom = PlanarDomain(chart=ComplexChart(n=1, radii=2.0), obstacles=(
    RectObstacle(center=np.array([0.0, 0.8]), half_widths=np.array([0.2, 0.5])),
    DiskObstacle(center=np.array([0.0, -0.5]), radius=0.4)))
d = dom.distance_field(-1.2 + 0j)(np.array([[1.2 + 0j], [1.2 + 0.8j]]))  # the rect blocks the second
assert d[0] == 2.4 and d[1] > abs(2.4 + 0.8j), d

# both bundled configs, loaded and run
with tempfile.TemporaryDirectory() as out:
    codes = [execute(load_config(str(bundled_scenario_path(name))), Path(out) / name,
                     None, 1, None) for name in ("models.json", "flat-K1-violation.json")]
assert codes == [0, 0], codes
""" + _NONE_LOADED


def test_checks_and_the_runner_load_none_of_scipy_jsonschema_or_click():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    res = subprocess.run([sys.executable, "-W", "error", "-c", _LAZY_IMPORTS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


_NUMERIC_IMPORTS = """
import sys
import numpy as np
from kahlerlab import ComplexChart, DiskEmbedding, ModelSpace, comparison_defect, torsion_metric

space = ModelSpace(1.0, 2)
metric, p = space.metric(), np.array([0.05, 0.02j])
disk = DiskEmbedding.affine(np.array([0.1, 0.05j]), np.array([0.1, 0.05]), metric.chart)
rep = comparison_defect(metric, disk, p, 1.0, distance="numeric")
exact = comparison_defect(metric, disk, p, 1.0, distance=space.distance_field(p))
assert abs(rep.defect - exact.defect) <= rep.error_estimate, (rep.defect, exact.defect)

T = np.zeros((2, 2, 2))
T[0, 0, 1], T[0, 1, 0] = -0.5, 0.5
chart = ComplexChart(n=2, radii=1.5)
disk = DiskEmbedding.affine(np.array([5e-2, 0]), np.array([5e-3, 5e-3]), chart)
rep = comparison_defect(torsion_metric(T, chart), disk, np.zeros(2), 0.0, distance="numeric",
                        solver_opts=dict(N=24, gtol=1e-8, max_iters=120))
assert rep.defect < 0, rep.defect
""" + _NONE_LOADED


def test_numeric_distances_do_not_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    res = subprocess.run([sys.executable, "-W", "error", "-c", _NUMERIC_IMPORTS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
