"""Scenario runner: declarative experiment configs, batch execution,
machine-readable reports, and plot-data emission.

Configs are strict-schema JSON.  Each scenario names a space, a sampler,
and a list of checks; every check may declare an expected verdict so
violation studies (where FAIL is the success condition) exit 0.  Reports
are RFC-4180 CSV plus a JSON summary; FAIL rows reference witness files
sufficient to re-derive the negative value in isolation.

CSV columns (fixed): scenario_id, check_id, verdict, value, error_est,
seed, witness_ref, wall_ms.  Identical config and seed produce identical
CSV bytes except for the wall_ms column.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Optional

import click
import jsonschema
import numpy as np

from .curvature import TangentPair, curvature_tensor, min_bk_defect
from .disks import (DiskEmbedding, DiskSampler, QuadratureGrid, TorsionSpace,
                    annulus_defect, asymptotic_defect, comparison_defect, rprime_value,
                    sample_disks, scan_disks, torsion_expected_defect, violation_disk,
                    worst_defect)
from .errors import ConfigError, KahlerLabError
from .fields import ComplexChart
from .geodesy import DiskObstacle, PlanarDomain, RectObstacle, domain_length_metric
from .models import ConeSurface, ModelSpace, QuotientData, orbifold_cone
from .psh import (ComplexLine, check_bk_lower, check_bk_lower_set, k_threshold,
                  quotient_bk2_check, radial_potential_check)

log = logging.getLogger("kahlerlab")

CSV_COLUMNS = ["scenario_id", "check_id", "verdict", "value", "error_est",
               "seed", "witness_ref", "wall_ms"]

_POINT = {"type": "array",
          "items": {"anyOf": [{"type": "number"},
                              {"type": "array", "items": {"type": "number"},
                               "minItems": 2, "maxItems": 2}]}}
_NUMLIST = {"type": "array", "items": {"type": "number"}}
_COUNT = {"type": "integer", "minimum": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

_SAMPLER = {"type": "object", "additionalProperties": False,
            "properties": {"seed": {"type": "integer"},
                           "count": _COUNT,
                           "size_range": {"type": "array", "minItems": 2, "maxItems": 2,
                                          "items": {"type": "number",
                                                    "exclusiveMinimum": 0}},
                           "center_radius": {"type": "number"},
                           "degree2_fraction": {"type": "number"},
                           "interior_points": {"type": "integer", "minimum": 1}}}

_OBSTACLE = {"type": "object", "additionalProperties": False,
             "properties": {"type": {"enum": ["rect", "disk"]},
                            "center": _NUMLIST,
                            "half_widths": _NUMLIST,
                            "radius": {"type": "number"}},
             "required": ["type", "center"]}

_SPACE = {"type": "object", "additionalProperties": False,
          "properties": {"kind": {"enum": ["model", "cone", "orbifold",
                                           "quotient", "torsion", "domain"]},
                         "K": {"type": "number"},
                         "n": {"type": "integer", "minimum": 1},
                         "alpha": {"type": "number"},
                         "k": {"type": "integer", "minimum": 2},
                         "delta": {"type": "number"},
                         "T": {"type": "array"},
                         "radius": {"type": "number"},
                         "obstacles": {"type": "array", "items": _OBSTACLE}},
          "required": ["kind"]}

CHECK_PARAM_SCHEMAS = {
    "curvature-match": {"points": {"type": "integer"}, "radius": {"type": "number"},
                        "tol": {"type": "number"}},
    "min-bk-defect": {"K": {"type": "number"}, "z": _POINT,
                      "tol": {"type": "number"}, "samples": {"type": "integer"}},
    "comparison-scan": {"K": {"type": "number"}, "p": _POINT,
                        "count": _COUNT, "tol": {"type": "number"}},
    "violation-study": {"K": {"type": "number"}, "eps2_list": _NUMLIST,
                        "band": _NUMLIST},
    "annulus": {"K": {"type": "number"}, "p": _POINT,
                "eps_list": {"type": "array", "items": dict(_POSITIVE, exclusiveMaximum=0.1)},
                "tol": {"type": "number"}},
    "psh": {"K": {"type": "number"}, "p": _POINT, "tol": {"type": "number"},
            "crossing": {"type": "integer"}, "center": _POINT},
    "psh-set": {"K": {"type": "number"}, "S": {"type": "array"},
                "line": {"type": "object"}, "tol": {"type": "number"}},
    "radial-potential": {"tol": {"type": "number"}},
    "quotient-bk2": {"zprime": _POINT, "perturb": {"type": "boolean"}},
    "k-threshold": {"p": _POINT, "lo": {"type": "number"}, "hi": {"type": "number"},
                    "resolution": _POSITIVE, "expected": {"type": "number"},
                    "band": {"type": "number"}, "tol": {"type": "number"}},
    "torsion-disk": {"a": _POINT, "b": _POINT, "eps1": {"type": "number"},
                     "eps2": {"type": "number"}, "factor": {"type": "number"}},
    "domain-compare": {"p": _NUMLIST, "q": _NUMLIST, "eps": _POSITIVE,
                       "count": _COUNT, "tol": {"type": "number"},
                       "min_ratio": {"type": "number"}},
}

_CHECK = {"type": "object", "additionalProperties": False,
          "properties": {"check": {"enum": sorted(CHECK_PARAM_SCHEMAS)},
                         "id": {"type": "string"},
                         "expect": {"enum": ["PASS", "FAIL"]},
                         "params": {"type": "object"}},
          "required": ["check"]}

CONFIG_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "version": {"const": 1},
        "scenarios": {"type": "array", "items": {
            "type": "object", "additionalProperties": False,
            "properties": {"id": {"type": "string"},
                           "space": _SPACE,
                           "sampler": _SAMPLER,
                           "checks": {"type": "array", "items": _CHECK}},
            "required": ["id", "space", "checks"]}},
    },
    "required": ["version", "scenarios"],
}


def _as_point(spec, n: Optional[int] = None) -> np.ndarray:
    """[x, ...] or [[re, im], ...] -> complex vector."""
    out = []
    for c in spec:
        if isinstance(c, (list, tuple)):
            out.append(complex(c[0], c[1]))
        else:
            out.append(complex(c))
    z = np.array(out, dtype=complex)
    if n is not None and z.size != n:
        raise ConfigError(f"point has dimension {z.size}, expected {n}")
    return z


_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
_PARAM_VALIDATORS = {
    kind: jsonschema.Draft202012Validator(
        {"type": "object", "additionalProperties": False, "properties": props})
    for kind, props in CHECK_PARAM_SCHEMAS.items()}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(str(e)) from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    e = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if e is not None:
        path_str = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"{path}: at {path_str}: {e.message}") from e
    for i, sc in enumerate(cfg["scenarios"]):
        size_range = sc.get("sampler", {}).get("size_range")
        if size_range and size_range[0] >= size_range[1]:
            raise ConfigError(f"{path}: at scenarios/{i}/sampler/size_range: lower end "
                              f"{size_range[0]!r} is not below upper end {size_range[1]!r}")
        for ch in sc["checks"]:
            e = jsonschema.exceptions.best_match(
                _PARAM_VALIDATORS[ch["check"]].iter_errors(ch.get("params", {})))
            if e is not None:
                raise ConfigError(
                    f"{path}: scenario {sc['id']!r} check {ch['check']!r}: "
                    f"{e.message}") from e
    return cfg


def build_space(spec: dict):
    """The space a config declares; every kind has a ``chart``, and
    ``metric()``, ``potential()`` and ``distance_field(p)`` where it has them."""
    kind = spec["kind"]
    try:
        if kind == "model":
            return ModelSpace(K=spec.get("K", 0.0), n=spec.get("n", 1))
        if kind == "cone":
            return ConeSurface(alpha=spec["alpha"])
        if kind == "orbifold":
            return orbifold_cone(spec["k"])
        if kind == "quotient":
            return QuotientData(delta=spec.get("delta", 1.0))
        if kind == "torsion":
            chart = ComplexChart(n=spec.get("n", 2), radii=spec.get("radius", 1.5))
            return TorsionSpace(T=np.array(spec["T"], dtype=float), chart=chart)
        if kind == "domain":
            obstacles = []
            for ob in spec.get("obstacles", ()):
                if ob["type"] == "rect":
                    obstacles.append(RectObstacle(center=np.array(ob["center"]),
                                                  half_widths=np.array(ob["half_widths"])))
                else:
                    obstacles.append(DiskObstacle(center=np.array(ob["center"]),
                                                  radius=ob["radius"]))
            chart = ComplexChart(n=1, radii=spec.get("radius", 2.0))
            return PlanarDomain(chart=chart, obstacles=tuple(obstacles))
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad {kind} space: {e}") from e
    raise ConfigError(f"unknown space kind {kind!r}")


def build_sampler(spec: Optional[dict], seed_override: Optional[int]) -> DiskSampler:
    spec = dict(spec or {})
    if "size_range" in spec:
        spec["size_range"] = tuple(spec["size_range"])
    if seed_override is not None:
        spec["seed"] = seed_override
    return DiskSampler(**spec)


def _run_curvature_match(space, params, sampler, tol):
    if not isinstance(space, ModelSpace) or space.K == 0:
        raise ConfigError("curvature-match needs a curved model space")
    tol = params.get("tol", tol or 1e-5)
    count = params.get("points", 20)
    radius = params.get("radius", 0.5)
    rng = np.random.default_rng(sampler.seed)
    metric = space.metric()
    c = space.c
    worst = 0.0
    for _ in range(count):
        z = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
        z = z * radius * rng.uniform() / np.linalg.norm(z)
        data = curvature_tensor(metric, z)
        G = data.G
        closed = -(c / 2.0) * (np.einsum("ij,kl->ijkl", G, G)
                               + np.einsum("il,kj->ijkl", G, G))
        rel = np.max(np.abs(data.R - closed)) / np.max(np.abs(closed))
        worst = max(worst, float(rel))
    verdict = "PASS" if worst <= tol else "FAIL"
    return dict(verdict=verdict, value=worst, error_est=0.0, witness=None)


def _run_min_bk_defect(space, params, sampler, tol):
    tol = params.get("tol", tol or 1e-6)
    n = space.chart.n
    z = _as_point(params.get("z", [0.0] * n), n)
    data = curvature_tensor(space.metric(), z)
    val, pair = min_bk_defect(data, params["K"], seed=sampler.seed,
                              samples=params.get("samples", 1500))
    verdict = "PASS" if val >= -tol else "FAIL"
    witness = None
    if verdict == "FAIL":
        witness = {"z": _jsonify(z), "X": _jsonify(pair.X), "Y": _jsonify(pair.Y),
                   "value": val}
    return dict(verdict=verdict, value=val, error_est=0.0, witness=witness)


def _run_comparison_scan(space, params, sampler, tol):
    tol = params.get("tol", tol or 1e-6)
    n = space.chart.n
    p = _as_point(params.get("p", [0.0] * n), n)
    if "count" in params:
        sampler = replace(sampler, count=params["count"])
    res = scan_disks(space, p, params["K"], sampler, tol=tol)
    return _scan_row(res, tol, p=_jsonify(p), K=params["K"], directed=res.directed)


def _scan_row(res, tol, **witness) -> dict:
    """The row of a disk scan; on FAIL the witness names the worst disk."""
    rep = res.report
    if rep.defect >= -tol:
        return dict(verdict="PASS", value=rep.defect, error_est=rep.error_estimate,
                    witness=None)
    witness.update(coeffs=_jsonify(res.disk.coeffs), defect=rep.defect)
    return dict(verdict="FAIL", value=rep.defect, error_est=rep.error_estimate,
                witness=witness)


def _run_violation_study(space, params, sampler, tol):
    """Defect over leading-order prediction along shrinking disk sizes."""
    if not isinstance(space, ModelSpace):
        raise ConfigError("violation-study needs a model space")
    K = params["K"]
    eps2_list = params.get("eps2_list", [5e-2, 2.5e-2, 1.25e-2])
    band = params.get("band", [0.8, 1.2])
    metric = space.metric()
    p = np.zeros(space.n, dtype=complex)
    data = curvature_tensor(metric, p)
    X = np.zeros(space.n, dtype=complex)
    Y = np.zeros(space.n, dtype=complex)
    X[0] = 1.0
    Y[-1] = 1.0
    pair = TangentPair(X=X, Y=Y, G=data.G)
    rp = rprime_value(data, K, pair)
    dist = space.distance_field(p)
    curve = []
    for e2 in eps2_list:
        e1 = 5e-3 * (e2 / 5e-2) ** 1.5
        disk = violation_disk(metric, p, K, pair, e1, e2)
        rep = comparison_defect(metric, disk, p, K, distance=dist)
        pred = asymptotic_defect(rp, e1, e2)
        curve.append({"eps1": e1, "eps2": e2, "defect": rep.defect,
                      "predicted": pred, "ratio": rep.defect / pred,
                      "error_est": rep.error_estimate})
    ratios = [c["ratio"] for c in curve]
    gaps = [abs(r - 1.0) for r in ratios]
    ok = band[0] <= ratios[0] <= band[1] and all(
        b <= a + 1e-3 for a, b in zip(gaps, gaps[1:]))
    return dict(verdict="PASS" if ok else "FAIL", value=ratios[-1],
                error_est=max(c["error_est"] / abs(c["predicted"]) for c in curve),
                witness={"curve": curve, "rprime": rp})


def _run_annulus(space, params, sampler, tol):
    tol = params.get("tol", tol or 1e-6)
    n = space.chart.n
    p = _as_point(params.get("p", [0.0] * n), n)
    metric = space.metric()
    dist = space.distance_field(p)
    disks = sample_disks(metric.chart, p, sampler, np.random.default_rng(sampler.seed))
    scored = [(annulus_defect(metric, d, p, params["K"], eps, distance=dist), d, eps)
              for d in disks for eps in params.get("eps_list", [0.05, 0.02])]
    if not scored:
        raise KahlerLabError("no admissible disk in the scan")
    worst, d, eps = min(scored, key=lambda s: s[0])       # the first minimum
    # error estimate: the worst value's change under the doubled rule
    err = abs(annulus_defect(metric, d, p, params["K"], eps, distance=dist,
                             grid=QuadratureGrid().doubled()) - worst)
    verdict = "PASS" if worst >= -tol else "FAIL"
    wit = {"coeffs": _jsonify(d.coeffs), "eps": eps, "value": worst}
    return dict(verdict=verdict, value=worst, error_est=err,
                witness=wit if verdict == "FAIL" else None)


def _run_psh(space, params, sampler, tol):
    tol = params.get("tol", tol or 1e-6)
    p = _as_point(params.get("p", [0.0] * space.chart.n), space.chart.n)
    center = _as_point(params["center"]) if "center" in params else None
    v = check_bk_lower(space, space.potential(), p, params["K"], sampler=sampler,
                       tol=tol, crossing_tests=params.get("crossing", 0), center=center)
    return dict(verdict=v.verdict, value=v.min_laplacian, error_est=0.0,
                witness=_jsonify(v.witness))


def _run_psh_set(space, params, sampler, tol):
    tol = params.get("tol", tol or 1e-6)
    if "line" in params:
        S = ComplexLine(a=_as_point(params["line"]["a"]),
                        v=_as_point(params["line"]["v"]))
    else:
        S = np.stack([_as_point(pt, space.chart.n) for pt in params["S"]])
    v = check_bk_lower_set(space, space.potential(), S, params["K"],
                           sampler=sampler, tol=tol)
    return dict(verdict=v.verdict, value=v.min_laplacian, error_est=0.0,
                witness=_jsonify(v.witness))


def _run_radial_potential(space, params, sampler, tol):
    if not isinstance(space, ConeSurface):
        raise ConfigError("radial-potential needs a cone space")
    r = radial_potential_check(space, tol=params.get("tol", tol or 1e-4))
    return dict(verdict=r.verdict, value=r.max_mismatch, error_est=0.0,
                witness=None)


def _run_quotient_bk2(space, params, sampler, tol):
    if not isinstance(space, QuotientData):
        raise ConfigError("quotient-bk2 needs a quotient space")
    zp = _as_point(params.get("zprime", [0.0]))
    h_extra = None
    if params.get("perturb", False):
        h_extra = lambda z: 1.0 + 0.5 * np.abs(z) ** 4
    v = quotient_bk2_check(space, zp, h_extra=h_extra, sampler=sampler)
    return dict(verdict=v.verdict, value=v.min_laplacian, error_est=0.0,
                witness=_jsonify(v.witness),
                extra={"saturated": v.saturated, "notes": list(v.notes)})


def _run_k_threshold(space, params, sampler, tol):
    n = space.chart.n
    p = _as_point(params.get("p", [0.1, 0.05][:n] + [0.0] * (n - 2)), n)
    trace = []
    thr = k_threshold(space, space.potential(), p,
                      params.get("lo", 0.5), params.get("hi", 2.0),
                      resolution=params.get("resolution", 1e-3),
                      sampler=sampler, tol=params.get("tol", 1e-7), trace=trace)
    expected = params.get("expected")
    band = params.get("band", 1e-3)
    ok = expected is None or abs(thr - expected) <= band
    return dict(verdict="PASS" if ok else "FAIL", value=thr,
                error_est=params.get("resolution", 1e-3),
                witness=None, extra={"trace": trace})


def _run_torsion_disk(space, params, sampler, tol):
    if not isinstance(space, TorsionSpace):
        raise ConfigError("torsion-disk needs a torsion space")
    a = _as_point(params["a"])
    b = _as_point(params["b"])
    e1, e2 = params.get("eps1", 5e-3), params.get("eps2", 5e-2)
    disk = DiskEmbedding.affine(e2 * b, e1 * a, space.chart)
    p = np.zeros(space.chart.n, dtype=complex)
    rep = comparison_defect(space.metric(), disk, p, 0.0, distance="numeric",
                            solver_opts=dict(N=24, gtol=1e-8, max_iters=120))
    expected = torsion_expected_defect(space.T, a, b, e1, e2)
    factor = params.get("factor", 2.0)
    if expected < 0:
        ok = expected / factor >= rep.defect >= expected * factor
    else:
        ok = rep.defect >= -1e-6
    return dict(verdict="PASS" if ok else "FAIL", value=rep.defect,
                error_est=rep.error_estimate,
                witness={"coeffs": _jsonify(disk.coeffs), "expected": expected})


def _run_domain_compare(space, params, sampler, tol):
    if not isinstance(space, PlanarDomain):
        raise ConfigError("domain-compare needs a domain space")
    tol = params.get("tol", tol or 1e-6)
    p = complex(params["p"][0], params["p"][1])
    q = complex(params["q"][0], params["q"][1])
    ratio = domain_length_metric(space, [p.real, p.imag], [q.real, q.imag]) / abs(q - p)
    if ratio < params.get("min_ratio", -math.inf):
        raise KahlerLabError(f"length ratio {ratio:.6g} is below min_ratio "
                             f"{params['min_ratio']:g}")
    metric = space.metric()
    dist = space.distance_field(p)
    eps = params.get("eps", 0.15)
    # built first, so that a fixed disk leaving the chart is an ERROR row
    fixed = DiskEmbedding.affine(np.array([q]), np.array([eps]), space.chart)
    candidates = [fixed] if space.disk_free(q, eps) else []
    rng = np.random.default_rng(sampler.seed)
    for _ in range(params.get("count", 10)):
        c = q + 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
        r = eps * rng.uniform(0.5, 1.0)
        if not space.disk_free(c, r):
            continue
        try:
            candidates.append(DiskEmbedding.affine(np.array([c]), np.array([r]),
                                                   space.chart))
        except ValueError:
            continue
    res = worst_defect(metric, np.array([p]), 0.0, dist, candidates, tol=tol)
    return dict(_scan_row(res, tol, p=[p.real, p.imag], ratio=ratio),
                extra={"length_ratio": ratio})


CHECK_RUNNERS = {
    "curvature-match": _run_curvature_match,
    "min-bk-defect": _run_min_bk_defect,
    "comparison-scan": _run_comparison_scan,
    "violation-study": _run_violation_study,
    "annulus": _run_annulus,
    "psh": _run_psh,
    "psh-set": _run_psh_set,
    "radial-potential": _run_radial_potential,
    "quotient-bk2": _run_quotient_bk2,
    "k-threshold": _run_k_threshold,
    "torsion-disk": _run_torsion_disk,
    "domain-compare": _run_domain_compare,
}


def _jsonify(obj):
    """Recursively convert numpy/complex values to JSON-safe structures."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return _jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonify(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    return repr(obj)


def run_scenario(scenario: dict, seed_override: Optional[int],
                 tol_override: Optional[float], check_filter=None) -> list:
    """Execute one scenario; returns a list of result-row dicts."""
    rows = []
    space = build_space(scenario["space"])
    for idx, check in enumerate(scenario["checks"]):
        name = check["check"]
        if check_filter and name not in check_filter:
            continue
        check_id = check.get("id", f"{name}-{idx}")
        sampler = build_sampler(scenario.get("sampler"), seed_override)
        expect = check.get("expect", "PASS")
        t0 = time.perf_counter()
        try:
            out = CHECK_RUNNERS[name](space, check.get("params", {}),
                                      sampler, tol_override)
        except Exception as e:
            log.error("%s/%s: %s", scenario["id"], check_id, e,
                      exc_info=not isinstance(e, KahlerLabError))
            out = dict(verdict="ERROR", value=math.nan, error_est=math.nan,
                       witness={"error": str(e)})
        wall_ms = int(1000 * (time.perf_counter() - t0))
        rows.append(dict(scenario_id=scenario["id"], check_id=check_id,
                         verdict=out["verdict"], value=out["value"],
                         error_est=out["error_est"], seed=sampler.seed,
                         witness=out.get("witness"), extra=out.get("extra"),
                         expect=expect, wall_ms=wall_ms, check=name))
        log.info("%s/%s: %s (expected %s) value=%g [%s]", scenario["id"], check_id,
                 out["verdict"], expect, out["value"],
                 "ok" if out["verdict"] == expect else "UNEXPECTED")
    return rows


def execute(cfg: dict, out_dir: Path, seed: Optional[int], jobs: int,
            tol: Optional[float], check_filter=None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    scenarios = cfg["scenarios"]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            futs = [ex.submit(run_scenario, sc, seed, tol, check_filter)
                    for sc in scenarios]
            results = [f.result() for f in futs]
    else:
        results = [run_scenario(sc, seed, tol, check_filter) for sc in scenarios]
    rows = [r for rs in results for r in rs]

    wit_dir = out_dir / "witness"
    csv_rows = []
    for r in rows:
        ref = ""
        if r["witness"] is not None:
            wit_dir.mkdir(exist_ok=True)
            ref = f"witness/{r['scenario_id']}-{r['check_id']}.json"
            with open(out_dir / ref, "w", encoding="utf-8") as f:
                json.dump(_jsonify({"seed": r["seed"], **(r["witness"] or {})}),
                          f, indent=2, sort_keys=True)
        csv_rows.append([r["scenario_id"], r["check_id"], r["verdict"],
                         repr(float(r["value"])), repr(float(r["error_est"])),
                         str(r["seed"]), ref, str(r["wall_ms"])])

    with open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, quoting=csv.QUOTE_MINIMAL)
        w.writerow(CSV_COLUMNS)
        w.writerows(csv_rows)

    errors = sum(r["verdict"] == "ERROR" for r in rows)
    mismatches = sum(r["verdict"] not in ("ERROR", r["expect"]) for r in rows)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump({"rows": [_jsonify(r) for r in rows], "errors": errors,
                   "mismatches": mismatches}, f, indent=2, sort_keys=True)

    if errors:
        return 2
    if mismatches:
        return 1
    return 0


def emit_plot_data(out_dir: Path) -> None:
    """Columnar plot files from a summary: ratio curves, bisection traces,
    defect histograms.  Missing data yields header-only files."""
    summary_path = out_dir / "summary.json"
    rows = []
    if summary_path.exists():
        with open(summary_path, "r", encoding="utf-8") as f:
            rows = json.load(f).get("rows", [])

    with open(out_dir / "ratio_curves.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "check_id", "eps1", "eps2", "defect",
                    "predicted", "ratio"])
        for r in rows:
            if r.get("check") == "violation-study" and r.get("witness"):
                for c in r["witness"]["curve"]:
                    w.writerow([r["scenario_id"], r["check_id"], c["eps1"],
                                c["eps2"], c["defect"], c["predicted"], c["ratio"]])

    with open(out_dir / "threshold_trace.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "check_id", "step", "K", "min_laplacian",
                    "verdict"])
        for r in rows:
            if r.get("check") == "k-threshold" and r.get("extra"):
                for i, (K, ml, v) in enumerate(r["extra"]["trace"]):
                    w.writerow([r["scenario_id"], r["check_id"], i, K, ml, v])

    with open(out_dir / "defect_hist.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "check_id", "value"])
        for r in rows:
            if r.get("check") in ("comparison-scan", "annulus", "domain-compare"):
                w.writerow([r["scenario_id"], r["check_id"], r["value"]])


def bundled_scenario_path(name: str) -> Path:
    return Path(str(resources.files("kahlerlab") / "scenarios" / name))


@click.group()
def main():
    """Numerical laboratory scenario runner."""
    logging.basicConfig(level=os.environ.get("LAB_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")


def _common(f):
    f = click.option("--seed", type=int, default=None,
                     help="Override every sampler seed.")(f)
    f = click.option("--jobs", type=int, default=1,
                     help="Scenario-level worker count.")(f)
    f = click.option("--tol", type=float, default=None,
                     help="Default tolerance for checks that do not set one.")(f)
    f = click.option("--out", type=click.Path(), default="lab-out",
                     help="Output directory.")(f)
    return f


def _execute_cmd(config, seed, jobs, tol, out, check_filter=None):
    try:
        cfg = load_config(config)
        code = execute(cfg, Path(out), seed, jobs, tol, check_filter)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(3)
    sys.exit(code)


@main.command()
@click.argument("config", type=click.Path())
@_common
def run(config, seed, jobs, tol, out):
    """Run every check of every scenario in CONFIG."""
    _execute_cmd(config, seed, jobs, tol, out)


@main.command()
@click.argument("config", type=click.Path())
@_common
def scan(config, seed, jobs, tol, out):
    """Run only the disk-scan checks of CONFIG."""
    _execute_cmd(config, seed, jobs, tol, out,
                 check_filter={"comparison-scan", "domain-compare"})


@main.command()
@click.argument("config", type=click.Path())
@_common
def threshold(config, seed, jobs, tol, out):
    """Run only the K-threshold bisection checks of CONFIG."""
    _execute_cmd(config, seed, jobs, tol, out, check_filter={"k-threshold"})


@main.command()
@click.argument("directory", type=click.Path())
def plotdata(directory):
    """Emit columnar plot files from reports in DIRECTORY."""
    emit_plot_data(Path(directory))
    sys.exit(0)


if __name__ == "__main__":
    main()
