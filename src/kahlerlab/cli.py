"""Scenario runner: declarative experiment configs, batch execution,
machine-readable reports, and plot-data emission.

Configs are strict-schema JSON.  Each scenario names a space, a sampler,
and a list of checks; every check may declare an expected verdict so
violation studies (where FAIL is the success condition) exit 0.
``load_config`` makes every config decision once: it returns the
scenarios with their spaces and samplers built, each check's points as
complex vectors of the space's dimension, and the ERROR message of each
check that does not run on its space.  ``run_scenario`` only runs them.
Reports are RFC-4180 CSV plus a JSON summary; FAIL rows reference witness
files sufficient to re-derive the negative value in isolation.

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
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import click
import jsonschema
import numpy as np

from .curvature import TangentPair, curvature_tensor, min_bk_defect
from .disks import (DiskEmbedding, DiskSampler, QuadratureGrid, TorsionSpace,
                    annulus_defect, asymptotic_defect, comparison_defect,
                    comparison_defects, rprime_value, sample_disks, scan_disks,
                    torsion_expected_defect, violation_disk, worst_defect)
from .errors import ConfigError, InvalidDisk, KahlerLabError
from .fields import ComplexChart
from .geodesy import DiskObstacle, PlanarDomain, RectObstacle
from .models import ConeSurface, ModelSpace, QuotientData, orbifold_cone
from .psh import (RADIAL_SAMPLER, ComplexLine, check_bk_lower, k_threshold,
                  quotient_bk2_check, radial_potential_check)

log = logging.getLogger("kahlerlab")

CSV_COLUMNS = ["scenario_id", "check_id", "verdict", "value", "error_est",
               "seed", "witness_ref", "wall_ms"]

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_COUNT = {"type": "integer", "minimum": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_LIST = {"type": "array", "minItems": 1}     # nonempty; each use sets its items
_POINT = {"type": "array", "items": {"anyOf": [_NUM, _PAIR]}}   # [x, ...] or [[re, im], ...]


def _params(*required: str, **props) -> dict:
    """The schema of an object with the keys ``props`` and no others,
    ``required`` among them."""
    return {"type": "object", "additionalProperties": False, "properties": props,
            "required": list(required)}


_SAMPLER = _params(seed=dict(_INT, minimum=0), count=_COUNT, interior_points=_COUNT,
                   size_range=dict(_PAIR, items=_POSITIVE),
                   center_radius={"type": "number", "minimum": 0},
                   degree2_fraction={"type": "number", "minimum": 0, "maximum": 1})


# one branch per obstacle type: a rect has half_widths, a disk a radius
_OBSTACLE = {"type": "object", "required": ["type"],
             "properties": {"type": {"enum": ["rect", "disk"]}},
             "allOf": [{"if": {"properties": {"type": {"const": "rect"}}},
                        "then": _params("center", "half_widths", type=True, center=_PAIR,
                                        half_widths=dict(_PAIR, items=_POSITIVE))},
                       {"if": {"properties": {"type": {"const": "disk"}}},
                        "then": _params("center", "radius", type=True, center=_PAIR,
                                        radius=_POSITIVE)}]}


def _as_point(spec) -> np.ndarray:
    """[x, ...] or [[re, im], ...] -> complex vector."""
    return np.array([complex(*c) if isinstance(c, (list, tuple)) else complex(c) for c in spec],
                    dtype=complex)


@dataclass(frozen=True)
class SpaceKind:
    """A space kind: its builder, and the schema of the keys its spec holds."""
    build: Callable[[dict], object]
    spec: dict


def _kind(build, *required: str, **props) -> SpaceKind:
    return SpaceKind(build, _params(*required, kind=True, **props))


def _domain(spec: dict) -> PlanarDomain:
    obstacles = tuple(
        RectObstacle(center=np.array(ob["center"]), half_widths=np.array(ob["half_widths"]))
        if ob["type"] == "rect" else
        DiskObstacle(center=np.array(ob["center"]), radius=ob["radius"])
        for ob in spec.get("obstacles", ()))
    return PlanarDomain(chart=ComplexChart(n=1, radii=spec.get("radius", 2.0)),
                        obstacles=obstacles)


# every kind has a ``chart``, and ``metric()``, ``potential()`` and
# ``distance_field(p)`` where it has them
SPACES = {
    "model": _kind(lambda s: ModelSpace(K=s.get("K", 0.0), n=s.get("n", 1)), K=_NUM, n=_COUNT),
    "cone": _kind(lambda s: ConeSurface(alpha=s["alpha"]), "alpha", alpha=_NUM),
    "orbifold": _kind(lambda s: orbifold_cone(s["k"]), "k", k=dict(_INT, minimum=2)),
    "quotient": _kind(lambda s: QuotientData()),
    "torsion": _kind(lambda s: TorsionSpace(
        T=np.array(s["T"], dtype=float),
        chart=ComplexChart(n=s.get("n", 2), radii=s.get("radius", 1.5))),
        "T", T={"type": "array"}, n=_COUNT, radius=_NUM),
    "domain": _kind(_domain, radius=_NUM, obstacles={"type": "array", "items": _OBSTACLE}),
}


def build_space(spec: dict):
    """The space of a spec that meets its kind's schema."""
    try:
        return SPACES[spec["kind"]].build(spec)
    except ValueError as e:
        raise ConfigError(f"bad {spec['kind']} space: {e}") from e


def _lower_bound_row(value: float, error_est: float, tol: float, witness: dict) -> dict:
    """PASS when value >= -tol; only a FAIL row carries its witness."""
    ok = value >= -tol
    return dict(verdict="PASS" if ok else "FAIL", value=value, error_est=error_est,
                witness=None if ok else witness)


def _psh_row(v, **extra) -> dict:
    """The row of a ``PshVerdict``, which decides its own verdict."""
    return dict(verdict=v.verdict, value=v.min_laplacian, error_est=0.0,
                witness=v.witness, **extra)


def _run_curvature_match(space, params, sampler, tol):
    if space.K == 0:
        raise ConfigError("curvature-match needs a curved model space")
    count = params.get("points", 20)
    radius = params.get("radius", 0.5)
    rng = np.random.default_rng(sampler.seed)
    metric = space.metric()
    c = space.c
    worst = err = 0.0
    for _ in range(count):
        z = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
        z = z * radius * rng.uniform() / np.linalg.norm(z)
        data = curvature_tensor(metric, z)
        G = data.G
        closed = -(c / 2.0) * (np.einsum("ij,kl->ijkl", G, G)
                               + np.einsum("il,kj->ijkl", G, G))
        scale = np.max(np.abs(closed))
        worst = max(worst, float(np.max(np.abs(data.R - closed)) / scale))
        err = max(err, data.error / float(scale))
    verdict = "PASS" if worst <= tol else "FAIL"
    return dict(verdict=verdict, value=worst, error_est=err, witness=None)


def _run_min_bk_defect(space, params, sampler, tol):
    z = params.get("z", np.zeros(space.chart.n, dtype=complex))
    data = curvature_tensor(space.metric(), z)
    val, pair, err = min_bk_defect(data, params["K"], seed=sampler.seed,
                                   samples=params.get("samples", 1500))
    return _lower_bound_row(val, err, tol, {"z": z, "X": pair.X, "Y": pair.Y, "value": val})


def _run_comparison_scan(space, params, sampler, tol):
    p = params.get("p", np.zeros(space.chart.n, dtype=complex))
    if "count" in params:
        sampler = replace(sampler, count=params["count"])
    res = scan_disks(space, p, params["K"], sampler)
    return _scan_row(res, tol, p=p, K=params["K"], directed=res.directed)


def _scan_row(res, tol, **witness) -> dict:
    """The row of a disk scan; on FAIL the witness names the worst disk."""
    rep = res.report
    return _lower_bound_row(rep.defect, rep.error_estimate, tol,
                            dict(witness, coeffs=res.disk.coeffs, defect=rep.defect))


def _run_violation_study(space, params, sampler, tol):
    """Defect over leading-order prediction along shrinking disk sizes."""
    K = params["K"]
    eps2_list = params.get("eps2_list", [5e-2, 2.5e-2, 1.25e-2])
    band = params.get("band", [0.8, 1.2])
    metric = space.metric()
    p = np.zeros(space.n, dtype=complex)
    data = curvature_tensor(metric, p)
    X, Y = np.eye(space.n, dtype=complex)[[0, -1]]
    pair = TangentPair(X=X, Y=Y, G=data.G)
    rp = rprime_value(data, K, pair)
    eps1_list = [5e-3 * (e2 / 5e-2) ** 1.5 for e2 in eps2_list]
    reports = comparison_defects(metric, [violation_disk(metric, p, pair, e1, e2)
                                          for e1, e2 in zip(eps1_list, eps2_list)],
                                 p, K, distance=space.distance_field(p))
    curve = []
    for e1, e2, rep in zip(eps1_list, eps2_list, reports):
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
    p = params.get("p", np.zeros(space.chart.n, dtype=complex))
    metric = space.metric()
    dist = space.distance_field(p)
    disks = sample_disks(metric.chart, p, sampler, np.random.default_rng(sampler.seed))
    scored = []
    for d in disks:
        try:
            scored += [(annulus_defect(metric, d, params["K"], eps, dist), d, eps)
                       for eps in params.get("eps_list", [0.05, 0.02])]
        except KahlerLabError:
            pass                    # a disk that raises is skipped, as in a scan
    if not scored:
        raise KahlerLabError("no admissible disk in the scan")
    worst, d, eps = min(scored, key=lambda s: s[0])       # the first minimum
    # error estimate: the worst value's change under the doubled rule
    err = abs(annulus_defect(metric, d, params["K"], eps, dist,
                             grid=QuadratureGrid().doubled()) - worst)
    return _lower_bound_row(worst, err, tol, {"coeffs": d.coeffs, "eps": eps, "value": worst})


def _run_psh(space, params, sampler, tol):
    """psh about a point p (default: the origin), psh-set about a set S or a line."""
    base = (ComplexLine(**params["line"]) if "line" in params else params["S"] if "S" in params
            else params.get("p", np.zeros(space.chart.n, dtype=complex)))
    return _psh_row(check_bk_lower(space, space.potential(), base, params["K"], sampler=sampler,
                                   tol=tol, crossing_tests=params.get("crossing", 0),
                                   center=params.get("center")))


def _run_radial_potential(space, params, sampler, tol):
    r = radial_potential_check(space, replace(RADIAL_SAMPLER, seed=sampler.seed), tol)
    return dict(verdict=r.verdict, value=r.max_mismatch, error_est=0.0, witness=None)


def _zprime(params) -> np.ndarray:
    """A quotient-bk2 base point: a chart point (default: 0) or a homogeneous 2-vector."""
    return _as_point(params.get("zprime", [0.0]))


def _check_zprime(space, params, where: str) -> None:
    """ConfigError unless the quotient's distance field takes the zprime."""
    try:
        space.distance_field(_zprime(params))
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _run_quotient_bk2(space, params, sampler, tol):
    zp = _zprime(params)
    h_extra = (lambda z: 1.0 + 0.5 * np.abs(z) ** 4) if params.get("perturb", False) else None
    v = quotient_bk2_check(space, zp, h_extra=h_extra, sampler=sampler)
    return _psh_row(v, extra={"saturated": v.saturated, "notes": v.notes})


def _bracket(params) -> tuple:
    """The K bracket (lo, hi) of a k-threshold check, by default (0.5, 2.0)."""
    return params.get("lo", 0.5), params.get("hi", 2.0)


def _ordered(lo, hi, where: str) -> None:
    """ConfigError, at ``where``, unless lo is below hi."""
    if lo >= hi:
        raise ConfigError(f"{where}: lower end {lo!r} is not below upper end {hi!r}")


def _run_k_threshold(space, params, sampler, tol):
    n = space.chart.n
    p = params.get("p", _as_point([0.1, 0.05][:n] + [0.0] * (n - 2)))
    trace = []
    thr = k_threshold(space, space.potential(), p, *_bracket(params),
                      resolution=params.get("resolution", 1e-3),
                      sampler=sampler, tol=params.get("tol", 1e-7), trace=trace)
    expected = params.get("expected")
    ok = expected is None or abs(thr - expected) <= params.get("band", 1e-3)
    return dict(verdict="PASS" if ok else "FAIL", value=thr,
                error_est=params.get("resolution", 1e-3),
                witness=None, extra={"trace": trace})


def _run_torsion_disk(space, params, sampler, tol):
    a, b = params["a"], params["b"]
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
                witness={"coeffs": disk.coeffs, "expected": expected})


def _run_domain_compare(space, params, sampler, tol):
    p, q = complex(*params["p"]), complex(*params["q"])
    dist = space.distance_field(p)
    ratio = float(dist(np.array([[q]]))[0]) / abs(q - p)
    min_ratio = params.get("min_ratio", -math.inf)
    if ratio < min_ratio:
        raise KahlerLabError(f"length ratio {ratio:.6g} is below min_ratio {min_ratio:g}")
    eps = params.get("eps", 0.15)
    fixed = DiskEmbedding.affine(np.array([q]), np.array([eps]), space.chart)
    candidates = [fixed] if space.disk_free(q, eps) else []
    rng = np.random.default_rng(sampler.seed)
    for _ in range(params.get("count", 10)):
        c = q + 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
        r = eps * rng.uniform(0.5, 1.0)
        if not space.disk_free(c, r):
            continue
        try:
            candidates.append(DiskEmbedding.affine(np.array([c]), np.array([r]), space.chart))
        except InvalidDisk:
            continue
    res = worst_defect(space.metric(), np.array([p]), 0.0, dist, candidates)
    return dict(_scan_row(res, tol, p=[p.real, p.imag], ratio=ratio),
                extra={"length_ratio": ratio})


@dataclass(frozen=True)
class Check:
    """A check kind: its runner, the space kinds it runs on, its params
    schema, its default tol if it takes --tol, and the load-time check
    ``validate(space, params, where)`` of what the schema cannot say."""
    run: Callable
    spaces: tuple
    params: dict
    tol: Optional[float]
    validate: Callable = lambda space, params, where: None


_MODEL_OR_CONE = ("model", "cone", "orbifold")
_CLOSED_FORM = ("model", "cone", "orbifold", "domain")   # with a metric and distance_field

CHECKS = {
    "curvature-match": Check(_run_curvature_match, ("model",),
                             _params(points=_COUNT, radius=_NUM, tol=_NUM), 1e-5),
    "min-bk-defect": Check(_run_min_bk_defect, _CLOSED_FORM,
                           _params("K", K=_NUM, z=_POINT, tol=_NUM, samples=_COUNT), 1e-6),
    "comparison-scan": Check(_run_comparison_scan, _CLOSED_FORM + ("torsion",),
                             _params("K", K=_NUM, p=_POINT, count=_COUNT, tol=_NUM), 1e-6),
    # eps2 below 1 keeps each eps1 = 5e-3 (eps2 / 5e-2)^1.5 below its eps2
    "violation-study": Check(_run_violation_study, ("model",), _params(
        "K", K=_NUM, band=_PAIR, eps2_list=dict(_LIST, items=dict(_POSITIVE, exclusiveMaximum=1))),
        None),
    "annulus": Check(_run_annulus, _CLOSED_FORM, _params(
        "K", K=_NUM, p=_POINT, tol=_NUM,
        eps_list=dict(_LIST, items=dict(_POSITIVE, exclusiveMaximum=0.1))), 1e-6),
    "psh": Check(_run_psh, _MODEL_OR_CONE, _params(
        "K", K=_NUM, p=_POINT, tol=_NUM, crossing=_INT, center=_POINT), 1e-6),
    # exactly one of a point set S and a complex line {a + t v}
    "psh-set": Check(_run_psh, _MODEL_OR_CONE, dict(
        _params("K", K=_NUM, tol=_NUM, S=dict(_LIST, items=_POINT),
                line=_params("a", "v", a=_POINT, v=_POINT)),
        oneOf=[{"required": ["S"]}, {"required": ["line"]}]), 1e-6),
    "radial-potential": Check(_run_radial_potential, ("cone", "orbifold"), _params(tol=_NUM), 1e-4),
    "quotient-bk2": Check(_run_quotient_bk2, ("quotient",), _params(
        zprime=dict(_POINT, minItems=1, maxItems=2), perturb={"type": "boolean"}), None,
        _check_zprime),
    "k-threshold": Check(_run_k_threshold, _MODEL_OR_CONE, _params(
        p=_POINT, lo=_NUM, hi=_NUM, resolution=_POSITIVE, expected=_NUM, band=_NUM,
        tol=_NUM), None, lambda space, params, where: _ordered(*_bracket(params), where)),
    "torsion-disk": Check(_run_torsion_disk, ("torsion",), _params(
        "a", "b", a=_POINT, b=_POINT, eps1=_NUM, eps2=_NUM, factor=_NUM), None),
    "domain-compare": Check(_run_domain_compare, ("domain",), _params(
        "p", "q", p=_PAIR, q=_PAIR, eps=_POSITIVE, count=_COUNT, tol=_NUM, min_ratio=_NUM),
        1e-6),
}

# ids name witness files, so they stay inside witness/
_ID = {"type": "string", "pattern": "^[A-Za-z0-9][A-Za-z0-9._-]*$"}

CONFIG_SCHEMA = _params(
    "version", "scenarios", version={"const": 1}, scenarios={"type": "array", "items": _params(
        "id", "space", "checks", id=_ID,
        space={"type": "object", "required": ["kind"],
               "properties": {"kind": {"enum": list(SPACES)}}},
        sampler=_SAMPLER,
        checks={"type": "array", "items": _params(
            "check", check={"enum": sorted(CHECKS)}, id=_ID,
            expect={"enum": ["PASS", "FAIL"]}, params={"type": "object"})})})
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
_SPACE_VALIDATORS = {k: jsonschema.Draft202012Validator(s.spec) for k, s in SPACES.items()}
_PARAM_VALIDATORS = {k: jsonschema.Draft202012Validator(c.params) for k, c in CHECKS.items()}


def _points(schema, value, n: int, where: str):
    """``value`` with each value that ``schema`` declares a _POINT (not a zprime
    or a _PAIR) a complex vector; ConfigError, at ``where``, unless it has dimension ``n``."""
    if schema is _POINT:
        z = _as_point(value)
        if z.size != n:
            raise ConfigError(f"{where}: point has dimension {z.size}, expected {n}")
        return z
    if schema.get("type") == "object":
        return {k: _points(schema["properties"][k], v, n, where) for k, v in value.items()}
    if schema.get("type") == "array":
        return [_points(schema["items"], v, n, where) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioCheck:
    """A loaded check: its kind, id, expected verdict, params with their
    points converted, and the ERROR message when it does not run on its space."""
    check: str
    id: str
    expect: str
    params: dict
    misfit: Optional[str]


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: its id, built space and sampler, and its checks."""
    id: str
    space: object
    sampler: DiskSampler
    checks: tuple


def load_config(path: str) -> list:
    """The scenarios of the config at ``path``, built.  ConfigError unless it
    meets the schema, no two checks share a witness file name, each scenario's
    space builds, and each point of a check that runs on that space has the
    space's dimension."""
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
    scenarios, stems = [], set()        # stems of witness/{scenario id}-{check id}.json
    for i, sc in enumerate(cfg["scenarios"]):
        sampler = dict(sc.get("sampler", {}))
        if "size_range" in sampler:
            sampler["size_range"] = tuple(sampler["size_range"])
            _ordered(*sampler["size_range"], f"{path}: at scenarios/{i}/sampler/size_range")
        spec = sc["space"]
        e = jsonschema.exceptions.best_match(_SPACE_VALIDATORS[spec["kind"]].iter_errors(spec))
        if e is not None:
            at = "/".join(["scenarios", str(i), "space", *map(str, e.absolute_path)])
            raise ConfigError(f"{path}: at {at}: {e.message}") from e
        space = build_space(spec)
        checks = []
        for j, ch in enumerate(sc["checks"]):
            name, check, params = ch["check"], CHECKS[ch["check"]], ch.get("params", {})
            check_id = ch.get("id", f"{name}-{j}")
            stem = f"{sc['id']}-{check_id}"
            if stem in stems:
                raise ConfigError(f"{path}: at scenarios/{i}/checks/{j}: witness name "
                                  f"{stem!r} is taken by an earlier check")
            stems.add(stem)
            where = f"{path}: scenario {sc['id']!r} check {name!r}"
            e = jsonschema.exceptions.best_match(_PARAM_VALIDATORS[name].iter_errors(params))
            if e is not None:
                raise ConfigError(f"{where}: {e.message}") from e
            misfit = None
            if spec["kind"] in check.spaces:
                params = _points(check.params, params, space.chart.n, where)
                check.validate(space, params, where)
            else:                            # an ERROR row when it runs
                *rest, last = check.spaces
                kinds = f"{', '.join(rest)} or {last}" if rest else last
                misfit = f"{name} needs a {kinds} space"
            checks.append(ScenarioCheck(name, check_id, ch.get("expect", "PASS"), params,
                                        misfit))
        scenarios.append(Scenario(sc["id"], space, DiskSampler(**sampler), tuple(checks)))
    return scenarios


def _json_default(obj):
    """json's hook for what it cannot encode: complex as [re, im], numpy
    arrays as lists and numpy scalars as numbers."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def run_scenario(scenario: Scenario, seed_override: Optional[int],
                 tol_override: Optional[float]) -> list:
    """Run one loaded scenario; returns a list of result-row dicts."""
    sampler = (scenario.sampler if seed_override is None
               else replace(scenario.sampler, seed=seed_override))
    rows = []
    for ch in scenario.checks:
        # the checks without a default tol ignore it
        tol = ch.params.get("tol", CHECKS[ch.check].tol if tol_override is None
                            else tol_override)
        t0 = time.perf_counter()
        try:
            if ch.misfit:
                raise ConfigError(ch.misfit)
            out = CHECKS[ch.check].run(scenario.space, ch.params, sampler, tol)
        except Exception as e:
            log.error("%s/%s: %s", scenario.id, ch.id, e,
                      exc_info=not isinstance(e, KahlerLabError))
            out = dict(verdict="ERROR", value=math.nan, error_est=math.nan,
                       witness={"error": str(e)})
        wall_ms = int(1000 * (time.perf_counter() - t0))
        rows.append(dict(scenario_id=scenario.id, check_id=ch.id,
                         verdict=out["verdict"], value=out["value"],
                         error_est=out["error_est"], seed=sampler.seed,
                         witness=out.get("witness"), extra=out.get("extra"),
                         expect=ch.expect, wall_ms=wall_ms, check=ch.check))
        log.info("%s/%s: %s (expected %s) value=%g [%s]", scenario.id, ch.id,
                 out["verdict"], ch.expect, out["value"],
                 "ok" if out["verdict"] == ch.expect else "UNEXPECTED")
    return rows


def execute(scenarios: list, out_dir: Path, seed: Optional[int], jobs: int,
            tol: Optional[float]) -> int:
    """Run loaded scenarios (seed >= 0) and write their reports to ``out_dir``; the exit code."""
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed {seed} is negative")
    out_dir.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(lambda sc: run_scenario(sc, seed, tol), scenarios))
    else:
        results = [run_scenario(sc, seed, tol) for sc in scenarios]
    rows = [r for rs in results for r in rs]

    wit_dir = out_dir / "witness"
    csv_rows = []
    for r in rows:
        ref = ""
        if r["witness"] is not None:
            wit_dir.mkdir(exist_ok=True)
            ref = f"witness/{r['scenario_id']}-{r['check_id']}.json"
            with open(out_dir / ref, "w", encoding="utf-8") as f:
                json.dump({"seed": r["seed"], **r["witness"]}, f, indent=2, sort_keys=True,
                          default=_json_default)
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
        json.dump({"rows": rows, "errors": errors, "mismatches": mismatches}, f,
                  indent=2, sort_keys=True, default=_json_default)

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


def _execute_cmd(config, seed, jobs, tol, out, kinds=None):
    """Run CONFIG's checks, or only those of the check kinds in ``kinds``."""
    try:
        scenarios = load_config(config)
        if kinds:
            scenarios = [replace(sc, checks=tuple(ch for ch in sc.checks if ch.check in kinds))
                         for sc in scenarios]
        code = execute(scenarios, Path(out), seed, jobs, tol)
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
                 kinds={"comparison-scan", "domain-compare"})


@main.command()
@click.argument("config", type=click.Path())
@_common
def threshold(config, seed, jobs, tol, out):
    """Run only the K-threshold bisection checks of CONFIG."""
    _execute_cmd(config, seed, jobs, tol, out, kinds={"k-threshold"})


@main.command()
@click.argument("directory", type=click.Path())
def plotdata(directory):
    """Emit columnar plot files from reports in DIRECTORY."""
    emit_plot_data(Path(directory))
    sys.exit(0)


if __name__ == "__main__":
    main()
