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

import argparse
import csv
import functools
import json
import logging
import math
import operator
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .curvature import TangentPair, curvature_tensor, curvature_tensors, min_bk_defect
from .disks import (DiskEmbedding, DiskSampler, TorsionSpace, annulus_defects,
                    asymptotic_defect, comparison_defect, comparison_defects, rprime_value,
                    sample_disks, scan_disks, stack_or_each, torsion_expected_defect,
                    violation_disk, worst_defect)
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
_TENSOR = {"type": "array", "items": {"type": "array", "items": {"type": "array", "items": _NUM}}}


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
        "T", T=_TENSOR, n=_COUNT, radius=_NUM),
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
    radius = params.get("radius", 0.5)
    rng = np.random.default_rng(sampler.seed)
    zs = []
    for _ in range(params.get("points", 20)):
        z = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
        zs.append(z * radius * rng.uniform() / np.linalg.norm(z))
    R, G, error = curvature_tensors(space.metric(), np.array(zs))
    closed = -(space.c / 2.0) * (np.einsum("pij,pkl->pijkl", G, G)
                                 + np.einsum("pil,pkj->pijkl", G, G))
    scale = np.max(np.abs(closed), axis=(1, 2, 3, 4))
    worst = float(np.max(np.max(np.abs(R - closed), axis=(1, 2, 3, 4)) / scale))
    err = float(np.max(error / scale))
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


def _band(params) -> tuple:
    """The ratio band (lo, hi) of a violation-study check, by default (0.8, 1.2)."""
    return tuple(params.get("band", (0.8, 1.2)))


def _run_violation_study(space, params, sampler, tol):
    """Defect over leading-order prediction along shrinking disk sizes."""
    K = params["K"]
    eps2_list = params.get("eps2_list", [5e-2, 2.5e-2, 1.25e-2])
    lo, hi = _band(params)
    metric = space.metric()
    p = np.zeros(space.n, dtype=complex)
    data = curvature_tensor(metric, p)
    X, Y = np.eye(space.n, dtype=complex)[[0, -1]]
    pair = TangentPair(X=X, Y=Y, G=data.G)
    rp = rprime_value(data, K, pair)
    eps1_list = [5e-3 * (e2 / 5e-2) ** 1.5 for e2 in eps2_list]
    disks = [violation_disk(metric, p, pair, e1, e2) for e1, e2 in zip(eps1_list, eps2_list)]
    # 4x min_bk_defect's bound for an entrywise error of R
    bound = 4.0 * space.n ** 2 * data.error / np.linalg.eigvalsh(data.G)[0] ** 2
    if abs(rp) <= bound:
        raise KahlerLabError(f"rprime {rp:.3g} is within its error bound {bound:.3g}: "
                             f"no leading-order prediction at K = {K:g}")
    reports = comparison_defects(metric, disks, p, K, distance=space.distance_field(p))
    curve = []
    for e1, e2, rep in zip(eps1_list, eps2_list, reports):
        pred = asymptotic_defect(rp, e1, e2)
        curve.append({"eps1": e1, "eps2": e2, "defect": rep.defect,
                      "predicted": pred, "ratio": rep.defect / pred,
                      "error_est": rep.error_estimate})
    ratios = [c["ratio"] for c in curve]
    gaps = [abs(r - 1.0) for r in ratios]
    ok = lo <= ratios[0] <= hi and all(
        b <= a + 1e-3 for a, b in zip(gaps, gaps[1:]))
    return dict(verdict="PASS" if ok else "FAIL", value=ratios[-1],
                error_est=max(c["error_est"] / abs(c["predicted"]) for c in curve),
                witness={"curve": curve, "rprime": rp})


def _run_annulus(space, params, sampler, tol):
    p = params.get("p", np.zeros(space.chart.n, dtype=complex))
    metric = space.metric()
    dist = space.distance_field(p)
    eps_list = params.get("eps_list", [0.05, 0.02])
    disks = sample_disks(metric.chart, p, sampler, np.random.default_rng(sampler.seed))
    # a disk that raises at any eps or node is skipped, as in a scan
    results = stack_or_each(lambda ds: list(zip(*annulus_defects(
        metric, ds, params["K"], eps_list, dist))), disks)
    scored = [(float(v), float(e), d, eps) for res, d in zip(results, disks) if res is not None
              for v, e, eps in zip(*res, eps_list)]
    if not scored:
        raise KahlerLabError("no admissible disk in the scan")
    worst, err, d, eps = min(scored, key=lambda s: s[0])       # the first minimum
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


def _distinct(p, q, where: str) -> None:
    """ConfigError, at ``where``, when the points p and q coincide."""
    if p == q:
        raise ConfigError(f"{where}: p and q coincide")


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
        None, lambda space, params, where: _ordered(*_band(params), where)),
    "annulus": Check(_run_annulus, _CLOSED_FORM, _params(
        "K", K=_NUM, p=_POINT, tol=_NUM,
        eps_list=dict(_LIST, items=dict(_POSITIVE, exclusiveMaximum=0.1))), 1e-6),
    "psh": Check(_run_psh, _MODEL_OR_CONE, _params(
        "K", K=_NUM, p=_POINT, tol=_NUM, crossing=dict(_INT, minimum=0), center=_POINT), 1e-6),
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
        1e-6, lambda space, params, where: _distinct(params["p"], params["q"], where)),
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


# the schema walker: the Draft 2020-12 keywords that the schemas above use

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}
# keyword: (the comparison that fails, its words, the end it bounds)
_BOUNDS = {"minimum": (operator.lt, "less than", "minimum"),
           "maximum": (operator.gt, "greater than", "maximum"),
           "exclusiveMinimum": (operator.le, "less than or equal to", "minimum"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to", "maximum")}


def _is_type(x, name: str) -> bool:
    """JSON Schema's type test: a bool is not a number, and 1.0 is an integer."""
    if name == "integer" and isinstance(x, float):
        return x.is_integer()
    return isinstance(x, _TYPES[name]) and isinstance(x, bool) == (name == "boolean")


def _same(x, value) -> bool:
    """JSON equality with a scalar enum or const value: true is not 1."""
    return x == value and isinstance(x, bool) == isinstance(value, bool)


class _Miss(NamedTuple):
    """A schema error: the instance path, the keyword that failed, its
    message, whether the instance has the type its schema declares, and
    for anyOf and oneOf the errors of the branches (paths relative to it)."""
    path: tuple
    keyword: Optional[str]
    message: str
    typed: bool
    context: tuple = ()


def _schema_errors(schema, x, path: tuple = ()):
    """Every error of the instance ``x`` under ``schema``, with the messages
    and in the order of the jsonschema package's Draft 2020-12 validator,
    which tests/test_schema.py holds it to.  Knows boolean schemas and the keywords type, properties, required,
    additionalProperties (false), items, minItems, maxItems, minimum,
    maximum, exclusiveMinimum, exclusiveMaximum, enum, const, pattern,
    anyOf, oneOf, allOf and if/then; any other keyword raises ValueError."""
    if schema is True:
        return
    if schema is False:
        yield _Miss(path, None, f"False schema does not allow {x!r}", False)
        return
    typed = "type" in schema and _is_type(x, schema["type"])
    obj, arr = isinstance(x, dict), isinstance(x, list)
    for key, v in schema.items():
        miss = functools.partial(_Miss, path, key, typed=typed)
        if key == "type":
            if not _is_type(x, v):
                yield miss(f"{x!r} is not of type {v!r}")
        elif key == "properties":
            for k, sub in v.items() if obj else ():
                if k in x:
                    yield from _schema_errors(sub, x[k], path + (k,))
        elif key == "additionalProperties" and v is False:
            extra = sorted(set(x) - set(schema.get("properties", ())), key=str) if obj else ()
            if extra:
                yield miss(f"Additional properties are not allowed "
                           f"({', '.join(map(repr, extra))} {'was' if len(extra) == 1 else 'were'}"
                           f" unexpected)")
        elif key == "required":
            for k in v if obj else ():
                if k not in x:
                    yield miss(f"{k!r} is a required property")
        elif key == "items":
            for i, item in enumerate(x if arr else ()):
                yield from _schema_errors(v, item, path + (i,))
        elif key == "minItems":
            if arr and len(x) < v:
                yield miss(f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}")
        elif key == "maxItems":
            if arr and len(x) > v:
                yield miss(f"{x!r} {'is expected to be empty' if v == 0 else 'is too long'}")
        elif key in _BOUNDS:
            fails, words, end = _BOUNDS[key]
            if _is_type(x, "number") and fails(x, v):
                yield miss(f"{x!r} is {words} the {end} of {v!r}")
        elif key == "enum":
            if not any(_same(x, e) for e in v):
                yield miss(f"{x!r} is not one of {v!r}")
        elif key == "const":
            if not _same(x, v):
                yield miss(f"{v!r} was expected")
        elif key == "pattern":
            if isinstance(x, str) and not re.search(v, x):
                yield miss(f"{x!r} does not match {v!r}")
        elif key in ("anyOf", "oneOf"):
            branches = [tuple(_schema_errors(sub, x)) for sub in v]
            valid = [sub for sub, errors in zip(v, branches) if not errors]
            if not valid:
                yield miss(f"{x!r} is not valid under any of the given schemas",
                           context=sum(branches, ()))
            elif key == "oneOf" and len(valid) > 1:
                yield miss(f"{x!r} is valid under each of "
                           f"{', '.join(map(repr, valid[1:] + valid[:1]))}")
        elif key == "allOf":
            for sub in v:
                yield from _schema_errors(sub, x, path)
        elif key == "if":
            if "then" in schema and not any(_schema_errors(v, x)):
                yield from _schema_errors(schema["then"], x, path)
        elif key != "then":
            raise ValueError(f"unsupported schema keyword {key!r}: {v!r}")


def _relevance(e: _Miss) -> tuple:
    """The reference's ``relevance`` key, the larger the more relevant:
    shallow first, then the later path, then not an anyOf or oneOf, then an
    instance not of its schema's type."""
    return -len(e.path), e.path, e.keyword not in ("anyOf", "oneOf"), not e.typed


def _schema_error(schema, instance):
    """The error of ``instance`` under ``schema`` that the reference's
    ``best_match`` picks, as (path, message), or None when it is valid: the
    most relevant error, then, while it is an anyOf or oneOf whose branch
    errors have one least relevant (deepest) error, that error."""
    best = max(_schema_errors(schema, instance), key=_relevance, default=None)
    if best is None:
        return None
    path = best.path
    while best.context:
        first, *second = sorted(best.context, key=_relevance)[:2]
        if second and _relevance(first) == _relevance(second[0]):
            break
        path, best = path + first.path, first
    return path, best.message


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


def _integers(schema, value):
    """``value`` with each float at a position that ``schema`` types an
    integer made an int.  The schema counts 2.0 as an integer, so once a
    value has passed it, that float is integral, and the spaces, samplers
    and checks take it as the count or size its int spelling gives."""
    if not isinstance(schema, dict):
        return value
    if schema.get("type") == "integer" and isinstance(value, float):
        return int(value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _integers(props.get(k), v) for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_integers(schema["items"], v) for v in value]
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
    space's dimension.  An integral float where the schema says integer is
    read as that int."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:                    # missing, a directory, not permitted
        raise ConfigError(str(e)) from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8: {e}") from e
    e = _schema_error(CONFIG_SCHEMA, cfg)
    if e is not None:
        raise ConfigError(f"{path}: at {'/'.join(map(str, e[0])) or '<root>'}: {e[1]}")
    cfg = _integers(CONFIG_SCHEMA, cfg)
    scenarios, stems = [], set()        # stems of witness/{scenario id}-{check id}.json
    for i, sc in enumerate(cfg["scenarios"]):
        sampler = dict(sc.get("sampler", {}))
        if "size_range" in sampler:
            sampler["size_range"] = tuple(sampler["size_range"])
            _ordered(*sampler["size_range"], f"{path}: at scenarios/{i}/sampler/size_range")
        spec = sc["space"]
        schema = SPACES[spec["kind"]].spec
        e = _schema_error(schema, spec)
        if e is not None:
            at = "/".join(map(str, ("scenarios", i, "space") + e[0]))
            raise ConfigError(f"{path}: at {at}: {e[1]}")
        space = build_space(_integers(schema, spec))
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
            e = _schema_error(check.params, params)
            if e is not None:
                raise ConfigError(f"{where}: {e[1]}")
            params = _integers(check.params, params)
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
    """Run loaded scenarios (seed >= 0, jobs >= 1) and write their reports to
    ``out_dir``; the exit code.  ConfigError, before any check runs, for a
    negative seed, jobs below 1 or an ``out_dir`` that cannot be made."""
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed {seed} is negative")
    if jobs < 1:
        raise ConfigError(f"--jobs {jobs} is below 1")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:                    # a file, or a path below one
        raise ConfigError(f"--out {out_dir}: cannot make the directory: {e.strerror}") from e
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
    defect histograms; ERROR rows carry no curve, trace or defect.  Missing data
    yields header-only files.  ConfigError, before any file is written,
    unless ``out_dir`` is a directory and its summary, if any, a JSON object
    whose rows have the shape ``execute`` writes."""
    if not out_dir.is_dir():
        raise ConfigError(f"{out_dir}: not a directory")
    summary_path = out_dir / "summary.json"
    rows = []
    if summary_path.exists():
        try:
            with open(summary_path, "r", encoding="utf-8") as f:
                summary = json.load(f)
        except (OSError, ValueError) as e:     # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"{summary_path}: unreadable: {e}") from e
        if not isinstance(summary, dict):
            raise ConfigError(f"{summary_path}: not a JSON object")
        rows = summary.get("rows", [])
        if not isinstance(rows, list):
            raise ConfigError(f"{summary_path}: rows is not a list")

    curves, traces, hist = [], [], []
    for i, r in enumerate(rows):
        try:
            check, ok = r.get("check"), r.get("verdict") != "ERROR"
            if check == "violation-study" and ok and r.get("witness"):
                curves += [[r["scenario_id"], r["check_id"], c["eps1"], c["eps2"],
                            c["defect"], c["predicted"], c["ratio"]]
                           for c in r["witness"]["curve"]]
            elif check == "k-threshold" and ok and r.get("extra"):
                traces += [[r["scenario_id"], r["check_id"], step, K, ml, v]
                           for step, (K, ml, v) in enumerate(r["extra"]["trace"])]
            elif check in ("comparison-scan", "annulus", "domain-compare") and ok:
                hist.append([r["scenario_id"], r["check_id"], r["value"]])
        except (AttributeError, LookupError, TypeError, ValueError) as e:
            raise ConfigError(f"{summary_path}: rows/{i} does not have the shape "
                              f"`run` writes ({type(e).__name__}: {e})") from e

    for name, header, body in (
            ("ratio_curves.csv", ["scenario_id", "check_id", "eps1", "eps2", "defect",
                                  "predicted", "ratio"], curves),
            ("threshold_trace.csv", ["scenario_id", "check_id", "step", "K",
                                     "min_laplacian", "verdict"], traces),
            ("defect_hist.csv", ["scenario_id", "check_id", "value"], hist)):
        with open(out_dir / name, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(body)


def bundled_scenario_path(name: str) -> Path:
    return Path(str(resources.files("kahlerlab") / "scenarios" / name))


# (name, the check kinds it keeps or None for all, help) of each command that runs a CONFIG
_COMMANDS = (("run", None, "Run every check of every scenario in CONFIG."),
             ("scan", {"comparison-scan", "domain-compare"},
              "Run only the disk-scan checks of CONFIG."),
             ("threshold", {"k-threshold"}, "Run only the K-threshold bisection checks of CONFIG."))


def main(argv=None) -> None:
    """Numerical laboratory scenario runner."""
    parser = argparse.ArgumentParser(prog="kahlerlab", description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, kinds, text in _COMMANDS:
        cmd = commands.add_parser(name, help=text, description=text, allow_abbrev=False)
        cmd.set_defaults(kinds=kinds)
        cmd.add_argument("config", metavar="CONFIG")
        cmd.add_argument("--seed", type=int, default=None, help="Override every sampler seed.")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="Scenario-level worker count, at least 1.")
        cmd.add_argument("--tol", type=float, default=None,
                         help="Default tolerance for checks that do not set one.")
        cmd.add_argument("--out", default="lab-out", help="Output directory.")
    text = "Emit columnar plot files from reports in DIRECTORY."
    commands.add_parser("plotdata", help=text, description=text,
                        allow_abbrev=False).add_argument("directory", metavar="DIRECTORY")
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("LAB_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):     # the level's number
            raise ConfigError(f"LAB_LOG={level!r}: use DEBUG, INFO, WARNING, ERROR or CRITICAL")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        if args.command == "plotdata":
            emit_plot_data(Path(args.directory))
            code = 0
        else:
            scenarios = load_config(args.config)
            if args.kinds:
                scenarios = [replace(sc, checks=tuple(ch for ch in sc.checks
                                                      if ch.check in args.kinds))
                             for sc in scenarios]
            code = execute(scenarios, Path(args.out), args.seed, args.jobs, args.tol)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
