"""The three workloads: seeded inputs, the timed operations, and the
checks of their outputs.

``build(seed, workdir)`` returns one round: a fixed list of ``Op``s that
the harness repeats.  Every op's ``run`` is the timed call into
kahlerlab; its ``check`` (untimed) returns a list of problems, empty when
the output is right.  Checks use closed forms computed here, apart from
the program, or properties the method must have.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

from kahlerlab import cli, disks, geodesy, models, psh
from kahlerlab.fields import ComplexChart


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def _cplx(rng, n, scale):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# closed forms used by the checks


def dk2(d, K: float) -> np.ndarray:
    """d_K^2 written with log1p so that small distances keep full precision."""
    d = np.asarray(d, dtype=float)
    if K > 0:
        x = d * math.sqrt(K / 2.0)
        return -(4.0 / K) * np.log1p(-2.0 * np.sin(x / 2.0) ** 2)
    if K < 0:
        x = d * math.sqrt(-K / 2.0)
        return (4.0 / -K) * np.log1p(2.0 * np.sinh(x / 2.0) ** 2)
    return d * d


def _disk_map(coeffs, w):
    """i(w) = sum_m coeffs[m] w^m for coeffs of shape (M+1, n)."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return (w[:, None] ** np.arange(c.shape[0])[None, :]) @ c


FLAT_N_THETA = 4096      # trapezoid nodes of the flat boundary average
REPLAY_H = 1e-3          # Richardson step of the pointwise witness replay
# Polar Gauss rule of the distributional witness replay: twice the
# program's 48 x 64 in each direction, so the replay does not share the
# program's quadrature error.
REPLAY_N_R, REPLAY_N_THETA = 96, 128


def flat_defect(coeffs, p, K: float) -> float:
    """Comparison defect of a polynomial disk in flat C^n.

    The log moment is -sum_{m>=1} |c_m|^2 exactly; the boundary average
    is a trapezoid rule on a periodic analytic integrand.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    p = np.asarray(p, dtype=complex).reshape(-1)
    lhs = float(dk2(np.linalg.norm(c[0] - p), K))
    log_moment = -float(np.sum(np.abs(c[1:]) ** 2))
    bnd = _disk_map(c, np.exp(2j * math.pi * np.arange(FLAT_N_THETA) / FLAT_N_THETA))
    avg = float(np.mean(dk2(np.linalg.norm(bnd - p[None], axis=1), K)))
    return lhs - log_moment - avg


def cone_u(alpha: float, p: complex):
    """potential - d^2/2 on the cone, from the radius and the law of cosines."""
    b = 1.0 - alpha
    rho_p = abs(p) ** b / b
    tp = math.atan2(p.imag, p.real)

    def u(z):
        z = np.asarray(z, dtype=complex)
        rho = np.abs(z) ** b / b
        dt = np.abs((np.angle(z) - tp + math.pi) % (2 * math.pi) - math.pi)
        psi = np.minimum(b * dt, math.pi)
        d2 = np.maximum(rho ** 2 + rho_p ** 2 - 2 * rho * rho_p * np.cos(psi), 0.0)
        return np.abs(z) ** (2 * b) / (2 * b * b) - 0.5 * d2

    return u


def replay_cone_witness(alpha: float, p: complex, witness: dict) -> float:
    """Recompute a check_bk_lower witness value on a cone."""
    u = cone_u(alpha, p)
    coeffs = np.asarray(witness["coeffs"], dtype=complex)

    def f(w):
        return u(_disk_map(coeffs, w)[:, 0])

    if witness["kind"] == "pointwise":
        w0 = complex(witness["w"])

        def lap(s):
            pts = w0 + s * np.array([1, -1, 1j, -1j])
            return (np.sum(f(pts)) - 4 * f(np.array([w0]))[0]) / s ** 2

        return (4 * lap(REPLAY_H / 2) - lap(REPLAY_H)) / 3
    x, wgl = np.polynomial.legendre.leggauss(REPLAY_N_R)
    r = 0.5 * (x + 1.0)
    th = 2 * math.pi * np.arange(REPLAY_N_THETA) / REPLAY_N_THETA
    nodes = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    wts = np.repeat(0.5 * wgl * r * 2 * math.pi / REPLAY_N_THETA, REPLAY_N_THETA)
    r2 = np.abs(nodes) ** 2
    bump_lap = 12.0 * (1 - r2) * (3 * r2 - 1)
    return float(np.sum(wts * f(nodes) * bump_lap) / np.sum(wts * (1 - r2) ** 3))


def torsion_leading_defect(T, a, b, eps1: float, eps2: float) -> float:
    """2 eps1^2 eps2 Re S with S = sum conj(a_i) b_j T_ijk a_k."""
    S = np.einsum("i,j,ijk,k->", np.conj(a), b, np.asarray(T, dtype=complex), a)
    return 2.0 * eps1 ** 2 * eps2 * float(S.real)


# ---------------------------------------------------------------------------
# closed-scan: scenario configs through cli.load_config and cli.execute

FLAT_TOL = 1e-8          # flat and own-K model scans are equality cases
# absolute rounding floor of a defect: d_K^2 through log(cos) carries
# about 4e-16 of absolute error per evaluation
DEFECT_FLOOR = 1e-14
BAND = [0.8, 1.2]
CONFIGS_PER_ROUND = 3


def closed_scan_config(rng) -> dict:
    def sampler(radius=0.2, count=15):
        return {"seed": _seed(rng), "count": count, "size_range": [0.02, 0.25],
                "center_radius": radius}

    def pt(n, scale):
        z = _cplx(rng, n, scale)
        return [[float(v.real), float(v.imag)] for v in z]

    def model(sid, K, checks, **kw):
        return {"id": sid, "space": {"kind": "model", "K": K, "n": 2},
                "sampler": sampler(**kw), "checks": checks}

    scan = lambda K, count, tol, **kw: {
        "check": "comparison-scan", "id": "scan",
        "params": {"K": K, "p": pt(2, 0.04), "count": count, "tol": tol}, **kw}
    match = {"check": "curvature-match", "id": "curvature-match",
             "params": {"points": 10, "radius": 0.5, "tol": 1e-5}}
    return {"version": 1, "scenarios": [
        model("model-positive", 1.0, [
            match,
            {"check": "min-bk-defect", "id": "min-bk-defect",
             "params": {"K": 1.0, "z": pt(2, 0.07), "tol": 1e-6, "samples": 800}},
            scan(1.0, 10, 1e-5)]),
        model("model-negative", -1.0, [match, scan(-1.0, 10, 1e-5)]),
        model("flat-equality", 0.0, [scan(0.0, 15, 1e-6)], radius=0.3, count=20),
        model("flat-k1-violation", 0.0, [
            scan(1.0, 10, 1e-6, expect="FAIL"),
            {"check": "violation-study", "id": "violation-study",
             "params": {"K": 1.0, "eps2_list": [0.05, 0.025, 0.0125], "band": BAND}}],
            count=10),
    ]}


def _complex(pairs) -> np.ndarray:
    """Witness JSON stores complex numbers as [re, im] pairs."""
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _read_rows(out_dir: Path):
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _csv_without_wall_ms(out_dir: Path) -> str:
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as f:
        return "\n".join(line.rsplit(",", 1)[0] for line in f.read().splitlines())


def check_closed_scan(cfg: dict, code: int, rows: list, witnesses: dict) -> List[str]:
    """Problems with one executed config; ``witnesses`` maps witness_ref
    to the parsed witness file."""
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    expect = {(sc["id"], ch["id"]): ch.get("expect", "PASS")
              for sc in cfg["scenarios"] for ch in sc["checks"]}
    space_K = {sc["id"]: sc["space"]["K"] for sc in cfg["scenarios"]}
    seen = {(r["scenario_id"], r["check_id"]) for r in rows}
    if seen != set(expect):
        bad.append(f"rows {sorted(seen)} != checks {sorted(expect)}")
    for r in rows:
        key = (r["scenario_id"], r["check_id"])
        tag = "/".join(key)
        value = float(r["value"])
        if r["verdict"] != expect.get(key):
            bad.append(f"{tag}: verdict {r['verdict']} expected {expect.get(key)}")
        sc = next(s for s in cfg["scenarios"] if s["id"] == key[0])
        ch = next(c for c in sc["checks"] if c["id"] == key[1])
        if ch["check"] == "comparison-scan" and ch["params"]["K"] == space_K[key[0]]:
            if not abs(value) <= FLAT_TOL:
                bad.append(f"{tag}: equality-case defect {value:.3e}")
        if ch["check"] == "comparison-scan" and ch.get("expect") == "FAIL":
            wit = witnesses.get(r["witness_ref"])
            if wit is None:
                bad.append(f"{tag}: no witness")
                continue
            ref = flat_defect(_complex(wit["coeffs"]), _complex(wit["p"]), wit["K"])
            tol = DEFECT_FLOOR + 1e-7 * abs(ref) + float(r["error_est"])
            if not (abs(ref - wit["defect"]) <= tol and value == wit["defect"]):
                bad.append(f"{tag}: witness defect {wit['defect']!r}, "
                           f"closed form {ref!r}, row {value!r}")
        if ch["check"] == "violation-study":
            bad += _check_violation_study(tag, value, witnesses.get(r["witness_ref"]),
                                          ch["params"]["K"])
    return bad


def _check_violation_study(tag, value, wit, K) -> List[str]:
    if wit is None:
        return [f"{tag}: no curve"]
    bad = []
    for c in wit["curve"]:
        e1, e2 = c["eps1"], c["eps2"]
        s = math.sqrt(2.0)          # unit vectors of the flat metric I/2
        ref = flat_defect([[0.0, e2 * s], [e1 * s, 0.0]], np.zeros(2), K)
        pred = -(2.0 / 3.0) * K * e1 ** 2 * e2 ** 2
        if not abs(ref - c["defect"]) <= DEFECT_FLOOR + 1e-7 * abs(ref) + c["error_est"]:
            bad.append(f"{tag}: eps2={e2} defect {c['defect']!r} closed form {ref!r}")
        if not abs(pred - c["predicted"]) <= 1e-6 * abs(pred):
            bad.append(f"{tag}: eps2={e2} prediction {c['predicted']!r} vs {pred!r}")
    ratios = [c["defect"] / c["predicted"] for c in wit["curve"]]
    gaps = [abs(r - 1.0) for r in ratios]
    if not BAND[0] <= ratios[0] <= BAND[1]:
        bad.append(f"{tag}: first ratio {ratios[0]:.4f} outside {BAND}")
    if not all(b <= a + 1e-3 for a, b in zip(gaps, gaps[1:])):
        bad.append(f"{tag}: ratios {ratios} do not approach 1")
    if value != ratios[-1]:
        bad.append(f"{tag}: row ratio {value!r} vs curve {ratios[-1]!r}")
    return bad


def read_outputs(out_dir: Path):
    """results.csv rows, and each referenced witness file parsed."""
    rows = _read_rows(out_dir)
    witnesses = {r["witness_ref"]: json.loads((out_dir / r["witness_ref"]).read_text(
        encoding="utf-8")) for r in rows if r["witness_ref"]}
    return rows, witnesses


def build_closed_scan(seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng([seed, 1])
    fresh = itertools.count()
    ops = []
    for i in range(CONFIGS_PER_ROUND):
        cfg = closed_scan_config(rng)
        path = workdir / f"config-{i}.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        first_csv = []

        def run(path=path):
            out = workdir / f"out-{next(fresh)}"
            code = cli.execute(cli.load_config(str(path)), out, None, 1, None)
            return code, out

        def check(result, cfg=cfg, first_csv=first_csv):
            code, out = result
            try:
                rows, wits = read_outputs(out)
                bad = check_closed_scan(cfg, code, rows, wits)
                text = _csv_without_wall_ms(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if not first_csv:
                first_csv.append(text)
            elif text != first_csv[0]:
                bad.append("results.csv differs from the first run of this config")
            return bad

        ops.append(Op("config", run, check))
    return ops


def warm_closed_scan(workdir: Path):
    cfg = {"version": 1, "scenarios": [{
        "id": "warm", "space": {"kind": "model", "K": 0.0, "n": 2},
        "sampler": {"seed": 0, "count": 1},
        "checks": [{"check": "comparison-scan", "params": {"K": 0.0, "count": 1}}]}]}
    path = workdir / "warm.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    cli.execute(cli.load_config(str(path)), workdir / "warm-out", None, 1, None)
    shutil.rmtree(workdir / "warm-out")


# ---------------------------------------------------------------------------
# numeric-geodesic: comparison_defect with the geodesic solver


NUMERIC_TOL = 5e-3
TORSION_OPTS = dict(N=24, gtol=1e-8, max_iters=120)


def check_model_disk(numeric, closed) -> List[str]:
    bad = []
    if not abs(numeric.defect) <= NUMERIC_TOL:
        bad.append(f"numeric defect {numeric.defect:.3e} exceeds {NUMERIC_TOL}")
    if not abs(numeric.defect - closed.defect) <= numeric.error_estimate:
        bad.append(f"numeric defect {numeric.defect!r} vs closed-form {closed.defect!r}"
                   f" beyond error estimate {numeric.error_estimate:.3e}")
    return bad


def check_torsion_disk(defect: float, expected: float) -> List[str]:
    if expected < 0 and 2.0 * expected <= defect <= 0.5 * expected:
        return []
    return [f"torsion defect {defect:.4e} not within a factor 2 of {expected:.4e}"]


def _haar_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cplx(rng, (n, n), 1.0))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


# The disks are a fixed family moved by a seeded unitary map.  Unitary
# maps are isometries of the model spaces that commute with the solver,
# so every seed asks for the same work in other coordinates.
_BASE = np.random.default_rng(12)
MODEL_DISKS = [(K, _cplx(_BASE, 2, 0.15), _cplx(_BASE, 2, 0.2), _cplx(_BASE, 2, 1.0),
                _BASE.uniform(0.05, 0.3)) for K in (1.0, -1.0) * 3]


def _model_disk_op(K: float, p, a, b, size, U) -> Op:
    space = models.ModelSpace(K=K, n=2)
    metric = space.metric()
    p, a, b = U @ p, U @ a, U @ b * (size / np.linalg.norm(b))
    disk = disks.DiskEmbedding.affine(a, b, metric.chart)

    def run():
        return disks.comparison_defect(metric, disk, p, K, distance="numeric")

    def check(rep):
        closed = disks.comparison_defect(metric, disk, p, K,
                                         distance=space.distance_field(p))
        return check_model_disk(rep, closed)

    return Op("model-disk", run, check)


def _torsion_op(rng) -> Op:
    T = np.zeros((2, 2, 2))
    T[0, 0, 1], T[0, 1, 0] = -0.5, 0.5
    chart = ComplexChart(n=2, radii=1.5)
    metric = disks.torsion_metric(T, chart)
    phase, twist = rng.uniform(0, 2 * math.pi), rng.uniform(-0.4, 0.4)
    a = np.exp(1j * phase) * np.array([1.0, np.exp(1j * twist)])
    b = np.array([1.0, 0.0], dtype=complex)
    e1, e2 = 5e-3, 5e-2
    disk = disks.DiskEmbedding.affine(e2 * b, e1 * a, chart)
    expected = torsion_leading_defect(T, a, b, e1, e2)

    def run():
        return disks.comparison_defect(metric, disk, np.zeros(2, dtype=complex), 0.0,
                                       distance="numeric", solver_opts=TORSION_OPTS)

    return Op("torsion-disk", run, lambda rep: check_torsion_disk(rep.defect, expected))


def build_numeric_geodesic(seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng([seed, 2])
    U = _haar_unitary(rng, 2)
    ops = [_model_disk_op(*base, U) for base in MODEL_DISKS]
    ops.append(_torsion_op(rng))
    return ops


def warm_numeric_geodesic(workdir: Path):
    metric = models.ModelSpace(K=1.0, n=2).metric()
    geodesy.geodesic_distance_many(metric, np.zeros(2), np.full((2, 2), 0.1 + 0.05j),
                                   N=12, max_iters=10)


# ---------------------------------------------------------------------------
# psh-bisect: k_threshold bisection and check_bk_lower on cones

RESOLUTION = 1e-3
THRESHOLD_CASES = ((-1.0, 1), (-1.0, 2), (0.5, 1), (1.0, 2), (2.0, 1), (2.0, 2))
CONE_ALPHAS = (1.0 / 3.0, 0.5, 2.0 / 3.0)
WIDE_ALPHA = -0.5


def check_threshold(thr: float, K: float) -> List[str]:
    if abs(thr - K) <= RESOLUTION:
        return []
    return [f"threshold {thr!r} misses K={K} by more than {RESOLUTION}"]


def check_cone(v) -> List[str]:
    return [] if v.verdict == "PASS" else [f"cone FAILs at K=0, min {v.min_laplacian:.3e}"]


def check_wide_cone(v, p: complex) -> List[str]:
    if v.verdict != "FAIL" or v.witness is None:
        return [f"wide cone verdict {v.verdict} (expected FAIL with a witness)"]
    val = replay_cone_witness(WIDE_ALPHA, p, v.witness)
    ref = v.witness["value"]
    if val < 0 and abs(val - ref) <= 0.01 * abs(ref) and v.min_laplacian == ref:
        return []
    return [f"wide-cone witness {ref!r} replays to {val!r}"]


def _threshold_op(K: float, n: int, rng) -> Op:
    space = models.ModelSpace(K=K, n=n)
    p = _cplx(rng, n, 0.07)
    lo = K - rng.uniform(0.45, 0.6)
    hi = K + rng.uniform(0.6, 1.2)
    sampler = psh.DiskSampler(seed=_seed(rng), count=40, interior_points=6,
                              size_range=(0.05, 0.3))

    def run():
        return psh.k_threshold(space, space.potential(), p, lo, hi,
                               resolution=RESOLUTION, sampler=sampler, tol=1e-7)

    return Op("k-threshold", run, lambda thr: check_threshold(thr, K))


def _cone_op(alpha: float, rng) -> Op:
    cone = models.ConeSurface(alpha=alpha)
    p = 0.7 + 0.1j + complex(*rng.uniform(-0.05, 0.05, 2))
    sampler = psh.DiskSampler(seed=_seed(rng), count=100, interior_points=5)

    def run():
        return psh.check_bk_lower(cone, cone.potential(), p, 0.0, sampler=sampler)

    return Op("cone", run, check_cone)


def _wide_cone_op(rng) -> Op:
    cone = models.ConeSurface(alpha=WIDE_ALPHA)
    p = 0.7 + complex(*rng.uniform(-0.05, 0.05, 2))
    center = np.array([-0.5 + 0.2j + complex(*rng.uniform(-0.05, 0.05, 2))])
    sampler = psh.DiskSampler(seed=_seed(rng), count=50, interior_points=5)

    def run():
        return psh.check_bk_lower(cone, cone.potential(), p, 0.0, sampler=sampler,
                                  center=center, crossing_tests=10)

    return Op("wide-cone", run, lambda v: check_wide_cone(v, p))


def build_psh_bisect(seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = [_threshold_op(K, n, rng) for K, n in THRESHOLD_CASES]
    ops += [_cone_op(a, rng) for a in CONE_ALPHAS]
    ops.append(_wide_cone_op(rng))
    return ops


def warm_psh_bisect(workdir: Path):
    space = models.ModelSpace(K=1.0, n=1)
    psh.check_bk_lower(space, space.potential(), np.array([0.1 + 0.05j]), 1.0,
                       sampler=psh.DiskSampler(count=2, interior_points=2))


WORKLOADS = {
    "closed-scan": (build_closed_scan, warm_closed_scan),
    "numeric-geodesic": (build_numeric_geodesic, warm_numeric_geodesic),
    "psh-bisect": (build_psh_bisect, warm_psh_bisect),
}
