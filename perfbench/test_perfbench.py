"""Tests of the benchmark itself: span arithmetic, layer patching, and
that corrupted outputs are counted as failed operations."""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kahlerlab import disks, models  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    tr.enabled = True
    with tr.span("outer"):            # [0, 10]
        clock.t = 1.0
        with tr.span("a"):            # [1, 4]
            clock.t = 4.0
        clock.t = 5.0
        with tr.span("b"):            # [5, 9]
            clock.t = 6.0
            with tr.span("c"):        # [6, 7]
                clock.t = 7.0
            clock.t = 9.0
        clock.t = 10.0
    assert dict(tr.self_s) == {"outer": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    assert sum(tr.self_s.values()) == 10.0


def test_recursive_span_books_each_second_once():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    tr.enabled = True
    with tr.span("fd.hessian"):       # [0, 5] holding [1, 3]
        clock.t = 1.0
        with tr.span("fd.hessian"):
            clock.t = 3.0
        clock.t = 5.0
    assert tr.self_s["fd.hessian"] == 5.0


def test_disabled_tracer_records_nothing():
    tr = spans.Tracer()
    with tr.span("x"):
        tr.add("x.calls")
    assert not tr.self_s and not tr.counts


def test_patched_counts_a_call_and_restores_originals():
    original = disks.log_moment
    tr = spans.Tracer()
    space = models.ModelSpace(K=0.0, n=2)
    metric = space.metric()
    p = np.zeros(2, dtype=complex)
    with spans.patched(tr):
        assert disks.log_moment is not original
        disk = disks.DiskEmbedding.affine([0.1, 0.0], [0.05, 0.02j], metric.chart)
        tr.enabled = True
        disks.comparison_defect(metric, disk, p, 0.0, distance=space.distance_field(p))
        tr.enabled = False
    assert disks.log_moment is original
    assert tr.counts["disks.comparison_defect.calls"] == 1
    assert tr.counts["disks.log_moment.nodes"] > 0
    assert tr.counts["fields.gram.points"] >= tr.counts["disks.log_moment.nodes"]
    assert tr.self_s["disks.log_moment"] > 0


def _corrupted(op, corrupt):
    return dataclasses.replace(op, run=lambda: corrupt(op.run()))


def test_threshold_off_by_two_resolutions_is_a_failed_op():
    op = next(o for o in workloads.build_psh_bisect(7, None) if o.kind == "k-threshold")
    bad = _corrupted(op, lambda thr: thr + 2 * workloads.RESOLUTION)
    _, failed = run.run_round([op, bad])
    assert failed == 1


def test_wide_cone_witness_must_replay():
    op = next(o for o in workloads.build_psh_bisect(7, None) if o.kind == "wide-cone")
    v = op.run()
    assert op.check(v) == []
    v.witness = dict(v.witness, value=1.05 * v.witness["value"])
    v.min_laplacian = v.witness["value"]
    assert op.check(v)


def test_numeric_defect_outside_error_estimate_is_a_failed_op():
    op = next(o for o in workloads.build_numeric_geodesic(7, None) if o.kind == "model-disk")
    shift = lambda rep: dataclasses.replace(
        rep, defect=rep.defect + 2 * rep.error_estimate + 1e-6)
    _, failed = run.run_round([op, _corrupted(op, shift)])
    assert failed == 1


def test_torsion_defect_shifted_by_1e6_fails():
    expected = -1.25e-6
    assert workloads.check_torsion_disk(1.1 * expected, expected) == []
    assert workloads.check_torsion_disk(1.1 * expected + 1e-6, expected)


@pytest.fixture(scope="module")
def closed_scan_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("closed-scan")
    op = workloads.build_closed_scan(7, workdir)[0]
    code, out = op.run()
    rows, wits = workloads.read_outputs(out)
    cfg = workloads.json.loads((workdir / "config-0.json").read_text())
    return op, (code, out), cfg, rows, wits


def test_closed_scan_output_passes(closed_scan_output):
    _, (code, _), cfg, rows, wits = closed_scan_output
    assert workloads.check_closed_scan(cfg, code, rows, wits) == []


@pytest.mark.parametrize("which", ["violation-scan", "violation-study", "flat-row"])
def test_closed_scan_defect_shifted_by_1e6_fails(closed_scan_output, which):
    _, (code, _), cfg, rows, wits = closed_scan_output
    rows = [dict(r) for r in rows]
    wits = {k: dict(v) for k, v in wits.items()}
    study = next(r for r in rows if r["check_id"] == "violation-study")
    scan = next(r for r in rows if r["scenario_id"] == "flat-k1-violation"
                and r["check_id"] == "scan")
    if which == "violation-scan":
        w = wits[scan["witness_ref"]]
        w["defect"] += 1e-6
        scan["value"] = repr(w["defect"])
    elif which == "violation-study":
        w = wits[study["witness_ref"]]
        w["curve"] = [dict(c) for c in w["curve"]]
        w["curve"][0]["defect"] += 1e-6
    else:
        flat = next(r for r in rows if r["scenario_id"] == "flat-equality")
        flat["value"] = repr(float(flat["value"]) + 1e-6)
    assert workloads.check_closed_scan(cfg, code, rows, wits)


def test_closed_scan_changed_csv_is_a_failed_op(closed_scan_output):
    op, result, cfg, _, _ = closed_scan_output
    assert op.check(result) == []          # first output of this config

    def edit(out):
        """Change the curvature-match value, which no row check reads."""
        csv = out / "results.csv"
        lines = csv.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines)
                 if line.startswith("model-positive,curvature-match,"))
        fields = lines[i].split(",")
        fields[3] = repr(float(fields[3]) + 1e-6)
        lines[i] = ",".join(fields)
        csv.write_text("".join(lines))

    code, out = op.run()
    edit(out)
    rows, wits = workloads.read_outputs(out)
    assert workloads.check_closed_scan(cfg, code, rows, wits) == []

    def rerun_with_edit():
        code, out = op.run()
        edit(out)
        return code, out

    _, failed = run.run_round([dataclasses.replace(op, run=rerun_with_edit)])
    assert failed == 1
