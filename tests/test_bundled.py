"""The bundled scenarios' reports against committed reference data.

``bundled_reference/<config>/`` holds the ``results.csv`` of a default run
of each bundled config, without its ``wall_ms`` column, and its witness
files.  ``bundled_reference/disk-paths.json`` is a test-only config of the
disk paths the bundled configs never run (annulus, the scans of cones,
orbifolds and torsion spaces, domain-compare, psh with crossing disks,
psh-set, radial-potential, quotient-bk2 and k-threshold); its reference
run exits 1, as it holds known misses and false FAILs, which stay
recorded rows.  A change keeps the reports when every verdict, seed and witness
ref is the same and every value moves by at most the reference row's own
``error_est``; a row whose ``error_est`` is 0.0 (a psh row) keeps its value
bit for bit.  The numbers of a witness file follow the same rule, with the
``error_est`` of the row that wrote it; all else in it is kept exactly.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from kahlerlab.cli import bundled_scenario_path, execute, load_config

REFERENCE = Path(__file__).resolve().parent / "bundled_reference"


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _within(got: float, ref: float, error_est: float) -> bool:
    if error_est == 0.0:
        return got.hex() == ref.hex()
    return abs(got - ref) <= error_est


def _same_witness(got, ref, error_est: float, where: str = "") -> list:
    """Where ``got`` differs from ``ref`` beyond the rule of the module."""
    if isinstance(ref, float) and isinstance(got, float):
        return [] if _within(got, ref, error_est) else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict) and ref.keys() == got.keys():
        return [miss for key in ref
                for miss in _same_witness(got[key], ref[key], error_est, f"{where}/{key}")]
    if isinstance(ref, list) and isinstance(got, list) and len(ref) == len(got):
        return [miss for i, (g, r) in enumerate(zip(got, ref))
                for miss in _same_witness(g, r, error_est, f"{where}/{i}")]
    return [] if type(got) is type(ref) and got == ref else [f"{where}: {got!r} != {ref!r}"]


# (config, the path of its file, the exit code of its reference run)
CONFIGS = [("models", bundled_scenario_path("models.json"), 0),
           ("flat-K1-violation", bundled_scenario_path("flat-K1-violation.json"), 0),
           ("disk-paths", REFERENCE / "disk-paths.json", 1)]


@pytest.mark.parametrize("config, path, exit_code", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_bundled_reports_match_the_reference(tmp_path, config, path, exit_code):
    code = execute(load_config(str(path)), tmp_path, None, 1, None)
    assert code == exit_code
    ref_dir = REFERENCE / config
    rows, ref_rows = _rows(tmp_path / "results.csv"), _rows(ref_dir / "results.csv")
    key = ("scenario_id", "check_id", "verdict", "seed", "witness_ref")
    assert [tuple(r[k] for k in key) for r in rows] == [tuple(r[k] for k in key) for r in ref_rows]
    for row, ref in zip(rows, ref_rows):
        error_est = float(ref["error_est"])
        assert math.isfinite(float(row["error_est"])), row
        assert _within(float(row["value"]), float(ref["value"]), error_est), (row, ref)
        if ref["witness_ref"]:
            got = json.loads((tmp_path / row["witness_ref"]).read_text(encoding="utf-8"))
            want = json.loads((ref_dir / ref["witness_ref"]).read_text(encoding="utf-8"))
            assert _same_witness(got, want, error_est) == [], ref["witness_ref"]
    written = {p.name for p in (tmp_path / "witness").glob("*.json")} \
        if (tmp_path / "witness").is_dir() else set()
    assert written == {p.name for p in (ref_dir / "witness").glob("*.json")}
