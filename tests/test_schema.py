"""The config schema walker against the reference Draft 2020-12 validator.

``cli._schema_errors`` interprets the schema dicts of ``cli`` itself; the
jsonschema package, a test dependency only, is the reference.  On a corpus
of configs (the bundled ones, one that reaches every space and check kind,
and single- and two-fault mutations of them) the walker must accept and
reject what the reference does, and report the error that ``best_match``
picks, so that every exit-3 message stays as it was.
"""

import copy
import functools
import json
import operator

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from kahlerlab import cli
from kahlerlab.cli import CHECKS, CONFIG_SCHEMA, SPACES, bundled_scenario_path, load_config
from kahlerlab.errors import ConfigError

_BUNDLED = {name: json.loads(bundled_scenario_path(name).read_text(encoding="utf-8"))
            for name in ("models.json", "flat-K1-violation.json")}


def _scenario(sid, space, *checks):
    return {"id": sid, "space": space, "sampler": {"seed": 1, "count": 4},
            "checks": [dict(c) for c in checks]}


# a valid config that reaches every space kind and every check kind
_LAB = {"version": 1, "scenarios": [
    _scenario("model", {"kind": "model", "K": 1.0, "n": 2},
              {"check": "curvature-match", "params": {"points": 2, "radius": 0.5, "tol": 1e-5}},
              {"check": "min-bk-defect", "params": {"K": 1, "z": [0.1, [0, 0.05]]}},
              {"check": "comparison-scan", "params": {"K": 1.0, "p": [0, 0], "count": 2}},
              {"check": "violation-study", "params": {"K": 1.0, "eps2_list": [0.05],
                                                      "band": [0.5, 2]}},
              {"check": "annulus", "params": {"K": 0.0, "eps_list": [0.05]}},
              {"check": "psh", "id": "psh.0", "expect": "FAIL",
               "params": {"K": 0.0, "crossing": 1, "center": [0, 0]}},
              {"check": "psh-set", "params": {"K": 0.0, "S": [[0, 0], [0.1, [0, 0.1]]]}},
              {"check": "psh-set", "params": {"K": 0.0, "line": {"a": [0, 0], "v": [1, 0]}}},
              {"check": "k-threshold", "params": {"lo": 0.5, "hi": 2.0, "resolution": 0.01,
                                                  "expected": 1.0, "band": 0.1}}),
    _scenario("cone", {"kind": "cone", "alpha": 0.5},
              {"check": "radial-potential", "params": {"tol": 1e-4}}),
    _scenario("orbifold", {"kind": "orbifold", "k": 3}, {"check": "psh", "params": {"K": 0}}),
    _scenario("quotient", {"kind": "quotient"},
              {"check": "quotient-bk2", "params": {"zprime": [1, [0.5, 0]], "perturb": True}}),
    _scenario("torsion", {"kind": "torsion", "n": 2, "radius": 1.5,
                          "T": [[[0, -0.5], [0.5, 0]], [[0, 0], [0, 0]]]},
              {"check": "torsion-disk", "params": {"a": [1, 1], "b": [30, 0], "eps1": 5e-3,
                                                   "eps2": 5e-2, "factor": 2}}),
    _scenario("domain", {"kind": "domain", "radius": 2.0, "obstacles": [
        {"type": "rect", "center": [0, 0.8], "half_widths": [0.2, 0.5]},
        {"type": "disk", "center": [0, -0.5], "radius": 0.4}]},
              {"check": "domain-compare", "params": {"p": [-1.2, 0], "q": [1.2, 0], "eps": 0.1,
                                                     "count": 2, "min_ratio": 1.0}})]}

_DROP = object()


def _edit(base, *edits):
    """A copy of ``base`` with each (path, value) edit applied; the value
    _DROP deletes the key."""
    out = copy.deepcopy(base)
    for path, value in edits:
        *head, last = path
        node = functools.reduce(operator.getitem, head, out)
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    return out


def _space(i):
    return ("scenarios", i, "space")


def _params(i, j):
    return ("scenarios", i, "checks", j, "params")


_SAMPLER = ("scenarios", 0, "sampler")
_CHECK = ("scenarios", 0, "checks", 0)
_PSH = _params(0, 5)
_SET_S, _SET_LINE = _params(0, 6), _params(0, 7)
_RECT, _DISK = _space(5) + ("obstacles", 0), _space(5) + ("obstacles", 1)

# each entry: the edits of _LAB, one fault unless its id says otherwise
_FAULTS = {
    # config level
    "no-version": [(("version",), _DROP)],
    "version-2": [(("version",), 2)],
    "version-true": [(("version",), True)],
    "version-1.0": [(("version",), 1.0)],
    "unknown-top-key": [(("extra",), 1)],
    "scenarios-object": [(("scenarios",), {})],
    "scenario-not-object": [(("scenarios", 1), [])],
    "no-scenario-id": [(("scenarios", 0, "id"), _DROP)],
    "unknown-scenario-key": [(("scenarios", 0, "surprise"), True)],
    "id-escapes": [(("scenarios", 0, "id"), "../x")],
    "id-empty": [(("scenarios", 0, "id"), "")],
    "id-number": [(("scenarios", 0, "id"), 5)],
    "check-id-slash": [(_CHECK + ("id",), "a/b")],
    "no-check": [(_CHECK + ("check",), _DROP)],
    "check-unknown": [(_CHECK + ("check",), "nope")],
    "expect-maybe": [(_CHECK + ("expect",), "MAYBE")],
    "unknown-check-key": [(_CHECK + ("bogus",), 1)],
    "checks-string": [(("scenarios", 0, "checks"), "x")],
    "params-array": [(_CHECK + ("params",), [])],
    "space-kind-unknown": [(_space(0) + ("kind",), "sphere")],
    "space-no-kind": [(_space(0) + ("kind",), _DROP)],
    "seed-negative": [(_SAMPLER + ("seed",), -1)],
    "seed-1.0": [(_SAMPLER + ("seed",), 1.0)],
    "seed-1.5": [(_SAMPLER + ("seed",), 1.5)],
    "seed-true": [(_SAMPLER + ("seed",), True)],
    "count-0": [(_SAMPLER + ("count",), 0)],
    "degree2-fraction-2": [(_SAMPLER + ("degree2_fraction",), 2)],
    "center-radius-string": [(_SAMPLER + ("center_radius",), "x")],
    "size-range-short": [(_SAMPLER + ("size_range",), [0.1])],
    "size-range-long": [(_SAMPLER + ("size_range",), [0.1, 0.2, 0.3])],
    "size-range-zero": [(_SAMPLER + ("size_range",), [0, 0.1])],
    "sampler-unknown-key": [(_SAMPLER + ("speed",), 1)],
    # space level
    "model-K-string": [(_space(0) + ("K",), "x")],
    "model-n-0": [(_space(0) + ("n",), 0)],
    "model-n-true": [(_space(0) + ("n",), True)],
    "model-alpha": [(_space(0) + ("alpha",), 0.5)],
    "cone-no-alpha": [(_space(1) + ("alpha",), _DROP)],
    "orbifold-k-1": [(_space(2) + ("k",), 1)],
    "orbifold-k-3.0": [(_space(2) + ("k",), 3.0)],
    "quotient-T": [(_space(3) + ("T",), [1])],
    "torsion-T-number": [(_space(4) + ("T",), 1)],
    "torsion-T-object": [(_space(4) + ("T",), [{}])],
    "torsion-T-string": [(_space(4) + ("T", 0, 0, 0), "x")],
    "torsion-T-bool": [(_space(4) + ("T", 1, 1, 1), False)],
    "obstacles-object": [(_space(5) + ("obstacles",), {})],
    "obstacle-string": [(_RECT, "x")],
    "obstacle-empty": [(_RECT, {})],
    "obstacle-no-type": [(_RECT + ("type",), _DROP)],
    "obstacle-type-tri": [(_RECT + ("type",), "tri")],
    "rect-no-half-widths": [(_RECT + ("half_widths",), _DROP)],
    "rect-short-center": [(_RECT + ("center",), [0])],
    "rect-zero-half-width": [(_RECT + ("half_widths", 1), 0)],
    "rect-with-radius": [(_RECT + ("radius",), 0.3)],
    "disk-negative-radius": [(_DISK + ("radius",), -0.3)],
    "disk-with-half-widths": [(_DISK + ("half_widths",), [0.1, 0.1])],
    "disk-no-center": [(_DISK + ("center",), _DROP)],
    # params level
    "curvature-points-0": [(_params(0, 0) + ("points",), 0)],
    "min-bk-defect-no-K": [(_params(0, 1) + ("K",), _DROP)],
    "min-bk-defect-K-true": [(_params(0, 1) + ("K",), True)],
    "min-bk-defect-samples-1.5": [(_params(0, 1) + ("samples",), 1.5)],
    "scan-count-2.0": [(_params(0, 2) + ("count",), 2.0)],
    "violation-eps2-empty": [(_params(0, 3) + ("eps2_list",), [])],
    "violation-eps2-1": [(_params(0, 3) + ("eps2_list",), [1.0])],
    "violation-eps2-0": [(_params(0, 3) + ("eps2_list",), [0])],
    "violation-band-short": [(_params(0, 3) + ("band",), [1])],
    "annulus-eps-0.1": [(_params(0, 4) + ("eps_list",), [0.1])],
    "psh-unknown-key": [(_PSH + ("bogus",), 1)],
    "psh-crossing-1.0": [(_PSH + ("crossing",), 1.0)],
    "psh-crossing-negative": [(_PSH + ("crossing",), -1)],
    "psh-crossing-1.5": [(_PSH + ("crossing",), 1.5)],
    "psh-point-too-long": [(_PSH + ("center",), [[1, 2, 3]])],
    "psh-point-too-short": [(_PSH + ("center",), [[1], 0])],
    "psh-point-string": [(_PSH + ("center",), ["x", 0])],
    "psh-point-bool": [(_PSH + ("center",), [True, 0])],
    "psh-point-number": [(_PSH + ("center",), 1)],
    "psh-set-S-and-line": [(_SET_S + ("line",), {"a": [0, 0], "v": [1, 0]})],
    "psh-set-neither": [(_SET_S + ("S",), _DROP)],
    "psh-set-S-empty": [(_SET_S + ("S",), [])],
    "psh-set-S-of-numbers": [(_SET_S + ("S",), [0, 0])],
    "psh-set-line-no-v": [(_SET_LINE + ("line", "v"), _DROP)],
    "psh-set-line-extra": [(_SET_LINE + ("line", "b"), [0, 0])],
    "quotient-zprime-empty": [(_params(3, 0) + ("zprime",), [])],
    "quotient-zprime-long": [(_params(3, 0) + ("zprime",), [1, 2, 3])],
    "quotient-perturb-1": [(_params(3, 0) + ("perturb",), 1)],
    "k-threshold-resolution-0": [(_params(0, 8) + ("resolution",), 0)],
    "torsion-no-b": [(_params(4, 0) + ("b",), _DROP)],
    "domain-p-short": [(_params(5, 0) + ("p",), [1])],
    "domain-no-q": [(_params(5, 0) + ("q",), _DROP)],
    # two faults at different depths, and two at the same depth
    "version-and-deep-key": [(("version",), _DROP), (_CHECK + ("bogus",), 1)],
    "id-and-check-kind": [(("scenarios", 0, "id"), "../x"),
                          (("scenarios", 1, "checks", 0, "check"), "nope")],
    "two-sibling-ids": [(("scenarios", 0, "id"), 5), (("scenarios", 1, "id"), 6)],
    "seed-and-count": [(_SAMPLER + ("seed",), -1), (_SAMPLER + ("count",), 0)],
    "torsion-n-and-T": [(_space(4) + ("n",), 0), (_space(4) + ("T",), [{}])],
    "rect-center-and-type": [(_RECT + ("center",), [0]), (_RECT + ("type",), "tri")],
    "psh-K-and-point": [(_PSH + ("K",), True), (_PSH + ("center",), [[1, 2, 3]])],
    "psh-set-both-and-S-empty": [(_SET_S + ("line",), {"a": [0], "v": [1]}),
                                 (_SET_S + ("S",), [])],
}

_CORPUS = {**_BUNDLED, "lab": _LAB, **{k: _edit(_LAB, *e) for k, e in _FAULTS.items()}}


def _reference(schema, instance):
    """The reference validator's best match, as (path, message), or None."""
    e = best_match(Draft202012Validator(schema).iter_errors(instance))
    return None if e is None else (tuple(e.absolute_path), e.message)


def _checked(cfg):
    """The (schema, instance) pairs that ``load_config`` checks on ``cfg``
    up to the first that fails the reference, in its order."""
    yield CONFIG_SCHEMA, cfg
    if _reference(CONFIG_SCHEMA, cfg):
        return
    for sc in cfg["scenarios"]:
        yield SPACES[sc["space"]["kind"]].spec, sc["space"]
        if _reference(SPACES[sc["space"]["kind"]].spec, sc["space"]):
            return
        for ch in sc["checks"]:
            yield CHECKS[ch["check"]].params, ch.get("params", {})


# the config schemas put anyOf and oneOf last; these put them first, where
# only the reference's preference for other keywords at a path decides
_ORDERINGS = [({"anyOf": [{"type": "string"}, False], "required": ["a"]}, {}),
              ({"oneOf": [{"required": ["b"]}, {"required": ["c"]}], "required": ["a"]}, {}),
              ({"items": {"anyOf": [_NUMBER := {"type": "number"}, {"maxItems": 0}]},
                "allOf": [{"items": _NUMBER}]}, [[1], "x"])]


def test_the_walker_reports_what_the_reference_validator_reports():
    assert len(_CORPUS) > 90
    cases = [(name, schema, instance)
             for name, cfg in _CORPUS.items() for schema, instance in _checked(cfg)]
    cases += [(f"ordering-{i}", *case) for i, case in enumerate(_ORDERINGS)]
    mismatches = [(name, cli._schema_error(schema, instance), _reference(schema, instance))
                  for name, schema, instance in cases
                  if cli._schema_error(schema, instance) != _reference(schema, instance)]
    assert mismatches == []


def _reference_message(cfg, path):
    """The text of today's ConfigError for a config whose only faults are
    schema faults: the first failing check of ``_checked``, formatted as
    ``load_config`` formats it; None for a valid config."""
    e = _reference(CONFIG_SCHEMA, cfg)
    if e:
        return f"{path}: at {'/'.join(map(str, e[0])) or '<root>'}: {e[1]}"
    for i, sc in enumerate(cfg["scenarios"]):
        e = _reference(SPACES[sc["space"]["kind"]].spec, sc["space"])
        if e:
            return f"{path}: at {'/'.join(map(str, ('scenarios', i, 'space') + e[0]))}: {e[1]}"
        for ch in sc["checks"]:
            e = _reference(CHECKS[ch["check"]].params, ch.get("params", {}))
            if e:
                return f"{path}: scenario {sc['id']!r} check {ch['check']!r}: {e[1]}"
    return None


def test_load_config_keeps_every_schema_message(tmp_path):
    path = tmp_path / "cfg.json"
    valid = 0
    for name, cfg in _CORPUS.items():
        path.write_text(json.dumps(cfg), encoding="utf-8")
        expected = _reference_message(cfg, str(path))
        try:
            load_config(str(path))
            got = None
        except ConfigError as e:
            got = str(e)
        assert got == expected, name
        valid += expected is None
    assert valid >= len(_BUNDLED) + 5    # the bundled configs, _LAB and the integral floats


def _subschemas(schema):
    """``schema`` and every schema inside it, by the keywords that hold one."""
    yield schema
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key == "properties":
                subs = value.values()
            elif key in ("items", "if", "then"):
                subs = [value]
            elif key in ("anyOf", "oneOf", "allOf"):
                subs = value
            else:
                continue
            for sub in subs:
                yield from _subschemas(sub)


def test_the_walker_knows_every_keyword_of_the_schemas():
    schemas = [CONFIG_SCHEMA, *(s.spec for s in SPACES.values()),
               *(c.params for c in CHECKS.values())]
    # the walker reads every keyword of each schema it visits, whatever the instance
    for sub in (s for schema in schemas for s in _subschemas(schema)):
        for instance in (None, {}, [], 0, ""):
            list(cli._schema_errors(sub, instance))
    with pytest.raises(ValueError, match="unsupported schema keyword 'uniqueItems'"):
        list(cli._schema_errors({"type": "array", "uniqueItems": True}, []))
