"""Span tracer and the layer table it patches into kahlerlab.

The program is not edited.  Each traced name is replaced, for the length
of a ``patched`` block, in the namespace where its caller looks it up
(``kahlerlab.disks.log_moment``, ``kahlerlab.psh.check_bk_lower``, ...)
or on the class that owns it (``HermitianMetricField.gram``).  Spans nest
on a stack, each frame under its parent; a span's self time is its
duration minus the durations of its direct child spans, so no second is
booked to two layers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Aggregates span self times and counters while ``enabled``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []          # [name, start, child seconds] per open span

    def reset(self):
        self.self_s.clear()
        self.counts.clear()
        self._stack.clear()

    def add(self, name: str, n: int = 1):
        if self.enabled:
            self.counts[name] += int(n)

    @property
    def current(self):
        return self._stack[-1][0] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            dur = self.clock() - frame[1]
            self._stack.pop()
            self.self_s[name] += dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur


def _npoints(zs) -> int:
    return int(np.atleast_2d(np.asarray(zs)).shape[0])


def _nvalues(w) -> int:
    return int(np.atleast_1d(np.asarray(w)).size)


def _wrap(tracer: Tracer, fn, name: str, counter=None, calls=False):
    """Span ``name`` around fn; ``counter`` maps the call's args to
    (counter name, amount); ``calls`` counts invocations."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if calls:
            tracer.add(name + ".calls")
        if counter is not None:
            tracer.add(*counter(*args, **kwargs))
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_disk_validation(tracer: Tracer, post_init):
    """DiskEmbedding.__post_init__ validates every constructed disk; a
    ValueError there is a rejected disk."""

    @functools.wraps(post_init)
    def wrapper(self):
        with tracer.span("disks.DiskEmbedding"):
            try:
                post_init(self)
            except ValueError:
                tracer.add("disks.DiskEmbedding.rejected")
                raise
        tracer.add("disks.DiskEmbedding.built")

    return wrapper


def _wrap_distance_field(tracer: Tracer, factory):
    """distance_field(p) returns a ScalarField; trace calls of that field."""

    @functools.wraps(factory)
    def wrapper(self, p):
        sf = factory(self, p)
        inner = sf.fn

        def fn(zs):
            tracer.add("models.distance_field.points", _npoints(zs))
            with tracer.span("models.distance_field"):
                return inner(zs)

        return dataclasses.replace(sf, fn=fn)

    return wrapper


def _wrap_area_density(tracer: Tracer, fn):
    """Counts quadrature nodes of log_moment: the disk points at which
    area_density evaluates the metric inside a log_moment span."""

    @functools.wraps(fn)
    def wrapper(metric, disk, w):
        if tracer.current == "disks.log_moment":
            tracer.add("disks.log_moment.nodes", _nvalues(w))
        return fn(metric, disk, w)

    return wrapper


def layer_patches(tracer: Tracer):
    """(owner, attribute, replacement factory) for every traced name."""
    from kahlerlab import cli, disks, fd, fields, models, psh

    def plain(name, counter=None, calls=False):
        return lambda fn: _wrap(tracer, fn, name, counter, calls)

    return [
        (cli, "load_config", plain("cli.load_config")),
        (cli, "execute", plain("cli.execute")),
        (psh, "check_bk_lower", plain("psh.check_bk_lower", calls=True)),
        (cli, "check_bk_lower", plain("psh.check_bk_lower", calls=True)),
        (psh, "disk_laplacian",
         plain("psh.disk_laplacian",
               lambda f, disk, w, *a, **k: ("psh.disk_laplacian.points", _nvalues(w)))),
        (psh, "distributional_pairing", plain("psh.distributional_pairing")),
        (disks.DiskEmbedding, "__post_init__",
         lambda fn: _wrap_disk_validation(tracer, fn)),
        (disks, "comparison_defect", plain("disks.comparison_defect", calls=True)),
        (cli, "comparison_defect", plain("disks.comparison_defect", calls=True)),
        (disks, "log_moment", plain("disks.log_moment")),
        (disks, "area_density", lambda fn: _wrap_area_density(tracer, fn)),
        (disks, "geodesic_distance_many",
         plain("geodesy.geodesic_distance_many",
               lambda metric, p, qs, *a, **k:
               ("geodesy.geodesic_distance_many.targets", _npoints(qs)),
               calls=True)),
        (models.ModelSpace, "distance_field",
         lambda fn: _wrap_distance_field(tracer, fn)),
        (models.ConeSurface, "distance_field",
         lambda fn: _wrap_distance_field(tracer, fn)),
        (psh, "dK_transform", plain("models.dK_transform")),
        (disks, "dK_transform", plain("models.dK_transform")),
        (fields.HermitianMetricField, "gram",
         plain("fields.gram",
               lambda self, zs, *a, **k: ("fields.gram.points", _npoints(zs)))),
        (cli, "curvature_tensor", plain("curvature.curvature_tensor")),
        (cli, "min_bk_defect", plain("curvature.min_bk_defect")),
        (fd, "laplacian_2d",
         plain("fd.laplacian_2d",
               lambda f, x, h: ("fd.laplacian_2d.points", _npoints(x)))),
        (fd, "hessian", plain("fd.hessian")),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install every layer wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, make in layer_patches(tracer):
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "cli.load_config.self_s": "s",
    "cli.execute.self_s": "s",
    "psh.check_bk_lower.calls": "count",
    "psh.check_bk_lower.self_s": "s",
    "psh.disk_laplacian.points": "count",
    "psh.distributional_pairing.self_s": "s",
    "disks.DiskEmbedding.built": "count",
    "disks.DiskEmbedding.rejected": "count",
    "disks.DiskEmbedding.self_s": "s",
    "disks.comparison_defect.calls": "count",
    "disks.comparison_defect.self_s": "s",
    "disks.log_moment.nodes": "count",
    "disks.log_moment.self_s": "s",
    "geodesy.geodesic_distance_many.calls": "count",
    "geodesy.geodesic_distance_many.targets": "count",
    "geodesy.geodesic_distance_many.self_s": "s",
    "models.distance_field.points": "count",
    "models.distance_field.self_s": "s",
    "models.dK_transform.self_s": "s",
    "fields.gram.points": "count",
    "fields.gram.self_s": "s",
    "curvature.curvature_tensor.self_s": "s",
    "curvature.min_bk_defect.self_s": "s",
    "fd.laplacian_2d.points": "count",
    "fd.laplacian_2d.self_s": "s",
    "fd.hessian.self_s": "s",
}
