"""The gap between the annulus estimator's bulk term and the log moment,
which pins ``disks.annulus_defects`` against a dense area integral.
"""

import math

import numpy as np

from kahlerlab.disks import DiskEmbedding, QuadratureGrid
from kahlerlab.fields import HermitianMetricField


def annulus_tail(metric: HermitianMetricField, disk: DiskEmbedding, eps: float) -> float:
    """iint (f_eps - log|w|) dA; the gap between the estimator's bulk term
    and the log moment, vanishing as eps -> 0.

    By Green's identity, as in ``annulus_defects``, the bulk term is
    pi (mean phi(i(eps e^{i theta})) - mean phi(i(e^{-eps} e^{i theta})))
    and the log term pi (phi(i(0)) - mean phi(i(e^{i theta}))), all on
    the base boundary rule with one potential call.  A metric without a
    potential raises ``ValueError``.
    """
    if not metric.is_potential_form:
        raise ValueError("the annulus tail needs a metric with a potential")
    bw = QuadratureGrid().boundary()[0]
    w = np.concatenate([r * bw for r in (eps, math.exp(-eps), 1.0, 0.0)])
    phi = metric.potential(disk(w)).reshape(4, len(bw))
    m = np.mean(phi, axis=1)
    return math.pi * float(m[0] - m[1] + m[2] - phi[3, 0])
