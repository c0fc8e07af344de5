"""Between the two forms of a disk in the tests: lists of ``DiskEmbedding``s,
which the one-disk references evaluate, and the padded coefficient stacks
that the library evaluates."""

import numpy as np

from kahlerlab.disks import DiskEmbedding, disk_coeffs, sample_disk_stack


def padded(disks) -> np.ndarray:
    """The disks as one (D, 3, n) coefficient stack, c2 = 0 on an affine row."""
    C = np.zeros((len(disks), 3, disks[0].chart.n), dtype=complex)
    for row, d in zip(C, disks):
        row[:len(d.coeffs)] = d.coeffs
    return C


def sampled(chart, *args, **kwargs) -> list:
    """The disks of ``sample_disk_stack(chart, ...)`` as ``DiskEmbedding``s
    of their own degrees."""
    return [DiskEmbedding(disk_coeffs(c), chart)
            for c in sample_disk_stack(chart, *args, **kwargs)]
