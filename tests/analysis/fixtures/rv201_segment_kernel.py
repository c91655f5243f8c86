"""Seeded RV201 violation: a segment-fold kernel accumulates into its
seeds — the grouped scan's running state, gathered for this batch —
instead of returning fresh totals."""

import numpy as np


def segment_total_kernel(values, starts, seeds):
    # RV201: in-place store into an input (here the caller's state; the
    # same habit would corrupt ``values``, the batch's cached column).
    seeds[:] = seeds + np.add.reduceat(values, starts)
    return seeds.copy()
