"""Imputation accuracy metrics on held-out entries.

MAPE divides by the truth, so entries whose truth is exactly zero are
excluded from it; any other threshold would depend on the data's units. RMSE
keeps every entry. Both raise when the evaluation set is empty, because a
silent 0.0 would read as a perfect score.
"""

import numpy as np

from .errors import DegenerateProblemError, DimensionError


def _check_pair(truth, estimate):
    truth = np.asarray(truth, dtype=float).ravel()
    estimate = np.asarray(estimate, dtype=float).ravel()
    if truth.size != estimate.size:
        raise DimensionError(
            f"truth has {truth.size} entries but estimate has {estimate.size}"
        )
    if truth.size == 0:
        raise DegenerateProblemError("empty evaluation set")
    return truth, estimate


def mape(truth, estimate):
    """Mean absolute percentage error, in percent, over nonzero-truth entries."""
    truth, estimate = _check_pair(truth, estimate)
    keep = truth != 0.0
    if not keep.any():
        raise DegenerateProblemError(
            "every ground-truth value is zero; MAPE is undefined"
        )
    t, e = truth[keep], estimate[keep]
    return float(np.mean(np.abs((t - e) / t)) * 100.0)


def rmse(truth, estimate):
    """Root mean squared error in the data's units."""
    truth, estimate = _check_pair(truth, estimate)
    return float(np.sqrt(np.mean(np.square(truth - estimate))))
