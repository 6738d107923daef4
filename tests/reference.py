"""Reference implementations that the tests compare the package against."""

import numpy as np


def weighted_quantile(values, weights, levels) -> np.ndarray:
    """Lower weighted quantiles: smallest value whose cdf reaches the level."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    idx = np.searchsorted(cum, np.asarray(levels, dtype=float), side="left")
    return values[order][np.minimum(idx, values.size - 1)]
