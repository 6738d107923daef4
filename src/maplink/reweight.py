"""Change-of-measure numerics for matching simulated prevalences to map posteriors.

Everything here operates on one pixel at a time: given J simulated
prevalences ``p`` with stage-1 importance weights ``w1`` and M posterior
prevalence samples ``d`` for the pixel, produce new weights ``w2`` so that
the weighted simulated prevalence distribution tracks the pixel posterior.
The density ratio f/g (posterior over simulation-induced prevalence
measure) is never available in closed form, so three empirical estimators
are provided:

* :func:`distance_ernd` counts probability mass inside a moving window of
  width ``delta`` centred on each simulated prevalence.
* :func:`histogram_ernd` uses a fixed partition of [0, 1]; all simulations
  in a bin share one ratio, and the weighted histogram of simulations
  reproduces the map histogram exactly.
* :func:`discrepancy_ernd` picks the weights minimising the integrated
  squared distance between the two empirical cdfs, in closed form.

All functions are pure; it is safe to call them concurrently against a
shared read-only simulation bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

__all__ = [
    "DegenerateWeightsError",
    "StepCdf",
    "WeightVector",
    "apply_ernd",
    "discrepancy_ernd",
    "distance_ernd",
    "ess",
    "histogram_ernd",
    "integrated_squared_distance",
    "ks_distance",
    "select_delta",
]

#: Window width returned when every simulated prevalence coincides and the
#: automatic rule would return zero.
DELTA_FALLBACK = 1e-6

_SUM_TOL = 1e-12


class DegenerateWeightsError(ValueError):
    """Every weight vanished; the pixel shares no prevalence mass with the bank."""


@dataclass(frozen=True)
class WeightVector:
    """Normalised per-pixel weights over the J simulations.

    Attributes:
        weights: Non-negative weights summing to one.
        ess: Effective sample size (sum w)^2 / sum w^2 of the stored weights.
        dropped_map_fraction: Fraction of map posterior mass that no
            simulation could absorb (absolute-continuity failure); that mass
            was discarded and the rest renormalised.
        clamp_count: Number of closed-form discrepancy weights that left the
            simplex and were clamped to zero.
    """

    weights: np.ndarray
    ess: float = field(default=0.0)
    dropped_map_fraction: float = 0.0
    clamp_count: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        total = w.sum()
        if abs(total - 1.0) > _SUM_TOL * max(1.0, w.size):
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ess", ess(w))

    @classmethod
    def from_unnormalized(cls, raw, **diagnostics) -> "WeightVector":
        """Normalise ``raw`` and package it, raising if everything is zero."""
        raw = np.asarray(raw, dtype=float)
        if np.any(raw < 0.0) or not np.all(np.isfinite(raw)):
            raise ValueError("raw weights must be finite and non-negative")
        total = raw.sum()
        if total <= 0.0:
            raise DegenerateWeightsError("all weights are zero")
        return cls(weights=raw / total, **diagnostics)


def ess(weights) -> float:
    """Effective sample size (sum w)^2 / sum w^2.

    Invariant under positive rescaling, so the input may be unnormalised.
    Raises on an all-zero vector, which signals a degenerate pixel.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0.0:
        raise DegenerateWeightsError("effective sample size of an all-zero weight vector")
    normalized = w / total  # (sum w)^2 / sum w^2, computed without under/overflow
    return float(1.0 / np.dot(normalized, normalized))


# ---------------------------------------------------------------------------
# Empirical cdfs and distances between them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepCdf:
    """Right-continuous step cdf with jumps at ``points``.

    ``cum[i]`` is the cdf value at and immediately right of ``points[i]``;
    the function is zero left of ``points[0]`` and ``cum[-1]`` (= 1) from
    ``points[-1]`` on.
    """

    points: np.ndarray
    cum: np.ndarray

    @classmethod
    def from_samples(cls, values, weights=None) -> "StepCdf":
        """Weighted empirical cdf; duplicate values are merged into one jump."""
        values = np.asarray(values, dtype=float)
        if weights is None:
            weights = np.full(values.size, 1.0 / values.size)
        else:
            weights = np.asarray(weights, dtype=float)
            total = weights.sum()
            if total <= 0.0:
                raise DegenerateWeightsError("cdf of an all-zero weight vector")
            weights = weights / total
        order = np.argsort(values, kind="stable")
        points, inverse = np.unique(values[order], return_inverse=True)
        mass = np.bincount(inverse, weights=weights[order], minlength=points.size)
        return cls(points=points, cum=np.cumsum(mass))

    def __call__(self, x) -> np.ndarray:
        idx = np.searchsorted(self.points, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate(([0.0], self.cum))
        return padded[idx]

    def integral_to(self, x) -> np.ndarray:
        """Exact integral of the step function over [points[0] and below, x]."""
        x = np.asarray(x, dtype=float)
        # cumulative integral up to each jump point
        gaps = np.diff(self.points)
        below = np.concatenate(([0.0], np.cumsum(self.cum[:-1] * gaps)))
        idx = np.searchsorted(self.points, x, side="right")
        padded_pts = np.concatenate(([self.points[0] if self.points.size else 0.0], self.points))
        padded_below = np.concatenate(([0.0], below))
        padded_cum = np.concatenate(([0.0], self.cum))
        return padded_below[idx] + padded_cum[idx] * (x - padded_pts[idx])


def ks_distance(map_cdf: StepCdf, weighted_sim_cdf: StepCdf) -> float:
    """Largest vertical distance between two step cdfs."""
    grid = np.union1d(map_cdf.points, weighted_sim_cdf.points)
    return float(np.max(np.abs(map_cdf(grid) - weighted_sim_cdf(grid))))


def integrated_squared_distance(
    map_cdf: StepCdf, weighted_sim_cdf: StepCdf, lo: float = 0.0, hi: float = 1.0
) -> float:
    """Integral of (F - H)^2 over [lo, hi], exact for step functions."""
    inner = np.union1d(map_cdf.points, weighted_sim_cdf.points)
    inner = inner[(inner > lo) & (inner < hi)]
    breaks = np.concatenate(([lo], inner, [hi]))
    heights = map_cdf(breaks[:-1]) - weighted_sim_cdf(breaks[:-1])
    return float(np.sum(heights * heights * np.diff(breaks)))


# ---------------------------------------------------------------------------
# Window width selection
# ---------------------------------------------------------------------------

def select_delta(sims) -> float:
    """Smallest window width giving every simulation at least 3 neighbours.

    For each simulated prevalence ``p_k`` the doubled distances
    ``2 |p_k - p_j|`` are ranked; the rule returns the largest third-ranked
    value over k, so that every window of half-width delta/2 contains at
    least three simulations (counting ``p_k`` itself).

    When all prevalences coincide the rule would return zero, and
    ``DELTA_FALLBACK`` is returned instead so the window estimators stay
    well defined.  Every window then holds the whole bank, so the weights do
    not depend on delta, and the map mass the windows miss is recorded as
    ``WeightVector.dropped_map_fraction``.
    """
    p = np.sort(np.asarray(sims, dtype=float))
    if p.size < 3:
        raise ValueError("need at least 3 simulated prevalences to choose delta")
    inf = np.inf
    left1 = np.concatenate(([inf], p[1:] - p[:-1]))
    left2 = np.concatenate(([inf, inf], p[2:] - p[:-2]))
    right1 = np.concatenate((p[1:] - p[:-1], [inf]))
    right2 = np.concatenate((p[2:] - p[:-2], [inf, inf]))
    # distance to the second-nearest other point: second smallest of the
    # two nearest on each side
    candidates = np.stack([left1, left2, right1, right2])
    candidates.sort(axis=0)
    second_nearest = candidates[1]
    delta = 2.0 * float(second_nearest.max())
    return DELTA_FALLBACK if delta <= 0.0 else delta


# ---------------------------------------------------------------------------
# The three empirical Radon-Nikodym derivative estimators
# ---------------------------------------------------------------------------

def _window_counts(sorted_values: np.ndarray, centers: np.ndarray, delta: float) -> np.ndarray:
    lo = np.searchsorted(sorted_values, centers - delta / 2.0, side="left")
    hi = np.searchsorted(sorted_values, centers + delta / 2.0, side="right")
    return hi - lo


def _window_weight_sums(
    sorted_values: np.ndarray, sorted_weights: np.ndarray, centers: np.ndarray, delta: float
) -> np.ndarray:
    cum = np.concatenate(([0.0], np.cumsum(sorted_weights)))
    lo = np.searchsorted(sorted_values, centers - delta / 2.0, side="left")
    hi = np.searchsorted(sorted_values, centers + delta / 2.0, side="right")
    sums = cum[hi] - cum[lo]
    # cum[hi] - cum[lo] is off by about eps * cum[hi], which swamps a window
    # much lighter than the weight sorted before it (w1 can span many
    # decades); such windows are summed directly
    lossy = np.flatnonzero(sums < 1e-6 * cum[hi])
    bounds = np.stack((lo[lossy], hi[lossy]), axis=1).ravel()
    sums[lossy] = np.add.reduceat(np.append(sorted_weights, 0.0), bounds)[::2]
    return sums


def _unmatched_map_fraction(map_values: np.ndarray, covered: np.ndarray, delta: float) -> float:
    """Fraction of map samples farther than delta/2 from every covered point."""
    if covered.size == 0:
        return 1.0
    idx = np.searchsorted(covered, map_values)
    right = covered[np.minimum(idx, covered.size - 1)]
    left = covered[np.maximum(idx - 1, 0)]
    nearest = np.minimum(np.abs(map_values - right), np.abs(map_values - left))
    return float(np.mean(nearest > delta / 2.0))


def distance_ernd(pixel, sims, w1, delta: float) -> WeightVector:
    """Moving-window density-ratio reweighting.

    The new weight of simulation j is proportional to ``f(p_j)/g(p_j) * w1_j``
    where ``f`` is the fraction of map samples within delta/2 of ``p_j``
    (per unit width) and ``g`` is the w1-weighted fraction of simulated
    prevalences in the same window.  Windows are closed intervals
    ``[p_j - delta/2, p_j + delta/2]`` with no truncation at the ends of
    [0, 1].
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    d = np.sort(np.asarray(pixel, dtype=float))
    p = np.asarray(sims, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    if w1.shape != p.shape:
        raise ValueError("w1 must have one weight per simulation")
    w1_total = w1.sum()
    if w1_total <= 0.0:
        raise DegenerateWeightsError("stage-1 weights are all zero")

    m = d.size
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    w_sorted = w1[order]

    # f_j = counts_j / (delta m) and g_j = gsum_j / (delta sum(w1)); the
    # window width cancels in the ratio, which avoids overflow at tiny delta
    counts = _window_counts(d, p, delta)
    gsum = _window_weight_sums(p_sorted, w_sorted, p, delta)
    # Each window contains its own simulation, so g > 0 wherever w1 > 0.
    positive = w1 > 0.0
    if not np.all(gsum[positive] > 0.0):
        raise DegenerateWeightsError("window denominator vanished despite support condition")
    raw = np.zeros_like(w1)
    raw[positive] = counts[positive] / m * w1_total / gsum[positive] * w1[positive]

    dropped = _unmatched_map_fraction(d, p_sorted[w_sorted > 0.0], delta)
    return WeightVector.from_unnormalized(raw, dropped_map_fraction=dropped)


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin assignment for right-open bins, with the last bin closed at 1."""
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, edges.size - 2)


def histogram_ernd(
    pixel, sims, w1, bin_edges, unmatched: Literal["drop", "transfer"] = "drop"
) -> WeightVector:
    """Fixed-partition density-ratio reweighting.

    All simulations in one bin share the ratio (map fraction of the bin) /
    (w1 fraction of the bin); bin widths cancel.  Bins holding map mass but
    no simulation weight violate absolute continuity: by default that map
    mass is dropped and recorded, or with ``unmatched="transfer"`` it is
    moved to the nearest bin (by centre) that does contain simulations.
    """
    d = np.asarray(pixel, dtype=float)
    p = np.asarray(sims, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    if w1.shape != p.shape:
        raise ValueError("w1 must have one weight per simulation")
    edges = np.asarray(bin_edges, dtype=float)
    if edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must increase strictly from 0 to 1")
    w1_total = w1.sum()
    if w1_total <= 0.0:
        raise DegenerateWeightsError("stage-1 weights are all zero")

    n_bins = edges.size - 1
    map_mass = np.bincount(_bin_index(d, edges), minlength=n_bins) / d.size
    sim_bin = _bin_index(p, edges)
    sim_mass = np.bincount(sim_bin, weights=w1, minlength=n_bins) / w1_total

    orphan = (map_mass > 0.0) & (sim_mass == 0.0)
    dropped = 0.0
    if np.any(orphan):
        if unmatched == "transfer":
            centers = (edges[:-1] + edges[1:]) / 2.0
            hosts = np.flatnonzero(sim_mass > 0.0)
            if hosts.size == 0:
                raise DegenerateWeightsError("no bin contains simulation weight")
            for b in np.flatnonzero(orphan):
                nearest = hosts[np.argmin(np.abs(centers[hosts] - centers[b]))]
                map_mass[nearest] += map_mass[b]
                map_mass[b] = 0.0
        else:
            dropped = float(map_mass[orphan].sum())
            map_mass[orphan] = 0.0

    ratio = np.zeros(n_bins)
    np.divide(map_mass, sim_mass, out=ratio, where=sim_mass > 0.0)
    raw = w1 / w1_total * ratio[sim_bin]
    return WeightVector.from_unnormalized(raw, dropped_map_fraction=dropped)


def discrepancy_ernd(pixel, sims) -> WeightVector:
    """Weights minimising the integrated squared cdf distance, in closed form.

    Writing ``c_j`` for the cumulative weight assigned up to the j-th sorted
    simulated prevalence, the objective separates over the gaps between
    consecutive simulated prevalences and the optimal ``c_j`` is the average
    of the map cdf over the following gap, with ``c_J = 1`` pinning the total
    to one.  Increments that would be negative (possible only with pathological
    orderings) are clamped to zero and counted.  Duplicate simulated
    prevalences are merged before solving and the merged weight is split
    equally among the duplicates.
    """
    d = np.asarray(pixel, dtype=float)
    p = np.asarray(sims, dtype=float)
    map_cdf = StepCdf.from_samples(d)

    unique, inverse, counts = np.unique(p, return_inverse=True, return_counts=True)
    k = unique.size
    if k == 1:
        group_weights = np.array([1.0])
        clamped = 0
    else:
        integrals = np.diff(map_cdf.integral_to(unique))
        targets = integrals / np.diff(unique)  # mean of F over each gap
        targets = np.clip(targets, 0.0, 1.0)  # guard rounding noise; F lies in [0, 1]
        cum = np.maximum.accumulate(targets)  # clamp: cumulative weights must not decrease
        clamped = int(np.sum(targets < np.concatenate(([0.0], cum[:-1])) - 1e-12))
        group_weights = np.concatenate((cum[:1], np.diff(cum), 1.0 - cum[-1:]))
    raw = (group_weights / counts)[inverse]
    return WeightVector.from_unnormalized(raw, clamp_count=clamped)


def apply_ernd(
    pixel, sims, w1, kind: Literal["distance", "histogram", "discrepancy"],
    delta: float | None = None, histogram_bins: int = 100,
    unmatched: Literal["drop", "transfer"] = "drop",
) -> WeightVector:
    """Run the ``kind`` estimator on one pixel.

    A ``None`` delta is chosen with :func:`select_delta`; the histogram has
    ``histogram_bins`` equal-width bins on [0, 1].
    """
    if kind == "distance":
        return distance_ernd(pixel, sims, w1, delta if delta is not None else select_delta(sims))
    if kind == "histogram":
        edges = np.linspace(0.0, 1.0, histogram_bins + 1)
        return histogram_ernd(pixel, sims, w1, edges, unmatched=unmatched)
    if kind == "discrepancy":
        return discrepancy_ernd(pixel, sims)
    raise ValueError(f"unknown ERND kind {kind!r}")
