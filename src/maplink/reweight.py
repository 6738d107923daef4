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

:func:`prepare_ernd` checks one estimator setting and builds, once, a frozen
:class:`PreparedErnd` of what that estimator derives from the simulated
prevalences alone.  Each estimator reads its setting from it, as in
``distance_ernd(pixel, prepared, w1)``, and :func:`apply_ernd` runs the one
``prepared`` was built for on a pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

__all__ = [
    "CdfSupport",
    "DegenerateWeightsError",
    "PreparedErnd",
    "StepCdf",
    "WeightVector",
    "apply_ernd",
    "cdf_support",
    "discrepancy_ernd",
    "distance_ernd",
    "ess",
    "histogram_ernd",
    "integrated_squared_distance",
    "ks_distance",
    "prepare_ernd",
    "select_delta",
    "stable_order",
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
    ess: float = field(init=False)
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
# The stable order
# ---------------------------------------------------------------------------

def stable_order(values) -> np.ndarray:
    """Exactly ``np.argsort(values, kind="stable")`` for a 1-d array with no NaN.

    numpy's unstable argsort is vectorised and several times faster than its
    stable one.  It leaves each run of equal values (ties, and -0.0 with 0.0)
    in an arbitrary order, so when there are ties one int64 sort of the key
    ``run * n + index`` puts every run in index order.  Each run keeps its
    positions, so taking ``run * n`` off again leaves the index.
    """
    values = np.asarray(values)
    order = np.argsort(values)
    ordered = values[order]
    tied = ordered[1:] == ordered[:-1]
    if not tied.any():
        return order
    n = order.size
    base = np.empty(n, dtype=np.int64)  # run * n, the run counted in sorted position
    base[0] = 0
    np.cumsum(~tied, out=base[1:])
    base *= n
    key = base + order
    key.sort()
    key -= base
    return key


# ---------------------------------------------------------------------------
# Empirical cdfs and distances between them
# ---------------------------------------------------------------------------

class CdfSupport(NamedTuple):
    """The jump points of an empirical cdf, each sample's point and the samples' stable order."""

    points: np.ndarray  # distinct values, ascending, among them every sample's
    index: np.ndarray  # each sample's point, in the order of the samples
    order: np.ndarray  # the stable order of the samples

    def split(self, at: int) -> tuple["CdfSupport", "CdfSupport"]:
        """Supports of the samples before ``at`` and of the rest, on these points; no re-sort."""
        tail = self.order >= at
        return (CdfSupport(self.points, self.index[:at], self.order[~tail]),
                CdfSupport(self.points, self.index[at:], self.order[tail] - at))


def cdf_support(values) -> CdfSupport:
    """The :class:`CdfSupport` of ``values``, a non-empty 1-d array without NaN.

    Each point is the first of its run of equal values in the stable order, so
    -0.0 or 0.0, whichever comes first.  Samples sorted together share it via
    :meth:`CdfSupport.split`, exactly: zero mass changes no partial sum.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("cdf samples must be a non-empty 1-d array")
    nan = np.isnan(values)
    if nan.any():
        raise ValueError(f"cdf sample {int(nan.argmax())} is nan")
    order = stable_order(values)
    ordered = values[order]
    new = np.empty(ordered.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    index = np.empty(ordered.size, dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return CdfSupport(ordered[new], index, order)


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
        """Weighted empirical cdf; duplicate values are merged into one jump.

        ``values`` must be a non-empty 1-d array without NaN, or a
        :class:`CdfSupport` of them, so that several weightings of the same
        values share one sort.  ``weights``, if given, is one finite
        non-negative weight per value with a positive sum.
        """
        points, index, _ = values if isinstance(values, CdfSupport) else cdf_support(values)
        if weights is None:
            weights = np.full(index.size, 1.0 / index.size)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != index.shape:
                raise ValueError(f"cdf weights must be one per sample: {weights.shape} "
                                 f"weights for {index.size} samples")
            if not (weights >= 0.0).all() or not np.isfinite(weights).all():
                raise ValueError("cdf weights must be finite and non-negative")
            total = weights.sum()
            if total <= 0.0:
                raise DegenerateWeightsError("cdf of an all-zero weight vector")
            weights = weights / total
        # bincount adds each jump's weights in index order, as the stable order does
        mass = np.bincount(index, weights=weights, minlength=points.size)
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


def _on_union(first: StepCdf, second: StepCdf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of both cdfs' jump points, ascending, and each cdf's value there.

    Cdfs on one shared support (one ``points`` array) are on it already,
    exactly: a point of the other's samples adds zero to ``cum``.  Else each
    cdf's points are one sorted run, so the stable argsort of the two runs end
    to end is a single timsort merge.  A point in both runs comes first from
    ``first``, then from ``second``; each cdf is read at the last copy, where
    its count of points up to it is whole.
    """
    if first.points is second.points:
        return first.points, first.cum, second.cum
    both = np.concatenate((first.points, second.points))
    order = np.argsort(both, kind="stable")
    merged = both[order]
    in_first = np.cumsum(order < first.points.size)
    in_second = np.arange(1, order.size + 1) - in_first
    last = np.empty(merged.size, dtype=bool)
    last[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    first_cum = np.concatenate(([0.0], first.cum))
    second_cum = np.concatenate(([0.0], second.cum))
    return merged[last], first_cum[in_first[last]], second_cum[in_second[last]]


def ks_distance(map_cdf: StepCdf, weighted_sim_cdf: StepCdf) -> float:
    """Largest vertical distance between two step cdfs."""
    _, f, h = _on_union(map_cdf, weighted_sim_cdf)
    return float(np.max(np.abs(f - h)))


def integrated_squared_distance(map_cdf: StepCdf, weighted_sim_cdf: StepCdf) -> float:
    """Integral of (F - H)^2 over the prevalences [0, 1], exact for step functions."""
    grid, f, h = _on_union(map_cdf, weighted_sim_cdf)
    inner = (grid > 0.0) & (grid < 1.0)
    breaks = np.concatenate(([0.0], grid[inner], [1.0]))
    heights = np.concatenate((map_cdf([0.0]) - weighted_sim_cdf([0.0]), f[inner] - h[inner]))
    return float(np.sum(heights * heights * np.diff(breaks)))


# ---------------------------------------------------------------------------
# Window width selection
# ---------------------------------------------------------------------------

def _prevalences(sims) -> np.ndarray:
    """``sims`` as a 1-d float array, after checking each is a prevalence in [0, 1]."""
    values = np.asarray(sims, dtype=float)
    if values.ndim != 1:
        raise ValueError("simulated prevalences must be a 1-d array")
    bad = ~((values >= 0.0) & (values <= 1.0))  # NaN fails both comparisons
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"simulated prevalence {i} is {float(values[i])}, not in [0, 1]")
    return values


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
    p = np.sort(_prevalences(sims))
    if p.size < 3:
        raise ValueError("need at least 3 simulated prevalences to choose delta")
    inf = np.inf
    gap1 = p[1:] - p[:-1]
    gap2 = p[2:] - p[:-2]
    left1 = np.concatenate(([inf], gap1))
    left2 = np.concatenate(([inf, inf], gap2))
    right1 = np.concatenate((gap1, [inf]))
    right2 = np.concatenate((gap2, [inf, inf]))
    # distance to the second-nearest other point: the second smallest of the
    # two nearest on each side, where left1 <= left2 and right1 <= right2
    second_nearest = np.minimum(np.maximum(left1, right1), np.minimum(left2, right2))
    delta = 2.0 * float(second_nearest.max())
    return DELTA_FALLBACK if delta <= 0.0 else delta


# ---------------------------------------------------------------------------
# The parts of the estimators that depend on the simulations alone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedErnd:
    """One estimator setting's parts that depend on the simulated prevalences alone.

    :func:`prepare_ernd` builds every part at once and nothing changes them
    later, so one value serves every pixel of a bank.
    """

    kind: Literal["distance", "histogram", "discrepancy"]
    values: np.ndarray  # the simulated prevalences
    # distance: the stable order, the values in it and each one's window [lo, hi) in them;
    # histogram: the bin of each value; discrepancy: cdf_support's points and index, and counts
    parts: tuple[np.ndarray, ...]
    delta: float | None = None  # the window width, for distance only
    edges: np.ndarray | None = None  # the bin edges, for histogram only


def prepare_ernd(
    sims, kind: Literal["distance", "histogram", "discrepancy"],
    delta: float | None = None, histogram_bins: int | np.ndarray = 100,
) -> PreparedErnd:
    """Check a setting and build the ``kind`` estimator's parts that depend on ``sims`` alone.

    ``sims`` is the simulated prevalences or their :class:`CdfSupport`, whose
    one sort every kind reuses.  The distance estimator's window width is
    ``delta``, which must be positive and finite, or for a ``None`` delta the
    :func:`select_delta` choice.  As for ``numpy.histogram``'s ``bins``,
    ``histogram_bins`` is a count of equal-width bins on [0, 1] or the bin
    edges themselves, which must increase strictly from 0 to 1.  Each kind
    ignores the other's setting.
    """
    values = _prevalences(sims.points[sims.index] if isinstance(sims, CdfSupport) else sims)
    points, index, order = sims if isinstance(sims, CdfSupport) else cdf_support(values)
    if kind == "distance":
        sorted_values = values[order]
        delta = delta if delta is not None else select_delta(sorted_values)
        if not 0.0 < delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {delta!r}")
        lo, hi = _window_bounds(sorted_values, sorted_values, delta)
        return PreparedErnd(kind, values, (order, sorted_values, lo, hi), delta=delta)
    if kind == "histogram":
        edges = (np.linspace(0.0, 1.0, histogram_bins + 1) if np.ndim(histogram_bins) == 0
                 else np.asarray(histogram_bins, dtype=float))
        if edges.size < 2 or edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0):
            raise ValueError("histogram_bins edges must increase strictly from 0 to 1")
        return PreparedErnd(kind, values, (_bin_index(points, edges)[index],), edges=edges)
    if kind == "discrepancy":
        taken = np.bincount(index, minlength=points.size) > 0  # split parts share points
        index = (np.cumsum(taken) - 1)[index]
        return PreparedErnd(kind, values, (points[taken], index, np.bincount(index)))
    raise ValueError(f"unknown ERND kind {kind!r}")


# ---------------------------------------------------------------------------
# The three empirical Radon-Nikodym derivative estimators
# ---------------------------------------------------------------------------

def _check_kind(prepared: PreparedErnd, kind: str) -> None:
    if prepared.kind != kind:
        raise ValueError(f"{kind}_ernd needs a {kind!r} PreparedErnd, got a {prepared.kind!r} one")


def _window_bounds(
    sorted_values: np.ndarray, centers: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    lo = np.searchsorted(sorted_values, centers - delta / 2.0, side="left")
    hi = np.searchsorted(sorted_values, centers + delta / 2.0, side="right")
    return lo, hi


def _window_weight_sums(sorted_weights: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    cum = np.concatenate(([0.0], np.cumsum(sorted_weights)))
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


def distance_ernd(pixel, prepared: PreparedErnd, w1) -> WeightVector:
    """Moving-window density-ratio reweighting.

    The new weight of simulation j is proportional to ``f(p_j)/g(p_j) * w1_j``
    where ``f`` is the fraction of map samples within delta/2 of ``p_j``
    (per unit width) and ``g`` is the w1-weighted fraction of simulated
    prevalences in the same window.  Windows are closed intervals
    ``[p_j - delta/2, p_j + delta/2]`` with no truncation at the ends of
    [0, 1], where delta is ``prepared.delta``.
    """
    _check_kind(prepared, "distance")
    d = np.sort(np.asarray(pixel, dtype=float))
    w1 = np.asarray(w1, dtype=float)
    if w1.shape != prepared.values.shape:
        raise ValueError("w1 must have one weight per simulation")
    w1_total = w1.sum()
    if w1_total <= 0.0:
        raise DegenerateWeightsError("stage-1 weights are all zero")

    # every per-simulation array below is in the sorted order of p
    m = d.size
    order, p_sorted, lo, hi = prepared.parts
    delta = prepared.delta
    w_sorted = w1[order]

    # f_j = counts_j / (delta m) and g_j = gsum_j / (delta sum(w1)); the
    # window width cancels in the ratio, which avoids overflow at tiny delta
    map_lo, map_hi = _window_bounds(d, p_sorted, delta)
    counts = map_hi - map_lo
    gsum = _window_weight_sums(w_sorted, lo, hi)
    # Each window contains its own simulation, so g > 0 wherever w1 > 0.
    positive = w_sorted > 0.0
    if not np.all(gsum[positive] > 0.0):
        raise DegenerateWeightsError("window denominator vanished despite support condition")
    raw_sorted = np.zeros_like(w_sorted)
    raw_sorted[positive] = counts[positive] / m * w1_total / gsum[positive] * w_sorted[positive]
    raw = np.empty_like(raw_sorted)
    raw[order] = raw_sorted

    dropped = _unmatched_map_fraction(d, p_sorted[positive], delta)
    return WeightVector.from_unnormalized(raw, dropped_map_fraction=dropped)


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin assignment for right-open bins, with the last bin closed at 1."""
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, edges.size - 2)


def histogram_ernd(
    pixel, prepared: PreparedErnd, w1, unmatched: Literal["drop", "transfer"] = "drop"
) -> WeightVector:
    """Fixed-partition density-ratio reweighting over the bins ``prepared.edges``.

    All simulations in one bin share the ratio (map fraction of the bin) /
    (w1 fraction of the bin); bin widths cancel.  Bins holding map mass but
    no simulation weight violate absolute continuity: by default that map
    mass is dropped and recorded, or with ``unmatched="transfer"`` it is
    moved to the nearest bin (by centre) that does contain simulations.
    """
    _check_kind(prepared, "histogram")
    if unmatched not in ("drop", "transfer"):
        raise ValueError(f"unmatched must be 'drop' or 'transfer', got {unmatched!r}")
    d = np.asarray(pixel, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    if w1.shape != prepared.values.shape:
        raise ValueError("w1 must have one weight per simulation")
    w1_total = w1.sum()
    if w1_total <= 0.0:
        raise DegenerateWeightsError("stage-1 weights are all zero")

    edges = prepared.edges
    n_bins = edges.size - 1
    # the samples below each inner edge, from the sorted samples; the first and
    # last bins also take what lies outside [0, 1], and the last takes NaN
    below = np.searchsorted(np.sort(d), edges[1:-1], side="left")
    map_mass = np.diff(below, prepend=0, append=d.size) / d.size
    (sim_bin,) = prepared.parts
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


def discrepancy_ernd(pixel, prepared: PreparedErnd) -> WeightVector:
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
    _check_kind(prepared, "discrepancy")
    d = np.asarray(pixel, dtype=float)
    map_cdf = StepCdf.from_samples(d)
    unique, inverse, counts = prepared.parts
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
    pixel, prepared: PreparedErnd, w1, unmatched: Literal["drop", "transfer"] = "drop"
) -> WeightVector:
    """Run the estimator ``prepared`` was built for on one pixel."""
    if prepared.kind == "distance":
        return distance_ernd(pixel, prepared, w1)
    if prepared.kind == "histogram":
        return histogram_ernd(pixel, prepared, w1, unmatched=unmatched)
    return discrepancy_ernd(pixel, prepared)
