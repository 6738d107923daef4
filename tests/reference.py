"""Reference implementations that the tests compare the package against."""

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from maplink import reweight
from maplink.pipeline import SimulationBank
from maplink.reweight import (
    DELTA_FALLBACK,
    DegenerateWeightsError,
    PreparedErnd,
    WeightVector,
    _bin_index,
    _check_kind,
    _window_bounds,
    stable_order,
)
from maplink.toy import (
    ToyExperimentReport,
    sample_toy_prior,
    sample_toy_uniform_proposal,
    toy_stage1_weights,
    toy_target_sampler,
)


def weighted_quantile(values, weights, levels) -> np.ndarray:
    """Lower weighted quantiles: smallest value whose cdf reaches the level."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    idx = np.searchsorted(cum, np.asarray(levels, dtype=float), side="left")
    return values[order][np.minimum(idx, values.size - 1)]


def reference_load_bank(directory) -> SimulationBank:
    """A bank directory read shard by shard: ``np.load`` of each array, a csv parse
    of each params table, then one concatenation per column; nothing is checked."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    populations, masses, equilibrium, trajectories = [], [], [], {}
    for shard in sorted(manifest["shards"], key=lambda s: s["index"]):
        with open(directory / shard["files"]["params"], newline="") as fh:
            rows = list(csv.reader(fh))[2:]  # past the schema line and the header
        populations.append(np.array([int(row[1]) for row in rows], dtype=np.int64))
        masses.append(np.array([float(row[5]) for row in rows]))
        equilibrium.append(np.load(directory / shard["files"]["equilibrium"]))
        for key, name in shard["files"].items():
            if key.startswith("traj_"):
                trajectories.setdefault(key[5:], []).append(np.load(directory / name))
    return SimulationBank(
        populations=np.concatenate(populations),
        population_proposal_mass=np.concatenate(masses),
        equilibrium_prevalence=np.concatenate(equilibrium),
        trajectories={name: np.concatenate(parts) for name, parts in trajectories.items()},
    )


# The cdf, distance, window-width and preparation code of the package before
# each stable order came from one kernel, kept verbatim to compare against.

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


def prepare_ernd(
    sims, kind: Literal["distance", "histogram", "discrepancy"],
    delta: float | None = None, histogram_bins: int | np.ndarray = 100,
) -> PreparedErnd:
    """Check a setting and build the ``kind`` estimator's parts that depend on ``sims`` alone.

    ``sims`` is the array of simulated prevalences.  The distance
    estimator's window width is ``delta``, which must be positive, or for a
    ``None`` delta the :func:`select_delta` choice.  As for
    ``numpy.histogram``'s ``bins``, ``histogram_bins`` is a count of
    equal-width bins on [0, 1] or the bin edges themselves, which must
    increase strictly from 0 to 1.  Each kind ignores the other's setting.
    """
    values = np.asarray(sims, dtype=float)
    if kind == "distance":
        delta = delta if delta is not None else select_delta(values)
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        lo, hi = _window_bounds(sorted_values, sorted_values, delta)
        return PreparedErnd(kind, values, (order, sorted_values, lo, hi), delta=delta)
    if kind == "histogram":
        edges = (np.linspace(0.0, 1.0, histogram_bins + 1) if np.ndim(histogram_bins) == 0
                 else np.asarray(histogram_bins, dtype=float))
        if edges.size < 2 or edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0):
            raise ValueError("histogram_bins edges must increase strictly from 0 to 1")
        return PreparedErnd(kind, values, (_bin_index(values, edges),), edges=edges)
    if kind == "discrepancy":
        return PreparedErnd(kind, values, tuple(
            np.unique(values, return_inverse=True, return_counts=True)))
    raise ValueError(f"unknown ERND kind {kind!r}")


# The cdf builder, histogram estimator and per-cell toy harness of the package
# before the six toy cells shared their draws, kept verbatim to compare against.
# ``_one_replicate`` reads this module's copies of the cdf, the distances, the
# window width, the preparation and the histogram estimator, and the package's
# samplers and other two estimators.

class StableStepCdf(StepCdf):
    """The reference cdf, built by one stable order and one sum over the sorted values."""

    @classmethod
    def from_samples(cls, values, weights=None) -> "StableStepCdf":
        """Weighted empirical cdf; duplicate values are merged into one jump.

        ``values`` must be a non-empty 1-d array without NaN, and ``weights``,
        if given, one finite non-negative weight per value with a positive sum.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("cdf samples must be a non-empty 1-d array")
        nan = np.isnan(values)
        if nan.any():
            raise ValueError(f"cdf sample {int(nan.argmax())} is nan")
        if weights is None:
            weights = np.full(values.size, 1.0 / values.size)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != values.shape:
                raise ValueError(f"cdf weights must be one per sample: {weights.shape} "
                                 f"weights for {values.size} samples")
            if not (weights >= 0.0).all() or not np.isfinite(weights).all():
                raise ValueError("cdf weights must be finite and non-negative")
            total = weights.sum()
            if total <= 0.0:
                raise DegenerateWeightsError("cdf of an all-zero weight vector")
            weights = weights / total
        order = stable_order(values)
        ordered = values[order]
        new = np.empty(ordered.size, dtype=bool)
        new[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        inverse = np.cumsum(new) - 1  # each sorted value's jump, as np.unique's inverse
        points = ordered[new]
        mass = np.bincount(inverse, weights=weights[order], minlength=points.size)
        return cls(points=points, cum=np.cumsum(mass))


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
    d = np.asarray(pixel, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    if w1.shape != prepared.values.shape:
        raise ValueError("w1 must have one weight per simulation")
    w1_total = w1.sum()
    if w1_total <= 0.0:
        raise DegenerateWeightsError("stage-1 weights are all zero")

    edges = prepared.edges
    n_bins = edges.size - 1
    map_mass = np.bincount(_bin_index(d, edges), minlength=n_bins) / d.size
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


def apply_ernd(pixel, prepared: PreparedErnd, w1, unmatched: Literal["drop", "transfer"] = "drop"):
    """The package's dispatch, with the histogram estimator the copy above."""
    if prepared.kind == "histogram":
        return histogram_ernd(pixel, prepared, w1, unmatched=unmatched)
    return reweight.apply_ernd(pixel, prepared, w1, unmatched=unmatched)


def _one_replicate(
    m: int,
    j: int,
    ernd_kind: str,
    proposal_kind: str,
    delta_policy: float | None,
    rng: np.random.Generator,
    seed_id: int,
) -> ToyExperimentReport:
    pixel = toy_target_sampler(m, rng)
    if proposal_kind == "prior":
        draws = sample_toy_prior(j, rng)
    else:
        draws = sample_toy_uniform_proposal(j, rng)
    w1 = toy_stage1_weights(draws)
    sims = draws.prevalence

    delta: float | None = None
    if ernd_kind == "distance":
        delta = float(delta_policy) if delta_policy is not None else select_delta(sims)
    w2 = apply_ernd(pixel, prepare_ernd(sims, ernd_kind, delta), w1)

    map_cdf = StepCdf.from_samples(pixel)
    sim_cdf = StepCdf.from_samples(sims, weights=w2.weights)
    return ToyExperimentReport(
        ks=ks_distance(map_cdf, sim_cdf),
        isd=integrated_squared_distance(map_cdf, sim_cdf),
        ess=w2.ess,
        delta=delta,
        replicate_seed=seed_id,
        ernd_kind=ernd_kind,
        proposal_kind=proposal_kind,
    )


def run_toy_experiment(
    m: int = 2000,
    j: int = 2000,
    replicates: int = 100,
    ernd_kind: str = "distance",
    proposal_kind: str = "uniform",
    delta_policy: float | None = None,
    seed: int = 0,
) -> list[ToyExperimentReport]:
    """Repeat the toy reweighting with fresh data each time.

    ``delta_policy=None`` re-selects the window width per replicate from the
    simulated prevalences (the automatic rule); a float fixes it.  Replicates
    get independent child seeds from ``seed``, so they can be reproduced or
    distributed in any order.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if m < 1:
        raise ValueError(f"need at least one posterior sample per replicate, got m={m}")
    if j < 3:  # the automatic window rule needs three simulated prevalences
        raise ValueError(f"need at least 3 simulations per replicate, got j={j}")
    children = np.random.SeedSequence(seed).spawn(replicates)
    return [
        _one_replicate(m, j, ernd_kind, proposal_kind, delta_policy, np.random.default_rng(s), i)
        for i, s in enumerate(children)
    ]
