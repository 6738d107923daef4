"""The bank-only parts that `weight` and `project` build once give exactly the per-pixel results.

The references below recompute everything from the arrays for every pixel,
the way the estimators and `project` did before the bank kept its sorted
prevalences and sorted trajectory columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maplink.io import RunConfig
from maplink.pipeline import (
    QUANTILE_LEVELS,
    SPARSE_THRESHOLD,
    PixelWeights,
    PooledUnit,
    SimulationBank,
    project,
    stage1_population_weights,
    weight_all,
)
from maplink.reweight import (
    DegenerateWeightsError,
    PreparedErnd,
    StepCdf,
    WeightVector,
    ess,
    select_delta,
)
from reference import weighted_quantile

# --- references: every bank-only quantity recomputed per pixel ---------------


def _reference_window_weight_sums(sorted_values, sorted_weights, centers, delta):
    cum = np.concatenate(([0.0], np.cumsum(sorted_weights)))
    lo = np.searchsorted(sorted_values, centers - delta / 2.0, side="left")
    hi = np.searchsorted(sorted_values, centers + delta / 2.0, side="right")
    sums = cum[hi] - cum[lo]
    lossy = np.flatnonzero(sums < 1e-6 * cum[hi])
    bounds = np.stack((lo[lossy], hi[lossy]), axis=1).ravel()
    sums[lossy] = np.add.reduceat(np.append(sorted_weights, 0.0), bounds)[::2]
    return sums


def _reference_distance(pixel, p, w1, delta):
    d = np.sort(pixel)
    w1_total = w1.sum()
    if w1_total <= 0.0:
        raise DegenerateWeightsError("stage-1 weights are all zero")
    order = np.argsort(p, kind="stable")
    p_sorted, w_sorted = p[order], w1[order]
    counts = (np.searchsorted(d, p + delta / 2.0, side="right")
              - np.searchsorted(d, p - delta / 2.0, side="left"))
    gsum = _reference_window_weight_sums(p_sorted, w_sorted, p, delta)
    positive = w1 > 0.0
    raw = np.zeros_like(w1)
    raw[positive] = counts[positive] / d.size * w1_total / gsum[positive] * w1[positive]
    covered = p_sorted[w_sorted > 0.0]
    idx = np.searchsorted(covered, d)
    nearest = np.minimum(np.abs(d - covered[np.minimum(idx, covered.size - 1)]),
                         np.abs(d - covered[np.maximum(idx - 1, 0)]))
    dropped = float(np.mean(nearest > delta / 2.0))
    return WeightVector.from_unnormalized(raw, dropped_map_fraction=dropped)


def _bins(values, edges):
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, edges.size - 2)


def _reference_histogram(pixel, p, w1, n_bins):
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    w1_total = w1.sum()
    if w1_total <= 0.0:
        raise DegenerateWeightsError("stage-1 weights are all zero")
    map_mass = np.bincount(_bins(pixel, edges), minlength=n_bins) / pixel.size
    sim_bin = _bins(p, edges)
    sim_mass = np.bincount(sim_bin, weights=w1, minlength=n_bins) / w1_total
    orphan = (map_mass > 0.0) & (sim_mass == 0.0)
    dropped = float(map_mass[orphan].sum()) if np.any(orphan) else 0.0
    map_mass[orphan] = 0.0
    ratio = np.zeros(n_bins)
    np.divide(map_mass, sim_mass, out=ratio, where=sim_mass > 0.0)
    return WeightVector.from_unnormalized(w1 / w1_total * ratio[sim_bin],
                                          dropped_map_fraction=dropped)


def _reference_discrepancy(pixel, p):
    unique, inverse, counts = np.unique(p, return_inverse=True, return_counts=True)
    if unique.size == 1:
        group_weights, clamped = np.array([1.0]), 0
    else:
        targets = np.diff(StepCdf.from_samples(pixel).integral_to(unique)) / np.diff(unique)
        targets = np.clip(targets, 0.0, 1.0)
        cum = np.maximum.accumulate(targets)
        clamped = int(np.sum(targets < np.concatenate(([0.0], cum[:-1])) - 1e-12))
        group_weights = np.concatenate((cum[:1], np.diff(cum), 1.0 - cum[-1:]))
    return WeightVector.from_unnormalized((group_weights / counts)[inverse], clamp_count=clamped)


def _reference_weight_pixel(unit, bank, config):
    w1 = stage1_population_weights(bank, unit.population, config.population_log_sd)
    p = bank.equilibrium_prevalence
    if config.ernd_kind == "distance":
        delta = config.delta if config.delta is not None else select_delta(p)
        w2 = _reference_distance(unit.samples, p, w1, delta)
    elif config.ernd_kind == "histogram":
        w2 = _reference_histogram(unit.samples, p, w1, config.histogram_bins)
    else:
        w2 = _reference_discrepancy(unit.samples, p)
    keep = w2.weights >= w2.weights.max() * SPARSE_THRESHOLD
    values = w2.weights[keep] / w2.weights[keep].sum()
    return np.flatnonzero(keep), values, w2.dropped_map_fraction, w2.clamp_count, ess(values)


def _reference_project(weights, bank, scenario, threshold):
    traj = bank.trajectories[scenario][weights.indices]
    quantiles = np.stack([weighted_quantile(traj[:, y], weights.values, QUANTILE_LEVELS)
                          for y in range(traj.shape[1])], axis=1)
    elim = np.array([min(1.0, max(0.0, float(np.dot(weights.values, traj[:, y] < threshold))))
                     for y in range(traj.shape[1])])
    return quantiles, elim


# --- random banks with many ties ------------------------------------------------

GRID = 8  # prevalences and trajectories on multiples of 1/GRID tie heavily


@st.composite
def banks_and_pixels(draw):
    j = draw(st.integers(3, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # w1 = prior / proposal mass, so proposal masses spread over 300 decades
    # make w1 span 1e-300 to 1 and exercise the directly summed windows
    bank = SimulationBank(
        populations=rng.integers(200, 2000, size=j),
        population_proposal_mass=10.0 ** rng.uniform(0.0, 300.0, size=j),
        equilibrium_prevalence=rng.integers(0, GRID + 1, size=j) / GRID,
        trajectories={name: rng.integers(0, GRID + 1, size=(j, 4)) / GRID
                      for name in ("none", "mda")},
    )
    units = [
        PooledUnit(unit_id=f"u{i}", country="AA", member_pixel_ids=(f"u{i}",),
                   population=float(rng.integers(300, 1500)),
                   samples=rng.integers(0, 2 * GRID + 1, size=rng.integers(1, 40)) / (2 * GRID))
        for i in range(3)
    ]
    configs = [
        RunConfig(ernd_kind=kind,
                  delta=draw(st.sampled_from([None, 0.01, 0.125, 0.3, 2.0])),
                  histogram_bins=draw(st.sampled_from([1, 3, 8, 100])),
                  ess_floor=2.0)
        for kind in draw(st.lists(st.sampled_from(["distance", "histogram", "discrepancy"]),
                                  min_size=1, max_size=3))
    ]
    return bank, units, configs, rng


def _outcome(fn):
    try:
        return fn()
    except DegenerateWeightsError as err:
        return type(err)


@settings(max_examples=60, deadline=None)
@given(banks_and_pixels())
def test_prepared_weights_and_projections_match_the_references(case):
    bank, units, configs, rng = case
    projected = []
    # one bank for every config: a kept part must follow a changed setting
    for config in configs:
        reference = [_outcome(lambda u=u: _reference_weight_pixel(u, bank, config)) for u in units]
        if any(r is DegenerateWeightsError for r in reference):
            with pytest.raises(DegenerateWeightsError):
                weight_all(units, bank, config)
            continue
        prepared = weight_all(units, bank, config)
        for got, (indices, values, dropped, clamped, ess_value) in zip(prepared, reference):
            assert np.array_equal(got.indices, indices)
            assert np.array_equal(got.values, values)
            assert got.dropped_map_fraction == dropped
            assert got.clamp_count == clamped
            assert got.ess == ess_value
        projected.extend(prepared)

    # sparse vectors, some far lighter than others, next to the estimators' own
    j = bank.size
    for size in (1, min(2, j), j // 3 + 1):
        indices = np.sort(rng.choice(j, size=size, replace=False))
        values = 10.0 ** rng.uniform(-300.0, 0.0, size=size)
        projected.append(PixelWeights(unit_id="sparse", bank_size=j, indices=indices,
                                     values=values / values.sum(), ess=1.0,
                                     dropped_map_fraction=0.0, clamp_count=0, low_ess=True))
    for weights in projected:
        for scenario in bank.trajectories:
            for threshold in (0.01, 0.5):
                quantiles, elim = _reference_project(weights, bank, scenario, threshold)
                got = project(weights, bank, scenario, threshold)
                assert np.array_equal(got.quantiles, quantiles)
                assert np.array_equal(got.elimination_probability, elim)


# --- one preparation per command ---------------------------------------------------


@pytest.mark.parametrize("delta", [0.05, None], ids=["delta-0.05", "delta-null"])
@pytest.mark.parametrize("kind", ["distance", "histogram", "discrepancy"])
def test_weight_all_prepares_the_estimator_once_per_bank_and_setting(monkeypatch, kind, delta):
    # equal weights show nothing here: a preparation repeated for every unit
    # gives the same bytes, only slower; so every PreparedErnd built is counted
    rng = np.random.default_rng(7)
    j = 300
    bank = SimulationBank(populations=rng.integers(300, 2000, size=j),
                          population_proposal_mass=np.full(j, 1.0 / j),
                          equilibrium_prevalence=rng.beta(2.0, 5.0, size=j))
    units = [PooledUnit(unit_id=f"u{i}", country="AA", member_pixel_ids=(f"u{i}",),
                        population=float(rng.integers(300, 1500)),
                        samples=rng.beta(2.0, 5.0, size=50))
             for i in range(13)]
    config = RunConfig(ernd_kind=kind, delta=delta, ess_floor=1.0)
    builds = []
    init = PreparedErnd.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[0] if args else kwargs["kind"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PreparedErnd, "__init__", counting_init)
    first = weight_all(units, bank, config)
    assert builds == [kind]
    again = weight_all(units, bank, config)
    assert builds == [kind]
    for a, b in zip(first, again):
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)
