"""The stable-order kernel and the code built on it, against numpy and the reference copies.

``stable_order`` must give exactly numpy's stable argsort, and the cdf, the
two cdf distances, the window-width rule and the histogram estimator must
give the same bits as the code they replaced, kept in ``tests/reference.py``.
"""

import itertools
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maplink.toy
import reference
from maplink.pipeline import SimulationBank
from maplink.reweight import (
    CdfSupport,
    DegenerateWeightsError,
    StepCdf,
    _on_union,
    cdf_support,
    histogram_ernd,
    integrated_squared_distance,
    ks_distance,
    prepare_ernd,
    select_delta,
    stable_order,
)
from maplink.toy import TOY_CELLS, run_toy_experiment

# few distinct values, so that most samples tie; -0.0 and 0.0 compare equal
TIED = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
ANY = st.floats(allow_nan=False)
PREVALENCE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


def _same(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# --- stable_order ---------------------------------------------------------------

@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_stable_order_is_the_stable_argsort_of_every_small_array(size):
    for values in itertools.product([-0.0, 0.0, 0.5, 1.0], repeat=size):
        values = np.array(values, dtype=float)
        assert _same(stable_order(values), np.argsort(values, kind="stable")), values


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(TIED, ANY), max_size=200))
def test_stable_order_is_the_stable_argsort(values):
    values = np.array(values, dtype=float)
    assert _same(stable_order(values), np.argsort(values, kind="stable"))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 300), st.integers(1, 8), st.integers(1, 50), st.randoms())
def test_trajectory_order_is_the_stable_argsort_of_each_year(j, years, population, random):
    # trajectories are counts over a population, so each year's column is full
    # of ties, zeros above all once a run reaches elimination
    rng = np.random.default_rng(random.getrandbits(32))
    traj = rng.binomial(population, rng.uniform(0.0, 0.3, size=(j, 1)), size=(j, years + 1))
    bank = SimulationBank(
        populations=np.full(j, population),
        population_proposal_mass=np.ones(j),
        equilibrium_prevalence=traj[:, 0] / population,
        trajectories={"none": traj / population},
    )
    want = np.argsort(bank.trajectories["none"].T, axis=1, kind="stable")
    assert _same(bank.trajectory_order("none"), want)


# --- the cdf, the distances and the window width against the reference copies ---

def _samples(values, weights):
    values = np.array(values, dtype=float)
    if weights is None:
        return values, None
    weights = np.array(weights[:values.size] + [1.0] * (values.size - len(weights)))
    return values, weights if weights.sum() > 0.0 else None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(TIED, ANY), min_size=1, max_size=100),
       st.one_of(st.none(), st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e6)))))
def test_step_cdf_matches_the_reference(values, weights):
    values, weights = _samples(values, weights)
    got = StepCdf.from_samples(values, weights)
    want = reference.StepCdf.from_samples(values, weights)
    assert _same(got.points, want.points) and _same(got.cum, want.cum)


@settings(max_examples=300, deadline=None)
@given(st.lists(PREVALENCE, min_size=1, max_size=80),
       st.lists(PREVALENCE, min_size=1, max_size=80),
       st.one_of(st.none(), st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e6)))))
def test_cdf_distances_match_the_reference(map_values, sims, weights):
    sims, weights = _samples(sims, weights)
    ours = StepCdf.from_samples(map_values), StepCdf.from_samples(sims, weights)
    theirs = (reference.StepCdf.from_samples(map_values),
              reference.StepCdf.from_samples(sims, weights))
    assert ks_distance(*ours) == reference.ks_distance(*theirs)
    got = integrated_squared_distance(*ours)
    assert np.float64(got).tobytes() == np.float64(
        reference.integrated_squared_distance(*theirs)).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(PREVALENCE, min_size=3, max_size=100))
def test_select_delta_matches_the_reference(sims):
    assert select_delta(sims) == reference.select_delta(sims)


@pytest.mark.parametrize("proposal_kind", ["prior", "uniform"])
@pytest.mark.parametrize("ernd_kind", ["distance", "histogram", "discrepancy"])
def test_toy_reports_match_the_reference(monkeypatch, ernd_kind, proposal_kind):
    setting = dict(m=400, j=300, replicates=4, seed=7)
    cell = TOY_CELLS.index((proposal_kind, ernd_kind))
    ours = run_toy_experiment(**setting)[4 * cell:4 * (cell + 1)]
    for name in ("ks_distance", "integrated_squared_distance", "select_delta"):
        monkeypatch.setattr(maplink.toy, name, getattr(reference, name))

    # the reference cdf and preparation sort their values each time, so they are
    # given them back for a shared support; they differ only in which of -0.0
    # and 0.0 a tie holds
    def values(sims):
        return sims.points[sims.index] if isinstance(sims, CdfSupport) else sims

    monkeypatch.setattr(maplink.toy, "prepare_ernd",
                        lambda sims, *args: reference.prepare_ernd(values(sims), *args))
    monkeypatch.setattr(maplink.toy, "StepCdf", types.SimpleNamespace(
        from_samples=lambda sims, weights=None: reference.StepCdf.from_samples(
            values(sims), weights)))
    assert ours == run_toy_experiment(**setting)[4 * cell:4 * (cell + 1)]


# --- the shared cdf support and the sorted-pixel histogram counts ----------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(TIED, ANY), min_size=1, max_size=100),
       st.one_of(st.none(), st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e6)))))
def test_step_cdf_on_a_shared_support_matches_the_stable_order_copy(values, weights):
    values, weights = _samples(values, weights)
    want = reference.StableStepCdf.from_samples(values, weights)
    support = cdf_support(values)
    for got in (StepCdf.from_samples(values, weights), StepCdf.from_samples(support, weights)):
        assert _same(got.points, want.points) and _same(got.cum, want.cum)
    # each value's index names its point, and of -0.0 and 0.0 the first one drawn
    points, index, _ = support
    assert np.array_equal(points[index], values)
    zeros = np.flatnonzero(values == 0.0)
    if zeros.size:
        assert _same(points[index[zeros[:1]]], values[zeros[:1]])


# ties, lattice values, both zeros and any value in [0, 1]
SHARED = st.one_of(TIED, st.integers(0, 8).map(lambda k: k / 8), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(SHARED, min_size=1, max_size=60), st.lists(SHARED, min_size=1, max_size=60),
       st.one_of(st.none(), st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e6)))))
@example([0.0], [-0.0], None)
@example([-0.0], [0.0, 0.5], None)
@example([0.5], [0.25], [3.0])
@example([0.25, 0.25], [0.25], None)
def test_cdf_distances_on_a_shared_support_match_own_supports_and_the_reference(
        map_values, sims, weights):
    map_values = np.array(map_values, dtype=float)
    sims, weights = _samples(sims, weights)
    own, bank = cdf_support(np.concatenate((map_values, sims))).split(map_values.size)
    shared = StepCdf.from_samples(own), StepCdf.from_samples(bank, weights)
    apart = StepCdf.from_samples(map_values), StepCdf.from_samples(sims, weights)
    theirs = (reference.StepCdf.from_samples(map_values),
              reference.StepCdf.from_samples(sims, weights))
    # each cdf on the shared points holds the value its own cdf has there
    grid, f, h = _on_union(*shared)
    assert grid is shared[0].points
    assert _same(f, apart[0](grid)) and _same(h, apart[1](grid))
    for ours, reference_distance in ((ks_distance, reference.ks_distance),
                                     (integrated_squared_distance,
                                      reference.integrated_squared_distance)):
        want = np.float64(reference_distance(*theirs))
        assert _same(np.float64(ours(*shared)), want)
        assert _same(np.float64(ours(*apart)), want)


# samples on the edges of 100 equal-width bins or of a few uneven ones, and at both
# zeros; a pixel's samples may also lie outside [0, 1] or be NaN
EDGES = np.linspace(0.0, 1.0, 101)
ON_EDGE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.3, 0.07, 0.99]),
                    st.sampled_from(list(EDGES)), st.floats(0.0, 1.0))
OUTSIDE = st.sampled_from([-0.5, -np.inf, 1.5, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(ON_EDGE, OUTSIDE), min_size=1, max_size=60),
       st.lists(ON_EDGE, min_size=1, max_size=40),
       st.sampled_from([100, [0.0, 0.3, 0.5, 0.99, 1.0], [0.0, 1.0]]),
       st.sampled_from(["drop", "transfer"]), st.randoms())
def test_histogram_matches_the_reference(pixel, sims, bins, unmatched, random):
    pixel, sims = np.array(pixel, dtype=float), np.array(sims, dtype=float)
    w1 = np.array([random.choice([0.0, 0.5, 1.0, 3.0]) for _ in sims])
    w1[0] = 1.0
    prepared = prepare_ernd(sims, "histogram", histogram_bins=np.asarray(bins))
    try:
        want = reference.histogram_ernd(pixel, prepared, w1, unmatched=unmatched)
    except DegenerateWeightsError:
        with pytest.raises(DegenerateWeightsError):
            histogram_ernd(pixel, prepared, w1, unmatched=unmatched)
        return
    got = histogram_ernd(pixel, prepared, w1, unmatched=unmatched)
    assert _same(got.weights, want.weights)
    assert _same(np.float64(got.dropped_map_fraction), np.float64(want.dropped_map_fraction))
