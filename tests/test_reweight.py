"""Unit and property tests for the change-of-measure numerics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maplink.reweight import (
    DELTA_FALLBACK,
    DegenerateWeightsError,
    StepCdf,
    WeightVector,
    apply_ernd,
    discrepancy_ernd,
    distance_ernd,
    ess,
    histogram_ernd,
    integrated_squared_distance,
    ks_distance,
    select_delta,
)


# --- independent oracles -------------------------------------------------

def cdf_eval(samples, weights, x):
    """Brute-force weighted empirical cdf at x (right-continuous)."""
    samples = np.asarray(samples, dtype=float)
    if weights is None:
        weights = np.full(samples.size, 1.0 / samples.size)
    weights = np.asarray(weights, dtype=float) / np.sum(weights)
    return sum(w for s, w in zip(samples, weights) if s <= x)


def isd_bruteforce(map_samples, sim_values, sim_weights):
    """Exact ISD over [0,1] via explicit breakpoint enumeration, no shared code."""
    breaks = sorted(set([0.0, 1.0]) | set(float(x) for x in map_samples) | set(float(x) for x in sim_values))
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        diff = cdf_eval(map_samples, None, a) - cdf_eval(sim_values, sim_weights, a)
        total += diff * diff * (b - a)
    return total


# --- ess ------------------------------------------------------------------

def test_ess_uniform_weights():
    assert ess(np.full(17, 1.0)) == pytest.approx(17.0)


def test_ess_point_mass():
    w = np.zeros(9)
    w[4] = 1.0
    assert ess(w) == pytest.approx(1.0)


def test_ess_hand_value():
    assert ess([1.0, 1.0, 2.0]) == pytest.approx(16.0 / 6.0)


def test_ess_all_zero_errors():
    with pytest.raises(DegenerateWeightsError):
        ess(np.zeros(5))


# positive weights stay at or above 1e-300, so c * w (c >= 1e-6) is a normal
# float and a faithful scaled copy of w rather than an underflowed zero vector
@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e6)),
        min_size=1,
        max_size=50,
    ).filter(lambda w: sum(w) > 0),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_ess_scale_invariance(weights, c):
    w = np.asarray(weights)
    assert ess(c * w) == pytest.approx(ess(w), rel=1e-9)


# --- step cdfs and distances ------------------------------------------------

def test_ks_identical_samples_zero():
    f = StepCdf.from_samples(np.array([0.3, 0.5, 0.5, 0.9]))
    assert ks_distance(f, f) == 0.0


def test_ks_opposite_point_masses():
    f = StepCdf.from_samples(np.array([0.0]))
    h = StepCdf.from_samples(np.array([1.0]))
    assert ks_distance(f, h) == pytest.approx(1.0)


def test_ks_hand_value():
    f = StepCdf.from_samples(np.array([0.2, 0.8]))
    h = StepCdf.from_samples(np.array([0.5]))
    assert ks_distance(f, h) == pytest.approx(0.5)


def test_isd_trivial_values():
    f0 = StepCdf.from_samples(np.array([0.0]))
    assert integrated_squared_distance(f0, f0) == 0.0
    assert integrated_squared_distance(f0, StepCdf.from_samples(np.array([1.0]))) == pytest.approx(1.0)
    assert integrated_squared_distance(f0, StepCdf.from_samples(np.array([0.5]))) == pytest.approx(0.5)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
)
def test_isd_matches_bruteforce(map_samples, sims):
    f = StepCdf.from_samples(np.asarray(map_samples))
    h = StepCdf.from_samples(np.asarray(sims))
    expected = isd_bruteforce(map_samples, sims, None)
    assert integrated_squared_distance(f, h) == pytest.approx(expected, abs=1e-12)


def test_stepcdf_integral_matches_quadrature():
    rng = np.random.default_rng(7)
    samples = rng.uniform(size=20)
    cdf = StepCdf.from_samples(samples)
    xs = np.linspace(0.0, 1.0, 7)
    grid = np.linspace(0.0, 1.0, 200_001)
    vals = cdf(grid)
    for x in xs:
        riemann = np.trapezoid(vals[grid <= x], grid[grid <= x])
        assert cdf.integral_to(x) == pytest.approx(riemann, abs=1e-4)


# --- delta selection ---------------------------------------------------------

def test_select_delta_hand_case():
    assert select_delta(np.array([0.1, 0.2, 0.4])) == pytest.approx(0.6)


def test_select_delta_equal_grid():
    s = 0.05
    grid = np.arange(0.0, 1.0 + s / 2, s)
    assert select_delta(grid) == pytest.approx(4 * s)


def test_select_delta_degenerate_falls_back():
    assert select_delta(np.array([0.3, 0.3, 0.3])) == DELTA_FALLBACK == 1e-6


def test_select_delta_needs_three():
    with pytest.raises(ValueError):
        select_delta(np.array([0.1, 0.9]))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=40))
def test_select_delta_guarantees_three_neighbours(values):
    p = np.asarray(values)
    try:
        delta = select_delta(p)
    except Exception:
        raise
    if delta == pytest.approx(1e-6):  # degenerate fallback
        return
    half = delta / 2.0
    for pk in p:
        assert np.sum(np.abs(p - pk) <= half + 1e-15) >= 3


# --- distance ERND -----------------------------------------------------------

def test_distance_identity_stays_uniform_in_interior():
    # identical pixel and simulated prevalences away from the [0,1] edges keep
    # uniform weights exactly (f = g pointwise)
    rng = np.random.default_rng(0)
    values = rng.uniform(0.3, 0.7, size=200)
    w = distance_ernd(values, values, np.ones(values.size), delta=0.05)
    assert np.allclose(w.weights, 1.0 / values.size)


def test_distance_hand_window_counts():
    w = distance_ernd(
        np.array([0.1, 0.1, 0.1, 0.5]), np.array([0.1, 0.5, 0.9]), np.ones(3), delta=0.2
    )
    assert np.allclose(w.weights, [0.75, 0.25, 0.0])
    assert w.dropped_map_fraction == 0.0


def test_distance_zero_window_is_dropped_mass():
    # the sim at 0.9 gets weight zero; map samples near 0 are unreachable
    w = distance_ernd(np.array([0.0, 0.5]), np.array([0.5, 0.9]), np.ones(2), delta=0.1)
    assert w.weights[1] == 0.0
    assert w.dropped_map_fraction == pytest.approx(0.5)


def test_distance_requires_positive_delta():
    with pytest.raises(ValueError):
        distance_ernd(np.array([0.5]), np.array([0.5]), np.ones(1), delta=0.0)


def test_distance_window_lighter_than_prefix_sum_rounding():
    # cum[2] - cum[1] = (1 + 1e-20) - 1 rounds to 0; the window of 0.5 holds 1e-20
    w = distance_ernd(np.array([0.1, 0.5]), np.array([0.1, 0.5]), np.array([1.0, 1e-20]), 0.01)
    assert np.allclose(w.weights, [0.5, 0.5], rtol=1e-12)


def test_distance_all_zero_weights_degenerate():
    with pytest.raises(DegenerateWeightsError):
        distance_ernd(np.array([0.9, 0.95]), np.array([0.1, 0.2]), np.ones(2), delta=0.01)


def test_distance_ks_shrinks_with_sample_size():
    # pixel drawn from the same distribution as the sims: the reweighted cdf
    # gets closer to the map cdf as M = J grows
    rng = np.random.default_rng(11)
    ks = {}
    for n in (200, 2000):
        stats = []
        for _ in range(20):
            sims = rng.beta(2.0, 2.0, size=n)
            pixel = rng.beta(2.0, 2.0, size=n)
            w = distance_ernd(pixel, sims, np.ones(n), delta=select_delta(sims))
            stats.append(
                ks_distance(
                    StepCdf.from_samples(pixel), StepCdf.from_samples(sims, weights=w.weights)
                )
            )
        ks[n] = np.median(stats)
    assert ks[2000] < ks[200]


# --- histogram ERND ------------------------------------------------------------

def test_histogram_single_bin_returns_normalized_w1():
    w1 = np.array([0.2, 0.5, 0.3, 1.0])
    sims = np.array([0.1, 0.4, 0.6, 0.9])
    pixel = np.array([0.25, 0.75])
    w = histogram_ernd(pixel, sims, w1, np.array([0.0, 1.0]))
    assert np.allclose(w.weights, w1 / w1.sum())


def test_histogram_hand_two_bins():
    w = histogram_ernd(
        np.array([0.25, 0.25, 0.25, 0.75]),
        np.array([0.25, 0.75]),
        np.ones(2),
        np.array([0.0, 0.5, 1.0]),
    )
    assert np.allclose(w.weights, [0.75, 0.25])
    with pytest.raises(ValueError, match="bin_edges"):
        histogram_ernd(np.array([0.25]), np.array([0.25]), np.ones(1),
                       np.array([0.0, 0.5, 0.4, 1.0]))


def test_histogram_orphan_bin_dropped_and_recorded():
    # map mass in (0.5, 1] but no simulations there
    w = histogram_ernd(
        np.array([0.2, 0.2, 0.9, 0.9]),
        np.array([0.1, 0.3]),
        np.ones(2),
        np.array([0.0, 0.5, 1.0]),
    )
    assert w.dropped_map_fraction == pytest.approx(0.5)
    assert np.allclose(w.weights, [0.5, 0.5])


def test_histogram_orphan_bin_transferred():
    w = histogram_ernd(
        np.array([0.2, 0.2, 0.9, 0.9]),
        np.array([0.1, 0.3]),
        np.ones(2),
        np.array([0.0, 0.5, 1.0]),
        unmatched="transfer",
    )
    assert w.dropped_map_fraction == 0.0
    # transferred mass lands in the low bin, shared by its simulations via w1
    assert np.allclose(w.weights, [0.5, 0.5])
    assert w.ess == pytest.approx(2.0)


@st.composite
def histogram_instances(draw):
    n_bins = draw(st.integers(min_value=1, max_value=8))
    inner = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=n_bins - 1,
            max_size=n_bins - 1,
            unique=True,
        )
    )
    edges = np.concatenate(([0.0], np.sort(inner), [1.0]))
    j = draw(st.integers(min_value=1, max_value=30))
    sims = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=j, max_size=j)))
    w1 = np.asarray(draw(st.lists(st.floats(0.01, 10.0), min_size=j, max_size=j)))
    # draw map samples only at locations of simulations, jittered within a bin
    m = draw(st.integers(min_value=1, max_value=40))
    picks = draw(st.lists(st.integers(0, j - 1), min_size=m, max_size=m))
    pixel = sims[np.asarray(picks)]
    return edges, sims, w1, pixel


@settings(max_examples=200, deadline=None)
@given(histogram_instances())
def test_histogram_reproduces_map_histogram(instance):
    edges, sims, w1, pixel = instance
    w = histogram_ernd(pixel, sims, w1, edges)
    assert w.dropped_map_fraction == 0.0
    sim_bins = np.clip(np.searchsorted(edges, sims, side="right") - 1, 0, edges.size - 2)
    map_bins = np.clip(np.searchsorted(edges, pixel, side="right") - 1, 0, edges.size - 2)
    for b in range(edges.size - 1):
        weighted = w.weights[sim_bins == b].sum()
        expected = np.mean(map_bins == b)
        assert weighted == pytest.approx(expected, abs=1e-12)


# --- discrepancy ERND ------------------------------------------------------------

def test_discrepancy_perfect_match_when_possible():
    d = np.array([0.1, 0.2, 0.2, 0.7])
    w = discrepancy_ernd(d, d)
    assert isd_bruteforce(d, d, w.weights) == pytest.approx(0.0, abs=1e-15)
    f = StepCdf.from_samples(d)
    h = StepCdf.from_samples(d, weights=w.weights)
    assert ks_distance(f, h) == pytest.approx(0.0, abs=1e-12)


def test_discrepancy_small_instance_beats_random_weights():
    rng = np.random.default_rng(123)
    for _ in range(10):
        j = rng.integers(2, 9)
        m = rng.integers(1, 17)
        sims = rng.uniform(size=j)
        pixel = rng.uniform(size=m)
        w = discrepancy_ernd(pixel, sims)
        best = isd_bruteforce(pixel, sims, w.weights)
        for _ in range(1000):
            cand = rng.dirichlet(np.ones(j))
            assert best <= isd_bruteforce(pixel, sims, cand) + 1e-9


def test_discrepancy_matches_numeric_minimizer():
    from scipy.optimize import minimize

    rng = np.random.default_rng(99)
    for _ in range(10):
        j = int(rng.integers(2, 9))
        m = int(rng.integers(1, 17))
        sims = rng.uniform(size=j)
        pixel = rng.uniform(size=m)
        w = discrepancy_ernd(pixel, sims)

        res = minimize(
            lambda v: isd_bruteforce(pixel, sims, v),
            np.full(j, 1.0 / j),
            method="SLSQP",
            bounds=[(0.0, 1.0)] * j,
            constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0}],
            options={"maxiter": 300, "ftol": 1e-14},
        )
        assert isd_bruteforce(pixel, sims, w.weights) <= res.fun + 1e-6


def test_discrepancy_duplicates_split_equally():
    pixel = np.array([0.15, 0.5, 0.85])
    sims = np.array([0.4, 0.4, 0.8, 0.1])
    w = discrepancy_ernd(pixel, sims)
    assert w.weights[0] == pytest.approx(w.weights[1])
    assert w.weights.sum() == pytest.approx(1.0)


def test_discrepancy_tracks_map_cdf_between_sims():
    # the optimal cumulative weight on each gap is the average of the map cdf
    # over that gap
    rng = np.random.default_rng(5)
    sims = np.sort(rng.uniform(size=6))
    pixel = rng.uniform(size=12)
    w = discrepancy_ernd(pixel, sims)
    cum = np.cumsum(w.weights[np.argsort(sims)])
    f = StepCdf.from_samples(pixel)
    for jj in range(5):
        a, b = sims[jj], sims[jj + 1]
        grid = np.linspace(a, b, 10_001)[:-1]
        avg = float(np.mean(f(grid)))
        assert cum[jj] == pytest.approx(avg, abs=5e-4)


# --- weight vector & config ------------------------------------------------------

def test_weight_vector_validates():
    with pytest.raises(ValueError):
        WeightVector(weights=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        WeightVector(weights=np.array([-0.1, 1.1]))
    wv = WeightVector.from_unnormalized(np.array([1.0, 3.0]))
    assert wv.ess == pytest.approx(ess([0.25, 0.75]))


def test_apply_ernd_dispatch_auto_delta():
    rng = np.random.default_rng(3)
    sims = rng.uniform(size=50)
    pixel = rng.uniform(size=50)
    w_auto = apply_ernd(pixel, sims, np.ones(50), "distance")
    w_fixed = distance_ernd(pixel, sims, np.ones(50), select_delta(sims))
    assert np.allclose(w_auto.weights, w_fixed.weights)
    with pytest.raises(ValueError, match="kernel"):
        apply_ernd(pixel, sims, np.ones(50), "kernel")


@given(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=30),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.sampled_from(["distance", "histogram", "discrepancy"]),
)
@settings(max_examples=150, deadline=None)
def test_all_ernds_emit_probability_vectors(sims, pixel, kind):
    sims = np.asarray(sims)
    pixel = np.asarray(pixel)
    try:
        w = apply_ernd(pixel, sims, np.ones(sims.size), kind, histogram_bins=10)
    except DegenerateWeightsError:
        return  # pixel shares no mass with the bank; legal outcome
    assert np.all(w.weights >= 0.0)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - 1e-9 <= w.ess <= sims.size + 1e-9


# positive w1 entries stay at or above 1e-300 and c within [1e-3, 1e3], so
# c * w1 is a normal float and a faithful scaled copy of w1
@given(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=30),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.lists(st.floats(min_value=1e-300, max_value=1e6), min_size=30, max_size=30),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(["distance", "histogram", "discrepancy"]),
)
@settings(max_examples=150, deadline=None)
def test_all_ernds_invariant_to_w1_scale(sims, pixel, w1, c, kind):
    sims = np.asarray(sims)
    pixel = np.asarray(pixel)
    w1 = np.asarray(w1[: sims.size])
    outcomes = []
    for scaled in (w1, c * w1):
        try:
            outcomes.append(apply_ernd(pixel, sims, scaled, kind, histogram_bins=10).weights)
        except DegenerateWeightsError:
            outcomes.append(None)
    if outcomes[0] is None or outcomes[1] is None:
        assert outcomes[0] is None and outcomes[1] is None
    else:
        assert np.allclose(outcomes[0], outcomes[1], rtol=1e-9)
