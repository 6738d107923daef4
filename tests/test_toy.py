"""Tests for the analytically tractable validation harness."""

import numpy as np
import pytest

import reference
from maplink.reweight import (
    DegenerateWeightsError,
    StepCdf,
    distance_ernd,
    integrated_squared_distance,
    ks_distance,
    prepare_ernd,
    select_delta,
)
from maplink.toy import (
    TOY_CELLS,
    ToyDraws,
    analytic_theta2_posterior_cdf,
    analytic_theta2_posterior_pdf,
    run_toy_experiment,
    sample_toy_prior,
    sample_toy_uniform_proposal,
    summarize_reports,
    toy_stage1_weights,
    toy_target_sampler,
)


def weighted_cdf_distance(values, weights, analytic_cdf):
    """KS distance between a weighted empirical cdf and a smooth cdf."""
    order = np.argsort(values)
    v = values[order]
    cum = np.cumsum(weights[order] / weights.sum())
    target = analytic_cdf(v)
    lower = np.concatenate(([0.0], cum[:-1]))
    return max(np.max(np.abs(cum - target)), np.max(np.abs(lower - target)))


# --- samplers ---------------------------------------------------------------

def test_prior_draws_live_in_triangle():
    draws = sample_toy_prior(5000, seed=1)
    assert np.all(draws.theta2 < draws.theta1)
    assert np.all(draws.theta2 > 0.0)
    assert np.all(draws.theta1 < 1.0)


def test_prior_theta1_mean_matches_beta21():
    draws = sample_toy_prior(200_000, seed=2)
    assert np.mean(draws.theta1) == pytest.approx(2.0 / 3.0, abs=0.005)


def test_prior_prevalence_density_is_linear():
    # induced prevalence density 2p: the cdf is p^2
    draws = sample_toy_prior(100_000, seed=3)
    grid = np.linspace(0.05, 0.95, 10)
    empirical = np.searchsorted(np.sort(draws.prevalence), grid) / len(draws)
    assert np.max(np.abs(empirical - grid**2)) < 0.01


def test_uniform_proposal_flat_prevalences():
    draws = sample_toy_uniform_proposal(100_000, seed=4)
    assert np.mean(draws.theta1) == pytest.approx(0.5, abs=0.005)
    assert np.all(draws.theta2 < draws.theta1)
    grid = np.linspace(0.05, 0.95, 10)
    empirical = np.searchsorted(np.sort(draws.prevalence), grid) / len(draws)
    assert np.max(np.abs(empirical - grid)) < 0.01


def test_target_sampler_beta12():
    pixel = toy_target_sampler(200_000, seed=5)
    assert np.all((pixel >= 0.0) & (pixel <= 1.0))
    assert np.mean(pixel) == pytest.approx(1.0 / 3.0, abs=0.005)


def test_stage1_weights_by_proposal():
    prior_draws = sample_toy_prior(10, seed=6)
    assert np.allclose(toy_stage1_weights(prior_draws), 1.0)
    unif_draws = sample_toy_uniform_proposal(10, seed=7)
    assert np.allclose(toy_stage1_weights(unif_draws), 2.0 * unif_draws.theta1)


def test_toy_draws_validate_support():
    with pytest.raises(ValueError):
        ToyDraws(theta1=np.array([0.5]), theta2=np.array([0.6]), proposal_kind="prior")


# --- analytic theta2 posterior ------------------------------------------------

def test_theta2_cdf_endpoints():
    assert analytic_theta2_posterior_cdf(np.array([1.0]))[0] == pytest.approx(1.0)
    assert analytic_theta2_posterior_cdf(np.array([1e-15]))[0] == pytest.approx(0.0, abs=1e-12)
    assert analytic_theta2_posterior_cdf(np.array([0.0]))[0] == 0.0


def test_theta2_cdf_matches_quadrature():
    from scipy.integrate import quad

    for x in (0.05, 0.2, 0.5, 0.9):
        numeric, err = quad(lambda t: 2.0 * (t - np.log(t) - 1.0), 0.0, x)
        assert analytic_theta2_posterior_cdf(np.array([x]))[0] == pytest.approx(
            numeric, abs=max(1e-10, 10 * err)
        )


def test_theta2_posterior_mean_is_one_sixth():
    from scipy.integrate import quad

    mean, err = quad(lambda t: t * 2.0 * (t - np.log(t) - 1.0), 0.0, 1.0)
    assert mean == pytest.approx(1.0 / 6.0, abs=1e-10)
    mass, _ = quad(lambda t: analytic_theta2_posterior_pdf(np.array([t]))[0], 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-9)


# --- change of measure round trips ---------------------------------------------

def test_reweighted_prevalence_matches_beta12():
    # uniform proposal, distance estimator with the automatic window: the
    # weighted prevalence cdf lands on the Beta(1,2) target
    rng = np.random.default_rng(42)
    pixel = toy_target_sampler(2000, rng)
    draws = sample_toy_uniform_proposal(2000, rng)
    w1 = toy_stage1_weights(draws)
    w2 = distance_ernd(pixel, prepare_ernd(draws.prevalence, "distance",
                                           select_delta(draws.prevalence)), w1)
    beta12_cdf = lambda x: 1.0 - (1.0 - x) ** 2
    assert weighted_cdf_distance(draws.prevalence, w2.weights, beta12_cdf) < 0.05


def test_reweighted_theta2_matches_analytic_posterior():
    rng = np.random.default_rng(43)
    pixel = toy_target_sampler(2000, rng)
    draws = sample_toy_uniform_proposal(2000, rng)
    w1 = toy_stage1_weights(draws)
    w2 = distance_ernd(pixel, prepare_ernd(draws.prevalence, "distance",
                                           select_delta(draws.prevalence)), w1)
    dist = weighted_cdf_distance(
        draws.theta2, w2.weights, lambda x: analytic_theta2_posterior_cdf(x)
    )
    assert dist < 0.07


# --- experiment harness -----------------------------------------------------------

def test_experiment_rejects_bad_replicates():
    with pytest.raises(ValueError):
        run_toy_experiment(replicates=0)


@pytest.mark.parametrize("counts, name", [({"m": 0}, "m=0"), ({"j": 2}, "j=2")])
def test_experiment_rejects_too_few_samples_or_simulations(counts, name):
    with pytest.raises(ValueError, match=name):
        run_toy_experiment(replicates=1, **counts)


def test_experiment_reports_are_reproducible():
    a = run_toy_experiment(200, 200, 3, None, seed=9)
    b = run_toy_experiment(200, 200, 3, None, seed=9)
    assert [r.isd for r in a] == [r.isd for r in b]
    assert [r.ess for r in a] == [r.ess for r in b]


def test_summarize_reports_shape():
    cell = TOY_CELLS.index(("prior", "histogram"))
    reports = run_toy_experiment(200, 200, 5, None, seed=10)
    summary = summarize_reports(reports[5 * cell:5 * (cell + 1)])
    assert summary["ernd"] == "histogram"
    assert summary["proposal"] == "prior"
    assert summary["isd_x1000"]["lo"] <= summary["isd_x1000"]["median"] <= summary["isd_x1000"]["hi"]


def test_ess_nondecreasing_in_delta_sweep():
    # sweep over the paper's grid (coarsened): efficiency grows with the window
    rng = np.random.default_rng(11)
    pixel = toy_target_sampler(2000, rng)
    draws = sample_toy_uniform_proposal(2000, rng)
    w1 = toy_stage1_weights(draws)
    deltas = np.arange(0.001, 0.1001, 0.003)
    ess_values = [
        distance_ernd(pixel, prepare_ernd(draws.prevalence, "distance", d), w1).ess
        for d in deltas
    ]
    drops = np.diff(ess_values) / np.maximum(ess_values[:-1], 1.0)
    assert np.all(drops > -0.01)  # 1% slack for Monte Carlo noise


def test_discrepancy_attains_minimum_isd_each_replicate():
    seeds = 12
    reports = run_toy_experiment(400, 400, seeds, None, seed=13)
    cells = {cell: reports[seeds * i:seeds * (i + 1)] for i, cell in enumerate(TOY_CELLS)}
    best = cells["uniform", "discrepancy"]
    for kind in ("distance", "histogram"):
        for r_other, r_best in zip(cells["uniform", kind], best):
            assert r_best.isd <= r_other.isd + 1e-12


# --- the six cells on one draw per replicate --------------------------------------

# the original setting, then one-replicate runs with a one-sample pixel, a
# three-simulation bank, or both, so that the union of pixel and bank and the
# bank's one sort meet degenerate supports
EDGE_SETTINGS = [dict(m=300, j=200, replicates=5, seed=21)] + [
    dict(m=m, j=j, replicates=1, seed=seed)
    for m, j in ((1, 300), (2000, 3), (1, 3)) for seed in range(4)]


def _reports_or_degenerate(run):
    # a one-sample pixel often misses every window or bin; a run must then
    # fail as a run of the cells one by one does
    try:
        return run()
    except DegenerateWeightsError:
        return "degenerate"


@pytest.mark.parametrize("delta_policy", [None, 0.05], ids=["all-auto-delta", "all-delta-0.05"])
def test_cells_match_the_per_cell_reference_runs(delta_policy):
    # replicate i of every cell draws the pixel, and of one proposal's cells
    # the bank, that a run of that cell alone draws
    reached = []
    for setting in EDGE_SETTINGS:
        setting = dict(setting, delta_policy=delta_policy)
        want = _reports_or_degenerate(lambda: [
            report
            for proposal_kind, ernd_kind in TOY_CELLS
            for report in reference.run_toy_experiment(
                ernd_kind=ernd_kind, proposal_kind=proposal_kind, **setting)])
        assert _reports_or_degenerate(lambda: run_toy_experiment(**setting)) == want, setting
        if want != "degenerate":
            reached.append((setting["m"], setting["j"]))
    # the edge settings reach the reports, bar a one-sample pixel against a
    # bank of three, which misses every occupied histogram bin at these seeds
    assert set(reached) == {(300, 200), (1, 300), (2000, 3)}


def test_a_degenerate_cell_is_named_with_its_replicate_and_seed():
    # a one-sample pixel against a bank of three misses every occupied histogram bin
    with pytest.raises(DegenerateWeightsError, match=r"^prior proposal, histogram estimator, "
                       r"replicate 0 of seed 0: all weights are zero$"):
        run_toy_experiment(m=1, j=3, replicates=2, seed=0)
