"""Tests for pooling, per-pixel weighting and projection."""

import dataclasses
import re

import numpy as np
import pytest

from maplink.pipeline import (
    PixelPosterior,
    PixelWeights,
    PooledUnit,
    SimulationBank,
    estimated_population,
    pool_and_filter,
    project,
    stage1_population_weights,
    weight_all,
    weight_pixel,
)
from maplink.io import RunConfig
from maplink.proposal import population_prior_density
from maplink.reweight import DegenerateWeightsError
from reference import weighted_quantile


def make_pixel(pid, country="KE", population=1000.0, samples=None, rng=None):
    if samples is None:
        rng = rng or np.random.default_rng(abs(hash(pid)) % 2**31)
        samples = rng.beta(2.0, 3.0, size=50)
    return PixelPosterior(pixel_id=pid, country=country, population=population, samples=samples)


def make_bank(j=4000, seed=0, sigma_spread=(300, 9000), trajectories=None):
    rng = np.random.default_rng(seed)
    pops = rng.integers(sigma_spread[0], sigma_spread[1], size=j)
    return SimulationBank(
        populations=pops.astype(np.int64),
        population_proposal_mass=np.full(j, 1.0 / j),
        equilibrium_prevalence=rng.uniform(size=j),
        trajectories=trajectories or {},
    )


# --- pooling -----------------------------------------------------------------

def test_pooling_identity_when_all_in_range():
    pixels = [make_pixel(f"p{i}", population=500.0 + i) for i in range(5)]
    units, excluded = pool_and_filter(pixels)
    assert excluded == []
    assert [u.unit_id for u in units] == [p.pixel_id for p in pixels]
    assert all(len(u.member_pixel_ids) == 1 for u in units)


def test_pooling_merges_small_pixels():
    samples_a = np.full(10, 0.2)
    samples_b = np.full(10, 0.6)
    pixels = [
        make_pixel("a", population=100.0, samples=samples_a),
        make_pixel("b", population=250.0, samples=samples_b),
    ]
    units, excluded = pool_and_filter(pixels)
    assert excluded == []
    assert len(units) == 1
    unit = units[0]
    assert unit.population == 350.0
    assert set(unit.member_pixel_ids) == {"a", "b"}
    expected = (100.0 * 0.2 + 250.0 * 0.6) / 350.0
    assert np.allclose(unit.samples, expected)
    assert not unit.undersized


def test_pooling_excludes_oversized():
    pixels = [make_pixel("big", population=12_000.0), make_pixel("ok", population=600.0)]
    units, excluded = pool_and_filter(pixels)
    assert excluded == ["big"]
    assert [u.unit_id for u in units] == ["ok"]


def test_pooling_respects_country_borders():
    pixels = [
        make_pixel("k1", country="KE", population=200.0),
        make_pixel("t1", country="TZ", population=200.0),
        make_pixel("k2", country="KE", population=200.0),
        make_pixel("t2", country="TZ", population=200.0),
    ]
    units, _ = pool_and_filter(pixels)
    assert all(
        {pid[0] for pid in u.member_pixel_ids} in ({"k"}, {"t"}) for u in units
    )


def test_pooling_undersized_leftover_flagged():
    pixels = [make_pixel("tiny", population=80.0), make_pixel("big", population=500.0)]
    units, _ = pool_and_filter(pixels)
    assert {u.unit_id: u.undersized for u in units} == {"big": False, "tiny": True}


def test_pooling_groups_as_small_as_possible():
    # 290 + 10 reaches the floor in two pixels; a naive ascending merge would
    # pool all three
    pixels = [
        make_pixel("a", population=290.0),
        make_pixel("b", population=10.0),
        make_pixel("c", population=8.0),
    ]
    units, _ = pool_and_filter(pixels)
    assert [(u.member_pixel_ids, u.undersized) for u in units] == [
        (("a", "b"), False), (("c",), True)
    ]


# --- stage-1 weights -----------------------------------------------------------

def test_stage1_population_weights_formula():
    bank = make_bank(j=100)
    w = stage1_population_weights(bank, 1500.0, 0.4)
    expected = population_prior_density(bank.populations, 1500.0, 0.4) / (1.0 / 100)
    assert np.allclose(w, expected)


def test_simulation_bank_rejects_zero_proposal_mass():
    # stage-1 weights divide by this mass: a draw the proposal cannot make
    # breaks the importance-sampling support condition
    bank = make_bank(j=10)
    mass = bank.population_proposal_mass.copy()
    mass[3] = 0.0
    with pytest.raises(ValueError, match="proposal mass"):
        dataclasses.replace(bank, population_proposal_mass=mass)


@pytest.mark.parametrize("mass", [np.inf, np.nan])
def test_simulation_bank_rejects_a_proposal_mass_that_is_not_finite(mass):
    # an infinite mass would silently give its draw zero stage-1 weight
    with pytest.raises(ValueError, match="proposal mass .* draw 0 has"):
        SimulationBank(populations=np.array([300, 400]),
                       population_proposal_mass=np.array([mass, 0.5]),
                       equilibrium_prevalence=np.array([0.1, 0.2]))


def test_simulation_bank_rejects_nan_prevalence():
    bank = make_bank(j=10)
    prevalence = bank.equilibrium_prevalence.copy()
    prevalence[3] = np.nan
    with pytest.raises(ValueError, match="equilibrium prevalences"):
        dataclasses.replace(bank, equilibrium_prevalence=prevalence)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.01, 1.01])
def test_simulation_bank_rejects_a_trajectory_value_that_is_not_a_prevalence(value):
    traj = np.full((10, 3), 0.2)
    make_bank(j=10, trajectories={"none": traj, "aMDA65": traj})
    bad = traj.copy()
    bad[4, 1] = value
    with pytest.raises(ValueError, match="^trajectory 'aMDA65': "):
        make_bank(j=10, trajectories={"none": traj, "aMDA65": bad})


# --- weighting -----------------------------------------------------------------

def test_weight_pixel_matching_marginal_near_uniform():
    # pixel posterior equal to the bank's own prevalence distribution and a
    # population prior centred on the bank's single population size: weights
    # stay nearly uniform (ess close to J)
    j = 3000
    rng = np.random.default_rng(5)
    bank = make_bank(j=j, seed=5, sigma_spread=(2000, 2001))
    unit = PooledUnit(
        unit_id="u",
        country="KE",
        member_pixel_ids=("u",),
        population=2000.0,
        samples=rng.uniform(size=2000),
    )
    config = RunConfig(delta=0.05, population_log_sd=0.5, ess_floor=10)
    w = weight_pixel(unit, bank, config)
    assert w.ess > 0.8 * j


def test_weight_pixel_toy_cross_check():
    # the toy setting run through the pipeline interface: Beta(1,2) pixel
    # against a uniform-prevalence bank reproduces the target quantiles
    j, m = 4000, 4000
    rng = np.random.default_rng(6)
    bank = make_bank(j=j, seed=6)
    unit = PooledUnit(
        unit_id="toy",
        country="KE",
        member_pixel_ids=("toy",),
        population=2000.0,
        samples=rng.beta(1.0, 2.0, size=m),
    )
    config = RunConfig(delta=None, population_log_sd=40.0, ess_floor=10)  # automatic window
    w = weight_pixel(unit, bank, config)
    qs = weighted_quantile(bank.equilibrium_prevalence[w.indices], w.values, (0.025, 0.5, 0.975))
    beta12 = 1.0 - np.sqrt(1.0 - np.array([0.025, 0.5, 0.975]))  # Beta(1,2) quantiles
    assert np.max(np.abs(qs - beta12)) < 0.03


def test_weight_pixel_low_ess_flag():
    bank = make_bank(j=400, seed=7)
    unit = PooledUnit(
        unit_id="narrow",
        country="KE",
        member_pixel_ids=("narrow",),
        population=2000.0,
        samples=np.full(100, 0.5),
    )
    config = RunConfig(delta=0.01, population_log_sd=0.5, ess_floor=50.0)
    w = weight_pixel(unit, bank, config)
    assert w.low_ess and w.ess < 50.0
    assert not weight_pixel(unit, bank, dataclasses.replace(config, ess_floor=w.ess)).low_ess


def test_weight_all_order_and_worker_equivalence():
    bank = make_bank(j=800, seed=8)
    rng = np.random.default_rng(9)
    units = [
        PooledUnit(
            unit_id=f"u{i}",
            country="KE",
            member_pixel_ids=(f"u{i}",),
            population=float(rng.integers(400, 8000)),
            samples=rng.beta(2.0, 2.0, size=200),
        )
        for i in range(12)
    ]
    config = RunConfig(delta=0.05, ess_floor=1.0)
    serial = weight_all(units, bank, config, workers=1)
    parallel = weight_all(units, bank, config, workers=3)
    assert [w.unit_id for w in serial] == [u.unit_id for u in units]
    for a, b in zip(serial, parallel):
        assert a.unit_id == b.unit_id
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.indices, b.indices)
        assert a.ess == b.ess


def test_weight_all_permutation_equivariance():
    bank = make_bank(j=500, seed=10)
    rng = np.random.default_rng(11)
    units = [
        PooledUnit(
            unit_id=f"u{i}",
            country="KE",
            member_pixel_ids=(f"u{i}",),
            population=float(rng.integers(400, 8000)),
            samples=rng.beta(2.0, 2.0, size=100),
        )
        for i in range(6)
    ]
    config = RunConfig(delta=0.05, ess_floor=1.0)
    forward = weight_all(units, bank, config)
    backward = weight_all(units[::-1], bank, config)
    for a, b in zip(forward, backward[::-1]):
        assert a.unit_id == b.unit_id
        assert np.array_equal(a.values, b.values)


# --- quantiles and projection -----------------------------------------------------

def test_weighted_quantile_exhaustive_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        j = int(rng.integers(1, 50))
        values = rng.uniform(size=j)
        weights = rng.dirichlet(np.ones(j))
        for q in (0.025, 0.5, 0.975, 0.001, 0.999):
            got = weighted_quantile(values, weights, [q])[0]
            order = np.argsort(values)
            cum = 0.0
            expected = values[order][-1]
            for idx in order:
                cum += weights[idx]
                if cum >= q - 1e-15:
                    expected = values[idx]
                    break
            assert got == expected


def test_weighted_quantile_point_mass():
    values = np.array([0.9, 0.1, 0.5])
    weights = np.array([0.0, 1.0, 0.0])
    assert np.allclose(weighted_quantile(values, weights, (0.025, 0.5, 0.975)), 0.1)


def test_project_point_mass_returns_single_trajectory():
    j = 50
    traj = np.linspace(0.5, 0.0, 6)[None, :] * np.ones((j, 1))
    traj[7] = np.linspace(0.4, 0.1, 6)
    bank = make_bank(j=j, seed=13, trajectories={"aMDA65": traj})
    from maplink.pipeline import PixelWeights

    w = PixelWeights(
        unit_id="pm",
        bank_size=j,
        indices=np.array([7]),
        values=np.array([1.0]),
        ess=1.0,
        dropped_map_fraction=0.0,
        clamp_count=0,
        low_ess=False,
    )
    summary = project(w, bank, "aMDA65", elimination_threshold=0.2)
    assert np.allclose(summary.quantiles, traj[7][None, :].repeat(3, axis=0))
    assert np.array_equal(
        summary.elimination_probability, (traj[7] < 0.2).astype(float)
    )


def test_project_all_below_threshold_probability_one():
    j = 20
    traj = np.full((j, 3), 0.001)
    bank = make_bank(j=j, seed=14, trajectories={"none": traj})
    from maplink.pipeline import PixelWeights

    w = PixelWeights(
        unit_id="u",
        bank_size=j,
        indices=np.arange(j),
        values=np.full(j, 1.0 / j),
        ess=float(j),
        dropped_map_fraction=0.0,
        clamp_count=0,
        low_ess=False,
    )
    summary = project(w, bank, "none")
    assert np.all(summary.elimination_probability == 1.0)
    assert summary.years == 2


def test_estimated_population_limits():
    j = 10
    bank = make_bank(j=j, seed=15)
    from maplink.pipeline import PixelWeights

    point = PixelWeights(
        unit_id="pm",
        bank_size=j,
        indices=np.array([3]),
        values=np.array([1.0]),
        ess=1.0,
        dropped_map_fraction=0.0,
        clamp_count=0,
        low_ess=False,
    )
    assert estimated_population(point, bank) == bank.populations[3]
    uniform = PixelWeights(
        unit_id="u",
        bank_size=j,
        indices=np.arange(j),
        values=np.full(j, 0.1),
        ess=10.0,
        dropped_map_fraction=0.0,
        clamp_count=0,
        low_ess=False,
    )
    assert estimated_population(uniform, bank) == pytest.approx(bank.populations.mean())


@pytest.mark.parametrize("bank_size, indices, reason", [
    (8, [2, 5], "bank of 8 simulations"),
    (10, [5, 2], "increase strictly"),
    (10, [3, 3], "increase strictly"),
    (10, [4, 10], "within [0, 10)"),
    (10, [-1, 4], "within [0, 10)"),
    (10, [], "increase strictly"),
])
def test_weights_of_another_bank_are_refused(bank_size, indices, reason):
    bank = make_bank(j=10, seed=15, trajectories={"none": np.full((10, 3), 0.2)})
    weights = PixelWeights(unit_id="stray", bank_size=bank_size, indices=np.array(indices, int),
                           values=np.full(len(indices), 1.0 / max(len(indices), 1)), ess=1.0,
                           dropped_map_fraction=0.0, clamp_count=0, low_ess=False)
    for call in (lambda: project(weights, bank, "none"),
                 lambda: estimated_population(weights, bank)):
        with pytest.raises(ValueError, match=r"^unit stray: .*" + re.escape(reason)):
            call()


def test_high_prevalence_pixel_keeps_usable_ess():
    # pixels at the top of the prevalence range still find plenty of support
    # in a bank whose prevalences span [0, 1]
    j = 5000
    rng = np.random.default_rng(21)
    bank = make_bank(j=j, seed=21)
    unit = PooledUnit(
        unit_id="hot",
        country="KE",
        member_pixel_ids=("hot",),
        population=3000.0,
        samples=rng.beta(8.0, 1.5, size=1000),
    )
    config = RunConfig(delta=0.01, population_log_sd=0.5, ess_floor=10)
    w = weight_pixel(unit, bank, config)
    assert w.ess > 200.0


def test_proportion_eliminated_monotone_in_probability_threshold(tmp_path):
    from maplink.io import write_proportion_eliminated_csv
    from maplink.pipeline import ProjectionSummary

    rng = np.random.default_rng(22)
    summaries = [
        ProjectionSummary(
            unit_id=f"u{i}",
            scenario="aMDA65",
            quantiles=np.zeros((3, 6)),
            elimination_probability=np.concatenate(
                (rng.uniform(size=5), [rng.uniform()])
            ),
            ess=100.0,
            dropped_map_fraction=0.0,
            low_ess=False,
        )
        for i in range(50)
    ]
    path = tmp_path / "prop.csv"
    write_proportion_eliminated_csv(path, summaries, (0.90, 0.95, 0.99))
    rows = path.read_text().splitlines()[2:]
    proportions = [float(r.split(",")[2]) for r in rows]
    assert proportions == sorted(proportions, reverse=True)


def test_pixel_posterior_validation():
    with pytest.raises(ValueError):
        PixelPosterior(pixel_id="x", country="KE", population=100.0, samples=np.array([1.2]))
    with pytest.raises(ValueError):
        PixelPosterior(pixel_id="x", country="KE", population=-5.0, samples=np.array([0.2]))
    with pytest.raises(ValueError, match="pixel x: population"):
        PixelPosterior(pixel_id="x", country="KE", population=np.nan, samples=np.array([0.2]))
    with pytest.raises(ValueError, match="pixel x: posterior samples"):
        PixelPosterior(pixel_id="x", country="KE", population=100.0,
                       samples=np.array([np.nan, 0.2]))


def test_weight_pixel_names_unit_with_invalid_population():
    unit = PooledUnit(unit_id="a+b", country="KE", member_pixel_ids=("a", "b"),
                      population=0.5, samples=np.array([0.2, 0.3]))
    with pytest.raises(ValueError, match="unit a\\+b: reported population"):
        weight_pixel(unit, make_bank(j=100), RunConfig())


def test_weight_pixel_names_unit_whose_samples_miss_the_bank():
    bank = dataclasses.replace(make_bank(j=100), equilibrium_prevalence=np.linspace(0.5, 0.6, 100))
    unit = PooledUnit(unit_id="far", country="KE", member_pixel_ids=("far",),
                      population=500.0, samples=np.full(10, 0.05))
    with pytest.raises(DegenerateWeightsError, match="^unit far: all weights are zero"):
        weight_pixel(unit, bank, RunConfig())
