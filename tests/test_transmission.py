"""Tests for the individual-based transmission model."""

from dataclasses import replace

import numpy as np
import pytest

from maplink.proposal import ParameterVector
from maplink.transmission import (
    MAX_AGE_MONTHS,
    ModelParams,
    PopulationState,
    Scenario,
    acquisition_rate,
    apply_mda,
    equilibrium_l3,
    importation_decay_from_pilot,
    initial_state,
    mf_prevalence,
    population_uptake,
    run_scenario,
    run_to_equilibrium,
    step,
)

PARAMS = ModelParams()
UNINFECTED = replace(PARAMS, seed_worms_per_sex=0.0)  # initial_state starts worm-free


def make_theta(population=300, vh=25.0, k=0.5, imp=2e-4):
    return ParameterVector(
        population=population,
        vector_host_ratio=vh,
        aggregation_k=k,
        importation_rate=imp,
    )


# --- rates and curves -----------------------------------------------------------

def test_acquisition_rate_zero_without_exposure():
    theta = make_theta()
    assert acquisition_rate(0.0, 600.0, theta, PARAMS) == 0.0


def test_acquisition_rate_hand_value():
    # adult host (saturated age exposure), unit bite risk, V/H = 10
    theta = make_theta(vh=10.0)
    rate = acquisition_rate(1.0, 600.0, theta, PARAMS)
    expected = 0.5 * 10.0 * 1.0 * 10.0 * 0.414 * 0.32 * 0.00275
    assert rate == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.0182, abs=2e-4)


def test_acquisition_rate_linear_in_vh():
    theta1 = make_theta(vh=7.0)
    theta2 = make_theta(vh=14.0)
    assert acquisition_rate(1.0, 600.0, theta2, PARAMS) == pytest.approx(
        2.0 * acquisition_rate(1.0, 600.0, theta1, PARAMS)
    )


def test_age_exposure_ramp():
    theta = make_theta()
    assert acquisition_rate(1.0, 0.0, theta, PARAMS) == 0.0
    half = acquisition_rate(1.0, 54.0, theta, PARAMS)
    full = acquisition_rate(1.0, 108.0, theta, PARAMS)
    assert half == pytest.approx(full / 2.0)
    assert acquisition_rate(1.0, 400.0, theta, PARAMS) == pytest.approx(full)


def uptake(mf_per_20ul, params=PARAMS):
    """Larval uptake at each mf density, read through `population_uptake` of one host."""
    state = initial_state(make_theta(population=1), UNINFECTED, np.random.default_rng(0))
    state.bite_risk = np.ones(1)
    values = []
    for m in np.atleast_1d(mf_per_20ul):
        state.mf = np.array([m], dtype=float)
        values.append(population_uptake(state, params))
    return np.array(values)


def test_uptake_zero_at_zero_and_saturates():
    assert uptake(0.0) == 0.0
    assert uptake(1e9) == pytest.approx(PARAMS.uptake_kappa_s2, rel=1e-9)
    m = np.linspace(0.0, 50.0, 200)
    for species in ("anopheles", "culex"):
        vals = uptake(m, replace(PARAMS, species=species))
        assert np.all(np.diff(vals) >= 0.0)


def test_uptake_facilitation_vs_limitation_at_low_density():
    # anopheles (squared form) has vanishing slope at zero; culex rises with
    # slope r; with matched constants anopheles sits below culex
    m = np.array([1e-6, 1e-4, 0.01])
    anoph = uptake(m, replace(PARAMS, species="anopheles"))
    culex = uptake(m, replace(PARAMS, species="culex"))
    assert np.all(anoph < culex)
    assert anoph[0] / m[0] < 1e-3
    assert culex[0] / m[0] == pytest.approx(PARAMS.uptake_r1, rel=1e-3)


def test_uptake_rejects_negative():
    with pytest.raises(ValueError):
        ModelParams(species="aedes")


def test_population_uptake_weighted_mean():
    theta = make_theta(population=2)
    rng = np.random.default_rng(0)
    state = initial_state(theta, UNINFECTED, rng)
    state.bite_risk = np.array([1.0, 3.0])
    state.mf = np.array([0.0, 5.0])
    expected = (uptake(0.0)[0] * 1.0 + uptake(5.0)[0] * 3.0) / 4.0
    assert population_uptake(state, PARAMS) == pytest.approx(expected)


def test_equilibrium_l3_arithmetic():
    assert equilibrium_l3(0.0, PARAMS) == 0.0
    value = equilibrium_l3(1.0, PARAMS)
    assert value == pytest.approx(10.0 * 0.37 / (5.0 + 10.0 * 0.414), abs=1e-12)
    assert equilibrium_l3(2.0, PARAMS) == pytest.approx(2.0 * value)


# --- step invariants ----------------------------------------------------------------

def test_population_size_constant_and_counts_nonnegative():
    theta = make_theta(population=150)
    rng = np.random.default_rng(1)
    state = initial_state(theta, PARAMS, rng)
    for _ in range(240):
        step(state, theta, PARAMS, rng)
        assert state.size == 150
        assert np.all(state.male_fertile >= 0) and np.all(state.female_fertile >= 0)
        assert np.all(state.male_sterile >= 0) and np.all(state.female_sterile >= 0)
        assert np.all(state.mf >= 0.0)
        assert state.larvae_mean >= 0.0
        assert np.all(state.age <= MAX_AGE_MONTHS)


def test_disease_free_state_is_absorbing():
    theta = make_theta(imp=0.0)
    rng = np.random.default_rng(2)
    state = initial_state(theta, UNINFECTED, rng)
    for _ in range(240):
        step(state, theta, PARAMS, rng)
    assert int(state.worms.sum()) == 0
    assert mf_prevalence(state, PARAMS) == 0.0


def test_mf_decay_exact_exponential():
    # with production shut off the update must match the closed form per step;
    # demography is frozen so no host resets interfere
    theta = make_theta(imp=0.0)
    params = ModelParams(mf_production_rate=0.0, human_death_rate=1e-15)
    rng = np.random.default_rng(3)
    state = initial_state(theta, replace(params, seed_worms_per_sex=0.0), rng)
    state.age[:] = 300.0
    state.mf = rng.uniform(0.5, 20.0, size=state.size)
    expected = state.mf.copy()
    for _ in range(10):
        step(state, theta, params, rng)
        expected *= np.exp(-params.mf_death_rate * 1.0)
        assert np.max(np.abs(state.mf - expected)) < 1e-12


def test_bite_risk_moments():
    theta = make_theta(population=100_000, k=0.25)
    rng = np.random.default_rng(4)
    state = initial_state(theta, UNINFECTED, rng)
    assert np.mean(state.bite_risk) == pytest.approx(1.0, abs=0.01)
    assert np.var(state.bite_risk) == pytest.approx(1.0 / 0.25, rel=0.05)


def test_worm_death_dominates_at_high_mu():
    theta = make_theta(imp=0.0)
    params = ModelParams(worm_death_rate=50.0)
    rng = np.random.default_rng(5)
    state = initial_state(theta, params, rng)
    step(state, theta, params, rng)
    assert int(state.worms.sum()) == 0


def test_importation_adds_worms():
    theta = make_theta(population=500, vh=1.0, imp=0.05)
    rng = np.random.default_rng(6)
    state = initial_state(theta, UNINFECTED, rng)
    for _ in range(24):
        step(state, theta, PARAMS, rng)
    assert int(state.worms.sum()) > 0


def test_step_importation_override():
    theta = make_theta(population=500, vh=1.0, imp=0.05)
    rng = np.random.default_rng(7)
    state = initial_state(theta, UNINFECTED, rng)
    for _ in range(24):
        step(state, replace(theta, importation_rate=0.0), PARAMS, rng)
    assert int(state.worms.sum()) == 0


# --- law of the worm events -----------------------------------------------------------
#
# Each test below steps R copies of one fixed state and compares the per-host
# counts with the per-host law: Binomial deaths, Poisson acquisitions.  Human
# deaths and importation are switched off, so the counts are pure worm events.
# Means are held to 5 standard errors per host; the variance ratio, pooled over
# hosts, has a standard error under 1% at R = 2000 and is held to 5%.

REPS = 2000
FROZEN = replace(PARAMS, human_death_rate=1e-15)  # ~4e-10 expected hazard deaths per test


def _fixed_state(population=200, seed=20):
    theta = make_theta(population=population, vh=150.0, k=3.0, imp=0.0)
    rng = np.random.default_rng(seed)
    state = initial_state(theta, PARAMS, rng)
    state.age[:] = 300.0
    return theta, state, rng


def _pools(state):
    return np.stack(
        [state.male_fertile, state.male_sterile, state.female_fertile, state.female_sterile]
    )


def test_worm_deaths_are_binomial_per_host():
    # mf = 0 shuts larval uptake off, so no worm is acquired within the step
    params = replace(FROZEN, worm_death_rate=0.5)
    p_die = -np.expm1(-params.worm_death_rate)
    theta, state, rng = _fixed_state()
    state.mf[:] = 0.0
    state.male_sterile = rng.integers(0, 12, size=state.size)
    state.female_sterile = rng.integers(0, 12, size=state.size)
    held = _pools(state).ravel()
    deaths = np.empty((REPS, held.size), dtype=np.int64)
    for r in range(REPS):
        after = _pools(step(state.copy(), theta, params, rng)).ravel()
        assert np.all(after >= 0)  # no pool goes negative ...
        deaths[r] = held - after   # ... and none loses more than it held
    assert deaths.min() >= 0
    mean, var = held * p_die, held * p_die * (1.0 - p_die)
    assert np.all(np.abs(deaths.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / REPS))
    assert deaths.var(axis=0, ddof=1).sum() / var.sum() == pytest.approx(1.0, abs=0.05)
    assert np.all(deaths[:, held == 0] == 0)


def test_worm_acquisitions_are_poisson_per_host():
    # a worm death rate of 1e-12 leaves ~3e-6 expected deaths over the whole test
    params = replace(FROZEN, worm_death_rate=1e-12)
    theta, state, rng = _fixed_state()
    state.age[:20] = 0.0  # newborns: zero exposure
    availability = equilibrium_l3(population_uptake(state, params), params) / (
        params.saturation_l3()
    )
    rate = acquisition_rate(state.bite_risk, state.age, theta, params) * availability
    before = np.stack([state.male_fertile, state.female_fertile])
    gained = np.empty((REPS, 2, state.size), dtype=np.int64)
    for r in range(REPS):
        after = step(state.copy(), theta, params, rng)
        gained[r] = np.stack([after.male_fertile, after.female_fertile]) - before
    assert np.all(gained[:, :, :20] == 0)
    assert gained.min() >= 0
    for sex in range(2):
        per_host = gained[:, sex, 20:]
        lam = rate[20:]
        assert np.all(np.abs(per_host.mean(axis=0) - lam) <= 5.0 * np.sqrt(lam / REPS))
        assert per_host.var(axis=0, ddof=1).sum() / lam.sum() == pytest.approx(1.0, abs=0.05)


class _RecordingGenerator:
    """Passes every call through to a Generator and records its arguments."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self.calls.append((name, args + tuple(kwargs.values())))
            return method(*args, **kwargs)

        return record


def test_step_draws_worm_events_as_totals_not_per_host():
    theta = make_theta(population=5000)
    rng = np.random.default_rng(21)
    state = initial_state(theta, PARAMS, rng)
    for _ in range(120):
        step(state, theta, PARAMS, rng)
    recorder = _RecordingGenerator(rng)
    for _ in range(3):
        step(state, theta, PARAMS, recorder)
    counts = [(name, args) for name, args in recorder.calls if name in ("poisson", "binomial")]
    assert {name for name, _ in counts} == {"poisson", "binomial"}
    assert all(np.ndim(a) == 0 for _, args in counts for a in args)


# --- the kernel against its reference -------------------------------------------------

def _reference_population_uptake(state, params):  # anopheles, the default species
    m = state.mf
    ks = params.uptake_kappa_s2
    uptake = ks * (1.0 - np.exp(-params.uptake_r2 * m / ks)) ** 2
    return float(np.dot(uptake, state.bite_risk) / state.bite_risk.sum())


def _reference_acquisition_rate(bite_risk, age_months, theta, params):
    return (
        0.5
        * params.bites_per_mosquito
        * np.asarray(bite_risk, dtype=float)
        * theta.vector_host_ratio
        * params.psi1
        * params.psi2
        * params.s2
        * np.minimum(np.asarray(age_months, dtype=float) / params.exposure_ramp_months, 1.0)
    )


def _reference_step(
    state: PopulationState,
    theta: ParameterVector,
    params: ModelParams,
    rng: np.random.Generator,
) -> PopulationState:
    """The monthly step as it stood before its arithmetic was fused: the same
    generator calls, one array pass per factor, N-long bincounts."""
    n = state.size

    # mosquito side at quasi-equilibrium
    state.larvae_mean = equilibrium_l3(_reference_population_uptake(state, params), params)
    availability = state.larvae_mean / params.saturation_l3()

    # adult worm dynamics, drawn as monthly totals and then placed (exact
    # event thinning).  Acquisitions: the superposition of the per-host
    # Poisson processes is Poisson with the summed rate, and each event lands
    # on a host with probability proportional to its rate; a uniform in
    # (0, total] maps to a host through the cumulative rates, never to one
    # with zero rate.
    rate = _reference_acquisition_rate(state.bite_risk, state.age, theta, params) * availability
    cum_rate = np.cumsum(rate)
    for pool in (state.male_fertile, state.female_fertile):
        k = rng.poisson(cum_rate[-1])
        if k:
            u = np.sort(1.0 - rng.random(k)) * cum_rate[-1]
            pool += np.bincount(np.searchsorted(cum_rate, u), minlength=n)
    # Deaths: every worm dies with the same probability, so given their total
    # D ~ Binomial(W, p) the dead are a uniform D-subset of the W worms, found
    # in the four pools through the cumulative burden.
    pools = (state.male_fertile, state.male_sterile, state.female_fertile, state.female_sterile)
    cum_burden = np.cumsum(np.concatenate(pools))
    n_dead_worms = rng.binomial(cum_burden[-1], -np.expm1(-params.worm_death_rate))
    if n_dead_worms:
        dead = np.sort(rng.choice(cum_burden[-1], n_dead_worms, replace=False, shuffle=False))
        losses = np.bincount(np.searchsorted(cum_burden, dead, side="right"), minlength=4 * n)
        for pool, loss in zip(pools, losses.reshape(4, n)):
            pool -= loss

    # mf: dM/dt = production - gamma M, solved exactly over the step with the
    # updated worm burden held fixed
    producing = (state.female_fertile > 0) & (state.male_fertile > 0)
    suppressed = state.time < state.suppressed_until
    production = np.where(
        producing & ~suppressed, params.mf_production_rate * state.female_fertile, 0.0
    )
    decay = np.exp(-params.mf_death_rate)
    state.mf = state.mf * decay + production / params.mf_death_rate * (1.0 - decay)

    # demography: constant hazard plus the hard age cut-off, replacement keeps
    # the population size constant; hazard deaths are drawn as a total and a
    # uniform subset of hosts, like the worm deaths
    state.age += 1.0
    n_hazard = rng.binomial(n, -np.expm1(-params.human_death_rate))
    died = np.flatnonzero(state.age >= MAX_AGE_MONTHS)
    if n_hazard:
        died = np.union1d(died, rng.choice(n, n_hazard, replace=False, shuffle=False))
    if died.size:
        state.age[died] = 0.0
        state.bite_risk[died] = rng.gamma(
            theta.aggregation_k, 1.0 / theta.aggregation_k, size=died.size
        )
        state.male_fertile[died] = 0
        state.male_sterile[died] = 0
        state.female_fertile[died] = 0
        state.female_sterile[died] = 0
        state.mf[died] = 0.0
        state.suppressed_until[died] = -np.inf
        state.treated_last[died] = False

    # importation: each event hands one adult worm of random sex to a random host
    n_events = rng.poisson(theta.importation_rate * n)
    if n_events:
        hosts = rng.integers(0, n, size=n_events)
        sexes = rng.integers(0, 2, size=n_events)
        np.add.at(state.male_fertile, hosts[sexes == 0], 1)
        np.add.at(state.female_fertile, hosts[sexes == 1], 1)

    state.time += 1.0
    return state


@pytest.mark.parametrize("population", [50, 400, 3000])
def test_step_matches_reference_kernel(population):
    # Same generator calls in the same order, so the same events on the same
    # hosts; only the rounding of the fused rate and mf arithmetic may differ.
    # Treatment starts at month 18, so both the empty and the filled sterile
    # pools are stepped; importation brings about one worm per 100 hosts a month.
    theta = make_theta(population=population, vh=40.0, k=0.5, imp=0.01)
    start = initial_state(theta, PARAMS, np.random.default_rng(population))
    ends = []
    for kernel in (step, _reference_step):
        state, rng = start.copy(), np.random.default_rng(30 + population)
        for month in range(120):
            if month >= 18 and month % 12 == 6:
                apply_mda(state, 0.65, PARAMS, rng)
            kernel(state, theta, PARAMS, rng)
        ends.append((state, rng.bit_generator.state))
    (new, new_rng), (ref, ref_rng) = ends
    assert new_rng == ref_rng
    assert new.worms[3].any() and new.worms.sum() > population
    assert np.array_equal(new.worms, ref.worms)
    assert np.array_equal(new.age, ref.age)
    assert np.array_equal(new.treated_last, ref.treated_last)
    assert np.array_equal(new.suppressed_until, ref.suppressed_until)
    np.testing.assert_allclose(new.mf, ref.mf, rtol=1e-12, atol=0.0)


def test_state_copy_is_deep_and_pool_assignment_reaches_step():
    theta, state, rng = _fixed_state()
    clone = state.copy()
    clone.male_fertile += 5
    clone.female_sterile[:3] = 9
    assert not np.shares_memory(clone.worms, state.worms)
    assert np.array_equal(clone.male_fertile, state.male_fertile + 5)
    assert not state.female_sterile.any()

    # no acquisitions (mf = 0), no importation: the death draw sees exactly
    # the pools assigned here, the last one included
    state.mf[:] = 0.0
    state.worms[:] = 0
    state.female_sterile = np.full(state.size, 3)
    recorder = _RecordingGenerator(rng)
    step(state, theta, FROZEN, recorder)
    binomials = [args for name, args in recorder.calls if name == "binomial"]
    assert binomials[0][0] == 3 * state.size
    assert state.worms[:3].sum() == 0 and 0 < state.female_sterile.sum() <= 3 * state.size


def test_reproducibility_same_seed_same_trajectory():
    theta = make_theta(population=200)
    params = replace(PARAMS, burn_in_months=120)
    prev_a, state_a = run_to_equilibrium(theta, params, seed=42)
    prev_b, state_b = run_to_equilibrium(theta, params, seed=42)
    assert prev_a == prev_b
    assert np.array_equal(state_a.mf, state_b.mf)
    assert np.array_equal(state_a.male_fertile, state_b.male_fertile)


# --- MDA ------------------------------------------------------------------------------

def _endemic_state(seed=8, population=300):
    theta = make_theta(population=population)
    rng = np.random.default_rng(seed)
    state = initial_state(theta, PARAMS, rng)
    for _ in range(360):
        step(state, theta, PARAMS, rng)
    return theta, state, rng


def test_mda_zero_coverage_is_identity():
    theta, state, rng = _endemic_state()
    before_mf = state.mf.copy()
    before_wf = state.female_fertile.copy()
    apply_mda(state, 0.0, PARAMS, rng)
    assert np.array_equal(state.mf, before_mf)
    assert np.array_equal(state.female_fertile, before_wf)
    assert not state.treated_last.any()


def test_mda_total_efficacy_clears_everyone():
    theta, state, rng = _endemic_state()
    apply_mda(state, 1.0, replace(PARAMS, mda_mf_kill=1.0, mda_worm_sterilise=1.0), rng)
    assert np.all(state.mf == 0.0)
    assert int(state.male_fertile.sum() + state.female_fertile.sum()) == 0
    assert int(state.male_sterile.sum() + state.female_sterile.sum()) > 0


def test_mda_default_efficacies():
    theta, state, rng = _endemic_state()
    mf_before = state.mf.copy()
    apply_mda(state, 1.0, PARAMS, rng)
    assert np.allclose(state.mf, mf_before * (1.0 - 0.95))


def test_mda_coverage_and_adherence_autocorrelation():
    rng = np.random.default_rng(9)
    theta = make_theta(population=10_000)
    state = initial_state(theta, UNINFECTED, rng)
    coverage = 0.65
    fractions = []
    corr_counts = []
    previous = None
    for _ in range(10):
        apply_mda(state, coverage, PARAMS, rng)
        treated = state.treated_last.copy()
        fractions.append(treated.mean())
        if previous is not None:
            corr_counts.append(np.corrcoef(previous, treated)[0, 1])
        previous = treated
    assert np.mean(fractions) == pytest.approx(coverage, abs=0.01)
    assert np.all(np.array(corr_counts) > 0.2)  # rho = 0.35 persistence


def test_mda_suppresses_mf_production():
    theta, state, rng = _endemic_state()
    apply_mda(state, 1.0, PARAMS, rng)
    assert np.all(state.suppressed_until[state.treated_last] == state.time + 6.0)


# --- equilibrium and scenarios ------------------------------------------------------

def test_equilibrium_prevalence_zero_without_importation_or_seed():
    theta = make_theta(imp=0.0)
    prev, _ = run_to_equilibrium(theta, replace(UNINFECTED, burn_in_months=60), seed=10)
    assert prev == 0.0


def test_equilibrium_high_transmission_high_prevalence():
    theta = make_theta(population=400, vh=150.0, k=3.0)
    prev, _ = run_to_equilibrium(theta, replace(PARAMS, burn_in_months=600), seed=11)
    assert prev > 0.85


def test_no_intervention_scenario_stationary():
    # at a large population the equilibrium is tight: yearly drift under 2%
    theta = make_theta(population=5000)
    _, eq = run_to_equilibrium(theta, replace(PARAMS, burn_in_months=720), seed=12)
    traj = run_scenario(eq, Scenario(name="none", years=5), theta, PARAMS, seed=13)
    assert np.all(np.abs(traj - traj[0]) < 0.02)


def test_full_coverage_perfect_efficacy_monotone_decline():
    theta = make_theta(population=400, imp=0.0)
    _, eq = run_to_equilibrium(theta, replace(PARAMS, burn_in_months=600), seed=14)
    scenario = Scenario(name="ideal", years=5, rounds=tuple((12 * i, 1.0) for i in range(5)))
    perfect = replace(PARAMS, mda_mf_kill=1.0, mda_worm_sterilise=1.0)
    traj = run_scenario(eq, scenario, theta, perfect, seed=15)
    assert np.all(np.diff(traj) <= 0.0)
    assert traj[-1] < 0.02


def test_biannual_at_least_as_effective_as_annual():
    theta = make_theta(population=400)
    means = {}
    for scenario in (Scenario.annual(0.65, 5), Scenario.biannual(0.65, 5)):
        finals = []
        for i in range(12):
            _, eq = run_to_equilibrium(theta, replace(PARAMS, burn_in_months=600), seed=100 + i)
            finals.append(run_scenario(eq, scenario, theta, PARAMS, seed=500 + i)[-1])
        means[scenario.name] = np.mean(finals)
    assert means["bMDA65"] <= means["aMDA65"]


def test_scenario_builders_and_validation():
    annual = Scenario.annual(0.65, years=5)
    assert annual.rounds == tuple((12 * i, 0.65) for i in range(5))
    biannual = Scenario.biannual(0.65, years=5)
    assert len(biannual.rounds) == 10
    with pytest.raises(ValueError):
        Scenario(name="bad", years=0)
    with pytest.raises(ValueError):
        Scenario(name="bad", years=5, rounds=((12, 0.5), (0, 0.5)))
    with pytest.raises(ValueError):
        Scenario(name="bad", years=5, rounds=((0, 1.5),))
    for rounds in (((-3, 0.5),), ((12, 0.5),), ((-3, 0.5), (40, 0.5))):
        with pytest.raises(ValueError, match="round months"):
            Scenario(name="bad", years=1, rounds=rounds)


def test_importation_decay_from_pilot():
    traj = np.array([[0.4, 0.3, 0.2], [0.6, 0.4, 0.2]])
    decay = importation_decay_from_pilot(traj)
    assert decay[0] == 1.0
    assert decay[1] == pytest.approx(0.7 / 1.0 * 1.0 / 0.5 * 0.5, rel=1e-12)  # 0.35/0.5
    assert decay[2] == pytest.approx(0.4)
    with pytest.raises(ValueError):
        importation_decay_from_pilot(np.array([0.4, 0.3]))


def test_scenario_importation_decay_used():
    theta = make_theta(population=300, vh=1.0, imp=0.02)
    _, eq = run_to_equilibrium(theta, replace(PARAMS, burn_in_months=60), seed=16)
    held = Scenario(name="none", years=3)
    dropped = Scenario(name="none", years=3).with_decay([0.0, 0.0, 0.0])
    worms = []
    for scenario in (held, dropped):
        state = eq.copy()
        rng = np.random.default_rng(17)
        for month in range(36):
            decay = (1.0 if scenario.importation_decay is None
                     else scenario.importation_decay[month // 12])
            step(state, replace(theta, importation_rate=theta.importation_rate * decay),
                 PARAMS, rng)
        worms.append(int(state.worms.sum()))
    assert worms[1] < worms[0]
