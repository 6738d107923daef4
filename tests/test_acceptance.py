"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances are fixed here, not calibrated.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maplink import io as mio
from maplink.cli import main
from maplink.pipeline import (
    PooledUnit,
    SimulationBank,
    estimated_population,
    weight_pixel,
)
from maplink.proposal import ParameterVector, adapt_population_proposal
from maplink.reweight import (
    StepCdf,
    discrepancy_ernd,
    distance_ernd,
    ess,
    histogram_ernd,
    integrated_squared_distance,
    ks_distance,
    prepare_ernd,
    select_delta,
)
from maplink.toy import (
    run_toy_experiment,
    sample_toy_uniform_proposal,
    summarize_reports,
    toy_stage1_weights,
    toy_target_sampler,
)
from maplink.transmission import (
    ModelParams,
    Scenario,
    equilibrium_l3,
    initial_state,
    mf_prevalence,
    run_scenario,
    run_to_equilibrium,
    step,
)
from reference import weighted_quantile

SEED = 20260809


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


# -----------------------------------------------------------------------------
# 1. Six-cell benchmark table replication inside the published bands
# -----------------------------------------------------------------------------

BENCHMARK_BANDS = {
    ("prior", "distance"): ((0.01742, 1.03220), (222, 473)),
    ("prior", "histogram"): ((0.02757, 1.56949), (252, 453)),
    ("prior", "discrepancy"): ((0.00335, 0.09844), (96, 255)),
    ("uniform", "distance"): ((0.00157, 0.01799), (1161, 1330)),
    ("uniform", "histogram"): ((0.00175, 0.00292), (1253, 1429)),
    ("uniform", "discrepancy"): ((0.00021, 0.00029), (713, 805)),
}


def test_criterion_1_benchmark_table_replication():
    start = time.time()
    lines = []
    reports = run_toy_experiment(
        m=2000, j=2000, replicates=100, delta_policy=None, seed=SEED,
    )
    for i, ((proposal, ernd), (isd_band, ess_band)) in enumerate(BENCHMARK_BANDS.items()):
        summary = summarize_reports(reports[100 * i:100 * (i + 1)])
        assert (summary["proposal"], summary["ernd"]) == (proposal, ernd)
        isd_median = summary["isd_x1000"]["median"]
        ess_median = summary["ess"]["median"]
        assert isd_band[0] <= isd_median <= isd_band[1], (
            f"{proposal}/{ernd}: ISDx1000 median {isd_median:.5f} outside {isd_band}"
        )
        assert ess_band[0] <= ess_median <= ess_band[1], (
            f"{proposal}/{ernd}: ESS median {ess_median:.0f} outside {ess_band}"
        )
        lines.append(f"{proposal}/{ernd} ISDx1000={isd_median:.5f} ESS={ess_median:.0f}")
    elapsed = time.time() - start
    assert elapsed < 300.0, f"benchmark replication took {elapsed:.0f}s (budget 300s)"
    report(1, f"all six cells in band ({elapsed:.1f}s): " + "; ".join(lines))


# -----------------------------------------------------------------------------
# 2. Analytic posterior oracle for the second parameter's weighted marginal
# -----------------------------------------------------------------------------

def test_criterion_2_analytic_posterior_oracle():
    rng = np.random.default_rng(SEED + 1)
    pixel = toy_target_sampler(2000, rng)
    draws = sample_toy_uniform_proposal(2000, rng)
    w1 = toy_stage1_weights(draws)
    w2 = distance_ernd(pixel, prepare_ernd(draws.prevalence, "distance",
                                           select_delta(draws.prevalence)), w1)

    order = np.argsort(draws.theta2)
    values = draws.theta2[order]
    cum = np.cumsum(w2.weights[order])
    cum /= cum[-1]
    # closed form cdf of the reweighted theta2 marginal: x^2 - 2 x log x
    target = values**2 - 2.0 * values * np.log(values)
    ks = max(
        float(np.max(np.abs(cum - target))),
        float(np.max(np.abs(np.concatenate(([0.0], cum[:-1])) - target))),
    )
    mean = float(np.dot(w2.weights, draws.theta2))
    assert ks < 0.07, f"KS distance {ks:.4f} >= 0.07"
    assert abs(mean - 1.0 / 6.0) < 0.02, f"weighted mean {mean:.4f} not within 0.02 of 1/6"
    report(2, f"theta2 marginal KS={ks:.4f} (<0.07), weighted mean={mean:.4f} (1/6 +- 0.02)")


# -----------------------------------------------------------------------------
# 3. Closed-form discrepancy weights match a numeric simplex minimiser
# -----------------------------------------------------------------------------

def test_criterion_3_discrepancy_optimality():
    from scipy.optimize import minimize

    rng = np.random.default_rng(SEED + 2)
    worst_gap = 0.0
    worst_track = 0.0
    for _ in range(100):
        j = int(rng.integers(2, 9))
        m = int(rng.integers(1, 17))
        sims = rng.uniform(size=j)
        pixel = rng.uniform(size=m)
        w = discrepancy_ernd(pixel, prepare_ernd(sims, "discrepancy"))
        f = StepCdf.from_samples(pixel)
        h = StepCdf.from_samples(sims, weights=w.weights)
        ours = integrated_squared_distance(f, h)

        res = minimize(
            lambda v: integrated_squared_distance(
                f, StepCdf.from_samples(sims, weights=np.maximum(v, 0.0))
            ),
            np.full(j, 1.0 / j),
            method="SLSQP",
            bounds=[(0.0, 1.0)] * j,
            constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0}],
            options={"maxiter": 500, "ftol": 1e-15},
        )
        worst_gap = max(worst_gap, ours - res.fun)
        assert ours <= res.fun + 1e-6, f"closed form {ours} exceeds numeric optimum {res.fun}"

        # the weighted cdf tracks the map cdf between consecutive simulated
        # prevalences: cumulative weight equals the average of F over the gap
        order = np.argsort(sims)
        cum = np.cumsum(w.weights[order])
        p_sorted = np.sort(sims)
        for jj in range(j - 1):
            a, b = p_sorted[jj], p_sorted[jj + 1]
            if b - a < 1e-9:
                continue
            grid = a + (b - a) * (np.arange(20_000) + 0.5) / 20_000
            track_err = abs(cum[jj] - float(np.mean(f(grid))))
            worst_track = max(worst_track, track_err)
            assert track_err < 1e-3
    report(
        3,
        f"100 instances: max ISD excess over SLSQP={worst_gap:.2e} (<=1e-6), "
        f"max gap-tracking error={worst_track:.2e}",
    )


# -----------------------------------------------------------------------------
# 4. Histogram reproduction to machine accuracy, property-based
# -----------------------------------------------------------------------------

@st.composite
def _histogram_cases(draw):
    n_bins = draw(st.integers(min_value=1, max_value=10))
    inner = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=n_bins - 1,
            max_size=n_bins - 1,
            unique=True,
        )
    )
    edges = np.concatenate(([0.0], np.sort(inner), [1.0]))
    j = draw(st.integers(min_value=1, max_value=25))
    sims = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=j, max_size=j)))
    w1 = np.asarray(draw(st.lists(st.floats(0.01, 10.0), min_size=j, max_size=j)))
    m = draw(st.integers(min_value=1, max_value=30))
    picks = draw(st.lists(st.integers(0, j - 1), min_size=m, max_size=m))
    return edges, sims, w1, sims[np.asarray(picks)]


@settings(max_examples=1000, deadline=None)
@given(_histogram_cases())
def test_criterion_4_histogram_reproduction(case):
    edges, sims, w1, pixel = case
    w = histogram_ernd(pixel, prepare_ernd(sims, "histogram", histogram_bins=edges), w1)
    sim_bins = np.clip(np.searchsorted(edges, sims, side="right") - 1, 0, edges.size - 2)
    map_bins = np.clip(np.searchsorted(edges, pixel, side="right") - 1, 0, edges.size - 2)
    for b in range(edges.size - 1):
        assert abs(w.weights[sim_bins == b].sum() - np.mean(map_bins == b)) <= 1e-12


def test_criterion_4_report():
    report(4, "weighted bin masses equal map bin masses to 1e-12 on 1000 random cases")


# -----------------------------------------------------------------------------
# 5. Automatic window width rule
# -----------------------------------------------------------------------------

def test_criterion_5_delta_rule():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(200):
        j = int(rng.integers(3, 100))
        p = np.round(rng.uniform(size=j), 4)  # duplicates welcome
        delta = select_delta(p)
        half = delta / 2.0
        for pk in p:
            assert np.sum(np.abs(p - pk) <= half * (1 + 1e-12)) >= 3

    s = 1.0 / 16.0  # binary-exact spacing: the rule must return 4s exactly
    grid = np.arange(0.0, 1.0 + s / 2.0, s)
    assert select_delta(grid) == 4.0 * s
    report(5, "every window holds >= 3 simulations; equally spaced grid gives 4s exactly")


# -----------------------------------------------------------------------------
# 6. Transmission-model invariants
# -----------------------------------------------------------------------------

def test_criterion_6_transmission_invariants():
    params = ModelParams()
    theta = ParameterVector(
        population=200, vector_host_ratio=25.0, aggregation_k=0.5, importation_rate=2e-4
    )
    rng = np.random.default_rng(SEED + 4)

    # population conservation and nonnegativity along an endemic run
    state = initial_state(theta, params, rng)
    for _ in range(120):
        step(state, theta, params, rng)
        assert state.size == 200
        assert np.all(state.mf >= 0.0) and state.larvae_mean >= 0.0
        assert np.all(state.male_fertile >= 0) and np.all(state.female_fertile >= 0)

    # disease-free absorbing state without importation
    theta0 = ParameterVector(
        population=200, vector_host_ratio=25.0, aggregation_k=0.5, importation_rate=0.0
    )
    clean = initial_state(theta0, replace(params, seed_worms_per_sex=0.0), rng)
    for _ in range(120):
        step(clean, theta0, params, rng)
    assert int(clean.worms.sum()) == 0
    assert mf_prevalence(clean, params) == 0.0

    # exact exponential mf decay at zero production, 1e-12 per step
    decay_params = ModelParams(mf_production_rate=0.0)
    decay_state = initial_state(theta0, replace(decay_params, seed_worms_per_sex=0.0), rng)
    decay_state.age[:] = 300.0
    decay_state.mf = rng.uniform(0.5, 30.0, size=200)
    expected = decay_state.mf.copy()
    for i in range(12):
        step(decay_state, theta0, decay_params, rng)
        expected *= np.exp(-decay_params.mf_death_rate)
        survivors = decay_state.age == 300.0 + (i + 1)
        assert np.max(np.abs(decay_state.mf[survivors] - expected[survivors])) < 1e-12

    # bite-risk moments at 1e5 draws
    theta_big = ParameterVector(
        population=100_000, vector_host_ratio=10.0, aggregation_k=0.25, importation_rate=0.0
    )
    big = initial_state(theta_big, replace(params, seed_worms_per_sex=0.0),
                        np.random.default_rng(SEED + 5))
    mean_b = float(np.mean(big.bite_risk))
    var_b = float(np.var(big.bite_risk))
    assert abs(mean_b - 1.0) <= 0.01
    assert abs(var_b - 4.0) <= 0.05 * 4.0

    # quasi-equilibrium L3 arithmetic at unit mean uptake
    value = equilibrium_l3(1.0, params)
    expected_l3 = 10.0 * 0.37 / (5.0 + 10.0 * 0.414)
    assert abs(value - expected_l3) <= 1e-12
    report(
        6,
        f"conservation, nonnegativity, absorbing state, exact mf decay, "
        f"bite moments (mean={mean_b:.4f}, var={var_b:.3f}), L*={value:.12f}",
    )


# -----------------------------------------------------------------------------
# 7. Intervention ordering on matched random numbers
# -----------------------------------------------------------------------------

def test_criterion_7_scenario_ordering():
    params = ModelParams(burn_in_months=600)
    theta = ParameterVector(
        population=400, vector_host_ratio=25.0, aggregation_k=0.5, importation_rate=2e-4
    )
    scenarios = [
        Scenario(name="none", years=5),
        Scenario.annual(0.65, 5),
        Scenario.annual(0.80, 5),
        Scenario.biannual(0.65, 5),
    ]
    finals = {s.name: np.empty(500) for s in scenarios}
    root = np.random.SeedSequence(SEED + 6)
    for i, child in enumerate(root.spawn(500)):
        eq_seed, scenario_seed = child.spawn(2)
        _, eq_state = run_to_equilibrium(theta, params, np.random.default_rng(eq_seed))
        for scenario in scenarios:
            finals[scenario.name][i] = run_scenario(
                eq_state, scenario, theta, params, np.random.default_rng(scenario_seed)
            )[-1]
    means = {name: float(values.mean()) for name, values in finals.items()}
    assert means["bMDA65"] <= means["aMDA80"] <= means["aMDA65"] <= means["none"], means
    report(
        7,
        "5-year weighted-mean prevalence ordering holds: "
        + " <= ".join(f"{means[n]:.4f} ({n})" for n in ("bMDA65", "aMDA80", "aMDA65", "none")),
    )


# -----------------------------------------------------------------------------
# 8. Synthetic map reproduction on a 20 x 20 grid
# -----------------------------------------------------------------------------

def test_criterion_8_synthetic_map_reproduction():
    rng = np.random.default_rng(SEED + 7)
    j = 30_000
    sigma = 0.3
    proposal = adapt_population_proposal(sigma, iterations=10, reference_stride=50)
    populations = proposal.sample(rng, j)
    bank = SimulationBank(
        populations=populations.astype(np.int64),
        population_proposal_mass=proposal.density(populations),
        equilibrium_prevalence=rng.uniform(size=j),
        trajectories={},
    )
    config = mio.RunConfig(delta=0.01, population_log_sd=sigma, ess_floor=1.0)

    worst_quantile = 0.0
    population_errors = []
    ess_values = []
    for i in range(400):  # the 20 x 20 grid
        a = rng.uniform(1.2, 6.0)
        b = rng.uniform(1.2, 6.0)
        true_population = float(rng.integers(400, 9000))
        samples = rng.beta(a, b, size=2000)
        unit = PooledUnit(
            unit_id=f"cell{i:03d}",
            country="XX",
            member_pixel_ids=(f"cell{i:03d}",),
            population=true_population,
            samples=samples,
        )
        w = weight_pixel(unit, bank, config)
        got = weighted_quantile(
            bank.equilibrium_prevalence[w.indices], w.values, (0.025, 0.5, 0.975)
        )
        want = np.quantile(samples, (0.025, 0.5, 0.975))
        worst_quantile = max(worst_quantile, float(np.max(np.abs(got - want))))
        ess_values.append(w.ess)
        if w.ess > 200.0:
            estimate = estimated_population(w, bank)
            population_errors.append(abs(estimate - true_population) / true_population)

    assert worst_quantile < 0.02, f"worst quantile error {worst_quantile:.4f} >= 0.02"
    assert population_errors, "no pixel reached ESS > 200"
    assert max(population_errors) < 0.10, (
        f"worst population recovery error {max(population_errors):.3f} >= 10%"
    )
    report(
        8,
        f"400 pixels: worst quantile error={worst_quantile:.4f} (<0.02), worst population "
        f"error={max(population_errors) * 100:.1f}% (<10%) at ESS>200 "
        f"(min ESS={min(ess_values):.0f})",
    )


# -----------------------------------------------------------------------------
# 9. Determinism and parallel equivalence, end to end
# -----------------------------------------------------------------------------

def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_criterion_9_determinism_parallel_equivalence(tmp_path):
    import json

    config_payload = {
        "seed": SEED,
        "j_simulations": 12,
        "years": 2,
        "population_range": [260, 700],
        "population_tail_to": 800,
        "proposal_iterations": 2,
        "proposal_reference_stride": 20,
        "simulate_shard_size": 5,
        "model": {"burn_in_months": 48},
        "scenarios": [
            {"name": "none", "kind": "none"},
            {"name": "aMDA65", "kind": "annual", "coverage": 0.65},
        ],
        "ess_floor": 2.0,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_payload))

    rng = np.random.default_rng(SEED + 8)
    from maplink.pipeline import PixelPosterior

    pixels = [
        PixelPosterior(
            pixel_id=f"p{i}",
            country="KE",
            population=float(rng.integers(300, 690)),
            samples=rng.beta(2.0, 2.0, size=50),
        )
        for i in range(4)
    ]
    pixel_path = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(pixel_path, pixels)

    banks, weight_dirs, summary_dirs = [], [], []
    for label, workers in (("serial", "1"), ("parallel", "3")):
        # identical layout under separate roots; manifests record input paths,
        # so the run root is normalised out before comparing bytes
        root = tmp_path / label
        root.mkdir()
        bank_dir = root / "bank"
        weights_dir = root / "weights"
        summary_dir = root / "summaries"
        assert main(["simulate", "--config", str(config), "--out", str(bank_dir),
                     "--workers", workers]) == 0
        assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                     "--pixels", str(pixel_path), "--out", str(weights_dir),
                     "--workers", workers, "--delta", "0.25"]) == 0
        assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                     "--weights", str(weights_dir), "--out", str(summary_dir)]) == 0

        def normalized(directory):
            return {
                name: blob.replace(str(root).encode(), b"<ROOT>")
                for name, blob in _dir_bytes(directory).items()
            }

        banks.append(normalized(bank_dir))
        weight_dirs.append(normalized(weights_dir))
        summary_dirs.append(normalized(summary_dir))

    assert banks[0] == banks[1], "bank files differ between 1 and 3 workers"
    assert weight_dirs[0] == weight_dirs[1], "weight files differ between 1 and 3 workers"
    assert summary_dirs[0] == summary_dirs[1], "summary files differ between 1 and 3 workers"
    report(9, "bank, weights and summaries byte-identical for 1 vs 3 workers at a fixed seed")
