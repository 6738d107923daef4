"""Tests for proposal construction and bank sampling."""

import numpy as np
import pytest

from maplink import proposal as proposal_module
from maplink.proposal import (
    ParameterVector,
    TabulatedProposal,
    VhkGrid,
    adapt_population_proposal,
    default_vh_k_grid,
    load_vh_k_grid,
    population_prior_density,
    sample_bank,
)


# --- population prior ---------------------------------------------------------

def test_prior_density_positive_at_center():
    assert population_prior_density(1000, 1000, 0.5) > 0.0


def test_prior_density_log_symmetry_with_jacobian():
    # in log space the density is symmetric; in n space the 1/n factor skews it
    n_hi = 1000 * np.e**0.5
    n_lo = 1000 * np.e**-0.5
    d_hi = population_prior_density(n_hi, 1000, 0.5)
    d_lo = population_prior_density(n_lo, 1000, 0.5)
    assert d_hi * n_hi == pytest.approx(d_lo * n_lo, rel=1e-12)


def test_prior_concentrates_as_sigma_shrinks():
    at_center = [population_prior_density(1000, 1000, s) for s in (0.5, 0.1, 0.02)]
    off_center = [population_prior_density(1500, 1000, s) for s in (0.5, 0.1, 0.02)]
    assert np.all(np.diff(at_center) > 0)
    assert off_center[2] < off_center[0] * 1e-6


def test_prior_rejects_invalid():
    with pytest.raises(ValueError):
        population_prior_density(0, 1000, 0.5)
    with pytest.raises(ValueError, match="reported population"):
        population_prior_density(1000, 0.5, 0.5)
    for log_sd in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="standard deviation"):
            population_prior_density(1000, 1000, log_sd)


# --- tabulated proposal ----------------------------------------------------------

def test_tabulated_proposal_density_lookup():
    prop = TabulatedProposal(support=np.array([10, 20, 30]), mass=np.array([0.2, 0.3, 0.5]))
    assert prop.density(20) == pytest.approx(0.3)
    assert prop.density(15) == 0.0
    assert prop.density(31) == 0.0
    assert np.allclose(prop.density(np.array([10, 30, 99])), [0.2, 0.5, 0.0])


def test_tabulated_proposal_validation():
    with pytest.raises(ValueError):
        TabulatedProposal(support=np.array([10, 10]), mass=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        TabulatedProposal(support=np.array([10, 20]), mass=np.array([0.5, 0.6]))


# --- adaptive population proposal ------------------------------------------------

def pixel_ess_under_proposal(
    proposal: TabulatedProposal, reported_population: float, log_sd: float
) -> float:
    """Large-bank per-simulation ESS a pixel would get from this proposal.

    Prior mass beyond the proposal support does not contribute; the linear
    tail exists precisely to keep that truncation negligible.
    """
    prior = population_prior_density(proposal.support, reported_population, log_sd)
    prior = prior / prior.sum()
    covered = proposal.mass > 0.0
    ratio = np.zeros_like(prior)
    ratio[covered] = prior[covered] ** 2 / proposal.mass[covered]
    return float(1.0 / ratio.sum())


def test_adapt_zero_iterations_is_flat():
    prop = adapt_population_proposal(0.5, population_range=(300, 400), iterations=0, tail_to=450)
    core = prop.mass[prop.support <= 400]
    assert np.allclose(core, core[0])


def test_adapt_flat_prior_stays_flat():
    # a single reference pixel with an (effectively) flat prior over a narrow
    # range: the ESS profile is symmetric so the proposal barely moves
    prop = adapt_population_proposal(
        8.0, population_range=(300, 320), iterations=10, tail_to=340
    )
    core = prop.mass[prop.support <= 320]
    assert core.max() / core.min() < 1.02


def test_adapt_mass_preserving_probability_vector():
    prop = adapt_population_proposal(0.5, population_range=(260, 800), iterations=10, tail_to=900)
    assert np.all(prop.mass >= 0.0)
    assert prop.mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_adapt_tail_linear_to_zero():
    prop = adapt_population_proposal(0.5, population_range=(260, 10_000), iterations=0)
    tail = prop.mass[prop.support > 10_000]
    support_tail = prop.support[prop.support > 10_000]
    assert support_tail[-1] == 11_550
    assert tail[-1] == 0.0
    q_at_hi = prop.mass[prop.support == 10_000][0]
    expected = q_at_hi * (11_550 - support_tail) / (11_550 - 10_000)
    assert np.allclose(tail, expected)
    assert prop.support[-1] == 11_550 and prop.mass[prop.support > 11_500][-1] == 0.0


def test_adapt_same_mass_whether_kernels_are_kept_or_rebuilt(monkeypatch):
    # 580 references in three chunks: all kept, the first kept, none kept
    def adapt():
        return adapt_population_proposal(
            0.5, population_range=(260, 2000), tail_to=2500, reference_stride=3
        ).mass

    kept = adapt()
    for budget in (16 * 256 * 1741, 0):
        monkeypatch.setattr(proposal_module, "_KERNEL_CACHE_BYTES", budget)
        assert np.array_equal(adapt(), kept)


def test_adapt_reduces_pixel_ess_spread():
    flat = adapt_population_proposal(0.5, iterations=0, reference_stride=40)
    adapted = adapt_population_proposal(0.5, iterations=10, reference_stride=40)
    ns = range(300, 10_001, 700)
    spread = lambda prop: (
        max(pixel_ess_under_proposal(prop, n, 0.5) for n in ns)
        / min(pixel_ess_under_proposal(prop, n, 0.5) for n in ns)
    )
    assert spread(adapted) < spread(flat) / 5.0


def test_adapt_validates_inputs():
    with pytest.raises(ValueError):
        adapt_population_proposal(0.5, population_range=(500, 400))
    with pytest.raises(ValueError):
        adapt_population_proposal(0.5, population_range=(260, 10_000), tail_to=9_000)


# --- V/H-k grid ------------------------------------------------------------------

def test_default_grid_positive_log_correlation():
    grid = default_vh_k_grid()
    lv, lk, m = np.log(grid.vector_host_ratio), np.log(grid.aggregation_k), grid.mass
    mv, mk = (m * lv).sum(), (m * lk).sum()
    cov = (m * (lv - mv) * (lk - mk)).sum()
    assert cov > 0.0


def test_packaged_grid_loads_and_roundtrips(tmp_path):
    grid = default_vh_k_grid()
    assert grid.mass.size > 100
    out = tmp_path / "grid.csv"
    lines = ["# schema: maplink/vh-k-grid v1", "vector_host_ratio,aggregation_k,mass"]
    lines += [
        f"{float(vh)!r},{float(k)!r},{float(m)!r}"
        for vh, k, m in zip(grid.vector_host_ratio, grid.aggregation_k, grid.mass)
    ]
    out.write_text("\n".join(lines) + "\n")
    again = load_vh_k_grid(out)
    assert np.array_equal(grid.mass, again.mass)
    assert np.array_equal(grid.vector_host_ratio, again.vector_host_ratio)
    assert np.array_equal(grid.aggregation_k, again.aggregation_k)


# --- bank sampling ------------------------------------------------------------------

def _small_proposal():
    support = np.arange(260, 321)
    mass = np.linspace(2.0, 1.0, support.size)
    return TabulatedProposal(support=support, mass=mass / mass.sum())


def test_sample_bank_deterministic():
    grid = default_vh_k_grid()
    a = sample_bank(_small_proposal(), grid, j=50, seed=7)
    b = sample_bank(_small_proposal(), grid, j=50, seed=7)
    assert a == b
    c = sample_bank(_small_proposal(), grid, j=50, seed=8)
    assert a != c


def test_sample_bank_importation_in_bounds():
    bank = sample_bank(_small_proposal(), default_vh_k_grid(), j=2000, seed=1)
    rates = np.array([pv.importation_rate for pv in bank])
    assert np.all((rates >= 0.0) & (rates <= 0.0005))
    assert rates.max() > 0.0004  # actually spans the box


def test_sample_bank_population_marginal_matches_proposal():
    from scipy.stats import chisquare

    prop = _small_proposal()
    bank = sample_bank(prop, default_vh_k_grid(), j=100_000, seed=3)
    pops = np.array([pv.population for pv in bank])
    observed = np.bincount(pops - 260, minlength=prop.support.size)
    result = chisquare(observed, f_exp=prop.mass * pops.size)
    assert result.pvalue > 0.01


def test_parameter_vector_validation():
    with pytest.raises(ValueError):
        ParameterVector(population=0, vector_host_ratio=1.0, aggregation_k=0.1, importation_rate=0.0)
    with pytest.raises(ValueError):
        ParameterVector(population=10, vector_host_ratio=-1.0, aggregation_k=0.1, importation_rate=0.0)
