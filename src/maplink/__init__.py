"""Per-pixel linkage of prevalence-map posteriors to a transmission-model simulation bank.

The package reweights one shared bank of transmission-model simulations to
match the posterior prevalence distribution of every map pixel (a change of
measure estimated empirically), then projects intervention outcomes per
pixel with quantified uncertainty.
"""

from .pipeline import (
    PixelPosterior,
    PixelWeights,
    PooledUnit,
    ProjectionSummary,
    SimulationBank,
    estimated_population,
    pool_and_filter,
    project,
    weight_all,
    weight_pixel,
)
from .proposal import (
    ParameterVector,
    TabulatedProposal,
    VhkGrid,
    adapt_population_proposal,
    default_vh_k_grid,
    load_vh_k_grid,
    population_prior_density,
    sample_bank,
)
from .reweight import (
    DegenerateWeightsError,
    PreparedErnd,
    StepCdf,
    WeightVector,
    apply_ernd,
    discrepancy_ernd,
    distance_ernd,
    ess,
    histogram_ernd,
    integrated_squared_distance,
    ks_distance,
    prepare_ernd,
    select_delta,
)
from .transmission import (
    ModelParams,
    PopulationState,
    Scenario,
    apply_mda,
    run_scenario,
    run_to_equilibrium,
)

__version__ = "0.1.0"
