"""Per-pixel orchestration: pooling, bank reweighting, projection summaries.

The pipeline treats every pixel independently against one shared, read-only
simulation bank: pixels are pooled or excluded by population, each resulting
unit reweights the bank (population prior ratio first, then the configured
empirical density-ratio estimator on prevalence), and the weights turn the
bank's intervention trajectories into per-pixel quantile and
elimination-probability summaries.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .proposal import population_prior_density
from .reweight import apply_ernd, ess

if TYPE_CHECKING:  # io imports this module
    from .io import RunConfig

__all__ = [
    "PixelPosterior",
    "PixelWeights",
    "PooledUnit",
    "ProjectionSummary",
    "SimulationBank",
    "estimated_population",
    "ordered_map",
    "pool_and_filter",
    "project",
    "stage1_population_weights",
    "weight_all",
    "weight_pixel",
    "weighted_quantile",
]

QUANTILE_LEVELS = (0.025, 0.5, 0.975)

#: A unit's weights below this fraction of its largest weight are dropped.
SPARSE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PixelPosterior:
    """Map-posterior prevalence samples and metadata for one pixel."""

    pixel_id: str
    country: str
    population: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError(f"pixel {self.pixel_id}: need at least one posterior sample")
        if not np.all((samples >= 0.0) & (samples <= 1.0)):
            raise ValueError(f"pixel {self.pixel_id}: posterior samples must lie in [0, 1]")
        if not 0.0 <= self.population < np.inf:
            raise ValueError(f"pixel {self.pixel_id}: population must be finite and non-negative")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class PooledUnit:
    """One weighting unit: a pixel, or several small pixels merged."""

    unit_id: str
    country: str
    member_pixel_ids: tuple[str, ...]
    population: float
    samples: np.ndarray
    undersized: bool = False


def pool_and_filter(
    pixels: Sequence[PixelPosterior],
    min_population: float = 300.0,
    max_population: float = 10_000.0,
) -> tuple[list[PooledUnit], list[str]]:
    """Exclude oversized pixels and merge undersized ones within a country.

    Pixels above ``max_population`` are dropped and reported.  Pixels below
    ``min_population`` are pooled country by country, largest first, each
    group closing as soon as it reaches the minimum so groups stay as small
    as possible.  A pooled unit's posterior samples are the sample-wise
    population-weighted average of its members (sample indices align, so
    posterior correlation is preserved).  A country whose leftovers cannot
    reach the minimum yields one unit flagged ``undersized``.

    Returns the units plus the ids of excluded pixels.
    """
    excluded = [p.pixel_id for p in pixels if p.population > max_population]
    keep = [p for p in pixels if p.population <= max_population]
    units: list[PooledUnit] = []
    for country in sorted({p.country for p in keep}):
        in_country = [p for p in keep if p.country == country]
        for pixel in in_country:
            if pixel.population >= min_population:
                units.append(
                    PooledUnit(
                        unit_id=pixel.pixel_id,
                        country=country,
                        member_pixel_ids=(pixel.pixel_id,),
                        population=pixel.population,
                        samples=pixel.samples,
                    )
                )
        small = sorted(
            (p for p in in_country if p.population < min_population),
            key=lambda p: (-p.population, p.pixel_id),
        )
        while small:
            group = [small.pop(0)]
            total = group[0].population
            while total < min_population and small:
                group.append(small.pop(0))
                total += group[-1].population
            m_sizes = {p.samples.size for p in group}
            if len(m_sizes) != 1:
                raise ValueError("pooled pixels must share the posterior sample count")
            weights = np.array([p.population for p in group])
            if weights.sum() <= 0.0:
                raise ValueError("pooled pixels must have positive total population")
            stacked = np.stack([p.samples for p in group])
            pooled = weights @ stacked / weights.sum()
            members = tuple(p.pixel_id for p in group)
            units.append(
                PooledUnit(
                    unit_id=members[0] if len(members) == 1 else "+".join(members),
                    country=country,
                    member_pixel_ids=members,
                    population=total,
                    samples=pooled,
                    undersized=total < min_population,
                )
            )
    return units, excluded


@dataclass(frozen=True)
class SimulationBank:
    """Read-only columnar view of the J simulations shared by all pixels."""

    populations: np.ndarray
    population_proposal_mass: np.ndarray
    equilibrium_prevalence: np.ndarray
    trajectories: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        j = self.populations.size
        for name in ("population_proposal_mass", "equilibrium_prevalence"):
            if getattr(self, name).shape != (j,):
                raise ValueError(f"{name} must have one entry per simulation")
        if not np.all((self.equilibrium_prevalence >= 0) & (self.equilibrium_prevalence <= 1)):
            raise ValueError("equilibrium prevalences must lie in [0, 1]")
        if not np.all(self.population_proposal_mass > 0.0):
            raise ValueError("population proposal mass must be positive at every draw")
        for name, traj in self.trajectories.items():
            if traj.ndim != 2 or traj.shape[0] != j:
                raise ValueError(f"trajectory {name!r} must be (J, years+1)")

    @property
    def size(self) -> int:
        return self.populations.size


@dataclass(frozen=True)
class PixelWeights:
    """Sparse normalised weights of one unit over the bank."""

    unit_id: str
    bank_size: int
    indices: np.ndarray
    values: np.ndarray
    ess: float
    dropped_map_fraction: float
    clamp_count: int
    low_ess: bool


def stage1_population_weights(
    bank: SimulationBank, reported_population: float, log_sd: float
) -> np.ndarray:
    """Pixel-specific prior over the shared bank: log-normal population ratio.

    The remaining parameter components are drawn from their priors, so their
    density ratio is one and only the population contributes.
    """
    prior = population_prior_density(bank.populations, reported_population, log_sd)
    return prior / bank.population_proposal_mass


def weight_pixel(unit: PooledUnit, bank: SimulationBank, config: RunConfig) -> PixelWeights:
    """Stage-1 population reweighting composed with the configured estimator."""
    try:
        w1 = stage1_population_weights(bank, unit.population, config.population_log_sd)
        w2 = apply_ernd(unit.samples, bank.equilibrium_prevalence, w1, config.ernd_kind,
                        config.delta, config.histogram_bins, config.unmatched)
    except ValueError as err:  # DegenerateWeightsError keeps its class
        raise type(err)(f"unit {unit.unit_id}: {err}") from err

    dense = w2.weights
    keep = dense >= dense.max() * SPARSE_THRESHOLD
    values = dense[keep]
    values = values / values.sum()
    ess_value = ess(values)
    return PixelWeights(
        unit_id=unit.unit_id,
        bank_size=bank.size,
        indices=np.flatnonzero(keep),
        values=values,
        ess=ess_value,
        dropped_map_fraction=w2.dropped_map_fraction,
        clamp_count=w2.clamp_count,
        low_ess=ess_value < config.ess_floor,
    )


_WORKER_TASK: tuple = ()  # (fn, shared), set only inside pool worker processes


def _install_worker_task(fn, shared) -> None:
    global _WORKER_TASK
    _WORKER_TASK = (fn, shared)


def _run_worker_task(index: int):
    fn, shared = _WORKER_TASK
    return fn(shared, index)


def ordered_map(fn, shared, n: int, workers: int, chunksize: int) -> list:
    """``[fn(shared, i) for i in range(n)]``, in a process pool if ``workers > 1``.

    ``fn`` must be a module-level function so workers can find it.  The pool
    installs ``shared`` once per worker rather than sending it with every
    task.  Results follow the index order for any worker count.
    """
    if workers <= 1:
        return [fn(shared, i) for i in range(n)]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_install_worker_task, initargs=(fn, shared)
    ) as pool:
        return list(pool.map(_run_worker_task, range(n), chunksize=chunksize))


def _weight_one(shared, index: int) -> PixelWeights:
    units, bank, config = shared
    return weight_pixel(units[index], bank, config)


def weight_all(
    units: Sequence[PooledUnit],
    bank: SimulationBank,
    config: RunConfig,
    workers: int = 1,
) -> list[PixelWeights]:
    """Weight every unit against the bank; order follows the input exactly.

    Units are independent, so any worker count produces identical results.
    """
    return ordered_map(_weight_one, (units, bank, config), len(units), workers, chunksize=8)


def weighted_quantile(values, weights, levels) -> np.ndarray:
    """Lower weighted quantiles: smallest value whose cdf reaches the level."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    idx = np.searchsorted(cum, np.asarray(levels, dtype=float), side="left")
    return values[order][np.minimum(idx, values.size - 1)]


@dataclass(frozen=True)
class ProjectionSummary:
    """Weighted projection of one unit under one intervention scenario."""

    unit_id: str
    scenario: str
    quantiles: np.ndarray       # (3, years+1): 2.5 / 50 / 97.5 percent
    elimination_probability: np.ndarray  # (years+1,)
    ess: float
    dropped_map_fraction: float
    low_ess: bool

    @property
    def years(self) -> int:
        return self.elimination_probability.size - 1


def project(
    weights: PixelWeights,
    bank: SimulationBank,
    scenario: str,
    elimination_threshold: float = 0.01,
) -> ProjectionSummary:
    """Weighted yearly quantiles and elimination probabilities for one unit."""
    traj = bank.trajectories[scenario][weights.indices]
    n_years = traj.shape[1]
    quantiles = np.empty((len(QUANTILE_LEVELS), n_years))
    elim = np.empty(n_years)
    for year in range(n_years):
        quantiles[:, year] = weighted_quantile(traj[:, year], weights.values, QUANTILE_LEVELS)
        elim[year] = min(
            1.0, max(0.0, float(np.dot(weights.values, traj[:, year] < elimination_threshold)))
        )
    return ProjectionSummary(
        unit_id=weights.unit_id,
        scenario=scenario,
        quantiles=quantiles,
        elimination_probability=elim,
        ess=weights.ess,
        dropped_map_fraction=weights.dropped_map_fraction,
        low_ess=weights.low_ess,
    )


def estimated_population(weights: PixelWeights, bank: SimulationBank) -> float:
    """Weighted mean simulated population; recovers the pixel's true size."""
    return float(np.dot(weights.values, bank.populations[weights.indices]))
