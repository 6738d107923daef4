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
from .reweight import PreparedErnd, apply_ernd, ess, prepare_ernd, stable_order

if TYPE_CHECKING:  # io imports this module
    from .io import RunConfig

__all__ = [
    "BankColumnError",
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
]

QUANTILE_LEVELS = (0.025, 0.5, 0.975)

#: A unit's weights below this fraction of its largest weight are dropped.
SPARSE_THRESHOLD = 1e-12


# the rule on each bank column, by its manifest name, and its fault; the rest hold prevalences
_RULES = {
    "population": (lambda n: n >= 1, "is below 1"),
    "proposal_mass": (lambda q: (q > 0.0) & (q <= 1.0), "is not a number in (0, 1]"),
    "prevalence": (lambda p: (p >= 0.0) & (p <= 1.0), "is not a number in [0, 1]"),
}


def _samples(samples, owner: str) -> np.ndarray:
    """``samples`` as floats, once they are a 1-d array of at least one prevalence."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError(f"{owner}: need at least one posterior sample")
    if not np.all(_RULES["prevalence"][0](samples)):
        raise ValueError(f"{owner}: posterior samples must lie in [0, 1]")
    return samples


@dataclass(frozen=True)
class PixelPosterior:
    """Map-posterior prevalence samples and metadata for one pixel."""

    pixel_id: str
    country: str
    population: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _samples(self.samples, f"pixel {self.pixel_id}"))
        if not 0.0 <= self.population < np.inf:
            raise ValueError(f"pixel {self.pixel_id}: population must be finite and non-negative")


@dataclass(frozen=True)
class PooledUnit:
    """One weighting unit: a pixel, or several small pixels merged."""

    unit_id: str
    country: str
    member_pixel_ids: tuple[str, ...]
    population: float
    samples: np.ndarray
    undersized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "samples", _samples(self.samples, f"unit {self.unit_id}"))


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
        units += [PooledUnit(p.pixel_id, country, (p.pixel_id,), p.population, p.samples)
                  for p in in_country if p.population >= min_population]
        small = sorted((p for p in in_country if p.population < min_population),
                       key=lambda p: (-p.population, p.pixel_id))
        while small:
            group = [small.pop(0)]
            total = group[0].population
            while total < min_population and small:
                group.append(small.pop(0))
                total += group[-1].population
            members = tuple(p.pixel_id for p in group)
            named = f"country {country}: pooled pixels {', '.join(members)}"
            if len({p.samples.size for p in group}) != 1:
                raise ValueError(f"{named} must share the posterior sample count")
            weights = np.array([p.population for p in group])
            if weights.sum() <= 0.0:
                raise ValueError(f"{named} must have positive total population")
            # an average of prevalences, kept from rounding a last bit above 1
            pooled = np.minimum(weights @ np.stack([p.samples for p in group]) / weights.sum(), 1.0)
            units.append(PooledUnit(members[0] if len(members) == 1 else "+".join(members),
                                    country, members, total, pooled,
                                    undersized=total < min_population))
    return units, excluded


class BankColumnError(ValueError):
    """A bank ``column`` breaks its rule, first at ``simulation``, as ``message`` says."""

    def __init__(self, column: str, simulation: int, message: str):
        super().__init__(message)
        self.column, self.simulation = column, simulation


@dataclass(frozen=True)
class SimulationBank:
    """Read-only columnar view of the J simulations shared by all pixels.

    Every column rule of the bank is checked here, for banks read from disk
    and built in code alike.  What every pixel derives from the bank alone,
    the estimator's prepared prevalences and the sorted trajectory columns,
    is built on first use and kept here.
    """

    populations: np.ndarray
    population_proposal_mass: np.ndarray
    equilibrium_prevalence: np.ndarray
    trajectories: dict[str, np.ndarray] = field(default_factory=dict)
    _trajectory_orders: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _prepared: dict[tuple, PreparedErnd] = field(  # the last setting asked for only
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        j = self.populations.size
        columns = {"population": self.populations, "proposal_mass": self.population_proposal_mass,
                   "equilibrium": self.equilibrium_prevalence,
                   **{f"traj_{name}": traj for name, traj in self.trajectories.items()}}
        for column, values in columns.items():
            wide = column.startswith("traj_")
            if values.shape[:1] != (j,) or values.ndim != 1 + wide:
                raise BankColumnError(column, 0, f"{column} has shape {values.shape}, expected "
                                                 f"{'(J, years+1)' if wide else '(J,)'}, J = {j}")
            valid, fault = _RULES.get(column, _RULES["prevalence"])
            if column == "population" and values.dtype.kind not in "iu":  # at its first fraction
                first = np.argmin(values == np.trunc(values)) if values.dtype.kind == "f" else 0
                valid, fault = lambda n: np.arange(j) < first, f"is {values.dtype}, not an integer"
            ok = valid(values)
            if not ok.all():
                where = np.unravel_index(int(np.argmin(ok)), ok.shape)
                raise BankColumnError(column, int(where[0]), f"{column} {values[where]} of "
                                                             f"simulation {where[0]} {fault}")

    @property
    def size(self) -> int:
        return self.populations.size

    def prepared_ernd(self, config: RunConfig) -> PreparedErnd:
        """The configured estimator's parts that depend on the equilibrium prevalences alone."""
        setting = (config.ernd_kind, config.delta, config.histogram_bins)
        if setting not in self._prepared:
            self._prepared.clear()
            self._prepared[setting] = prepare_ernd(self.equilibrium_prevalence, *setting)
        return self._prepared[setting]

    def trajectory_order(self, scenario: str) -> np.ndarray:
        """Stable argsort of each year's trajectory column of ``scenario``, one row per year."""
        if scenario not in self._trajectory_orders:
            columns = np.ascontiguousarray(self.trajectories[scenario].T)
            self._trajectory_orders[scenario] = np.stack([stable_order(c) for c in columns])
        return self._trajectory_orders[scenario]


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
        w2 = apply_ernd(unit.samples, bank.prepared_ernd(config), w1, config.unmatched)
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
    The estimator's bank-only parts are built here, once, and reach each
    worker with the bank.
    """
    bank.prepared_ernd(config)
    return ordered_map(_weight_one, (units, bank, config), len(units), workers, chunksize=8)


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


def _check_weights_index(weights: PixelWeights, bank: SimulationBank) -> None:
    """Refuse weights that were not made against ``bank``."""
    if weights.bank_size != bank.size:
        raise ValueError(
            f"unit {weights.unit_id}: weights are for a bank of {weights.bank_size} "
            f"simulations, this bank has {bank.size}"
        )
    idx = weights.indices
    if idx.size == 0 or idx[0] < 0 or idx[-1] >= bank.size or np.any(idx[1:] <= idx[:-1]):
        raise ValueError(
            f"unit {weights.unit_id}: weight indices must increase strictly "
            f"within [0, {bank.size})"
        )


def project(
    weights: PixelWeights,
    bank: SimulationBank,
    scenario: str,
    elimination_threshold: float = 0.01,
) -> ProjectionSummary:
    """Weighted yearly quantiles and elimination probabilities for one unit.

    Each quantile is the smallest value whose weighted cdf reaches the
    level, taken from a cumulative sum of the dense weights in the bank's
    stable order of each year's column. That is exact: the bank's stable
    order, filtered to the unit's ascending indices, is the stable order of
    the unit's values, and adding the zero weights of the other simulations
    changes no partial sum.
    """
    _check_weights_index(weights, bank)
    traj = bank.trajectories[scenario]
    order = bank.trajectory_order(scenario)
    dense = np.zeros(bank.size)
    dense[weights.indices] = weights.values
    eliminated = traj[weights.indices] < elimination_threshold
    n_years = traj.shape[1]
    quantiles = np.empty((len(QUANTILE_LEVELS), n_years))
    elim = np.empty(n_years)
    for year in range(n_years):
        cum = np.cumsum(dense[order[year]])
        cum /= cum[-1]
        idx = np.searchsorted(cum, QUANTILE_LEVELS, side="left")
        quantiles[:, year] = traj[order[year][np.minimum(idx, bank.size - 1)], year]
        elim[year] = min(1.0, max(0.0, float(np.dot(weights.values, eliminated[:, year]))))
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
    _check_weights_index(weights, bank)
    return float(np.dot(weights.values, bank.populations[weights.indices]))
