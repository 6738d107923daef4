"""Stochastic individual-based model of lymphatic filariasis transmission.

Humans carry male and female adult worm burdens, a microfilariae (mf) blood
concentration, an individual mosquito-bite risk and a treatment history.
Worm acquisition follows per-host Poisson processes whose rate scales with
the current infectious-larvae availability in the mosquito population; mf
follow a linear birth-death equation integrated exactly within each step;
the mosquito side is collapsed to its quasi-equilibrium L3 load.  Mass drug
administration kills a fraction of each treated host's mf, permanently
sterilises a fraction of their worms, and briefly suppresses mf production.
A small importation rate keeps the endemic equilibrium from collapsing to
the empty state.

The simulation advances in fixed steps of one month, matching the per-month
units of the rate parameters.  One simulation owns its state and its random
generator outright, so banks of simulations parallelise trivially.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .proposal import ParameterVector

__all__ = [
    "ModelParams",
    "PopulationState",
    "Scenario",
    "acquisition_rate",
    "apply_mda",
    "equilibrium_l3",
    "importation_decay_from_pilot",
    "initial_state",
    "mf_prevalence",
    "population_uptake",
    "run_scenario",
    "run_to_equilibrium",
    "step",
]

MAX_AGE_MONTHS = 1200.0  # hard demographic cut-off at 100 years


@dataclass(frozen=True)
class ModelParams:
    """Fixed-across-space model parameters (monthly rates).

    The four spatially varying inputs (population size, vector-to-host
    ratio, exposure aggregation, importation rate) travel separately in a
    :class:`~maplink.proposal.ParameterVector`.
    """

    bites_per_mosquito: float = 10.0        # lambda
    psi1: float = 0.414                     # L3 leaving mosquito per bite
    psi2: float = 0.32                      # L3 entering host
    s2: float = 0.00275                     # L3 developing into adult worms
    worm_death_rate: float = 0.0104         # mu
    mf_production_rate: float = 0.2         # alpha, per fertile female worm
    mf_death_rate: float = 0.1              # gamma
    uptake_fraction: float = 0.37           # mosquitoes infected per infective bite
    mosquito_death_rate: float = 5.0        # sigma
    mda_mf_kill: float = 0.95               # chi_1
    mda_worm_sterilise: float = 0.55        # kappa_1
    adherence_correlation: float = 0.35     # rho, systematic adherence
    human_death_rate: float = 1.0 / 600.0   # tau; mean lifetime 50 years
    exposure_ramp_months: float = 108.0     # h(a) saturates at age nine
    # larval uptake curve (shared saturation scale for both vector genera);
    # the slope is stated per mf per 20 uL, putting the half-rise of the
    # curve at the mf densities of moderately infected hosts
    uptake_r1: float = 2.75
    uptake_kappa_s1: float = 4.395
    uptake_r2: float = 2.75
    uptake_kappa_s2: float = 4.395
    species: Literal["anopheles", "culex"] = "anopheles"
    mf_detection_threshold: float = 1.0     # per 20 uL
    mf_suppression_months: float = 6.0      # post-treatment production pause
    burn_in_months: int = 1200
    seed_worms_per_sex: float = 4.0         # initial burden scale for the burn-in

    def __post_init__(self):
        for name in (
            "bites_per_mosquito",
            "worm_death_rate",
            "mf_death_rate",
            "mosquito_death_rate",
            "human_death_rate",
            "exposure_ramp_months",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.mf_production_rate < 0:  # zero is the pure-decay limit
            raise ValueError("mf_production_rate must be non-negative")
        for name in ("psi1", "psi2", "s2", "uptake_fraction", "mda_mf_kill",
                     "mda_worm_sterilise", "adherence_correlation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.species not in ("anopheles", "culex"):
            raise ValueError(f"unknown vector species {self.species!r}")

    def saturation_l3(self) -> float:
        """L3 load when every blood meal saturates the uptake curve.

        The per-month worm acquisition rate is calibrated to a fully
        infectious mosquito population; scaling it by L*/saturation_l3 keeps
        that calibration at saturation and shuts transmission down as
        infectious larvae vanish.
        """
        ks = self.uptake_kappa_s2 if self.species == "anopheles" else self.uptake_kappa_s1
        return equilibrium_l3(ks, self)


def _worm_pool(row: int, doc: str) -> property:
    def get(self) -> np.ndarray:
        return self.worms[row]

    def set(self, value) -> None:
        self.worms[row] = value

    return property(get, set, doc=doc)


@dataclass
class PopulationState:
    """Complete per-host state of one simulated community."""

    age: np.ndarray                 # months
    bite_risk: np.ndarray
    worms: np.ndarray               # (4, N) int64 worm counts, one row per pool
    mf: np.ndarray                  # per 20 uL
    suppressed_until: np.ndarray    # months; -inf when never treated
    treated_last: np.ndarray        # bool, last-round treatment decision
    mda_rounds: int = 0
    larvae_mean: float = 0.0        # quasi-equilibrium L3 per mosquito
    time: float = 0.0               # months

    # the rows of ``worms``, in the order the worm deaths are placed
    male_fertile = _worm_pool(0, "fertile male worms per host")
    male_sterile = _worm_pool(1, "sterilised male worms per host")
    female_fertile = _worm_pool(2, "fertile female worms per host")
    female_sterile = _worm_pool(3, "sterilised female worms per host")

    @property
    def size(self) -> int:
        return self.age.size

    def copy(self) -> "PopulationState":
        return copy.deepcopy(self)


def _stationary_ages(rng: np.random.Generator, n: int, tau: float) -> np.ndarray:
    # exponential(tau) truncated at the age cut-off, the stationary age
    # profile of the replacement process
    u = rng.uniform(size=n)
    return -np.log1p(-u * (1.0 - np.exp(-tau * MAX_AGE_MONTHS))) / tau


def initial_state(
    theta: ParameterVector,
    params: ModelParams,
    rng: np.random.Generator,
) -> PopulationState:
    """Community with stationary ages, gamma bite risks and seeded infection.

    Worm pairing makes the uninfected state locally stable, so the burn-in
    must start above the transmission breakpoint to find the endemic
    equilibrium where one exists; where none does, the seeded infection dies
    out during the burn-in.  Initial burdens are Poisson with mean
    proportional to each host's relative exposure (``params.seed_worms_per_sex``
    per host on average; zero starts the community uninfected), and mf start
    at their conditional equilibrium so larval uptake is immediate.
    """
    n = theta.population
    w0 = params.seed_worms_per_sex
    age = _stationary_ages(rng, n, params.human_death_rate)
    bite_risk = rng.gamma(theta.aggregation_k, 1.0 / theta.aggregation_k, size=n)
    exposure = bite_risk * exposure_by_age(age, params)
    worms = np.zeros((4, n), dtype=np.int64)
    mf = np.zeros(n)
    if w0 > 0.0 and exposure.mean() > 0.0:
        lam = w0 * exposure / exposure.mean()
        worms[0] = rng.poisson(lam)
        worms[2] = rng.poisson(lam)
        producing = (worms[0] > 0) & (worms[2] > 0)
        mf = np.where(
            producing, params.mf_production_rate * worms[2] / params.mf_death_rate, 0.0
        )
    return PopulationState(
        age=age,
        bite_risk=bite_risk,
        worms=worms,
        mf=mf,
        suppressed_until=np.full(n, -np.inf),
        treated_last=np.zeros(n, dtype=bool),
    )


def exposure_by_age(age_months, params: ModelParams) -> np.ndarray:
    """h(a): linear ramp from zero at birth, saturating at one."""
    return np.minimum(np.asarray(age_months, dtype=float) / params.exposure_ramp_months, 1.0)


def acquisition_rate(
    bite_risk,
    age_months,
    theta: ParameterVector,
    params: ModelParams,
    availability: float = 1.0,
) -> np.ndarray:
    """Per-sex adult worm acquisition rate, per month.

    0.5 * lambda * b_i * (V/H) * psi1 * psi2 * s2 * h(a), times the larval
    ``availability`` that :func:`step` passes; the scalar factors are folded
    into one before they meet the host arrays.
    """
    ramp = params.exposure_ramp_months
    factor = (
        0.5 * params.bites_per_mosquito * theta.vector_host_ratio
        * params.psi1 * params.psi2 * params.s2 * availability / ramp
    )
    rate = np.minimum(np.asarray(age_months, dtype=float), ramp)  # ramp * h(a)
    rate *= bite_risk
    rate *= factor
    return rate


def _uptake_curve(m, params: ModelParams):
    """Larvae developing in a mosquito after a blood meal at mf density m: scale * curve.

    Anopheles uptake is squared-saturating
    (facilitation: vanishing slope at low density); culex saturates linearly
    (limitation: maximal slope at low density).  Both are zero at zero and
    level off at their saturation value.  ``step`` keeps mf non-negative.
    """
    # 1 - exp(-x) = -expm1(-x)
    if params.species == "anopheles":
        ks = params.uptake_kappa_s2
        curve = np.expm1(m * (-params.uptake_r2 / ks))
        curve *= curve
        return ks, curve
    ks = params.uptake_kappa_s1
    return -ks, np.expm1(m * (-params.uptake_r1 / ks))


def population_uptake(state: PopulationState, params: ModelParams) -> float:
    """Bite-risk-weighted mean larval uptake over the community."""
    scale, curve = _uptake_curve(state.mf, params)
    return float(scale * np.dot(curve, state.bite_risk) / state.bite_risk.sum())


def equilibrium_l3(mean_uptake: float, params: ModelParams) -> float:
    """Quasi-equilibrium L3 per mosquito: lambda g L-tilde / (sigma + lambda psi1)."""
    return (
        params.bites_per_mosquito
        * params.uptake_fraction
        * mean_uptake
        / (params.mosquito_death_rate + params.bites_per_mosquito * params.psi1)
    )


def mf_prevalence(state: PopulationState, params: ModelParams) -> float:
    """Fraction of hosts with detectable mf."""
    return float(np.mean(state.mf >= params.mf_detection_threshold))


def step(
    state: PopulationState,
    theta: ParameterVector,
    params: ModelParams,
    rng: np.random.Generator,
) -> PopulationState:
    """Advance the community by one month (in place).

    Update order: larval availability from current mf; worm acquisitions and
    deaths; exact-exponential mf update from the new worm burden; ageing,
    death and replacement; importation at ``theta.importation_rate``.
    """
    n = state.size
    worms = state.worms
    flat = worms.reshape(-1)  # a view: events placed on it land in the pools

    # mosquito side at quasi-equilibrium
    state.larvae_mean = equilibrium_l3(population_uptake(state, params), params)
    availability = state.larvae_mean / params.saturation_l3()

    # adult worm dynamics, drawn as monthly totals and then placed (exact
    # event thinning).  Acquisitions: the superposition of the per-host
    # Poisson processes is Poisson with the summed rate, and each event lands
    # on a host with probability proportional to its rate; a uniform in
    # (0, total] maps to a host through the cumulative rates, never to one
    # with zero rate.
    cum_rate = acquisition_rate(state.bite_risk, state.age, theta, params, availability)
    cum_rate.cumsum(out=cum_rate)
    total_rate = cum_rate[-1]
    for row in (0, 2):  # fertile males, then fertile females
        k = rng.poisson(total_rate)
        if k:
            u = 1.0 - rng.random(k)
            u.sort()
            u *= total_rate
            np.add.at(worms[row], cum_rate.searchsorted(u), 1)
    # Deaths: every worm dies with the same probability, so given their total
    # D ~ Binomial(W, p) the dead are a uniform D-subset of the W worms, found
    # in the four pools through the cumulative burden.
    # (no dead worm lies in an empty last pool, and the sterile females are
    # empty until the first treatment)
    cum_burden = (flat if worms[3].any() else flat[:3 * n]).cumsum()
    n_dead_worms = rng.binomial(cum_burden[-1], -np.expm1(-params.worm_death_rate))
    if n_dead_worms:
        dead = rng.choice(cum_burden[-1], n_dead_worms, replace=False, shuffle=False)
        dead.sort()
        np.subtract.at(flat, cum_burden.searchsorted(dead, side="right"), 1)

    # mf: dM/dt = production - gamma M, solved exactly over the step with the
    # updated worm burden held fixed
    decay = np.exp(-params.mf_death_rate)
    gain = params.mf_production_rate / params.mf_death_rate * (1.0 - decay)
    # (fertile females produce while a fertile male is present and no
    # treatment suppresses them)
    production = worms[2] * gain
    production *= worms[0] > 0
    production *= state.suppressed_until <= state.time
    state.mf *= decay
    state.mf += production

    # demography: constant hazard plus the hard age cut-off, replacement keeps
    # the population size constant; hazard deaths are drawn as a total and a
    # uniform subset of hosts, like the worm deaths
    state.age += 1.0
    n_hazard = rng.binomial(n, -np.expm1(-params.human_death_rate))
    died = (state.age >= MAX_AGE_MONTHS).nonzero()[0]
    if n_hazard:
        hazard = np.sort(rng.choice(n, n_hazard, replace=False, shuffle=False))
        died = np.unique(np.concatenate((died, hazard))) if died.size else hazard
    if died.size:
        state.age[died] = 0.0
        state.bite_risk[died] = rng.gamma(
            theta.aggregation_k, 1.0 / theta.aggregation_k, size=died.size
        )
        worms[:, died] = 0
        state.mf[died] = 0.0
        state.suppressed_until[died] = -np.inf
        state.treated_last[died] = False

    # importation: each event hands one adult worm of random sex to a random
    # host, as a fertile male (row 0) or a fertile female (row 2)
    n_events = rng.poisson(theta.importation_rate * n)
    if n_events:
        hosts = rng.integers(0, n, size=n_events)
        sexes = rng.integers(0, 2, size=n_events)
        np.add.at(flat, hosts + 2 * n * sexes, 1)

    state.time += 1.0
    return state


def apply_mda(
    state: PopulationState,
    coverage: float,
    params: ModelParams,
    rng: np.random.Generator,
) -> PopulationState:
    """One round of mass drug administration (in place).

    Treatment choices persist across rounds: with adherence correlation rho,
    a host repeats its previous decision with elevated probability while the
    marginal coverage stays exactly at the requested level.  Treated hosts
    lose a fraction of their mf, have a fraction of their worms permanently
    sterilised, and pause mf production for the configured window.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must lie in [0, 1]")
    chi = params.mda_mf_kill
    kappa = params.mda_worm_sterilise
    rho = params.adherence_correlation

    u = rng.uniform(size=state.size)
    if state.mda_rounds == 0:
        treated = u < coverage
    else:
        p_prev = coverage + rho * (1.0 - coverage)   # repeat treatment
        p_new = coverage * (1.0 - rho)               # switch into treatment
        treated = np.where(state.treated_last, u < p_prev, u < p_new)

    if np.any(treated):
        state.mf[treated] *= 1.0 - chi
        for fertile, sterile in ((state.male_fertile, state.male_sterile),
                                 (state.female_fertile, state.female_sterile)):
            moved = rng.binomial(fertile[treated], kappa)
            fertile[treated] -= moved
            sterile[treated] += moved
        state.suppressed_until[treated] = state.time + params.mf_suppression_months

    state.treated_last = treated
    state.mda_rounds += 1
    return state


def run_to_equilibrium(
    theta: ParameterVector,
    params: ModelParams,
    seed,
) -> tuple[float, PopulationState]:
    """Burn a fresh community in to its pre-control endemic equilibrium.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts, a
    ``Generator`` included.
    """
    rng = np.random.default_rng(seed)
    state = initial_state(theta, params, rng)
    for _ in range(params.burn_in_months):
        step(state, theta, params, rng)
    return mf_prevalence(state, params), state


@dataclass(frozen=True)
class Scenario:
    """An intervention programme: timed MDA rounds over a horizon of years.

    ``importation_decay`` holds one multiplier per simulated year applied to
    the importation rate (year 0 first); it typically comes from
    :func:`importation_decay_from_pilot`.  Drug efficacy is a model property
    (``ModelParams.mda_mf_kill``, ``ModelParams.mda_worm_sterilise``).
    """

    name: str
    years: int
    rounds: tuple[tuple[int, float], ...] = ()
    importation_decay: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.years < 1:
            raise ValueError("horizon must be at least one year")
        months = [m for m, _ in self.rounds]
        if months != sorted(months):
            raise ValueError("round times must increase")
        if any(not 0 <= m < 12 * self.years for m in months):
            raise ValueError(
                f"scenario {self.name!r}: round months must lie in [0, {12 * self.years})"
            )
        if any(not 0.0 <= c <= 1.0 for _, c in self.rounds):
            raise ValueError("coverage must lie in [0, 1]")
        if self.importation_decay is not None and len(self.importation_decay) < self.years:
            raise ValueError("need one importation multiplier per year")

    @classmethod
    def annual(cls, coverage: float, years: int = 5, name: str | None = None) -> "Scenario":
        """One round at the start of every year; named like ``aMDA65`` by default."""
        rounds = tuple((12 * i, coverage) for i in range(years))
        return cls(name=name or f"aMDA{round(coverage * 100)}", years=years, rounds=rounds)

    @classmethod
    def biannual(cls, coverage: float, years: int = 5, name: str | None = None) -> "Scenario":
        """One round every six months; named like ``bMDA65`` by default."""
        rounds = tuple((6 * i, coverage) for i in range(2 * years))
        return cls(name=name or f"bMDA{round(coverage * 100)}", years=years, rounds=rounds)

    def with_decay(self, decay: Sequence[float]) -> "Scenario":
        return replace(self, importation_decay=tuple(float(x) for x in decay))


def run_scenario(
    eq_state: PopulationState,
    scenario: Scenario,
    theta: ParameterVector,
    params: ModelParams,
    seed,
) -> np.ndarray:
    """Simulate an intervention from equilibrium; yearly mf prevalences.

    Returns ``years + 1`` values; index 0 is the pre-intervention baseline.
    The input state is not modified.  ``seed`` is anything
    :func:`numpy.random.default_rng` accepts.
    """
    rng = np.random.default_rng(seed)
    state = eq_state.copy()
    rounds = dict(scenario.rounds)
    trajectory = np.empty(scenario.years + 1)
    trajectory[0] = mf_prevalence(state, params)
    for year in range(scenario.years):
        decay = 1.0 if scenario.importation_decay is None else scenario.importation_decay[year]
        theta_year = replace(theta, importation_rate=theta.importation_rate * decay)
        for month in range(12 * year, 12 * year + 12):
            if month in rounds:
                apply_mda(state, rounds[month], params, rng)
            step(state, theta_year, params, rng)
        trajectory[year + 1] = mf_prevalence(state, params)
    return trajectory


def importation_decay_from_pilot(pilot_trajectories: np.ndarray) -> np.ndarray:
    """Yearly importation multipliers from constant-importation pilot runs.

    The multiplier for a year is the mean pilot prevalence that year divided
    by the mean pilot baseline prevalence, capped at one: importation falls
    in proportion to the prevalence reduction the intervention achieved.
    """
    traj = np.asarray(pilot_trajectories, dtype=float)
    if traj.ndim != 2 or traj.shape[1] < 2:
        raise ValueError("need an (n_simulations, years+1) trajectory array")
    means = traj.mean(axis=0)
    if means[0] <= 0.0:
        return np.ones(traj.shape[1])
    return np.minimum(means / means[0], 1.0)
