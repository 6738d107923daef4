"""Importance proposals over transmission-model parameters.

The population proposal is adapted as a tabulated distribution over host
population sizes so that every pixel population in a reference range ends up
with a comparable effective sample size; the required range is covered by
the proposal support plus a linearly decaying tail above it.

Bank sampling combines the adapted population proposal with tabulated joint
draws of the vector-to-host ratio and the exposure aggregation parameter,
and a uniform importation rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "ParameterVector",
    "TabulatedProposal",
    "VhkGrid",
    "adapt_population_proposal",
    "default_vh_k_grid",
    "load_vh_k_grid",
    "population_prior_density",
    "sample_bank",
]

IMPORTATION_RATE_MAX = 0.0005  # per host per month, upper end of the uniform prior


@dataclass(frozen=True)
class ParameterVector:
    """One draw of the spatially varying transmission-model parameters."""

    population: int
    vector_host_ratio: float
    aggregation_k: float
    importation_rate: float

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if not (
            np.isfinite(self.vector_host_ratio)
            and np.isfinite(self.aggregation_k)
            and np.isfinite(self.importation_rate)
        ):
            raise ValueError("parameters must be finite")
        if self.vector_host_ratio <= 0 or self.aggregation_k <= 0 or self.importation_rate < 0:
            raise ValueError("rates must be positive (importation may be zero)")


def population_prior_density(n, reported_population: float, log_sd: float) -> np.ndarray:
    """Log-normal density of a population size n around the reported value."""
    n = np.asarray(n, dtype=float)
    if np.any(n < 1):
        raise ValueError("population sizes must be at least 1")
    if reported_population < 1:
        raise ValueError("reported population must be at least 1")
    if not log_sd > 0:
        raise ValueError("log-scale standard deviation must be positive")
    z = (np.log(n) - np.log(reported_population)) / log_sd
    return np.exp(-0.5 * z * z) / (n * log_sd * np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class TabulatedProposal:
    """Discrete proposal given by probability mass on an increasing support."""

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support)
        mass = np.asarray(self.mass, dtype=float)
        if support.ndim != 1 or support.shape != mass.shape or support.size == 0:
            raise ValueError("support and mass must be matching non-empty 1-d arrays")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must increase strictly")
        if np.any(mass < 0.0) or abs(mass.sum() - 1.0) > 1e-9:
            raise ValueError("mass must be non-negative and sum to 1")
        if abs(mass.sum() - 1.0) > 1e-12:
            mass = mass / mass.sum()
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)

    def density(self, n) -> np.ndarray:
        """Probability mass at n; zero off the support."""
        n = np.asarray(n)
        idx = np.searchsorted(self.support, n)
        idx_clipped = np.minimum(idx, self.support.size - 1)
        hit = self.support[idx_clipped] == n
        out = np.where(hit, self.mass[idx_clipped], 0.0)
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self.support, size=size, p=self.mass)


# ---------------------------------------------------------------------------
# Adaptive population proposal
# ---------------------------------------------------------------------------

_REFERENCE_CHUNK = 256  # reference pixels per block, bounding the (refs, support) temporaries
# Only the proposal changes between adaptation iterations, so the chunks'
# kernels are built once and kept, up to about the bytes of the temporaries
# of one chunk; later chunks (at the full range, only at reference strides
# below 25) are rebuilt in every iteration.
_KERNEL_CACHE_BYTES = 64 * 2**20


def _reference_kernel(
    inv_support: np.ndarray, log_support: np.ndarray, log_refs: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(p, p * p, p.sum(0))`` for one chunk of reference pixels.

    Row i of ``p`` is reference pixel i's log-normal population prior,
    tabulated on the support and normalised.
    """
    z = log_support[None, :] - log_refs[:, None]
    z /= sigma
    p = z * -0.5
    p *= z
    del z  # one (refs, support) temporary at a time besides p
    np.exp(p, out=p)
    p *= inv_support
    p /= p.sum(axis=1, keepdims=True)
    return p, p * p, p.sum(axis=0)


def _pixel_ess_profile(kernels: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
                       q: np.ndarray) -> np.ndarray:
    """Prior-weighted profile over n of the reference pixels' ESS under q.

    A pixel with reported population N receives, per simulation, the
    large-bank effective sample size 1 / sum_m pi_N(m)^2 / q(m) where pi_N is
    its normalised log-normal population prior tabulated on the support (the
    rows of each kernel's ``p``).  The profile attributes those pixel ESS
    values to each support point n by averaging them with weights pi_N(n),
    i.e. by how much a size-n simulation matters to each pixel.
    """
    inv_q = 1.0 / q
    ess_max = 0.0
    numer = np.zeros(q.size)
    denom = np.zeros(q.size)
    for p, p_squared, column_sums in kernels:
        ess_chunk = 1.0 / (p_squared @ inv_q)
        ess_max = max(ess_max, ess_chunk.max())
        numer += ess_chunk @ p
        denom += column_sums
    profile = np.full(q.size, ess_max)
    reached = denom > 0.0
    profile[reached] = numer[reached] / denom[reached]
    return profile


def adapt_population_proposal(
    log_sd: float,
    population_range: tuple[int, int] = (260, 10_000),
    iterations: int = 10,
    tail_to: int = 11_550,
    reference_stride: int = 1,
) -> TabulatedProposal:
    """Flatten pixel effective sample sizes by iterating q <- q / ESS.

    Starting from a flat proposal over the pixel population range, each
    iteration divides the proposal by the ESS profile it induces across the
    reference pixel populations and renormalises, so population sizes serving
    poorly-covered pixels gain mass.  Population sizes above the range, up to
    ``tail_to``, get mass decreasing linearly to zero, covering the upper
    tails of the log-normal priors with fewer simulations.

    ``reference_stride`` thins the reference pixel populations used to probe
    the ESS (the profile is still evaluated at every support point); 1 uses
    every population in the range.
    """
    lo, hi = population_range
    if not (1 <= lo < hi):
        raise ValueError("population range must satisfy 1 <= lo < hi")
    if tail_to <= hi:
        raise ValueError("tail must extend beyond the population range")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    support = np.arange(lo, hi + 1, dtype=np.int64)
    log_support = np.log(support.astype(float))
    refs = support[::reference_stride]
    log_refs = np.log(refs.astype(float))

    inv_support = 1.0 / support
    chunks = [log_refs[i:i + _REFERENCE_CHUNK] for i in range(0, refs.size, _REFERENCE_CHUNK)]
    kernel_bytes = np.cumsum([16 * chunk.size * support.size for chunk in chunks])  # p, p * p
    kept = int(np.searchsorted(kernel_bytes, _KERNEL_CACHE_BYTES, side="right")) if iterations else 0
    cached = [_reference_kernel(inv_support, log_support, chunk, log_sd) for chunk in chunks[:kept]]

    def kernels():
        yield from cached
        for chunk in chunks[kept:]:
            yield _reference_kernel(inv_support, log_support, chunk, log_sd)

    q = np.full(support.size, 1.0 / support.size)
    for _ in range(iterations):
        if np.any(q <= 0.0):
            raise ValueError("proposal developed a support hole (zero mass inside the range)")
        profile = _pixel_ess_profile(kernels(), q)
        q = q / profile
        q /= q.sum()

    tail = np.arange(hi + 1, tail_to + 1, dtype=np.int64)
    tail_mass = q[-1] * (tail_to - tail).astype(float) / float(tail_to - hi)
    full_support = np.concatenate((support, tail))
    full_mass = np.concatenate((q, tail_mass))
    return TabulatedProposal(support=full_support, mass=full_mass / full_mass.sum())


# ---------------------------------------------------------------------------
# Joint prior grid for vector-to-host ratio and aggregation parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VhkGrid:
    """Tabulated joint prior over (vector-to-host ratio, aggregation k)."""

    vector_host_ratio: np.ndarray
    aggregation_k: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        vh = np.asarray(self.vector_host_ratio, dtype=float)
        k = np.asarray(self.aggregation_k, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        if not (vh.shape == k.shape == mass.shape) or vh.ndim != 1 or vh.size == 0:
            raise ValueError("grid columns must be matching non-empty 1-d arrays")
        if np.any(mass < 0.0) or mass.sum() <= 0.0:
            raise ValueError("grid mass must be non-negative with positive total")
        if abs(mass.sum() - 1.0) > 1e-12:
            mass = mass / mass.sum()
        object.__setattr__(self, "vector_host_ratio", vh)
        object.__setattr__(self, "aggregation_k", k)
        object.__setattr__(self, "mass", mass)

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.choice(self.mass.size, size=size, p=self.mass)
        return self.vector_host_ratio[idx], self.aggregation_k[idx]


def default_vh_k_grid() -> VhkGrid:
    """Default joint grid: 24 x 24 log-spaced axes with positively correlated mass.

    The ranges (vector-to-host ratio 1 to 150, aggregation 0.01 to 3) span
    from settings that cannot sustain transmission to hyperendemic ones, and
    the positive log-scale correlation ties intense transmission to more
    evenly spread exposure.  Applications with their own evidence should load
    a custom grid instead.
    """
    vh_axis = np.geomspace(1.0, 150.0, 24)
    k_axis = np.geomspace(0.01, 3.0, 24)
    vh, k = np.meshgrid(vh_axis, k_axis, indexing="ij")
    x = (np.log(vh) - np.log(12.0)) / 1.3
    y = (np.log(k) - np.log(0.25)) / 1.2
    rho = 0.6
    quad = (x * x - 2.0 * rho * x * y + y * y) / (1.0 - rho * rho)
    mass = np.exp(-0.5 * quad)
    return VhkGrid(
        vector_host_ratio=vh.ravel(), aggregation_k=k.ravel(), mass=mass.ravel()
    )


def load_vh_k_grid(path: str | Path) -> VhkGrid:
    """Load a joint (V/H, k) grid from CSV; lines that start with ``#`` are comments.

    A missing column, a value that is not a number and a grid that
    :class:`VhkGrid` refuses all raise one ``ValueError`` naming the path.
    """
    columns = ("vector_host_ratio", "aggregation_k", "mass")
    with open(path, newline="") as fh:
        reader = csv.DictReader(filter(lambda ln: not ln.startswith("#"), fh), restval="")
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"no {missing[0]!r} column")
            values = [[float(row[c]) for c in columns] for row in reader]
            return VhkGrid(*np.array(values, dtype=float).reshape(-1, 3).T.copy())
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# Bank sampling
# ---------------------------------------------------------------------------

def sample_bank(
    population_proposal: TabulatedProposal,
    vh_k_prior: VhkGrid,
    j: int,
    seed: int,
    importation_max: float = IMPORTATION_RATE_MAX,
) -> list[ParameterVector]:
    """Draw J parameter vectors, component-wise independent, reproducibly.

    Draw order is fixed (population, then the joint V/H and k index, then the
    importation rate) so a seed pins the bank exactly.
    """
    if j < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    populations = population_proposal.sample(rng, j)
    vh, k = vh_k_prior.sample(rng, j)
    importation = rng.uniform(0.0, importation_max, size=j)
    return [
        ParameterVector(
            population=int(populations[i]),
            vector_host_ratio=float(vh[i]),
            aggregation_k=float(k[i]),
            importation_rate=float(importation[i]),
        )
        for i in range(j)
    ]
