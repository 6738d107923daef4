"""Analytically tractable validation harness for the reweighting machinery.

The model: a flat prior of density 2 on the triangle 0 < theta2 < theta1 < 1
whose "transmission model" simply reports theta1 as the equilibrium
prevalence, so the prior induces a Beta(2,1) prevalence distribution.  The
target pixel has a Beta(1,2) prevalence posterior.  Both the reweighted
prevalence distribution and the reweighted theta2 marginal have closed
forms, giving exact oracles for the empirical Radon-Nikodym estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .reweight import (
    CdfSupport,
    DegenerateWeightsError,
    StepCdf,
    apply_ernd,
    cdf_support,
    integrated_squared_distance,
    ks_distance,
    prepare_ernd,
    select_delta,
)

__all__ = [
    "TOY_CELLS",
    "ToyDraws",
    "ToyExperimentReport",
    "analytic_theta2_posterior_cdf",
    "analytic_theta2_posterior_pdf",
    "run_toy_experiment",
    "sample_toy_prior",
    "sample_toy_uniform_proposal",
    "summarize_reports",
    "toy_stage1_weights",
    "toy_target_sampler",
]


@dataclass(frozen=True)
class ToyDraws:
    """Parameter draws from the triangular support 0 < theta2 < theta1 < 1."""

    theta1: np.ndarray
    theta2: np.ndarray
    proposal_kind: Literal["prior", "uniform"]

    def __post_init__(self):
        t1 = np.asarray(self.theta1, dtype=float)
        t2 = np.asarray(self.theta2, dtype=float)
        if t1.shape != t2.shape or t1.ndim != 1:
            raise ValueError("theta1 and theta2 must be matching 1-d arrays")
        if np.any(t2 >= t1) or np.any(t2 <= 0.0) or np.any(t1 >= 1.0):
            raise ValueError("draws must satisfy 0 < theta2 < theta1 < 1")
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)

    @property
    def prevalence(self) -> np.ndarray:
        """The toy model maps parameters to prevalence via the identity on theta1."""
        return self.theta1

    def __len__(self) -> int:
        return self.theta1.size


def sample_toy_prior(j: int, seed) -> ToyDraws:
    """Draw theta1 ~ Beta(2,1) and theta2 | theta1 uniform on (0, theta1)."""
    rng = np.random.default_rng(seed)
    theta1 = rng.beta(2.0, 1.0, size=j)
    theta2 = theta1 * rng.uniform(size=j)
    return ToyDraws(theta1=theta1, theta2=theta2, proposal_kind="prior")


def sample_toy_uniform_proposal(j: int, seed) -> ToyDraws:
    """Draw theta1 ~ U(0,1) and theta2 | theta1 uniform, flattening the prevalences."""
    rng = np.random.default_rng(seed)
    theta1 = rng.uniform(size=j)
    theta2 = theta1 * rng.uniform(size=j)
    return ToyDraws(theta1=theta1, theta2=theta2, proposal_kind="uniform")


def toy_target_sampler(m: int, seed) -> np.ndarray:
    """Pixel posterior samples: Beta(1,2), density 2(1-p)."""
    return np.random.default_rng(seed).beta(1.0, 2.0, size=m)


def toy_stage1_weights(draws: ToyDraws) -> np.ndarray:
    """Importance ratio of the triangular prior against the sampling proposal.

    Sampling from the prior gives a ratio of one; the uniform-theta1 proposal
    has density 1/theta1 on the triangle against a prior density of 2, so the
    ratio is 2*theta1.
    """
    if draws.proposal_kind == "prior":
        return np.ones(len(draws))
    return 2.0 * draws.theta1


def analytic_theta2_posterior_pdf(x) -> np.ndarray:
    """Density of theta2 after changing the prevalence measure to Beta(1,2)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = 2.0 * (xi - np.log(xi) - 1.0)
    return out


def analytic_theta2_posterior_cdf(x) -> np.ndarray:
    """Closed-form integral of the theta2 posterior density: x^2 - 2 x log x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    out[x >= 1.0] = 1.0
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = xi * xi - 2.0 * xi * np.log(xi)
    return out


@dataclass(frozen=True)
class ToyExperimentReport:
    """Accuracy and efficiency of one replicate of the toy reweighting."""

    ks: float
    isd: float
    ess: float
    delta: float | None
    replicate_seed: int
    ernd_kind: str
    proposal_kind: str


#: The paper's six (proposal, estimator) cells, in the order of its table.
TOY_CELLS = tuple((proposal, ernd) for proposal in ("prior", "uniform")
                  for ernd in ("distance", "histogram", "discrepancy"))


def _cell_report(
    pixel: np.ndarray,
    map_cdf: StepCdf,
    draws: ToyDraws,
    w1: np.ndarray,
    bank: CdfSupport,
    ernd_kind: str,
    delta_policy: float | None,
    seed_id: int,
) -> ToyExperimentReport:
    delta: float | None = None
    if ernd_kind == "distance":
        delta = float(delta_policy) if delta_policy is not None else select_delta(draws.prevalence)
    w2 = apply_ernd(pixel, prepare_ernd(bank, ernd_kind, delta), w1)
    sim_cdf = StepCdf.from_samples(bank, weights=w2.weights)
    return ToyExperimentReport(
        ks=ks_distance(map_cdf, sim_cdf),
        isd=integrated_squared_distance(map_cdf, sim_cdf),
        ess=w2.ess,
        delta=delta,
        replicate_seed=seed_id,
        ernd_kind=ernd_kind,
        proposal_kind=draws.proposal_kind,
    )


def run_toy_experiment(
    m: int = 2000,
    j: int = 2000,
    replicates: int = 100,
    delta_policy: float | None = None,
    seed: int = 0,
) -> list[ToyExperimentReport]:
    """Repeat the toy reweighting with fresh data each time, for each (proposal, estimator) cell.

    The reports come grouped by cell, in the order of ``TOY_CELLS``, and each
    cell's replicates in order.  ``delta_policy=None`` re-selects the window
    width per replicate from the simulated prevalences (the automatic rule);
    a float fixes it.  Replicates get independent child seeds from ``seed``,
    so they can be reproduced or distributed in any order.  Replicate i of
    every cell draws the same pixel, and of every cell of one proposal the same
    bank, drawn from the generator as it stood after the pixel, so each is
    drawn and checked once.  Per proposal the pixel and the bank are sorted
    together into one :func:`cdf_support`: every cdf sits on its points, so the
    distances need no merge, and its bank part prepares each estimator.  The
    reports are the same bits as with a sort per array, as a cdf's zero mass at
    the other samples' points changes no partial sum.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if m < 1:
        raise ValueError(f"need at least one posterior sample per replicate, got m={m}")
    if j < 3:  # the automatic window rule needs three simulated prevalences
        raise ValueError(f"need at least 3 simulations per replicate, got j={j}")
    reports: dict[tuple[str, str], list[ToyExperimentReport]] = {cell: [] for cell in TOY_CELLS}
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(replicates)):
        rng = np.random.default_rng(child)
        pixel = toy_target_sampler(m, rng)
        after_pixel = rng.bit_generator.state
        for proposal_kind in ("prior", "uniform"):
            rng.bit_generator.state = after_pixel  # each proposal draws as if it came first
            if proposal_kind == "prior":
                draws = sample_toy_prior(j, rng)
            else:
                draws = sample_toy_uniform_proposal(j, rng)
            w1 = toy_stage1_weights(draws)
            own, bank = cdf_support(np.concatenate((pixel, draws.prevalence))).split(m)
            map_cdf = StepCdf.from_samples(own)
            for ernd_kind in ("distance", "histogram", "discrepancy"):
                try:
                    reports[proposal_kind, ernd_kind].append(_cell_report(
                        pixel, map_cdf, draws, w1, bank, ernd_kind, delta_policy, i))
                except DegenerateWeightsError as err:  # named by cell, as a unit by weight_pixel
                    cell = f"{proposal_kind} proposal, {ernd_kind} estimator, replicate {i}"
                    raise DegenerateWeightsError(f"{cell} of seed {seed}: {err}") from err
    return [report for cell in TOY_CELLS for report in reports[cell]]


def summarize_reports(reports: Sequence[ToyExperimentReport]) -> dict:
    """Median and 2.5/97.5 percentile bands of ISD (x1000) and ESS, plus means."""

    def band(x):
        return {
            "median": float(np.median(x)),
            "lo": float(np.percentile(x, 2.5)),
            "hi": float(np.percentile(x, 97.5)),
            "mean": float(np.mean(x)),
        }

    return {
        "proposal": reports[0].proposal_kind,
        "ernd": reports[0].ernd_kind,
        "isd_x1000": band(np.array([r.isd for r in reports]) * 1000.0),
        "ess": band(np.array([r.ess for r in reports])),
    }
