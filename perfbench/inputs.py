"""Seeded inputs of the benchmark workloads.

Every input is a function of the workload seed and reaches the program only
as a file or a command-line argument. The files are written through
maplink's own writers. Run this file as a script to build one workload's
inputs in a fresh process; the benchmark times set-up that way, so the
interpreter start and the import of maplink are part of it:

    python3 perfbench/inputs.py --workload map --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import maplink.cli  # noqa: F401  (imported here so that set-up times it)
from maplink import io as mio
from maplink.pipeline import PixelPosterior
from maplink.proposal import adapt_population_proposal, default_vh_k_grid, sample_bank

# bank: several small `simulate` runs of the default configuration
BANK_J = 4
BANK_CONFIGS = 12
BANK_MIX_TOLERANCE = 0.02
BANK_INTENSITY_TOLERANCE = 0.05

# map: one synthetic bank shared by chunks of pixels
MAP_J = 30_000
MAP_M = 2000
MAP_CHUNKS = 16
MAP_PIXELS_PER_CHUNK = 13
MAP_COUNTRIES = ("AA", "BB", "CC")
MAP_POPULATION_RANGE = (150.0, 12_000.0)
MAP_EXTINCT_SHARE = 0.2
# largest yearly log-decline of prevalence a simulation may draw, per scenario
MAP_DECLINE = {"none": 0.05, "aMDA65": 0.5, "aMDA80": 0.8, "bMDA65": 1.0}

# toy: the paper's replication table
TOY_M = 2000
TOY_J = 2000
TOY_REPLICATES = 100


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def default_proposal(config):
    """The adapted population proposal exactly as `maplink simulate` builds it."""
    return adapt_population_proposal(
        config.population_log_sd,
        population_range=config.population_range,
        iterations=config.proposal_iterations,
        tail_to=config.population_tail_to,
        reference_stride=config.proposal_reference_stride,
    )


def bank_config_seeds(seed: int) -> list[int]:
    """Config seeds whose J sampled communities do the proposal's mean amount of work.

    `simulate` draws its communities from the config seed. One simulation
    costs a fixed amount, plus an amount per host that grows with the
    community's transmission intensity (more worms to update). A candidate
    seed is kept only when the mean host count and the mean of hosts x
    log(vector-to-host ratio) of its J draws are within BANK_MIX_TOLERANCE
    and BANK_INTENSITY_TOLERANCE of their means under the default proposal
    and grid. Every command of the workload then does about the same work,
    while the seed still varies the communities and every random stream.
    """
    proposal = default_proposal(mio.RunConfig())
    grid = default_vh_k_grid()
    mean_hosts = float(proposal.support @ proposal.mass)
    mean_intensity = mean_hosts * float(grid.mass @ np.log(grid.vector_host_ratio))
    candidates = _rng(seed, 0)
    kept: list[int] = []
    while len(kept) < BANK_CONFIGS:
        candidate = int(candidates.integers(0, 2**31))
        thetas = sample_bank(proposal, grid, BANK_J, candidate)
        hosts = np.array([t.population for t in thetas])
        intensity = hosts * np.log([t.vector_host_ratio for t in thetas])
        if (abs(hosts.mean() / mean_hosts - 1.0) <= BANK_MIX_TOLERANCE
                and abs(intensity.mean() / mean_intensity - 1.0) <= BANK_INTENSITY_TOLERANCE):
            kept.append(candidate)
    return kept


def build_bank(seed: int, out: Path) -> None:
    for i, config_seed in enumerate(bank_config_seeds(seed)):
        config = mio.RunConfig(seed=config_seed, j_simulations=BANK_J)
        (out / f"config_{i}.json").write_text(json.dumps(config.to_jsonable(), indent=2) + "\n")


def map_prevalences(seed: int):
    """Equilibrium prevalences and per-scenario trajectories of the synthetic bank.

    Extinct runs sit at exactly 0 and the rest cover (0, 1]. Each trajectory
    starts at the equilibrium prevalence and declines at a rate drawn per
    simulation, so some runs cross the elimination threshold.
    """
    config = mio.RunConfig()
    rng = _rng(seed, 1)
    extinct = rng.random(MAP_J) < MAP_EXTINCT_SHARE
    equilibrium = np.where(extinct, 0.0, 1.0 - rng.random(MAP_J))
    years = np.arange(config.years + 1)
    trajectories = {}
    for scenario in config.scenario_objects():
        rate = rng.uniform(0.0, MAP_DECLINE[scenario.name], size=MAP_J)
        trajectories[scenario.name] = equilibrium[:, None] * np.exp(-rate[:, None] * years)
    return equilibrium, trajectories


def map_pixels(seed: int) -> list[list]:
    """Chunks of pixel posteriors; one chunk feeds one `weight` + `project` pass.

    Populations are log-uniform over MAP_POPULATION_RANGE, stratified within
    each chunk so that every chunk has the same share of pixels that
    `pool_and_filter` pools (below 300) and excludes (above 10,000).
    """
    rng = _rng(seed, 2)
    lo, hi = np.log(MAP_POPULATION_RANGE)
    chunks = []
    for c in range(MAP_CHUNKS):
        n = MAP_PIXELS_PER_CHUNK
        strata = (rng.permutation(n) + rng.random(n)) / n
        populations = np.round(np.exp(lo + strata * (hi - lo)))
        shapes = rng.uniform(1.2, 6.0, size=(n, 2))
        chunks.append([
            PixelPosterior(
                pixel_id=f"c{c}p{i:03d}",
                country=MAP_COUNTRIES[i % len(MAP_COUNTRIES)],
                population=float(populations[i]),
                samples=rng.beta(shapes[i, 0], shapes[i, 1], size=MAP_M),
            )
            for i in range(n)
        ])
    return chunks


def build_map(seed: int, out: Path) -> None:
    config = mio.RunConfig()
    (out / "config.json").write_text(json.dumps(config.to_jsonable(), indent=2) + "\n")
    proposal = default_proposal(config)
    thetas = sample_bank(proposal, default_vh_k_grid(), MAP_J, seed)
    populations = [t.population for t in thetas]
    proposal_mass = proposal.density(populations)
    equilibrium, trajectories = map_prevalences(seed)

    bank = out / "bank"
    shards = []
    for index, start in enumerate(range(0, MAP_J, config.simulate_shard_size)):
        stop = min(start + config.simulate_shard_size, MAP_J)
        shards.append(mio.write_bank_shard(
            bank, index, start, thetas[start:stop], proposal_mass[start:stop],
            equilibrium[start:stop], {k: v[start:stop] for k, v in trajectories.items()},
        ))
    mio.write_manifest(bank, {
        "schema": mio.SCHEMA_VERSIONS["bank"],
        "seed": seed,
        "j": MAP_J,
        "years": config.years,
        "scenarios": list(trajectories),
        "importation_decay": {name: None for name in trajectories},
        "config": config.to_jsonable(),
        "shards": shards,
    })
    for c, pixels in enumerate(map_pixels(seed)):
        mio.save_pixel_posteriors(out / f"pixels_{c}.csv", pixels)


def build(workload: str, seed: int, out: Path) -> None:
    """Write the workload's input files into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "bank":
        build_bank(seed, out)
    elif workload == "map":
        build_map(seed, out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("bank", "map", "toy"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    build(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
