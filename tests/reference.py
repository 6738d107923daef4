"""Reference implementations that the tests compare the package against."""

import csv
import json
from pathlib import Path

import numpy as np

from maplink.pipeline import SimulationBank


def weighted_quantile(values, weights, levels) -> np.ndarray:
    """Lower weighted quantiles: smallest value whose cdf reaches the level."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    idx = np.searchsorted(cum, np.asarray(levels, dtype=float), side="left")
    return values[order][np.minimum(idx, values.size - 1)]


def reference_load_bank(directory) -> SimulationBank:
    """A bank directory read shard by shard: ``np.load`` of each array, a csv parse
    of each params table, then one concatenation per column; nothing is checked."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    populations, masses, equilibrium, trajectories = [], [], [], {}
    for shard in sorted(manifest["shards"], key=lambda s: s["index"]):
        with open(directory / shard["files"]["params"], newline="") as fh:
            rows = list(csv.reader(fh))[2:]  # past the schema line and the header
        populations.append(np.array([int(row[1]) for row in rows], dtype=np.int64))
        masses.append(np.array([float(row[5]) for row in rows]))
        equilibrium.append(np.load(directory / shard["files"]["equilibrium"]))
        for key, name in shard["files"].items():
            if key.startswith("traj_"):
                trajectories.setdefault(key[5:], []).append(np.load(directory / name))
    return SimulationBank(
        populations=np.concatenate(populations),
        population_proposal_mass=np.concatenate(masses),
        equilibrium_prevalence=np.concatenate(equilibrium),
        trajectories={name: np.concatenate(parts) for name, parts in trajectories.items()},
    )
