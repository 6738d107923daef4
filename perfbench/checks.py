"""Output checks of the benchmark workloads.

Each checker reads what the program wrote and returns how many of the
command's operations failed: simulations for `bank`, units and unit x
scenario summaries for `map`, toy replicates for `toy`. A command that
exited non-zero, or whose run directory `maplink inspect` does not verify,
fails all of its operations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import maplink.cli

QUANTILE_LEVELS = (0.025, 0.5, 0.975)
QUANTILE_ERR_BOUND = 0.02  # acceptance criterion 8
WEIGHT_SUM_TOL = 1e-9

# The paper's published bands for the toy table, as acceptance criterion 1
# states them: (proposal, estimator) -> ((ISD x 1000 band), (ESS band)).
TOY_BANDS = {
    ("prior", "distance"): ((0.01742, 1.03220), (222, 473)),
    ("prior", "histogram"): ((0.02757, 1.56949), (252, 453)),
    ("prior", "discrepancy"): ((0.00335, 0.09844), (96, 255)),
    ("uniform", "distance"): ((0.00157, 0.01799), (1161, 1330)),
    ("uniform", "histogram"): ((0.00175, 0.00292), (1253, 1429)),
    ("uniform", "discrepancy"): ((0.00021, 0.00029), (713, 805)),
}


def invoke(argv: list[str]) -> tuple[int, float]:
    """Run one maplink command in this process; returns (exit code, seconds).

    The command's own messages are discarded. An exception counts as a
    failed command and its traceback goes to stderr.
    """
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = maplink.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the workload goes on; every operation of this command fails
            code = 1
            print(traceback.format_exc(), file=sys.__stderr__)
    return code, perf_counter() - start


def verified(directory: Path) -> bool:
    return invoke(["inspect", str(directory)])[0] == 0


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        fh.readline()  # schema comment
        return list(csv.DictReader(fh))


def _shard_arrays(directory: Path, manifest: dict, key: str) -> np.ndarray:
    shards = sorted(manifest["shards"], key=lambda s: s["index"])
    return np.concatenate([np.load(directory / s["files"][key]) for s in shards])


def check_bank(directory: Path, code: int, j: int) -> int:
    """Failed simulations of one `simulate` run of ``j`` simulations."""
    if code != 0 or not verified(directory):
        return j
    manifest = json.loads((directory / "manifest.json").read_text())
    equilibrium = _shard_arrays(directory, manifest, "equilibrium")
    trajectories = {
        name: _shard_arrays(directory, manifest, f"traj_{name}") for name in manifest["scenarios"]
    }
    if equilibrium.shape != (j,) or any(t.shape[0] != j for t in trajectories.values()):
        return j
    final_none = trajectories["none"][:, -1].mean()
    if any(t[:, -1].mean() > final_none for t in trajectories.values()):
        return j  # a bank-wide property: every simulation of the run is suspect
    bad = ~((equilibrium >= 0.0) & (equilibrium <= 1.0))
    for traj in trajectories.values():
        bad |= traj[:, 0] != equilibrium
    return int(bad.sum())


def weighted_quantiles(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lower weighted quantiles: the smallest value whose cdf reaches each level."""
    order = np.argsort(values, kind="stable")
    cdf = np.cumsum(weights[order])
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, QUANTILE_LEVELS, side="left")
    return values[order][np.minimum(idx, values.size - 1)]


@dataclass
class MapCheck:
    units: int
    units_failed: int
    summaries: int
    summaries_failed: int
    quantile_err_max: float


def check_map(
    weights_dir: Path,
    summaries_dir: Path,
    codes: tuple[int, int],
    pixels: dict[str, tuple[float, np.ndarray]],
    equilibrium: np.ndarray,
    scenarios: list[str],
    years: int,
) -> MapCheck:
    """Failed units of one `weight` run and failed summaries of the `project` after it.

    ``pixels`` maps each pixel id to its population and posterior samples as
    generated, and ``equilibrium`` is the bank's equilibrium prevalence.
    """
    weight_code, project_code = codes
    if weight_code != 0 or not verified(weights_dir):
        n = len(pixels)  # no unit list to go by: count one unit per pixel
        return MapCheck(n, n, n * len(scenarios), n * len(scenarios), float("inf"))
    units = _read_csv(weights_dir / "units.csv")
    indices = np.load(weights_dir / "indices.npy")
    values = np.load(weights_dir / "values.npy")
    offsets = np.load(weights_dir / "offsets.npy")
    units_failed, err_max = 0, 0.0
    for i, unit in enumerate(units):
        idx = indices[offsets[i]:offsets[i + 1]]
        w = values[offsets[i]:offsets[i + 1]]
        ok = (
            w.size > 0
            and bool(np.all(np.isfinite(w)) and np.all(w >= 0.0))
            and abs(float(w.sum()) - 1.0) <= WEIGHT_SUM_TOL
            and bool(np.all((idx >= 0) & (idx < equilibrium.size)))
        )
        if ok:
            members = unit["members"].split(";")
            population = np.array([pixels[m][0] for m in members])
            samples = population @ np.stack([pixels[m][1] for m in members]) / population.sum()
            err = float(np.max(np.abs(
                weighted_quantiles(equilibrium[idx], w) - np.quantile(samples, QUANTILE_LEVELS)
            )))
            err_max = max(err_max, err)
            ok = err < QUANTILE_ERR_BOUND
        units_failed += not ok

    n_summaries = len(units) * len(scenarios)
    if project_code != 0 or not verified(summaries_dir):
        return MapCheck(len(units), units_failed, n_summaries, n_summaries, err_max)
    summaries_failed = 0
    for scenario in scenarios:
        rows: dict[str, list[dict]] = {}
        for row in _read_csv(summaries_dir / f"summary_{scenario}.csv"):
            rows.setdefault(row["unit_id"], []).append(row)
        for unit in units:
            got = rows.get(unit["unit_id"], [])
            ok = len(got) == years + 1 and all(
                float(r["prevalence_q025"]) <= float(r["prevalence_q500"])
                <= float(r["prevalence_q975"])
                and 0.0 <= float(r["elimination_probability"]) <= 1.0
                for r in got
            )
            summaries_failed += not ok
    return MapCheck(len(units), units_failed, n_summaries, summaries_failed, err_max)


def check_toy(directory: Path, code: int, replicates: int) -> int:
    """Failed replicates of one `toy-validate` run: a cell outside its band fails all of them."""
    if code != 0 or not verified(directory):
        return len(TOY_BANDS) * replicates
    cells = {(r["proposal"], r["ernd"]): r for r in _read_csv(directory / "toy_table.csv")}
    counts: dict[tuple[str, str], int] = {}
    for r in _read_csv(directory / "toy_replicates.csv"):
        cell = (r["proposal"], r["ernd"])
        counts[cell] = counts.get(cell, 0) + 1
    failed = 0
    for cell, ((isd_lo, isd_hi), (ess_lo, ess_hi)) in TOY_BANDS.items():
        row = cells.get(cell)
        in_band = row is not None and (
            isd_lo <= float(row["isd_x1000_median"]) <= isd_hi
            and ess_lo <= float(row["ess_median"]) <= ess_hi
        )
        failed += replicates if not in_band else replicates - min(counts.get(cell, 0), replicates)
    return failed
