"""File schemas, manifests and run configuration.

Formats are chosen for reproducibility: summaries and parameter tables are
CSV (human-diffable, schema-versioned via a leading comment line), bulk
numeric data are raw ``.npy`` arrays (compact, byte-stable), and every run
directory carries a ``manifest.json`` recording the configuration, seeds and
per-file SHA-256 checksums so any output can be regenerated and verified
from the manifest alone.  Writers are deterministic: identical inputs yield
byte-identical files regardless of worker count or wall clock.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import types
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .pipeline import (
    PixelPosterior,
    PixelWeights,
    PooledUnit,
    ProjectionSummary,
    SimulationBank,
    estimated_population,
)
from .proposal import ParameterVector, TabulatedProposal
from .toy import ToyExperimentReport
from .transmission import ModelParams, Scenario

__all__ = [
    "RunConfig",
    "SCHEMA_VERSIONS",
    "load_manifest",
    "load_pixel_posteriors",
    "load_simulation_bank",
    "load_weights",
    "save_population_proposal",
    "save_pixel_posteriors",
    "save_weights",
    "write_bank_shard",
    "write_elimination_csv",
    "write_excluded_pixels",
    "write_manifest",
    "write_population_recovery",
    "write_proportion_eliminated_csv",
    "write_summary_csv",
    "write_toy_replicates",
    "write_toy_table",
]

SCHEMA_VERSIONS = {
    "bank": "maplink/bank v1",
    "params": "maplink/bank-params v1",
    "pixels": "maplink/pixel-posteriors v1",
    "proposal": "maplink/population-proposal v1",
    "weights": "maplink/weights v1",
    "summary": "maplink/summary v1",
    "elimination": "maplink/elimination v1",
    "excluded": "maplink/excluded-pixels v1",
    "recovery": "maplink/population-recovery v1",
    "toy_table": "maplink/toy-table v1",
    "toy_replicates": "maplink/toy-replicates v1",
}


def _fmt(x) -> str:
    """Shortest exact decimal representation of a float."""
    return repr(float(x))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_npy(path: Path, array: np.ndarray) -> None:
    """Byte-stable array dump (plain .npy has no timestamps)."""
    with open(path, "wb") as fh:
        np.save(fh, array)


def _open_schema_csv(path: Path, kind: str):
    fh = open(path, "r", newline="")
    header = fh.readline().strip()
    expected = f"# schema: {SCHEMA_VERSIONS[kind]}"
    if header != expected:
        fh.close()
        raise ValueError(f"{path}: expected header {expected!r}, found {header!r}")
    return fh


def _has_type(value, hint) -> bool:
    """``isinstance`` for the annotations of ``RunConfig`` and ``ModelParams``.

    A float accepts an int, neither accepts a bool, a tuple accepts a list
    (JSON has no tuples), item by item, and a ``Literal`` accepts its values.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, a) for a in args)
    if origin is typing.Literal:
        return value in args
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        items = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
        return len(items) == len(value) and all(map(_has_type, value, items))
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    return isinstance(value, hint)


def _scenario_key(spec: dict, key: str, hint):
    if key not in spec:
        raise ValueError(f"scenario {spec!r} has no {key!r}")
    if not _has_type(spec[key], hint):
        raise ValueError(f"scenario {spec!r}: {key!r} has the wrong type")
    return spec[key]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything a full run needs, loadable from a JSON file."""

    seed: int = 0
    j_simulations: int = 1000
    years: int = 5
    ernd_kind: Literal["distance", "histogram", "discrepancy"] = "distance"
    delta: float | None = 0.01  # None: choose per pixel with reweight.select_delta
    histogram_bins: int = 100
    unmatched: Literal["drop", "transfer"] = "drop"
    population_log_sd: float = 0.5
    population_range: tuple[int, int] = (260, 10_000)
    population_tail_to: int = 11_550
    proposal_iterations: int = 10
    proposal_reference_stride: int = 25
    vh_k_grid_path: str | None = None
    importation_max: float = 0.0005
    scenarios: tuple[dict, ...] = (
        {"name": "none", "kind": "none"},
        {"name": "aMDA65", "kind": "annual", "coverage": 0.65},
        {"name": "aMDA80", "kind": "annual", "coverage": 0.80},
        {"name": "bMDA65", "kind": "biannual", "coverage": 0.65},
    )
    pooling_min_population: float = 300.0
    pooling_max_population: float = 10_000.0
    elimination_threshold: float = 0.01
    probability_thresholds: tuple[float, ...] = (0.90, 0.95, 0.99)
    ess_floor: float = 100.0
    simulate_shard_size: int = 250
    pilot_simulations: int = 0  # >0 enables the pilot importation-decay table
    model: dict = field(default_factory=dict)
    fail_on_warnings: bool = False

    def __post_init__(self):
        for name, hint in _RUN_CONFIG_TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, hint):
                raise ValueError(f"config key {name!r} has the wrong type: {value!r}")
        if self.j_simulations < 1 or self.years < 1:
            raise ValueError("need at least one simulation and one year")
        if self.delta is not None and not 0.0 < self.delta < float("inf"):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        for name, least in (("histogram_bins", 1), ("simulate_shard_size", 1),
                            ("proposal_reference_stride", 1), ("proposal_iterations", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        if not 0.0 < self.population_log_sd < float("inf"):
            raise ValueError(
                f"population_log_sd must be positive and finite, got {self.population_log_sd!r}"
            )
        if not 0.0 < self.elimination_threshold < 1.0:
            raise ValueError("elimination threshold must lie in (0, 1)")
        if any(not 0.0 < t <= 1.0 for t in self.probability_thresholds):
            raise ValueError("probability thresholds must lie in (0, 1]")
        lo, hi = self.population_range
        if not (1 <= lo < hi < self.population_tail_to):
            raise ValueError("population range and tail must be ordered")
        object.__setattr__(self, "population_range", (int(lo), int(hi)))
        object.__setattr__(self, "scenarios", tuple(dict(s) for s in self.scenarios))
        object.__setattr__(
            self, "probability_thresholds", tuple(float(t) for t in self.probability_thresholds)
        )
        unknown = set(self.model) - set(_MODEL_TYPES)
        if unknown:
            raise ValueError(f"unknown model keys: {sorted(unknown)}")
        for name, value in self.model.items():
            if not _has_type(value, _MODEL_TYPES[name]):
                raise ValueError(f"model key {name!r} has the wrong type: {value!r}")
        self.model_params()  # raises on an invalid model value
        names = [s.name for s in self.scenario_objects()]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_jsonable(self) -> dict:
        out = asdict(self)
        out["population_range"] = list(self.population_range)
        out["scenarios"] = [dict(s) for s in self.scenarios]
        out["probability_thresholds"] = list(self.probability_thresholds)
        return out

    def bank_digest(self) -> str:
        """SHA-256 of everything a bank shard depends on.

        That is every key but those only ``weight`` and ``project`` read, and
        the content of the vector-ratio/aggregation grid file, if one is set.
        """
        payload = {k: v for k, v in self.to_jsonable().items() if k not in _WEIGHT_PROJECT_KEYS}
        if self.vh_k_grid_path:
            payload["vh_k_grid_sha256"] = sha256_file(Path(self.vh_k_grid_path))
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def model_params(self) -> ModelParams:
        return ModelParams(**self.model)

    def scenario_objects(self) -> list[Scenario]:
        built = []
        for spec_dict in self.scenarios:
            kind = spec_dict.get("kind", "none")
            name = str(spec_dict["name"]) if spec_dict.get("name") else None
            if kind == "none":
                built.append(Scenario(name=name or "none", years=self.years))
            elif kind in ("annual", "biannual"):
                build = Scenario.annual if kind == "annual" else Scenario.biannual
                coverage = _scenario_key(spec_dict, "coverage", float)
                built.append(build(coverage, self.years, name=name))
            elif kind == "rounds":
                rounds = _scenario_key(spec_dict, "rounds", tuple[tuple[int, float], ...])
                rounds = tuple((int(m), float(c)) for m, c in rounds)
                built.append(Scenario(name=name or "custom", years=self.years, rounds=rounds))
            else:
                raise ValueError(f"unknown scenario kind {kind!r}")
        return built


# keys a bank shard does not depend on: changing them keeps shards on resume
_WEIGHT_PROJECT_KEYS = frozenset({
    "ernd_kind", "delta", "histogram_bins", "unmatched", "pooling_min_population",
    "pooling_max_population", "elimination_threshold", "probability_thresholds",
    "ess_floor", "fail_on_warnings",
})
# the annotations, evaluated once
_RUN_CONFIG_TYPES = typing.get_type_hints(RunConfig)
_MODEL_TYPES = typing.get_type_hints(ModelParams)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def write_manifest(directory: Path, payload: dict) -> Path:
    """Deterministic JSON manifest with per-file checksums added."""
    directory = Path(directory)
    files = sorted(
        p.name
        for p in directory.iterdir()
        if p.is_file() and p.name != "manifest.json"
    )
    payload = dict(payload)
    payload["checksums"] = {name: sha256_file(directory / name) for name in files}
    path = directory / "manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(directory: Path, verify: bool = True) -> dict:
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        payload = json.load(fh)
    if verify:
        for name, expected in payload.get("checksums", {}).items():
            actual = sha256_file(directory / name)
            if actual != expected:
                raise ValueError(f"checksum mismatch for {name}: {actual} != {expected}")
    return payload


# ---------------------------------------------------------------------------
# Population proposal and parameter bank
# ---------------------------------------------------------------------------

def save_population_proposal(path: Path, proposal: TabulatedProposal) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['proposal']}\n")
        writer = csv.writer(fh)
        writer.writerow(["population", "mass"])
        for n, m in zip(proposal.support, proposal.mass):
            writer.writerow([int(n), _fmt(m)])


_PARAM_COLUMNS = [
    "sim_id",
    "population",
    "vector_host_ratio",
    "aggregation_k",
    "importation_rate",
    "population_proposal_mass",
]


def write_bank_shard(
    directory: Path,
    shard_index: int,
    first_sim_id: int,
    thetas: Sequence[ParameterVector],
    proposal_mass: np.ndarray,
    equilibrium: np.ndarray,
    trajectories: dict[str, np.ndarray],
) -> dict:
    """Write one shard of the simulation bank; returns its manifest entry."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tag = f"s{shard_index:04d}"
    params_path = directory / f"params_{tag}.csv"
    with open(params_path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['params']}\n")
        writer = csv.writer(fh)
        writer.writerow(_PARAM_COLUMNS)
        for offset, (theta, q) in enumerate(zip(thetas, proposal_mass)):
            writer.writerow(
                [
                    first_sim_id + offset,
                    theta.population,
                    _fmt(theta.vector_host_ratio),
                    _fmt(theta.aggregation_k),
                    _fmt(theta.importation_rate),
                    _fmt(q),
                ]
            )
    save_npy(directory / f"equilibrium_{tag}.npy", np.asarray(equilibrium, dtype=float))
    files = {"params": params_path.name, "equilibrium": f"equilibrium_{tag}.npy"}
    for name, traj in trajectories.items():
        fname = f"traj_{name}_{tag}.npy"
        save_npy(directory / fname, np.asarray(traj, dtype=float))
        files[f"traj_{name}"] = fname
    return {
        "index": shard_index,
        "first_sim_id": first_sim_id,
        "j": len(thetas),
        "files": files,
    }


def _read_params_csv(path: Path) -> dict[str, np.ndarray]:
    with _open_schema_csv(path, "params") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _PARAM_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header}")
        rows = list(reader)
    # columns 1 and 5 of _PARAM_COLUMNS; the others are not read back
    return {
        "population": np.array([int(r[1]) for r in rows], dtype=np.int64),
        "population_proposal_mass": np.array([float(r[5]) for r in rows]),
    }


def load_simulation_bank(directory: Path) -> tuple[SimulationBank, dict]:
    """Assemble the bank from its shards, in shard order; returns (bank, manifest)."""
    directory = Path(directory)
    manifest = load_manifest(directory)
    shards = sorted(manifest["shards"], key=lambda s: s["index"])
    columns: dict[str, list[np.ndarray]] = {}
    eq_parts, traj_parts = [], {}
    for shard in shards:
        params = _read_params_csv(directory / shard["files"]["params"])
        for key, arr in params.items():
            columns.setdefault(key, []).append(arr)
        eq_parts.append(np.load(directory / shard["files"]["equilibrium"]))
        for key, fname in shard["files"].items():
            if key.startswith("traj_"):
                traj_parts.setdefault(key[5:], []).append(np.load(directory / fname))
    bank = SimulationBank(
        populations=np.concatenate(columns["population"]),
        population_proposal_mass=np.concatenate(columns["population_proposal_mass"]),
        equilibrium_prevalence=np.concatenate(eq_parts),
        trajectories={name: np.concatenate(parts) for name, parts in traj_parts.items()},
    )
    return bank, manifest


# ---------------------------------------------------------------------------
# Pixel posteriors
# ---------------------------------------------------------------------------

def save_pixel_posteriors(path: Path, pixels: Sequence[PixelPosterior]) -> None:
    if not pixels:
        raise ValueError("no pixels to write")
    m = pixels[0].samples.size
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['pixels']}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["pixel_id", "country", "population"] + [f"s{i:04d}" for i in range(m)]
        )
        for pixel in pixels:
            if pixel.samples.size != m:
                raise ValueError("all pixels must share the posterior sample count")
            writer.writerow(
                [pixel.pixel_id, pixel.country, _fmt(pixel.population)]
                + [_fmt(v) for v in pixel.samples]
            )


def load_pixel_posteriors(path: Path) -> list[PixelPosterior]:
    with _open_schema_csv(Path(path), "pixels") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["pixel_id", "country", "population"]:
            raise ValueError(f"{path}: unexpected pixel file columns")
        pixels = []
        for row in reader:
            pixels.append(
                PixelPosterior(
                    pixel_id=row[0],
                    country=row[1],
                    population=float(row[2]),
                    samples=np.array([float(v) for v in row[3:]]),
                )
            )
    return pixels


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def save_weights(directory: Path, units: Sequence[PooledUnit],
                 weights: Sequence[PixelWeights]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    offsets = np.zeros(len(weights) + 1, dtype=np.int64)
    for i, w in enumerate(weights):
        offsets[i + 1] = offsets[i] + w.values.size
    save_npy(directory / "indices.npy",
             np.concatenate([w.indices for w in weights]) if weights else np.empty(0, np.int64))
    save_npy(directory / "values.npy",
             np.concatenate([w.values for w in weights]) if weights else np.empty(0))
    save_npy(directory / "offsets.npy", offsets)
    with open(directory / "units.csv", "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['weights']}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["unit_id", "country", "population", "members", "bank_size", "ess",
             "dropped_map_fraction", "clamp_count", "low_ess"]
        )
        for unit, w in zip(units, weights):
            writer.writerow(
                [
                    w.unit_id,
                    unit.country,
                    _fmt(unit.population),
                    ";".join(unit.member_pixel_ids),
                    w.bank_size,
                    _fmt(w.ess),
                    _fmt(w.dropped_map_fraction),
                    w.clamp_count,
                    int(w.low_ess),
                ]
            )


def write_excluded_pixels(path: Path, excluded: Sequence[str]) -> None:
    """Ids of the pixels dropped for exceeding the maximum population."""
    with open(path, "w") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['excluded']}\npixel_id\n")
        for pixel_id in excluded:
            fh.write(pixel_id + "\n")


def load_weights(directory: Path) -> list[PixelWeights]:
    directory = Path(directory)
    indices = np.load(directory / "indices.npy")
    values = np.load(directory / "values.npy")
    offsets = np.load(directory / "offsets.npy")
    with _open_schema_csv(directory / "units.csv", "weights") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != offsets.size - 1:
        raise ValueError("units.csv does not match the offsets array")
    out = []
    for i, row in enumerate(rows):
        sl = slice(offsets[i], offsets[i + 1])
        out.append(
            PixelWeights(
                unit_id=row["unit_id"],
                bank_size=int(row["bank_size"]),
                indices=indices[sl],
                values=values[sl],
                ess=float(row["ess"]),
                dropped_map_fraction=float(row["dropped_map_fraction"]),
                clamp_count=int(row["clamp_count"]),
                low_ess=bool(int(row["low_ess"])),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Projection summaries
# ---------------------------------------------------------------------------

def write_summary_csv(path: Path, summaries: Sequence[ProjectionSummary]) -> None:
    """One row per unit, scenario and year, ordered deterministically."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['summary']}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["unit_id", "scenario", "year", "prevalence_q025", "prevalence_q500",
             "prevalence_q975", "elimination_probability", "ess",
             "dropped_map_fraction", "low_ess"]
        )
        for summary in sorted(summaries, key=lambda s: (s.unit_id, s.scenario)):
            for year in range(summary.years + 1):
                writer.writerow(
                    [
                        summary.unit_id,
                        summary.scenario,
                        year,
                        _fmt(summary.quantiles[0, year]),
                        _fmt(summary.quantiles[1, year]),
                        _fmt(summary.quantiles[2, year]),
                        _fmt(summary.elimination_probability[year]),
                        _fmt(summary.ess),
                        _fmt(summary.dropped_map_fraction),
                        int(summary.low_ess),
                    ]
                )


def write_population_recovery(
    path: Path, weights: Sequence[PixelWeights], bank: SimulationBank
) -> None:
    """Weighted mean simulated population and ESS per unit, by unit id."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['recovery']}\n")
        fh.write("unit_id,estimated_population,ess\n")
        for w in sorted(weights, key=lambda w: w.unit_id):
            fh.write(f"{w.unit_id},{estimated_population(w, bank)!r},{w.ess!r}\n")


def write_elimination_csv(
    path: Path,
    summaries: Sequence[ProjectionSummary],
    probability_thresholds: Sequence[float],
) -> None:
    """Achieved/not-achieved flags per unit, scenario and probability threshold."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['elimination']}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["unit_id", "scenario", "probability_threshold", "elimination_probability",
             "achieved"]
        )
        for summary in sorted(summaries, key=lambda s: (s.unit_id, s.scenario)):
            final = summary.elimination_probability[-1]
            for threshold in probability_thresholds:
                writer.writerow(
                    [summary.unit_id, summary.scenario, _fmt(threshold), _fmt(final),
                     int(final >= threshold)]
                )


def write_proportion_eliminated_csv(
    path: Path,
    summaries: Sequence[ProjectionSummary],
    probability_thresholds: Sequence[float],
) -> None:
    """Proportion of units achieving elimination, per scenario and threshold."""
    by_scenario: dict[str, list[float]] = {}
    for summary in summaries:
        by_scenario.setdefault(summary.scenario, []).append(
            summary.elimination_probability[-1]
        )
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['elimination']}\n")
        writer = csv.writer(fh)
        writer.writerow(["scenario", "probability_threshold", "proportion_achieved"])
        for scenario in sorted(by_scenario):
            finals = np.array(by_scenario[scenario])
            for threshold in probability_thresholds:
                writer.writerow(
                    [scenario, _fmt(threshold), _fmt(float(np.mean(finals >= threshold)))]
                )


# ---------------------------------------------------------------------------
# Toy benchmark table
# ---------------------------------------------------------------------------

def write_toy_table(path: Path, rows: Sequence[dict]) -> None:
    """One row per (proposal, estimator) cell of ``toy.summarize_reports``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['toy_table']}\n")
        fh.write(
            "proposal,ernd,isd_x1000_median,isd_x1000_lo,isd_x1000_hi,isd_x1000_mean,"
            "ess_median,ess_lo,ess_hi,ess_mean\n"
        )
        for row in rows:
            isd, ess_band = row["isd_x1000"], row["ess"]
            fh.write(
                f"{row['proposal']},{row['ernd']},{isd['median']!r},{isd['lo']!r},"
                f"{isd['hi']!r},{isd['mean']!r},{ess_band['median']!r},{ess_band['lo']!r},"
                f"{ess_band['hi']!r},{ess_band['mean']!r}\n"
            )


def write_toy_replicates(path: Path, reports: Sequence[ToyExperimentReport]) -> None:
    """One row per replicate; ``delta`` is empty where no window was used."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS['toy_replicates']}\n")
        fh.write("proposal,ernd,replicate,ks,isd,ess,delta\n")
        for r in reports:
            delta = "" if r.delta is None else repr(r.delta)
            fh.write(
                f"{r.proposal_kind},{r.ernd_kind},{r.replicate_seed},{r.ks!r},{r.isd!r},"
                f"{r.ess!r},{delta}\n"
            )
