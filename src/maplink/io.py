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
import itertools
import json
import math
import numbers
import re
import types
import typing
from dataclasses import asdict, dataclass, field
from io import BytesIO, StringIO
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .pipeline import (
    BankColumnError,
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
    "SHARD_FILE",
    "check_run_directory",
    "load_manifest",
    "load_pixel_posteriors",
    "load_simulation_bank",
    "load_weights",
    "save_population_proposal",
    "save_pixel_posteriors",
    "save_weights",
    "shard_file",
    "write_bank_shard",
    "write_elimination_csv",
    "write_manifest",
    "write_project_run",
    "write_proportion_eliminated_csv",
    "write_summary_csv",
    "write_toy_run",
    "write_weight_run",
]

SCHEMA_VERSIONS = {
    "bank": "maplink/bank v2",
    "params": "maplink/bank-params v1",
    "pixels": "maplink/pixel-posteriors v1",
    "proposal": "maplink/population-proposal v1",
    "weights": "maplink/weights v1",
    "summary": "maplink/summary v1",
    "elimination": "maplink/elimination v1",
    "proportion_eliminated": "maplink/proportion-eliminated v1",
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


# the kinds whose v1 rows end in CRLF, the csv module's default; the others'
# rows, and every schema line, end in LF
_CRLF_ROWS = frozenset({"proposal", "params", "pixels", "weights", "summary", "elimination",
                        "proportion_eliminated"})


def _write_table(path: Path, kind: str, columns: Sequence[str], rows) -> None:
    """Write a ``kind`` table: its schema line, the header ``columns``, then ``rows``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSIONS[kind]}\n")
        writer = csv.writer(fh, lineterminator="\r\n" if kind in _CRLF_ROWS else "\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _read_table(path: Path, data: bytes, kind: str, columns, parse_row) -> list:
    """``parse_row`` of each row of ``data``, a ``kind`` table read from ``path``.

    ``columns`` is the header, or for a table as wide as its data a function
    of the header's width that gives it.  The schema line and the header are
    checked first.  A row narrower or wider than the header, one the csv
    module cannot read, and one that ``parse_row`` raises ``ValueError`` for
    are refused with the path and line.
    """
    try:
        text = data.decode()
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text ({err.reason})") from None
    fh = StringIO(text, newline="")
    schema, expected = fh.readline().strip(), f"# schema: {SCHEMA_VERSIONS[kind]}"
    if schema != expected:
        raise ValueError(f"{path}: line 1: expected {expected!r}, found {schema!r}")
    reader = csv.reader(fh)
    header = next(reader, [])
    expected = list(columns(len(header)) if callable(columns) else columns)
    if header != expected:
        pairs = enumerate(itertools.zip_longest(header, expected), 1)
        i, got, want = next((i, got, want) for i, (got, want) in pairs if got != want)
        raise ValueError(f"{path}: line 2: header column {i} is {got!r}, expected {want!r}")
    parsed = []
    try:
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, but the header has {len(header)}")
            parsed.append(parse_row(row))
    except (csv.Error, ValueError) as err:  # line_num counts the lines after the schema line
        raise ValueError(f"{path}: line {reader.line_num + 1}: {err}") from None
    return parsed


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
    delta: float | None = 0.01  # None: reweight.select_delta of the bank, once per command
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
        for name in ("delta", "population_log_sd"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < float("inf"):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("importation_max", "pooling_min_population", "pooling_max_population",
                     "ess_floor"):
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must lie in [0, inf), got {getattr(self, name)!r}")
        for name, least in (("histogram_bins", 1), ("simulate_shard_size", 1),
                            ("proposal_reference_stride", 1), ("proposal_iterations", 0),
                            ("seed", 0), ("pilot_simulations", 0),
                            ("pooling_max_population", self.pooling_min_population)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
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
        if len(set(names)) != len(names) or any(c in n for n in names for c in "/\0"):
            raise ValueError(f"scenario names must be unique and hold no '/' or NUL, got {names}")

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        raw = _load_json(path)
        try:
            if not isinstance(raw, dict):
                raise ValueError("a config must be a JSON object")
            unknown = set(raw) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            return cls(**raw)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

    def to_jsonable(self) -> dict:
        out = asdict(self)
        out["population_range"] = list(self.population_range)
        out["scenarios"] = [dict(s) for s in self.scenarios]
        out["probability_thresholds"] = list(self.probability_thresholds)
        return out

    def bank_digest(self) -> str:
        """SHA-256 of everything a bank shard depends on.

        That is every key but those only ``weight`` and ``project`` read, and
        the content of the vector-ratio/aggregation grid file, if one is set,
        and the bank's schema, so no shard of another bank format is reused.
        """
        payload = {k: v for k, v in self.to_jsonable().items() if k not in _WEIGHT_PROJECT_KEYS}
        payload["bank_schema"] = SCHEMA_VERSIONS["bank"]
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
                coverage = _scenario_key(spec_dict, "coverage", float)
                built.append(Scenario.annual(coverage, self.years, name=name) if kind == "annual"
                             else Scenario.biannual(coverage, self.years, name=name))
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

def write_manifest(directory: Path, payload: dict) -> None:
    """Deterministic JSON manifest with per-file checksums added."""
    directory = Path(directory)
    files = sorted(p.name for p in directory.iterdir()
                   if p.is_file() and p.name != "manifest.json")
    payload = dict(payload, checksums={name: sha256_file(directory / name) for name in files})
    with open(directory / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str | Path):
    """The value in the JSON file ``path``; text that is not JSON is refused with the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # UnicodeDecodeError too
            raise ValueError(f"{path}: not valid JSON: {err}") from None


def load_manifest(directory: Path, verify: bool = True) -> dict:
    directory = Path(directory)
    payload = _load_json(directory / "manifest.json")
    if not (isinstance(payload, dict) and isinstance(payload.get("checksums", {}), dict)):
        raise ValueError(f"{directory / 'manifest.json'}: expected a JSON object whose "
                         f"checksums, if any, are an object")
    if verify:
        _check_unread(directory, payload, set())
    return payload


def check_run_directory(directory: Path, kind: str) -> None:
    """Refuse ``directory``, before any compute and making nothing, unless the manifest it may
    hold is a ``kind`` run's of any version: a stage rewrites its own runs, never another's."""
    directory, stage = Path(directory), SCHEMA_VERSIONS[kind].rpartition(" v")[0]
    if (directory / "manifest.json").exists():
        schema = load_manifest(directory, verify=False).get("schema")
        if str(schema).rpartition(" v")[0] != stage:
            raise ValueError(f"{directory / 'manifest.json'}: schema is {schema!r}, not a "
                             f"{stage!r} run's; write to another --out")


def _read_checked(path: Path, expected: str | None) -> bytes:
    """The bytes of ``path``, read once, after their SHA-256 matches ``expected``, the manifest's."""
    data = path.read_bytes()
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise ValueError(f"{path}: checksum mismatch: the file hashes to {actual}, "
                         f"the manifest records {expected}")
    return data


def _check_unread(directory: Path, manifest: dict, read: set[str]) -> None:
    """Check every file the manifest lists but ``read`` does not name."""
    for name, expected in manifest.get("checksums", {}).items():
        if name not in read:
            _read_checked(directory / name, expected)


_NPY_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _npy(path: Path, data: bytes, headers: dict) -> np.ndarray:
    """The array that ``.npy`` bytes hold, as a read-only view of ``data``.

    ``headers`` keeps the (shape, fortran_order, dtype) of each distinct
    header, so the shards of a bank, which share a few, parse each only once.
    """
    # the magic string, the version, then the header's length in 2 (v1) or 4 (v2) bytes
    length = 2 if data[6:7] == b"\x01" else 4
    start = 8 + length + int.from_bytes(data[8:8 + length], "little")
    head = data[:start]
    if head not in headers:
        fh = BytesIO(head)
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_READERS:
                raise ValueError(f".npy format version {version} is not read")
            headers[head] = _NPY_READERS[version](fh)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    shape, fortran_order, dtype = headers[head]
    if dtype.kind not in "fiu":
        raise ValueError(f"{path}: holds {dtype}, not real numbers")
    count = math.prod(shape)
    if len(data) - start != count * dtype.itemsize:
        raise ValueError(f"{path}: {len(data) - start} bytes of data, but a {shape} array "
                         f"of {dtype} takes {count * dtype.itemsize}")
    array = np.frombuffer(data, dtype, count, start)
    return array.reshape(shape, order="F" if fortran_order else "C")


# ---------------------------------------------------------------------------
# Population proposal and parameter bank
# ---------------------------------------------------------------------------

def save_population_proposal(path: Path, proposal: TabulatedProposal) -> None:
    _write_table(path, "proposal", ["population", "mass"],
                 ([int(n), _fmt(m)] for n, m in zip(proposal.support, proposal.mass)))


_PARAM_COLUMNS = [
    "sim_id",
    "population",
    "vector_host_ratio",
    "aggregation_k",
    "importation_rate",
    "population_proposal_mass",
]

# the names of shard ``index``'s files by manifest key (traj_ for each traj_<scenario>),
# and of the record that lets `simulate --resume` reuse the shard
_SHARD_NAMES = {
    "params": "params_s{index:04d}.csv",
    "population": "population_s{index:04d}.npy",
    "proposal_mass": "proposal_mass_s{index:04d}.npy",
    "equilibrium": "equilibrium_s{index:04d}.npy",
    "traj_": "traj_{scenario}_s{index:04d}.npy",
    "record": "shard_{index:04d}.json",
}
# the name of any of those files, of any shard and scenario
SHARD_FILE = re.compile("|".join(
    re.escape(name).replace(r"\{index:04d\}", r"\d{4,}").replace(r"\{scenario\}", ".+")
    for name in _SHARD_NAMES.values()
))


def shard_file(key: str, index: int) -> str:
    """The name of shard ``index``'s ``key`` file: a manifest key, or ``record``."""
    template = _SHARD_NAMES["traj_" if key.startswith("traj_") else key]
    return template.format(index=index, scenario=key[5:])


def shard_entry(index: int, first_sim_id: int, j: int, scenarios: Sequence[str]) -> dict:
    """The manifest entry of shard ``index``: ``j`` simulations from ``first_sim_id`` on."""
    keys = [k for k in _SHARD_NAMES if k not in ("traj_", "record")]
    files = {key: shard_file(key, index) for key in keys + [f"traj_{s}" for s in scenarios]}
    return {"index": index, "first_sim_id": first_sim_id, "j": j, "files": files}


def shard_plan(j: int, shard_size: int, scenarios: Sequence[str]) -> list[dict]:
    """The manifest entry of every shard of ``j`` simulations in shards of ``shard_size``."""
    return [shard_entry(index, start, min(shard_size, j - start), scenarios)
            for index, start in enumerate(range(0, j, shard_size))]


def shard_record(directory: Path, entry: dict, config_digest: str) -> bytes | None:
    """The bytes of shard ``entry``'s record: the entry, the bank settings' ``config_digest``
    and each file's SHA-256 in ``directory``; ``None`` when a file is missing."""
    paths = [Path(directory) / name for name in entry["files"].values()]
    if not all(path.is_file() for path in paths):
        return None
    record = dict(entry, config_sha256=config_digest,
                  sha256={path.name: sha256_file(path) for path in paths})
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()


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
    entry = shard_entry(shard_index, first_sim_id, len(thetas), list(trajectories))
    files = entry["files"]
    _write_table(directory / files["params"], "params", _PARAM_COLUMNS, (
        [
            first_sim_id + offset,
            theta.population,
            _fmt(theta.vector_host_ratio),
            _fmt(theta.aggregation_k),
            _fmt(theta.importation_rate),
            _fmt(q),
        ]
        for offset, (theta, q) in enumerate(zip(thetas, proposal_mass))
    ))
    arrays = {
        "population": np.array([theta.population for theta in thetas], dtype=np.int64),
        "proposal_mass": np.asarray(proposal_mass, dtype=float),
        "equilibrium": np.asarray(equilibrium, dtype=float),
        **{f"traj_{name}": np.asarray(traj, dtype=float) for name, traj in trajectories.items()},
    }
    for key, array in arrays.items():
        save_npy(directory / files[key], array)
    return entry


def start_bank(directory: Path, proposal: TabulatedProposal) -> None:
    """Make ``directory`` for ``simulate`` and write the population ``proposal`` into it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_population_proposal(directory / "population_proposal.csv", proposal)


def shard_to_run(directory: Path, entry: dict, config_digest: str, resume: bool) -> slice | None:
    """The simulations of shard ``entry`` to run, or ``None`` when ``resume`` keeps it: its record
    holds the bytes this run would write, with the bank settings' ``config_digest``."""
    record = Path(directory) / shard_file("record", entry["index"])
    if resume and record.exists() and record.read_bytes() == shard_record(directory, entry,
                                                                          config_digest):
        return None
    return slice(entry["first_sim_id"], entry["first_sim_id"] + entry["j"])


def write_shard_and_record(directory: Path, entry: dict, thetas: Sequence[ParameterVector],
                           proposal_mass: np.ndarray, equilibrium: np.ndarray,
                           trajectories: dict[str, np.ndarray], config_digest: str) -> None:
    """Write shard ``entry``'s files, then its ``--resume`` record, last: a killed shard has none."""
    write_bank_shard(directory, entry["index"], entry["first_sim_id"], thetas, proposal_mass,
                     equilibrium, trajectories)
    record = Path(directory) / shard_file("record", entry["index"])
    record.write_bytes(shard_record(directory, entry, config_digest))


def finish_bank(directory: Path, config: RunConfig, scenarios: Sequence[Scenario],
                plan: list[dict]) -> None:
    """Delete the shard files ``plan`` does not write, such as an earlier, larger bank's, so the
    manifest never lists them, then write the bank's manifest."""
    directory = Path(directory)
    kept = {shard_file("record", e["index"]) for e in plan}
    kept.update(name for e in plan for name in e["files"].values())
    for path in directory.iterdir():
        if SHARD_FILE.fullmatch(path.name) and path.name not in kept:
            path.unlink()
    decay = {s.name: list(s.importation_decay) if s.importation_decay else None for s in scenarios}
    write_manifest(directory, {
        "schema": SCHEMA_VERSIONS["bank"], "seed": config.seed, "j": config.j_simulations,
        "years": config.years, "scenarios": list(decay), "importation_decay": decay,
        "config": config.to_jsonable(), "shards": plan,
    })


def _first_difference(got: dict, want: dict) -> str:
    """The first key, in ``want``'s order and then ``got``'s, whose values differ."""
    return next(k for k in [*want, *got] if got.get(k) != want.get(k))


def _bank_shards(directory: Path, manifest: dict) -> list[dict]:
    """The ``shard_plan`` of the manifest's ``j`` in shards of the first shard's size, after the
    manifest's shards check as it, in index order, and each of their files has a checksum."""
    where = directory / "manifest.json"
    if manifest.get("schema") != SCHEMA_VERSIONS["bank"]:
        raise ValueError(f"{where}: schema is {manifest.get('schema')!r}, expected "
                         f"{SCHEMA_VERSIONS['bank']!r}; rebuild the bank with `maplink simulate`")
    names = manifest.get("scenarios")
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError(f"{where}: scenarios are {names!r}, expected a list of names")
    shards, j = manifest.get("shards"), manifest.get("j")
    if not (isinstance(shards, list) and shards and isinstance(shards[0], dict)
            and _has_type(shards[0].get("j"), int) and shards[0]["j"] >= 1 and _has_type(j, int)):
        raise ValueError(f"{where}: needs integer j and shards, the first with integer j >= 1")
    size = shards[0]["j"]
    if len(shards) != (count := -(-j // size)):
        raise ValueError(f"{where}: {len(shards)} shards of {size}, but j = {j} takes {count}")
    plan = shard_plan(j, size, names)
    for shard, entry in zip(shards, plan):
        name = f"{where}: shard {entry['index']}"
        if shard != entry:
            got = shard if isinstance(shard, dict) else {}
            key = _first_difference(got, entry)
            if key == "files" and isinstance(got.get("files"), dict):
                name, got, entry = f"{name}: files", got["files"], entry["files"]
                key = _first_difference(got, entry)
            raise ValueError(f"{name}: {key} is {got.get(key)!r}, expected {entry.get(key)!r}")
        unlisted = [f for f in entry["files"].values() if f not in manifest.get("checksums", {})]
        if unlisted:
            raise ValueError(f"{name}: {unlisted[0]} has no checksum")
    return plan


def load_simulation_bank(directory: Path) -> tuple[SimulationBank, dict]:
    """Assemble the bank from its shards, in shard order; returns (bank, manifest).

    Each file the manifest lists is read once and checked against its checksum.  A column's
    shard arrays are decoded from the same bytes and joined, populations in their own dtype;
    params tables, a record for people, are not parsed.  ``SimulationBank`` checks the
    columns, and a value it refuses is reported with its file and shard.
    """
    directory = Path(directory)
    manifest = load_manifest(directory, verify=False)
    shards = _bank_shards(directory, manifest)
    columns, headers, read = {}, {}, set()
    for key in sorted(shards[0]["files"].keys() - {"params"}):  # key order, as in the manifest
        parts = []
        for shard in shards:
            path = directory / shard["files"][key]
            array = _npy(path, _read_checked(path, manifest["checksums"][path.name]), headers)
            read.add(path.name)
            shape = (shard["j"],) + (parts or [array])[0].shape[1:]  # as wide as in shard 0
            if array.shape != shape:
                raise ValueError(f"{path}: shape {array.shape}, but shard {shard['index']} "
                                 f"needs {shape}")
            parts.append(array)
        columns[key] = np.concatenate(parts, dtype=None if key == "population" else float)
    try:
        bank = SimulationBank(columns.pop("population"), columns.pop("proposal_mass"),
                              columns.pop("equilibrium"), {k[5:]: a for k, a in columns.items()})
    except BankColumnError as err:
        shard = shards[err.simulation // shards[0]["j"]]
        raise ValueError(f"{directory / shard['files'][err.column]}: shard {shard['index']}: "
                         f"{err}") from None
    _check_unread(directory, manifest, read)
    return bank, manifest


def project_scenarios(manifest: dict, requested: Sequence[str] | None) -> list[str]:
    """The ``requested`` scenarios, or all of the bank ``manifest``'s in its order, after each
    is checked to be in the bank and named once."""
    names = list(requested or manifest["scenarios"])
    missing = [s for s in names if s not in manifest["scenarios"]]
    if missing:
        raise ValueError(f"scenario(s) {missing} not present in the bank")
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise ValueError(f"scenario(s) {repeated} given more than once")
    return names


# ---------------------------------------------------------------------------
# Pixel posteriors
# ---------------------------------------------------------------------------

def _pixel_columns(m: int) -> list[str]:
    return ["pixel_id", "country", "population"] + [f"s{i:04d}" for i in range(m)]


def save_pixel_posteriors(path: Path, pixels: Sequence[PixelPosterior]) -> None:
    if not pixels:
        raise ValueError("no pixels to write")
    m = pixels[0].samples.size
    if any(pixel.samples.size != m for pixel in pixels):
        raise ValueError("all pixels must share the posterior sample count")
    _write_table(path, "pixels", _pixel_columns(m), (
        [pixel.pixel_id, pixel.country, _fmt(pixel.population)] + [_fmt(v) for v in pixel.samples]
        for pixel in pixels
    ))


def load_pixel_posteriors(path: Path) -> list[PixelPosterior]:
    path = Path(path)
    seen = set()

    def parse(row):
        if row[0] in seen:
            raise ValueError(f"pixel id {row[0]!r} is repeated")
        seen.add(row[0])
        return PixelPosterior(pixel_id=row[0], country=row[1], population=float(row[2]),
                              samples=np.array(row[3:], dtype=float))

    return _read_table(path, path.read_bytes(), "pixels",
                       lambda width: _pixel_columns(width - 3), parse)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

_UNIT_COLUMNS = ["unit_id", "country", "population", "members", "bank_size", "ess",
                 "dropped_map_fraction", "clamp_count", "low_ess"]


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
    _write_table(directory / "units.csv", "weights", _UNIT_COLUMNS, (
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
        for unit, w in zip(units, weights)
    ))


def write_weight_run(directory: Path, bank: Path, pixels: Path, units: Sequence[PooledUnit],
                     weights: Sequence[PixelWeights], excluded: Sequence[str],
                     warnings: Sequence[str], config: RunConfig) -> None:
    """Make ``directory`` and write ``weight``'s files and manifest: the ``weights`` of ``units``
    against ``bank``, the pixels ``excluded`` as above the maximum population, the ``warnings``."""
    directory = Path(directory)
    save_weights(directory, units, weights)
    _write_table(directory / "excluded_pixels.csv", "excluded", ["pixel_id"],
                 ([pixel_id] for pixel_id in excluded))
    write_manifest(directory, {
        "schema": SCHEMA_VERSIONS["weights"], "bank": str(bank), "pixels": str(pixels),
        "units": len(units), "excluded": list(excluded), "warnings": sorted(warnings),
        "config": config.to_jsonable(),
    })


def load_weights(directory: Path) -> list[PixelWeights]:
    """The weights that ``save_weights`` wrote, each file read once and checked against the
    directory's manifest; the arrays are read-only."""
    directory = Path(directory)
    manifest = load_manifest(directory, verify=False)
    if manifest.get("schema") != SCHEMA_VERSIONS["weights"]:
        raise ValueError(f"{directory / 'manifest.json'}: schema is {manifest.get('schema')!r}, "
                         f"expected {SCHEMA_VERSIONS['weights']!r}; write it with `maplink weight`")
    names = ("indices.npy", "values.npy", "offsets.npy", "units.csv")
    checksums = manifest.get("checksums", {})
    data = {name: _read_checked(directory / name, checksums.get(name)) for name in names}
    _check_unread(directory, manifest, set(names))
    headers = {}
    indices, values, offsets = (_npy(directory / name, data[name], headers) for name in names[:3])
    if values.size != indices.size:
        raise ValueError(f"{directory / 'values.npy'}: {values.size} weights, but "
                         f"indices.npy holds {indices.size}")
    if (offsets.size == 0 or offsets[0] != 0 or offsets[-1] != indices.size
            or np.any(np.diff(offsets) <= 0)):
        raise ValueError(f"{directory / 'offsets.npy'}: offsets must start at 0, increase "
                         f"strictly and end at {indices.size}, the number of weights")
    units = directory / "units.csv"
    rows = _read_table(units, data["units.csv"], "weights", _UNIT_COLUMNS, lambda row: dict(
        unit_id=row[0], bank_size=int(row[4]), ess=float(row[5]),
        dropped_map_fraction=float(row[6]), clamp_count=int(row[7]), low_ess=bool(int(row[8]))))
    if len(rows) != offsets.size - 1:
        raise ValueError(f"{units}: {len(rows)} units, but offsets.npy "
                         f"holds {offsets.size - 1}")
    # each unit's weights are finite, positive and sum to 1, as a WeightVector's do
    sums = np.add.reduceat(values, offsets[:-1])
    good = np.logical_and.reduceat(np.isfinite(values) & (values > 0.0), offsets[:-1])
    bad = ~(good & (np.abs(sums - 1.0) <= 1e-12 * np.diff(offsets)))
    if bad.any():
        i = int(bad.argmax())
        what = (f"sum to {float(sums[i])!r}, not 1" if good[i]
                else "are not all finite and positive")
        raise ValueError(f"{directory / 'values.npy'}: the weights of unit "
                         f"{rows[i]['unit_id']} {what}")
    return [PixelWeights(indices=indices[start:stop], values=values[start:stop], **row)
            for row, start, stop in zip(rows, offsets[:-1], offsets[1:])]


# ---------------------------------------------------------------------------
# Projection summaries
# ---------------------------------------------------------------------------

def write_summary_csv(path: Path, summaries: Sequence[ProjectionSummary]) -> None:
    """One row per unit, scenario and year, ordered deterministically."""
    _write_table(path, "summary", [
        "unit_id", "scenario", "year", "prevalence_q025", "prevalence_q500", "prevalence_q975",
        "elimination_probability", "ess", "dropped_map_fraction", "low_ess",
    ], (
        [
            summary.unit_id,
            summary.scenario,
            year,
            *map(_fmt, summary.quantiles[:, year]),
            _fmt(summary.elimination_probability[year]),
            _fmt(summary.ess),
            _fmt(summary.dropped_map_fraction),
            int(summary.low_ess),
        ]
        for summary in sorted(summaries, key=lambda s: (s.unit_id, s.scenario))
        for year in range(summary.years + 1)
    ))


def write_elimination_csv(
    path: Path,
    summaries: Sequence[ProjectionSummary],
    probability_thresholds: Sequence[float],
) -> None:
    """Achieved/not-achieved flags per unit, scenario and probability threshold."""
    _write_table(path, "elimination", [
        "unit_id", "scenario", "probability_threshold", "elimination_probability", "achieved",
    ], (
        [summary.unit_id, summary.scenario, _fmt(threshold),
         _fmt(summary.elimination_probability[-1]),
         int(summary.elimination_probability[-1] >= threshold)]
        for summary in sorted(summaries, key=lambda s: (s.unit_id, s.scenario))
        for threshold in probability_thresholds
    ))


def write_proportion_eliminated_csv(
    path: Path,
    summaries: Sequence[ProjectionSummary],
    probability_thresholds: Sequence[float],
) -> None:
    """Proportion of units achieving elimination, per scenario and threshold."""
    finals: dict[str, list[float]] = {}
    for summary in summaries:
        finals.setdefault(summary.scenario, []).append(summary.elimination_probability[-1])
    _write_table(path, "proportion_eliminated", ["scenario", "probability_threshold",
                                                 "proportion_achieved"], (
        [scenario, _fmt(threshold), _fmt(np.mean(np.array(finals[scenario]) >= threshold))]
        for scenario in sorted(finals)
        for threshold in probability_thresholds
    ))


def write_project_run(directory: Path, bank_path: Path, weights_path: Path,
                      summaries: dict[str, list[ProjectionSummary]],
                      weights: Sequence[PixelWeights], bank: SimulationBank,
                      config: RunConfig) -> None:
    """Make ``directory`` and write ``project``'s files and manifest: the ``summaries`` of each
    scenario, in order, of the ``weights`` read from ``weights_path`` on the bank at ``bank_path``.

    A ``summary_<scenario>.csv`` of a scenario not in ``summaries``, left by an
    earlier run, is deleted, so the manifest lists only this run's scenarios.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {f"summary_{scenario}.csv": rows for scenario, rows in summaries.items()}
    for name, rows in written.items():
        write_summary_csv(directory / name, rows)
    for path in directory.glob("summary_*.csv"):
        if path.name not in written:
            path.unlink()
    every = [summary for rows in summaries.values() for summary in rows]
    thresholds = config.probability_thresholds
    write_elimination_csv(directory / "elimination.csv", every, thresholds)
    write_proportion_eliminated_csv(directory / "proportion_eliminated.csv", every, thresholds)
    _write_table(directory / "population_recovery.csv", "recovery",
                 ["unit_id", "estimated_population", "ess"],
                 ([w.unit_id, _fmt(estimated_population(w, bank)), _fmt(w.ess)]
                  for w in sorted(weights, key=lambda w: w.unit_id)))
    write_manifest(directory, {
        "schema": SCHEMA_VERSIONS["summary"], "bank": str(bank_path),
        "weights": str(weights_path), "scenarios": list(summaries),
        "elimination_threshold": config.elimination_threshold,
        "probability_thresholds": list(thresholds), "config": config.to_jsonable(),
    })


# ---------------------------------------------------------------------------
# Toy benchmark table
# ---------------------------------------------------------------------------

# the (band, statistic) columns of the toy table, in order
_TOY_COLUMNS = [(band, q) for band in ("isd_x1000", "ess") for q in ("median", "lo", "hi", "mean")]


def write_toy_run(directory: Path, rows: Sequence[dict], reports: Sequence[ToyExperimentReport],
                  seed: int, m: int, j: int, replicates: int) -> None:
    """Make ``directory`` and write ``toy-validate``'s table, one row per ``summarize_reports`` cell
    in ``rows``, its ``reports`` (``delta`` empty where no window was used) and manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_table(directory / "toy_table.csv", "toy_table",
                 ["proposal", "ernd"] + [f"{b}_{q}" for b, q in _TOY_COLUMNS],
                 ([row["proposal"], row["ernd"]] + [_fmt(row[b][q]) for b, q in _TOY_COLUMNS]
                  for row in rows))
    _write_table(directory / "toy_replicates.csv", "toy_replicates",
                 ["proposal", "ernd", "replicate", "ks", "isd", "ess", "delta"],
                 ([r.proposal_kind, r.ernd_kind, r.replicate_seed, _fmt(r.ks), _fmt(r.isd),
                   _fmt(r.ess), "" if r.delta is None else _fmt(r.delta)] for r in reports))
    write_manifest(directory, {"schema": SCHEMA_VERSIONS["toy_table"], "seed": seed, "m": m,
                               "j": j, "replicates": replicates})
