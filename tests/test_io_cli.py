"""Tests for file schemas, manifests, configuration and the CLI chain."""

import csv
import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maplink import cli
from maplink import io as mio
from maplink import reweight
from maplink.cli import main
from maplink.pipeline import (
    PixelPosterior,
    PixelWeights,
    PooledUnit,
    ProjectionSummary,
    SimulationBank,
    pool_and_filter,
)
from maplink.proposal import ParameterVector, TabulatedProposal
from maplink.toy import ToyExperimentReport, summarize_reports
from reference import reference_load_bank


def read_schema_csv(path, kind):
    """Rows of a maplink CSV as dicts, after checking its schema line."""
    schema, *lines = Path(path).read_text().splitlines()
    assert schema == f"# schema: {mio.SCHEMA_VERSIONS[kind]}"
    return list(csv.DictReader(lines))


# --- round trips -------------------------------------------------------------

def test_pixel_posteriors_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = [
        PixelPosterior(
            pixel_id=f"p{i}",
            country="KE" if i % 2 else "TZ",
            population=float(rng.integers(100, 9000)),
            samples=rng.uniform(size=25),
        )
        for i in range(6)
    ]
    path = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(path, pixels)
    again = mio.load_pixel_posteriors(path)
    assert [p.pixel_id for p in again] == [p.pixel_id for p in pixels]
    for a, b in zip(pixels, again):
        assert a.country == b.country
        assert a.population == b.population
        assert np.array_equal(a.samples, b.samples)  # bit-exact


# shortest-repr prevalences, with both zeros, one, subnormals and values near each
SAMPLE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.225073858507201e-308,
                                    np.nextafter(1.0, 0.0)]),
                   st.floats(0.0, 1.0), st.floats(0.0, 1e-300))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(SAMPLE, min_size=3, max_size=3), min_size=1, max_size=5))
def test_pixel_posteriors_roundtrip_is_bit_exact(tmp_path_factory, rows):
    pixels = [PixelPosterior(pixel_id=f"p{i}", country="KE", population=10.0,
                             samples=np.array(row)) for i, row in enumerate(rows)]
    path = tmp_path_factory.mktemp("pixels") / "pixels.csv"
    mio.save_pixel_posteriors(path, pixels)
    again = mio.load_pixel_posteriors(path)
    assert [p.samples.tobytes() for p in again] == [p.samples.tobytes() for p in pixels]


def test_pixel_posteriors_name_the_line_of_a_bad_sample(tmp_path):
    path = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(path, [PixelPosterior("p0", "KE", 1.0, np.array([0.5, 0.5])),
                                     PixelPosterior("p1", "KE", 1.0, np.array([0.5, 0.5]))])
    path.write_text(path.read_text().replace("p1,KE,1.0,0.5", "p1,KE,1.0,half"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: ") + ".*'half'"):
        mio.load_pixel_posteriors(path)


def test_population_proposal_roundtrip(tmp_path):
    mass = np.linspace(3.0, 1.0, 50)
    proposal = TabulatedProposal(support=np.arange(300, 350), mass=mass / mass.sum())
    path = tmp_path / "proposal.csv"
    mio.save_population_proposal(path, proposal)
    rows = read_schema_csv(path, "proposal")
    assert np.array_equal(proposal.support, [int(r["population"]) for r in rows])
    assert np.array_equal(proposal.mass, [float(r["mass"]) for r in rows])


def test_weights_roundtrip(tmp_path):
    units = [
        PooledUnit(
            unit_id=f"u{i}",
            country="KE",
            member_pixel_ids=(f"u{i}",),
            population=1000.0 + i,
            samples=np.array([0.1, 0.2]),
        )
        for i in range(3)
    ]
    rng = np.random.default_rng(1)
    weights = []
    for i, unit in enumerate(units):
        values = rng.dirichlet(np.ones(4 + i))
        weights.append(
            PixelWeights(
                unit_id=unit.unit_id,
                bank_size=100,
                indices=np.sort(rng.choice(100, size=4 + i, replace=False)),
                values=values,
                ess=float(1.0 / np.sum(values**2)),
                dropped_map_fraction=0.01 * i,
                clamp_count=i,
                low_ess=bool(i == 2),
            )
        )
    mio.save_weights(tmp_path, units, weights)
    mio.write_manifest(tmp_path, {"schema": mio.SCHEMA_VERSIONS["weights"]})
    again = mio.load_weights(tmp_path)
    for a, b in zip(weights, again):
        assert a.unit_id == b.unit_id
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)  # bit-exact
        assert a.ess == b.ess
        assert a.dropped_map_fraction == b.dropped_map_fraction
        assert a.low_ess == b.low_ess


def test_bank_shard_roundtrip_and_checksums(tmp_path):
    thetas = [
        ParameterVector(
            population=300 + i, vector_host_ratio=5.0 + i, aggregation_k=0.2, importation_rate=1e-4
        )
        for i in range(4)
    ]
    eq = np.array([0.1, 0.2, 0.3, 0.4])
    traj = {"none": np.tile(eq[:, None], (1, 3))}
    entry = mio.write_bank_shard(tmp_path, 0, 0, thetas, np.full(4, 0.25), eq, traj)
    mio.write_manifest(
        tmp_path,
        {"schema": mio.SCHEMA_VERSIONS["bank"], "seed": 0, "j": 4,
         "scenarios": ["none"], "shards": [entry]},
    )
    bank, manifest = mio.load_simulation_bank(tmp_path)
    assert np.array_equal(bank.populations, np.array([300, 301, 302, 303]))
    assert np.array_equal(bank.equilibrium_prevalence, eq)
    assert np.array_equal(bank.trajectories["none"], traj["none"])
    assert manifest["j"] == 4

    # corruption must be detected
    victim = tmp_path / entry["files"]["equilibrium"]
    payload = bytearray(victim.read_bytes())
    payload[-1] ^= 0xFF
    victim.write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="checksum"):
        mio.load_simulation_bank(tmp_path)


def test_schema_header_rejected_on_mismatch(tmp_path):
    path = tmp_path / "pixels.csv"
    path.write_text("# schema: something/else v9\npixel_id,country,population,s0000\n")
    with pytest.raises(ValueError, match="schema"):
        mio.load_pixel_posteriors(path)


def test_table_errors_name_the_line_past_quoted_line_breaks(tmp_path):
    path = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(path, [
        PixelPosterior(pixel_id=f"p\n{i}", country="KE", population=400.0, samples=np.ones(1))
        for i in range(2)
    ])
    assert [p.pixel_id for p in mio.load_pixel_posteriors(path)] == ["p\n0", "p\n1"]
    path.write_bytes(path.read_bytes() + b"p9,KE,x,0.5\r\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 7: "):
        mio.load_pixel_posteriors(path)


def _write_every_table(directory: Path) -> dict[Path, bytes]:
    """One small file from each CSV writer; returns each path with its v1 row terminator."""
    thetas = [ParameterVector(population=300 + i, vector_host_ratio=5.0, aggregation_k=0.2,
                              importation_rate=1e-4) for i in range(2)]
    eq = np.array([0.1, 0.2])
    mio.write_bank_shard(directory / "bank", 0, 0, thetas, np.full(2, 0.5), eq,
                         {"none": eq[:, None]})
    bank = SimulationBank(populations=np.array([300, 301]),
                          population_proposal_mass=np.full(2, 0.5), equilibrium_prevalence=eq)
    mio.save_population_proposal(directory / "proposal.csv", TabulatedProposal(
        support=np.arange(300, 302), mass=np.full(2, 0.5)))
    pixels = [PixelPosterior(pixel_id=f"p{i}", country="KE", population=400.0,
                             samples=np.array([0.1, 0.3])) for i in range(2)]
    mio.save_pixel_posteriors(directory / "pixels.csv", pixels)
    units, _ = pool_and_filter(pixels)
    weights = [PixelWeights(unit_id=u.unit_id, bank_size=2, indices=np.array([0, 1]),
                            values=np.array([0.5, 0.5]), ess=2.0, dropped_map_fraction=0.0,
                            clamp_count=0, low_ess=False) for u in units]
    mio.write_weight_run(directory / "weights", "bank", "pixels.csv", units, weights,
                         ["p8", "p9"], [], mio.RunConfig())
    summaries = [ProjectionSummary(unit_id=w.unit_id, scenario="none",
                                   quantiles=np.full((3, 2), 0.1),
                                   elimination_probability=np.array([0.0, 0.5]), ess=2.0,
                                   dropped_map_fraction=0.0, low_ess=False) for w in weights]
    mio.write_project_run(directory / "summaries", "bank", "weights", {"none": summaries},
                          weights, bank, mio.RunConfig(probability_thresholds=(0.4, 0.9)))
    reports = [ToyExperimentReport(ks=0.1, isd=0.01, ess=50.0, delta=delta, replicate_seed=i,
                                   ernd_kind="distance", proposal_kind="prior")
               for i, delta in enumerate((0.05, None))]
    mio.write_toy_run(directory / "toy", [summarize_reports(reports)] * 2, reports, 0, 2, 2, 2)
    crlf, lf = b"\r\n", b"\n"
    return {
        directory / "proposal.csv": crlf,
        directory / "bank" / "params_s0000.csv": crlf,
        directory / "pixels.csv": crlf,
        directory / "weights" / "units.csv": crlf,
        directory / "summaries" / "summary_none.csv": crlf,
        directory / "summaries" / "elimination.csv": crlf,
        directory / "summaries" / "proportion_eliminated.csv": crlf,
        directory / "weights" / "excluded_pixels.csv": lf,
        directory / "summaries" / "population_recovery.csv": lf,
        directory / "toy" / "toy_table.csv": lf,
        directory / "toy" / "toy_replicates.csv": lf,
    }


def test_every_table_keeps_its_v1_line_endings(tmp_path):
    for path, ending in _write_every_table(tmp_path).items():
        schema, rows = path.read_bytes().split(b"\n", 1)
        assert schema.startswith(b"# schema: maplink/") and not schema.endswith(b"\r"), path
        assert len(rows.splitlines()) >= 3, path  # the header and two rows
        assert rows.endswith(ending) and rows.split(ending)[:-1] == rows.splitlines(), path


def test_proportion_eliminated_has_a_schema_line_of_its_own(tmp_path):
    # its columns differ from those of elimination.csv, so a reader must tell them apart
    _write_every_table(tmp_path)
    schema = {name: (tmp_path / "summaries" / name).read_bytes().split(b"\n", 1)[0]
              for name in ("elimination.csv", "proportion_eliminated.csv")}
    assert schema["proportion_eliminated.csv"] == b"# schema: maplink/proportion-eliminated v1"
    assert schema["proportion_eliminated.csv"] != schema["elimination.csv"]


# --- run config ------------------------------------------------------------------

def test_run_config_from_json_and_validation(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 5, "j_simulations": 10, "delta": 0.02}))
    config = mio.RunConfig.from_json(path)
    assert config.seed == 5
    assert config.delta == 0.02

    path.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        mio.RunConfig.from_json(path)

    with pytest.raises(ValueError):
        mio.RunConfig(ernd_kind="kernel")
    with pytest.raises(ValueError):
        mio.RunConfig(elimination_threshold=0.0)
    with pytest.raises(ValueError):
        mio.RunConfig(scenarios=({"name": "x", "kind": "annual", "coverage": 0.5},
                                 {"name": "x", "kind": "none"}))


@pytest.mark.parametrize("log_sd", [0.0, -0.5, float("nan"), float("inf")])
def test_run_config_rejects_bad_population_log_sd(log_sd):
    with pytest.raises(ValueError, match="population_log_sd"):
        mio.RunConfig(population_log_sd=log_sd)


def test_run_config_default_delta_is_one_percent():
    assert mio.RunConfig().delta == 0.01


@pytest.mark.parametrize("override, key", [
    ({"ernd_kind": "kernel"}, "ernd_kind"),
    ({"delta": -1.0}, "delta"),
    ({"delta": 0.0}, "delta"),
    ({"delta": float("inf")}, "delta"),
    ({"delta": float("nan")}, "delta"),
    ({"unmatched": "keep"}, "unmatched"),
    ({"histogram_bins": 0}, "histogram_bins"),
])
def test_run_config_rejects_bad_weighting_setting(override, key):
    with pytest.raises(ValueError, match=key):
        mio.RunConfig(**override)


@pytest.mark.parametrize("override, named", [
    ({"pooling_min_population": float("nan")},
     "pooling_min_population must lie in [0, inf), got nan"),
    ({"pooling_min_population": -1.0}, "pooling_min_population must lie in [0, inf), got -1.0"),
    ({"pooling_max_population": float("inf")},
     "pooling_max_population must lie in [0, inf), got inf"),
    ({"pooling_min_population": 2e4},
     "pooling_max_population must be at least 20000.0, got 10000.0"),
    ({"ess_floor": float("nan")}, "ess_floor must lie in [0, inf), got nan"),
    ({"ess_floor": -1.0}, "ess_floor must lie in [0, inf), got -1.0"),
    ({"pilot_simulations": -3}, "pilot_simulations must be at least 0, got -3"),
], ids=["min-nan", "min-negative", "max-infinite", "min-above-max", "ess-floor-nan",
        "ess-floor-negative", "pilots-negative"])
def test_run_config_refuses_a_value_that_would_silently_change_results(override, named):
    # with a NaN bound or floor every comparison is false: nothing is pooled or flagged
    with pytest.raises(ValueError, match=re.escape(named)):
        mio.RunConfig(**override)


def test_run_config_scenario_objects():
    config = mio.RunConfig()
    scenarios = config.scenario_objects()
    assert [s.name for s in scenarios] == ["none", "aMDA65", "aMDA80", "bMDA65"]
    assert len(scenarios[3].rounds) == 10
    unnamed = mio.RunConfig(scenarios=(
        {"kind": "none"}, {"kind": "annual", "coverage": 0.65},
        {"kind": "biannual", "coverage": 0.8}, {"kind": "rounds", "rounds": [[6, 0.5]]},
    ))
    assert [s.name for s in unnamed.scenario_objects()] == ["none", "aMDA65", "bMDA80", "custom"]
    with pytest.raises(ValueError, match="unique"):
        mio.RunConfig(scenarios=({"kind": "annual", "coverage": 0.65},
                                 {"name": "aMDA65", "kind": "none"}))


# --- CLI chain ----------------------------------------------------------------------

SMALL_CONFIG = {
    "seed": 11,
    "j_simulations": 10,
    "years": 2,
    "population_range": [260, 600],
    "population_tail_to": 700,
    "proposal_iterations": 2,
    "proposal_reference_stride": 20,
    "simulate_shard_size": 4,
    "model": {"burn_in_months": 36},
    "scenarios": [
        {"name": "none", "kind": "none"},
        {"name": "aMDA65", "kind": "annual", "coverage": 0.65},
    ],
    "ess_floor": 2.0,
}


def write_config(tmp_path, **overrides):
    payload = dict(SMALL_CONFIG)
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def make_pixel_file(tmp_path, n=3, m=30, seed=0):
    rng = np.random.default_rng(seed)
    pixels = [
        PixelPosterior(
            pixel_id=f"p{i}",
            country="KE",
            population=float(rng.integers(300, 590)),
            samples=rng.beta(2.0, 2.0, size=m),
        )
        for i in range(n)
    ]
    path = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(path, pixels)
    return path


def read_all_bytes(directory: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


def test_cli_simulate_smoke_and_determinism(tmp_path):
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "bank_a")]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "bank_b")]) == 0
    assert read_all_bytes(tmp_path / "bank_a") == read_all_bytes(tmp_path / "bank_b")
    bank, manifest = mio.load_simulation_bank(tmp_path / "bank_a")
    assert bank.size == 10
    assert set(bank.trajectories) == {"none", "aMDA65"}
    assert bank.trajectories["none"].shape == (10, 3)
    assert manifest["seed"] == 11


def test_cli_simulate_worker_equivalence(tmp_path):
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "w1")]) == 0
    assert main(
        ["simulate", "--config", str(config), "--out", str(tmp_path / "w3"), "--workers", "3"]
    ) == 0
    assert read_all_bytes(tmp_path / "w1") == read_all_bytes(tmp_path / "w3")


def test_cli_simulate_pilot_worker_equivalence(tmp_path):
    # each pilot draw runs once per scenario; it must get the same seeds in
    # this process as in a pool worker
    config = write_config(tmp_path, pilot_simulations=2)
    for workers in ("1", "2"):
        assert main(
            ["simulate", "--config", str(config), "--out", str(tmp_path / f"w{workers}"),
             "--workers", workers]
        ) == 0
    assert read_all_bytes(tmp_path / "w1") == read_all_bytes(tmp_path / "w2")


def test_cli_simulate_seed_changes_bank(tmp_path):
    config = write_config(tmp_path)
    main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(config), "--out", str(tmp_path / "b"), "--seed", "99"])
    a = mio.load_simulation_bank(tmp_path / "a")[0]
    b = mio.load_simulation_bank(tmp_path / "b")[0]
    assert not np.array_equal(a.equilibrium_prevalence, b.equilibrium_prevalence)


def test_cli_simulate_resume_reuses_shards(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(out)])
    reference = read_all_bytes(out)
    # corrupt one shard data file; resume must regenerate it and keep the rest
    victim = out / "equilibrium_s0001.npy"
    payload = bytearray(victim.read_bytes())
    payload[-1] ^= 0xFF
    victim.write_bytes(bytes(payload))
    assert main(
        ["simulate", "--config", str(config), "--out", str(out), "--resume"]
    ) == 0
    assert read_all_bytes(out) == reference


def test_cli_simulate_resume_recomputes_shards_whose_record_is_damaged(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(out)])
    reference = read_all_bytes(out)
    # a record cut short, as a kill while it is written leaves it, and one without digests
    cut = out / mio.shard_file("record", 0)
    cut.write_bytes(cut.read_bytes()[:40])
    record = out / mio.shard_file("record", 1)
    record.write_text(json.dumps({k: v for k, v in json.loads(record.read_text()).items()
                                  if k != "sha256"}))
    assert main(["simulate", "--config", str(config), "--out", str(out), "--resume"]) == 0
    assert read_all_bytes(out) == reference


def _drop_digests_and_a_file(out):
    record = out / mio.shard_file("record", 0)
    record.write_text(json.dumps(dict(json.loads(record.read_text()), sha256={})))
    (out / "equilibrium_s0000.npy").unlink()


def _drop_files(out):
    record = out / mio.shard_file("record", 1)
    record.write_text(json.dumps({k: v for k, v in json.loads(record.read_text()).items()
                                  if k != "files"}))


@pytest.mark.parametrize("edit", [_drop_digests_and_a_file, _drop_files],
                         ids=["no-digests-file-deleted", "no-files"])
def test_cli_simulate_resume_recomputes_shards_whose_record_differs(tmp_path, edit):
    # a record that lacks a checksum or names no files is not the one this run writes
    config = write_config(tmp_path)
    out = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(out)])
    reference = read_all_bytes(out)
    edit(out)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--resume"]) == 0
    assert read_all_bytes(out) == reference
    assert main(["inspect", str(out)]) == 0


def test_cli_simulate_resume_recomputes_shards_of_another_config(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(out)])
    main(["simulate", "--config", str(config), "--out", str(tmp_path / "fresh"), "--seed", "2"])
    # every shard of the seed-11 bank is stale under seed 2
    assert main(
        ["simulate", "--config", str(config), "--out", str(out), "--resume", "--seed", "2"]
    ) == 0
    assert read_all_bytes(out) == read_all_bytes(tmp_path / "fresh")

    # a key only weight and project read leaves every shard current
    def no_simulation(*args):
        raise AssertionError("a current shard was simulated again")

    monkeypatch.setattr(cli, "run_to_equilibrium", no_simulation)
    config = write_config(tmp_path, ess_floor=5.0, delta=0.2)
    assert main(
        ["simulate", "--config", str(config), "--out", str(out), "--resume", "--seed", "2"]
    ) == 0
    assert mio.load_manifest(out)["config"]["ess_floor"] == 5.0


def test_cli_simulate_resume_recomputes_shards_of_another_bank_format(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "bank"
    monkeypatch.setitem(mio.SCHEMA_VERSIONS, "bank", "maplink/bank v1")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    monkeypatch.undo()
    simulated, run_to_equilibrium = [], cli.run_to_equilibrium

    def counted(*args):
        simulated.append(args[0])
        return run_to_equilibrium(*args)

    monkeypatch.setattr(cli, "run_to_equilibrium", counted)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--resume"]) == 0
    assert len(simulated) == SMALL_CONFIG["j_simulations"]  # every shard written again
    bank, manifest = mio.load_simulation_bank(out)
    assert manifest["schema"] == "maplink/bank v2" and bank.size == len(simulated)


def test_cli_simulate_removes_shards_a_smaller_bank_no_longer_writes(tmp_path):
    four_scenarios = mio.RunConfig().to_jsonable()["scenarios"]
    out = tmp_path / "bank"
    main(["simulate", "--config", str(write_config(tmp_path, scenarios=four_scenarios)),
          "--out", str(out)])
    config = write_config(tmp_path, scenarios=four_scenarios, j_simulations=5)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--resume"]) == 0
    manifest = mio.load_manifest(out)
    assert len(manifest["shards"]) == 2
    # population_proposal.csv and per shard its json, params, population,
    # proposal mass, equilibrium and four trajectories
    assert len(manifest["checksums"]) == 1 + 2 * 9
    assert not list(out.glob("*0002*"))


def test_cli_simulate_removes_trajectories_of_a_dropped_scenario(tmp_path):
    out = tmp_path / "bank"
    main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)])
    (out / "notes.txt").write_text("not a shard file\n")
    config = write_config(tmp_path, scenarios=[{"name": "none", "kind": "none"}])
    assert main(["simulate", "--config", str(config), "--out", str(out), "--resume"]) == 0
    assert not list(out.glob("traj_aMDA65_*"))
    assert (out / "notes.txt").exists()
    assert set(mio.load_simulation_bank(out)[0].trajectories) == {"none"}


def test_cli_weight_manifest_records_overrides(tmp_path):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    out = tmp_path / "weights"
    assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                 "--pixels", str(make_pixel_file(tmp_path)), "--out", str(out),
                 "--delta", "0.25", "--ernd", "histogram"]) == 0
    recorded = mio.load_manifest(out)["config"]
    assert recorded["delta"] == 0.25
    assert recorded["ernd_kind"] == "histogram"


def test_cli_weight_rejects_bad_delta_override(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    pixels = make_pixel_file(tmp_path)
    capsys.readouterr()
    out = tmp_path / "weights"
    assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                 "--pixels", str(pixels), "--out", str(out), "--delta", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "delta" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("fail_on_warnings, code", [(True, 2), (False, 0)])
def test_cli_weight_exits_2_on_warnings_only_when_asked(tmp_path, fail_on_warnings, code):
    # no unit of a 10-simulation bank reaches an ESS of a million, so each is flagged
    config = write_config(tmp_path, ess_floor=1e6, fail_on_warnings=fail_on_warnings)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    out = tmp_path / "weights"
    assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                 "--pixels", str(make_pixel_file(tmp_path)), "--out", str(out),
                 "--delta", "0.25"]) == code
    caught = mio.load_manifest(out)["warnings"]
    assert caught and all("low effective sample size" in w for w in caught), caught


def test_cli_weight_names_unit_whose_samples_miss_the_bank(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    bank, _ = mio.load_simulation_bank(bank_dir)
    grid = np.linspace(0.0, 1.0, 201)
    gap = grid[np.argmax(np.abs(grid[:, None] - bank.equilibrium_prevalence).min(axis=1))]
    assert np.abs(bank.equilibrium_prevalence - gap).min() > 0.01  # outside every window
    pixels = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(pixels, [PixelPosterior(pixel_id="far", country="KE",
                                                      population=400.0, samples=np.full(30, gap))])
    capsys.readouterr()
    out = tmp_path / "weights"
    assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                 "--pixels", str(pixels), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unit far: ")
    assert not out.exists()


def test_cli_weight_and_project_chain(tmp_path):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    pixels = make_pixel_file(tmp_path)

    weights_a = tmp_path / "weights_a"
    weights_b = tmp_path / "weights_b"
    args = ["weight", "--config", str(config), "--bank", str(bank_dir),
            "--pixels", str(pixels), "--delta", "0.25"]
    assert main(args + ["--out", str(weights_a)]) == 0
    assert main(args + ["--out", str(weights_b), "--workers", "3"]) == 0
    assert read_all_bytes(weights_a) == read_all_bytes(weights_b)

    out = tmp_path / "summaries"
    assert main(
        ["project", "--config", str(config), "--bank", str(bank_dir),
         "--weights", str(weights_a), "--out", str(out)]
    ) == 0
    assert (out / "summary_none.csv").exists()
    assert (out / "summary_aMDA65.csv").exists()
    rows = read_schema_csv(out / "summary_aMDA65.csv", "summary")
    assert len(rows) == 3 * 3  # units x (years + 1)
    assert {r["scenario"] for r in rows} == {"aMDA65"}
    elim = (out / "proportion_eliminated.csv").read_text().splitlines()
    assert elim[1] == "scenario,probability_threshold,proportion_achieved"
    recovery = (out / "population_recovery.csv").read_text().splitlines()
    assert len(recovery) == 2 + 3


def test_cli_chain_emits_no_python_warnings(tmp_path):
    config = write_config(tmp_path)
    bank, weights, out = tmp_path / "bank", tmp_path / "weights", tmp_path / "summaries"
    shared = ["--config", str(config), "--bank", str(bank)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(config), "--out", str(bank)]) == 0
        assert main(["weight", *shared, "--pixels", str(make_pixel_file(tmp_path)),
                     "--out", str(weights), "--delta", "0.25"]) == 0
        assert main(["project", *shared, "--weights", str(weights), "--out", str(out)]) == 0
        for directory in (bank, weights, out):
            assert main(["inspect", str(directory)]) == 0


def test_cli_project_rejects_unknown_scenario(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    pixels = make_pixel_file(tmp_path)
    weights = tmp_path / "weights"
    main(["weight", "--config", str(config), "--bank", str(bank_dir),
          "--pixels", str(pixels), "--out", str(weights), "--delta", "0.25"])
    capsys.readouterr()
    assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                 "--weights", str(weights), "--out", str(tmp_path / "s"),
                 "--scenario", "missing"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "missing" in err[0]
    assert not (tmp_path / "s").exists()


def test_cli_project_refuses_a_repeated_scenario(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    weights = tmp_path / "weights"
    main(["weight", "--config", str(config), "--bank", str(bank_dir),
          "--pixels", str(make_pixel_file(tmp_path)), "--out", str(weights), "--delta", "0.25"])
    capsys.readouterr()
    assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                 "--weights", str(weights), "--out", str(tmp_path / "s"),
                 "--scenario", "aMDA65", "--scenario", "none", "--scenario", "none"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'none'" in err[0]
    assert "aMDA65" not in err[0]
    assert not (tmp_path / "s").exists()


def test_cli_weight_and_project_quote_ids_with_commas(tmp_path):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    rng = np.random.default_rng(3)
    pixels = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(pixels, [
        PixelPosterior(pixel_id=pid, country="KE", population=population,
                       samples=rng.beta(2.0, 2.0, size=30))
        for pid, population in (("KE,001", 400.0), ("p1", 500.0), ("KE,002", 20_000.0))
    ])
    weights, out = tmp_path / "weights", tmp_path / "summaries"
    assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                 "--pixels", str(pixels), "--out", str(weights), "--delta", "0.25"]) == 0
    assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                 "--weights", str(weights), "--out", str(out)]) == 0

    assert read_schema_csv(weights / "excluded_pixels.csv", "excluded") == [
        {"pixel_id": "KE,002"}]
    recovery = read_schema_csv(out / "population_recovery.csv", "recovery")
    assert [r["unit_id"] for r in recovery] == ["KE,001", "p1"]
    assert all(set(r) == {"unit_id", "estimated_population", "ess"} for r in recovery)
    assert all(float(r["estimated_population"]) > 0.0 and float(r["ess"]) >= 1.0
               for r in recovery)


def test_cli_project_refuses_weights_of_another_bank(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    (tmp_path / "other").mkdir()
    other_config = write_config(tmp_path / "other", j_simulations=12)
    other_bank = tmp_path / "other_bank"
    main(["simulate", "--config", str(other_config), "--out", str(other_bank)])
    pixels = make_pixel_file(tmp_path)
    weights = tmp_path / "weights"
    main(["weight", "--config", str(other_config), "--bank", str(other_bank),
          "--pixels", str(pixels), "--out", str(weights), "--delta", "0.25"])
    # a vector that claims this bank's size but whose indices run backwards
    units, _ = pool_and_filter(mio.load_pixel_posteriors(pixels))
    unordered = tmp_path / "unordered"
    mio.save_weights(unordered, units[:1], [PixelWeights(
        unit_id=units[0].unit_id, bank_size=10, indices=np.array([5, 2]),
        values=np.array([0.5, 0.5]), ess=2.0, dropped_map_fraction=0.0, clamp_count=0,
        low_ess=False)])
    mio.write_manifest(unordered, {"schema": mio.SCHEMA_VERSIONS["weights"]})
    capsys.readouterr()

    for weights_dir, reason in ((weights, "bank of 12 simulations"),
                                (unordered, "increase strictly within [0, 10)")):
        assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                     "--weights", str(weights_dir), "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unit p") and reason in err[0]
        assert not (tmp_path / "s").exists()  # every summary is computed before --out is made


_UNIT_ESS = 5  # the column of ess in units.csv


def _refresh_checksums(directory):
    """Record the current checksums of every file in the manifest of ``directory``."""
    mio.write_manifest(directory, mio.load_manifest(directory, verify=False))


def _set_first_weight(path):
    values = np.load(path)
    values[0] = -5.0
    np.save(path, values)


# `detail` is a further part of the one error line
@pytest.mark.parametrize("file, edit, detail", [
    ("values.npy", lambda path: np.save(path, np.load(path)[:-3]), ""),
    ("offsets.npy", lambda path: np.save(path, np.load(path) + 1), ""),
    ("offsets.npy", lambda path: np.save(path, np.load(path)[:-1]), ""),
    ("units.csv", lambda path: path.write_text("".join(path.read_text().splitlines(True)[:-1])),
     ""),
    ("values.npy", lambda path: np.save(path, np.load(path) * np.nan),
     "the weights of unit p0 are not all finite and positive"),
    ("values.npy", _set_first_weight, "the weights of unit p0 are not all finite and positive"),
    ("values.npy", lambda path: np.save(path, np.load(path) * 0.9),
     "the weights of unit p0 sum to 0.9"),
], ids=["values-short", "offsets-from-1", "offsets-end-early", "units-short", "values-nan",
        "values-negative", "values-sum-0.9"])
def test_cli_project_refuses_weight_arrays_that_disagree(tmp_path, capsys, file, edit, detail):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    weights = tmp_path / "weights"
    main(["weight", "--config", str(config), "--bank", str(bank_dir),
          "--pixels", str(make_pixel_file(tmp_path)), "--out", str(weights), "--delta", "0.25"])
    edit(weights / file)
    _refresh_checksums(weights)
    capsys.readouterr()
    assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                 "--weights", str(weights), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {weights / file}: ")
    assert detail in err[0], err
    assert not (tmp_path / "s").exists()


def test_cli_project_refuses_weights_edited_after_weight(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    weights = tmp_path / "weights"
    main(["weight", "--config", str(config), "--bank", str(bank_dir),
          "--pixels", str(make_pixel_file(tmp_path)), "--out", str(weights), "--delta", "0.25"])
    units = weights / "units.csv"
    lines = units.read_text().splitlines(True)
    row = lines[2].split(",")
    row[_UNIT_ESS] = "123.0"
    units.write_text("".join(lines[:2] + [",".join(row)] + lines[3:]))
    capsys.readouterr()
    assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                 "--weights", str(weights), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {units}: checksum mismatch"), err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["simulate", "weight"])
def test_cli_refuses_fewer_than_one_worker(tmp_path, capsys, command):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    inputs = {"simulate": [],
              "weight": ["--bank", str(bank_dir), "--pixels", str(make_pixel_file(tmp_path))]}
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--config", str(config), *inputs[command], "--out", str(out),
                 "--workers", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--workers" in err[0]
    assert not out.exists()


def test_cli_weight_chooses_delta_once_per_command(tmp_path, monkeypatch):
    config = write_config(tmp_path, delta=None)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    pixels = make_pixel_file(tmp_path)
    calls = []
    select_delta = reweight.select_delta
    monkeypatch.setattr(reweight, "select_delta",
                        lambda sims: calls.append(1) or select_delta(sims))

    args = ["weight", "--config", str(config), "--bank", str(bank_dir), "--pixels", str(pixels)]
    assert main(args + ["--out", str(tmp_path / "auto")]) == 0
    assert len(calls) == 1
    bank, _ = mio.load_simulation_bank(bank_dir)
    explicit = repr(select_delta(bank.equilibrium_prevalence))
    assert main(args + ["--out", str(tmp_path / "explicit"), "--delta", explicit]) == 0
    # the manifests differ only in the recorded delta
    auto, fixed = read_all_bytes(tmp_path / "auto"), read_all_bytes(tmp_path / "explicit")
    assert auto.pop("manifest.json") != fixed.pop("manifest.json")
    assert auto == fixed and len(auto) == 5


@pytest.mark.parametrize("flags", [[], ["--ernd", "histogram"], ["--ernd", "discrepancy"]],
                         ids=["auto-delta", "histogram", "discrepancy"])
def test_cli_weight_worker_equivalence_for_each_estimator(tmp_path, flags):
    config = write_config(tmp_path, delta=None)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    pixels = make_pixel_file(tmp_path, n=5)
    args = ["weight", "--config", str(config), "--bank", str(bank_dir), "--pixels", str(pixels),
            *flags]
    assert main(args + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert main(args + ["--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    assert read_all_bytes(tmp_path / "w1") == read_all_bytes(tmp_path / "w2")


@pytest.mark.parametrize("override, key", [
    ({"population_log_sd": 0}, "population_log_sd"),
    ({"model": {"l3_refernce": 1.0}}, "l3_refernce"),
    ({"model": {"l3_coupling": "none"}}, "l3_coupling"),
    ({"model": {"species": "aedes"}}, "species"),
    ({"scenarios": [{"kind": "annual"}]}, "coverage"),
    ({"years": "5"}, "years"),
    ({"model": {"burn_in_months": "36"}}, "burn_in_months"),
    ({"model": {"species": 1}}, "species"),
    ({"scenarios": [{"kind": "annual", "coverage": "0.65"}]}, "coverage"),
    ({"scenarios": [{"kind": "biannual", "coverage": True}]}, "coverage"),
    ({"scenarios": [{"kind": "rounds", "rounds": [[0, "0.5"]]}]}, "rounds"),
    ({"scenarios": [{"kind": "rounds", "rounds": [[0.5, 0.5]]}]}, "rounds"),
    ({"scenarios": [{"kind": "rounds", "rounds": [0, 0.5]}]}, "rounds"),
    ({"simulate_shard_size": -2}, "simulate_shard_size"),
    ({"proposal_reference_stride": -1}, "proposal_reference_stride"),
    ({"proposal_reference_stride": 0}, "proposal_reference_stride"),
    ({"proposal_iterations": -1}, "proposal_iterations"),
])
def test_cli_bad_config_is_one_line_error(tmp_path, capsys, override, key):
    config = write_config(tmp_path, **override)
    out = tmp_path / "bank"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, missing", [
    (["simulate", "--config", "{tmp}/no.json", "--out", "{tmp}/out"], "no.json"),
    (["weight", "--bank", "{tmp}/nobank", "--pixels", "{tmp}/pixels.csv", "--out", "{tmp}/out"],
     "nobank"),
    (["weight", "--bank", "{tmp}/bank", "--pixels", "{tmp}/nopixels.csv", "--out", "{tmp}/out"],
     "nopixels.csv"),
    (["inspect", "{tmp}/nodir"], "nodir"),
])
def test_cli_missing_input_is_one_line_error(tmp_path, capsys, command, missing):
    config = write_config(tmp_path)
    main(["simulate", "--config", str(config), "--out", str(tmp_path / "bank")])
    make_pixel_file(tmp_path)
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in command]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path / missing) in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines", [
    ["vector_host_ratio,mass", "5.0,1.0"],
    ["# schema: maplink/vh-k-grid v1", "vector_host_ratio,aggregation_k,mass", "5.0,abc,1.0"],
], ids=["missing-column", "not-a-number"])
def test_cli_simulate_names_a_bad_grid_file(tmp_path, capsys, lines):
    grid = tmp_path / "grid.csv"
    grid.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, vh_k_grid_path=str(grid))
    out = tmp_path / "bank"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {grid}: ")
    assert not out.exists()


def _rewrite_array(change):
    """An edit saving ``change`` of a bank array in its place, then refreshing the checksums."""
    def edit(path):
        np.save(path, change(np.load(path)))
        _refresh_checksums(path.parent)
    return edit


def _rename_the_ess_column(path):
    """Rename the ``ess`` column of ``units.csv``, then refresh the weights' checksums."""
    path.write_bytes(path.read_bytes().replace(b",ess,", b",ESS,", 1))
    _refresh_checksums(path.parent)


# `detail` is a further part of the one error line; a bank array has no lines, so its
# error names the shard instead
@pytest.mark.parametrize("command, file, edit, detail", [
    ("weight", "pixels.csv", lambda path: path.write_bytes(path.read_bytes() + b"\n"), ""),
    ("weight", "pixels.csv", lambda path: path.write_bytes(path.read_bytes().split(b"\n")[0]),
     ""),
    ("weight", "pixels.csv",
     lambda path: path.write_bytes(path.read_bytes().replace(b",KE,", b",KE,x", 1)), ""),
    ("weight", "pixels.csv",
     lambda path: path.write_bytes(path.read_bytes().replace(b",KE,", b",K\xff,", 1)), ""),
    ("project", "weights/units.csv", _rename_the_ess_column, ""),
    ("weight", "bank/population_s0000.npy", _rewrite_array(lambda a: a[:-1]),
     ": shape (3,), but shard 0 needs (4,)"),
    ("weight", "bank/population_s0000.npy", _rewrite_array(lambda a: a + 0.5),
     ": shard 0: population 306.5 of simulation 0 is float64, not an integer"),
    ("weight", "bank/proposal_mass_s0000.npy", _rewrite_array(lambda a: a * np.nan),
     ": shard 0: proposal_mass nan of simulation 0 is not a number in (0, 1]"),
    ("weight", "bank/population_s0000.npy", _rewrite_array(lambda a: np.where(a == a[1], 0, a)),
     ": shard 0: population 0 of simulation 1 is below 1"),
    ("weight", "pixels.csv",
     lambda path: path.write_bytes(path.read_bytes().replace(b"\np1,", b"\np0,", 1)),
     "line 4: pixel id 'p0' is repeated"),
], ids=["pixels-blank-line", "pixels-schema-only", "pixels-not-a-number", "pixels-not-utf8",
        "units-renamed-column", "params-short-row", "params-sim-id", "params-not-a-number",
        "population-below-1", "pixels-repeated-id"])
def test_cli_refuses_a_malformed_table_naming_file_and_line(tmp_path, capsys, command, file,
                                                            edit, detail):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    pixels = make_pixel_file(tmp_path)
    weights = tmp_path / "weights"
    main(["weight", "--config", str(config), "--bank", str(bank_dir), "--pixels", str(pixels),
          "--out", str(weights), "--delta", "0.25"])
    edit(tmp_path / file)
    capsys.readouterr()
    inputs = {"weight": ["--pixels", str(pixels)], "project": ["--weights", str(weights)]}
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--bank", str(bank_dir), *inputs[command],
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    where = "" if file.endswith(".npy") else "line "
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / file}: {where}"), err
    assert detail in err[0] and "row 0" not in err[0], err
    assert not out.exists()


# --- reading a bank -------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    {"j_simulations": 23, "simulate_shard_size": 5, "pilot_simulations": 2},
    {"j_simulations": 1},
], ids=["uneven-last-shard", "one-simulation"])
def test_load_simulation_bank_matches_the_reference(tmp_path, overrides):
    bank_dir = tmp_path / "bank"
    assert main(["simulate", "--config", str(write_config(tmp_path, **overrides)),
                 "--out", str(bank_dir)]) == 0
    bank, manifest = mio.load_simulation_bank(bank_dir)
    reference = reference_load_bank(bank_dir)
    assert manifest == json.loads((bank_dir / "manifest.json").read_text())
    assert bank.size == overrides["j_simulations"]
    for name in ("populations", "population_proposal_mass", "equilibrium_prevalence"):
        got, want = getattr(bank, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert list(bank.trajectories) == list(reference.trajectories) == ["aMDA65", "none"]
    for name, want in reference.trajectories.items():
        got = bank.trajectories[name]
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _edit_manifest(change):
    """An edit applying ``change`` to the bank's manifest payload, checksums kept."""
    def edit(bank_dir):
        path = bank_dir / "manifest.json"
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
    return edit


def _rewrite_shard_file(name, change):
    """An edit replacing one shard file by ``change`` of it, then refreshing the checksums."""
    def edit(bank_dir):
        change(bank_dir / name)
        _refresh_checksums(bank_dir)
    return edit


def _set_item(key, value, shard=None):
    def change(payload):
        (payload if shard is None else payload["shards"][shard])[key] = value
    return change


def _resplit_shards(sizes):
    """An edit moving the bank's simulations, in order, into shards of ``sizes``, its manifest
    and checksums to match."""
    def edit(bank_dir):
        payload = json.loads((bank_dir / "manifest.json").read_text())
        starts = np.cumsum([0, *sizes[:-1]])
        for key in payload["shards"][0]["files"].keys() - {"params"}:
            names = [shard["files"][key] for shard in payload["shards"]]
            arrays = np.split(np.concatenate([np.load(bank_dir / n) for n in names]), starts[1:])
            for name, array in zip(names, arrays):
                np.save(bank_dir / name, array)
        for shard, start, size in zip(payload["shards"], starts, sizes):
            shard.update(first_sim_id=int(start), j=size)
        mio.write_manifest(bank_dir, payload)
    return edit


@pytest.mark.parametrize("edit, named", [
    (_edit_manifest(_set_item("schema", "maplink/bank v1")),
     "schema is 'maplink/bank v1', expected 'maplink/bank v2'; rebuild the bank with "
     "`maplink simulate`"),
    (_edit_manifest(lambda payload: payload["checksums"].pop("equilibrium_s0001.npy")),
     "shard 1: equilibrium_s0001.npy has no checksum"),
    (_edit_manifest(_set_item("index", 5, shard=1)), "shard 1: index is 5, expected 1"),
    (_edit_manifest(_set_item("first_sim_id", 5, shard=1)), "shard 1: first_sim_id is 5"),
    (_edit_manifest(_set_item("j", 11)), "shard 2: j is 2, expected 3"),
    (_edit_manifest(_set_item("j", 13)), "3 shards of 4, but j = 13 takes 4"),
    (_edit_manifest(lambda payload: payload["shards"].insert(0, payload["shards"].pop(1))),
     "shard 0: index is 1, expected 0"),
    (_resplit_shards([4, 3, 3]), "shard 1: j is 3, expected 4"),
    (_edit_manifest(lambda payload: payload.update(shards=payload["shards"][:2] + ["a shard"])),
     "shard 2: index is None, expected 2"),
    (_edit_manifest(lambda payload: payload.pop("scenarios")), "scenarios are None"),
    (_edit_manifest(lambda payload: payload["shards"][1].pop("files")), "files"),
    (_edit_manifest(lambda payload: payload["shards"][2]["files"].pop("traj_none")),
     "shard 2: files"),
    (_edit_manifest(lambda payload: payload["shards"][1]["files"].update(
        equilibrium="equilibrium_s0000.npy")), "shard 1: files"),
    (_rewrite_shard_file("equilibrium_s0001.npy", lambda path: np.save(path, np.load(path)[:-1])),
     "equilibrium_s0001.npy: shape (3,), but shard 1 needs (4,)"),
    (_rewrite_shard_file("proposal_mass_s0001.npy", lambda path: np.save(
        path, np.load(path)[:-1])), "proposal_mass_s0001.npy: shape (3,), but shard 1 needs (4,)"),
    (_rewrite_shard_file("proposal_mass_s0001.npy", lambda path: np.save(
        path, np.load(path) * np.inf)), "proposal_mass_s0001.npy: shard 1: proposal_mass inf "
                                        "of simulation 4 is not a number in (0, 1]"),
    (_rewrite_shard_file("equilibrium_s0001.npy", lambda path: np.save(
        path, np.concatenate(([1.5], np.load(path)[1:])))),
     "equilibrium_s0001.npy: shard 1: equilibrium 1.5 of simulation 4 is not a number in [0, 1]"),
    (_rewrite_shard_file("equilibrium_s0001.npy", lambda path: np.save(
        path, np.load(path).astype(object), allow_pickle=True)), "s0001.npy: holds object"),
    (_rewrite_shard_file("equilibrium_s0001.npy", lambda path: np.save(
        path, np.load(path).astype(str))), "s0001.npy: holds <U"),
    (_rewrite_shard_file("equilibrium_s0001.npy", lambda path: path.write_bytes(
        path.read_bytes()[:-8])), "s0001.npy: 24 bytes of data, but a (4,) array"),
    (_rewrite_shard_file("equilibrium_s0001.npy", lambda path: path.write_bytes(b"an array")),
     "s0001.npy: the magic string is not correct"),
], ids=["schema", "unlisted-file", "indices-gap", "sim-ids-gap", "j-sum", "shard-count",
        "shards-out-of-order", "uneven-shards", "shard-not-an-object", "no-scenarios",
        "no-files", "files-differ", "files-of-another-shard", "array-rows", "params-rows",
        "proposal-mass-infinite", "equilibrium-above-1", "array-of-objects", "array-of-strings",
        "array-truncated", "not-an-array"])
def test_cli_weight_refuses_a_malformed_bank_naming_directory_and_shard(tmp_path, capsys, edit,
                                                                        named):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    edit(bank_dir)
    capsys.readouterr()
    out = tmp_path / "weights"
    assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                 "--pixels", str(make_pixel_file(tmp_path)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bank_dir}/") and named in err[0], err
    assert not out.exists()


# a value put at simulation 5, the second of shard 1 (shards of 4), and the refusal it gets
@pytest.mark.parametrize("key, value, fault", [
    ("population", 0, "population 0 of simulation 5 is below 1"),
    ("population", 300.5, "population 300.5 of simulation 5 is float64, not an integer"),
    ("proposal_mass", 1.5, "proposal_mass 1.5 of simulation 5 is not a number in (0, 1]"),
    ("proposal_mass", 0.0, "proposal_mass 0.0 of simulation 5 is not a number in (0, 1]"),
    ("proposal_mass", np.nan, "proposal_mass nan of simulation 5 is not a number in (0, 1]"),
    ("equilibrium", -0.25, "equilibrium -0.25 of simulation 5 is not a number in [0, 1]"),
    ("equilibrium", np.nan, "equilibrium nan of simulation 5 is not a number in [0, 1]"),
    ("traj_aMDA65", 1.5, "traj_aMDA65 1.5 of simulation 5 is not a number in [0, 1]"),
], ids=["population-0", "population-fraction", "mass-above-1", "mass-0", "mass-nan",
        "equilibrium-negative", "equilibrium-nan", "trajectory-above-1"])
def test_a_bank_column_rule_refuses_the_same_fault_in_memory_and_on_disk(tmp_path, key, value,
                                                                         fault):
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(bank_dir)])
    bank, manifest = mio.load_simulation_bank(bank_dir)
    fields = {"population": "populations", "proposal_mass": "population_proposal_mass",
              "equilibrium": "equilibrium_prevalence"}
    old = bank.trajectories[key[5:]] if key.startswith("traj_") else getattr(bank, fields[key])
    column = old.astype(np.result_type(old, value))  # a fraction makes populations floats
    column[5] = value
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        if key.startswith("traj_"):
            SimulationBank(bank.populations, bank.population_proposal_mass,
                           bank.equilibrium_prevalence, {**bank.trajectories, key[5:]: column})
        else:
            dataclasses.replace(bank, **{fields[key]: column})

    path = bank_dir / manifest["shards"][1]["files"][key]
    np.save(path, column[4:8])
    _refresh_checksums(bank_dir)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: shard 1: {fault}')}$"):
        mio.load_simulation_bank(bank_dir)


def test_cli_project_refuses_a_trajectory_that_is_not_a_prevalence(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    weights = tmp_path / "weights"
    main(["weight", "--config", str(config), "--bank", str(bank_dir),
          "--pixels", str(make_pixel_file(tmp_path)), "--out", str(weights), "--delta", "0.25"])

    def put_nan(path):
        traj = np.load(path)
        traj[1, 2] = np.nan
        np.save(path, traj)

    _rewrite_shard_file("traj_aMDA65_s0001.npy", put_nan)(bank_dir)
    capsys.readouterr()
    assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                 "--weights", str(weights), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: {bank_dir / 'traj_aMDA65_s0001.npy'}: shard 1: "), err
    assert "traj_aMDA65 nan of simulation 5 is not a number in [0, 1]" in err[0], err
    assert not (tmp_path / "s").exists()


def test_cli_project_refuses_weights_whose_manifest_has_another_schema(tmp_path, capsys):
    # weight files under a toy table's manifest whose checksums still match them
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    weights = tmp_path / "weights"
    main(["weight", "--config", str(config), "--bank", str(bank_dir),
          "--pixels", str(make_pixel_file(tmp_path)), "--out", str(weights), "--delta", "0.25"])
    mio.write_manifest(weights, dict(mio.load_manifest(weights, verify=False),
                                     schema=mio.SCHEMA_VERSIONS["toy_table"]))
    capsys.readouterr()
    assert main(["project", "--config", str(config), "--bank", str(bank_dir),
                 "--weights", str(weights), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: {weights / 'manifest.json'}: schema is 'maplink/toy-table v1', "
        f"expected 'maplink/weights v1'"), err
    assert not (tmp_path / "s").exists()


def test_cli_project_removes_summaries_of_scenarios_it_does_not_write(tmp_path):
    config = write_config(tmp_path)
    bank_dir, weights, out = tmp_path / "bank", tmp_path / "weights", tmp_path / "summaries"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    main(["weight", "--config", str(config), "--bank", str(bank_dir),
          "--pixels", str(make_pixel_file(tmp_path)), "--out", str(weights), "--delta", "0.25"])
    shared = ["--config", str(config), "--bank", str(bank_dir), "--weights", str(weights)]
    assert main(["project", *shared, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert main(["project", *shared, "--out", str(out), "--scenario", "none"]) == 0
    assert not (out / "summary_aMDA65.csv").exists()
    assert (out / "notes.txt").read_text() == "kept"  # not a summary: left alone
    manifest = mio.load_manifest(out)
    assert manifest["scenarios"] == ["none"]
    assert sorted(manifest["checksums"]) == [
        "elimination.csv", "notes.txt", "population_recovery.csv", "proportion_eliminated.csv",
        "summary_none.csv"]
    fresh = tmp_path / "fresh"
    assert main(["project", *shared, "--out", str(fresh), "--scenario", "none"]) == 0
    assert {k: v for k, v in read_all_bytes(out).items() if k not in ("notes.txt", "manifest.json")
            } == {k: v for k, v in read_all_bytes(fresh).items() if k != "manifest.json"}


def _weight_run(tmp_path) -> list[str]:
    """The `weight` arguments into ``tmp_path / "out"``, with its bank made."""
    config = write_config(tmp_path)
    main(["simulate", "--config", str(config), "--out", str(tmp_path / "bank")])
    return ["weight", "--config", str(config), "--bank", str(tmp_path / "bank"),
            "--pixels", str(make_pixel_file(tmp_path)), "--out", str(tmp_path / "out")]


def _toy_run(tmp_path) -> list[str]:
    return ["toy-validate", "--out", str(tmp_path / "out"), "--m", "50", "--j", "50",
            "--replicates", "1"]


@pytest.mark.parametrize("first, second, found", [
    (_weight_run, _toy_run, "schema is 'maplink/weights v1', not a 'maplink/toy-table' run's"),
    (_toy_run, _weight_run, "schema is 'maplink/toy-table v1', not a 'maplink/weights' run's"),
], ids=["toy-validate-into-weights", "weight-into-toy-table"])
def test_cli_refuses_an_out_holding_another_stages_run(tmp_path, capsys, first, second, found):
    assert main(first(tmp_path)) == 0
    before = read_all_bytes(tmp_path / "out")
    capsys.readouterr()
    assert main(second(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {tmp_path / 'out' / 'manifest.json'}: {found}; write to another --out"]
    assert read_all_bytes(tmp_path / "out") == before


@pytest.mark.parametrize("manifest", ['{"schema": ', "[]", "{}"], ids=["cut", "list", "no-schema"])
@pytest.mark.parametrize("command", [_weight_run, _toy_run], ids=["weight", "toy-validate"])
def test_cli_refuses_an_out_whose_manifest_cannot_be_read(tmp_path, capsys, command, manifest):
    argv = command(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "manifest.json").write_text(manifest)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'out' / 'manifest.json'}: ")
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]


def _computes_nothing(*args, **kwargs):
    raise AssertionError("computed before --out was checked")


@pytest.mark.parametrize("argv, compute, found", [
    (["simulate", "--config", "{tmp}/config.json"], (cli, "adapt_population_proposal"),
     "schema is 'maplink/toy-table v1', not a 'maplink/bank' run's"),
    (["weight", "--config", "{tmp}/config.json", "--bank", "{tmp}/bank", "--pixels",
      "{tmp}/pixels.csv"], (mio, "load_simulation_bank"),
     "schema is 'maplink/toy-table v1', not a 'maplink/weights' run's"),
    (["project", "--config", "{tmp}/config.json", "--bank", "{tmp}/bank", "--weights",
      "{tmp}/weights"], (mio, "load_simulation_bank"),
     "schema is 'maplink/toy-table v1', not a 'maplink/summary' run's"),
    (["toy-validate"], (cli, "run_toy_experiment"),
     "schema is 'maplink/weights v1', not a 'maplink/toy-table' run's"),
], ids=["simulate", "weight", "project", "toy-validate"])
def test_cli_checks_out_before_it_computes_anything(tmp_path, capsys, monkeypatch, argv, compute,
                                                    found):
    write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    schema = "maplink/weights v1" if argv[0] == "toy-validate" else "maplink/toy-table v1"
    mio.write_manifest(out, {"schema": schema})
    before = read_all_bytes(out)
    monkeypatch.setattr(*compute, _computes_nothing)
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {out / 'manifest.json'}: {found}; write to another --out"]
    assert read_all_bytes(out) == before


def test_cli_weight_names_the_pixels_of_a_pool_without_population(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    pixels = tmp_path / "pixels.csv"
    mio.save_pixel_posteriors(pixels, [
        PixelPosterior(pixel_id=p, country="KE", population=n, samples=np.full(5, 0.3))
        for p, n in (("p0", 0.0), ("p1", 400.0), ("p2", 0.0))])
    capsys.readouterr()
    out = tmp_path / "weights"
    assert main(["weight", "--config", str(config), "--bank", str(bank_dir),
                 "--pixels", str(pixels), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: country KE: pooled pixels p0, p2 must have positive total population"]
    assert not out.exists()


def test_cli_toy_validate_names_the_cell_whose_weights_vanish(tmp_path, capsys):
    out = tmp_path / "toy"
    assert main(["toy-validate", "--out", str(out), "--m", "1", "--j", "3",
                 "--replicates", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: prior proposal, histogram estimator, replicate 0 of seed 0: all weights are zero"]
    assert not out.exists()


def test_cli_toy_validate_writes_table(tmp_path):
    out = tmp_path / "toy"
    assert main(
        ["toy-validate", "--out", str(out), "--m", "200", "--j", "200",
         "--replicates", "3", "--seed", "4"]
    ) == 0
    lines = (out / "toy_table.csv").read_text().splitlines()
    assert lines[0].startswith("# schema: maplink/toy-table")
    assert len(lines) == 2 + 6  # header rows + 2 proposals x 3 estimators
    raw = (out / "toy_replicates.csv").read_text().splitlines()
    assert len(raw) == 2 + 6 * 3


@pytest.mark.parametrize("flags, named", [(["--m", "0"], "m=0"), (["--j", "2"], "j=2")],
                         ids=["m-0", "j-2"])
def test_cli_toy_validate_refuses_too_few_samples_or_simulations(tmp_path, capsys, flags, named):
    out = tmp_path / "toy"
    assert main(["toy-validate", "--out", str(out), "--replicates", "2", *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not out.exists()


def test_cli_toy_validate_refuses_an_infinite_delta(tmp_path, capsys):
    out = tmp_path / "toy"
    assert main(["toy-validate", "--out", str(out), "--m", "50", "--j", "50",
                 "--replicates", "2", "--delta", "inf"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: delta must be positive and finite, got inf"]
    assert not out.exists()


def test_cli_inspect_reports_and_verifies(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    assert main(["inspect", str(bank_dir)]) == 0
    out = capsys.readouterr().out
    assert "maplink/bank v2" in out
    (bank_dir / "params_s0000.csv").write_text("tampered")
    assert main(["inspect", str(bank_dir)]) == 1


@pytest.mark.parametrize("text", ["[]", "1", "null", '{"seed": '],
                         ids=["list", "number", "null", "cut"])
def test_cli_refuses_a_config_that_is_not_a_json_object(tmp_path, capsys, text):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(text)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {config}: "), err
    assert not out.exists()


@pytest.mark.parametrize("payload, named", [
    ({"bogus": 1}, "unknown config keys: ['bogus']"),
    ({"j_simulations": "x"}, "config key 'j_simulations' has the wrong type: 'x'"),
    ({"scenarios": [{"name": "a", "kind": "annual"}]}, "has no 'coverage'"),
    ({"seed": -1}, "seed must be at least 0, got -1"),
    ({"importation_max": float("inf")}, "importation_max must lie in [0, inf), got inf"),
    ({"importation_max": -0.001}, "importation_max must lie in [0, inf), got -0.001"),
    ({"scenarios": [{"name": "a/b", "kind": "none"}]},
     "scenario names must be unique and hold no '/' or NUL, got ['a/b']"),
    ({"scenarios": [{"name": "a\0b", "kind": "none"}]},
     "scenario names must be unique and hold no '/' or NUL, got ['a\\x00b']"),
], ids=["unknown-key", "wrong-type", "scenario-without-coverage", "negative-seed",
        "infinite-importation", "negative-importation", "scenario-name-with-slash",
        "scenario-name-with-nul"])
def test_cli_config_errors_name_the_file(tmp_path, capsys, payload, named):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {config}: ") and named in err[0], err
    assert not out.exists()


def test_cli_simulate_refuses_a_negative_seed_override_before_writing(tmp_path, capsys):
    out = tmp_path / "bank"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out),
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be at least 0, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("manifest", ["[1, 2]", '{"checksums": ["a.csv"]}', '{"schema": '],
                         ids=["list", "checksums-list", "cut"])
def test_cli_inspect_refuses_a_manifest_that_is_not_an_object(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    assert main(["inspect", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'manifest.json'}: "), err
