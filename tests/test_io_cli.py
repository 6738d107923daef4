"""Tests for file schemas, manifests, configuration and the CLI chain."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from maplink import cli
from maplink import io as mio
from maplink.cli import main
from maplink.pipeline import PixelPosterior, PixelWeights, PooledUnit, SimulationBank
from maplink.proposal import ParameterVector, TabulatedProposal


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


def test_cli_simulate_removes_shards_a_smaller_bank_no_longer_writes(tmp_path):
    four_scenarios = mio.RunConfig().to_jsonable()["scenarios"]
    out = tmp_path / "bank"
    main(["simulate", "--config", str(write_config(tmp_path, scenarios=four_scenarios)),
          "--out", str(out)])
    config = write_config(tmp_path, scenarios=four_scenarios, j_simulations=5)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--resume"]) == 0
    manifest = mio.load_manifest(out)
    assert len(manifest["shards"]) == 2
    # population_proposal.csv and per shard its json, params, equilibrium
    # and four trajectories
    assert len(manifest["checksums"]) == 1 + 2 * 7
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


def test_cli_inspect_reports_and_verifies(tmp_path, capsys):
    config = write_config(tmp_path)
    bank_dir = tmp_path / "bank"
    main(["simulate", "--config", str(config), "--out", str(bank_dir)])
    assert main(["inspect", str(bank_dir)]) == 0
    out = capsys.readouterr().out
    assert "maplink/bank v1" in out
    (bank_dir / "params_s0000.csv").write_text("tampered")
    assert main(["inspect", str(bank_dir)]) == 1
