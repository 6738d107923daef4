"""Command-line surface tying the pipeline together.

Subcommands mirror the three pipeline stages plus validation and inspection:

* ``simulate``     build the proposal, sample parameters, run the bank
* ``weight``       reweight the bank for every pixel of a posterior file
* ``project``      turn weights and trajectories into summary maps
* ``toy-validate`` replicate the analytic-benchmark table
* ``inspect``      verify and describe a run directory

Every stage writes a manifest capturing configuration, seeds and checksums,
and is deterministic for a given seed regardless of ``--workers``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .pipeline import ordered_map, pool_and_filter, project, weight_all
from .proposal import adapt_population_proposal, default_vh_k_grid, load_vh_k_grid, sample_bank
from .toy import run_toy_experiment, summarize_reports
from .transmission import (
    importation_decay_from_pilot,
    run_scenario,
    run_to_equilibrium,
)

# the names of the files a bank shard writes (see io.write_bank_shard)
_SHARD_FILE = re.compile(r"shard_\d{4,}\.json|params_s\d{4,}\.csv|equilibrium_s\d{4,}\.npy"
                         r"|traj_.+_s\d{4,}\.npy")


def _run_config(args, **overrides) -> mio.RunConfig:
    """``--config`` (or the defaults) with every override that is not ``None``."""
    config = mio.RunConfig.from_json(args.config) if args.config else mio.RunConfig()
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _simulate_one(shared, sim_index: int):
    """Equilibrium plus one trajectory per scenario for one parameter draw.

    The scenario generator is seeded identically for every scenario of a
    simulation, so intervention effects are compared under matched random
    numbers.
    """
    thetas, params, scenarios, seed_pairs = shared
    theta = thetas[sim_index]
    eq_seed, scenario_seed = seed_pairs[sim_index]
    prevalence, state = run_to_equilibrium(theta, params, np.random.default_rng(eq_seed))
    trajectories = {}
    for scenario in scenarios:
        trajectories[scenario.name] = run_scenario(
            state, scenario, theta, params, np.random.default_rng(scenario_seed)
        )
    return prevalence, trajectories


def cmd_simulate(args) -> int:
    config = _run_config(args, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = config.model_params()

    population_proposal = adapt_population_proposal(
        config.population_log_sd,
        population_range=config.population_range,
        iterations=config.proposal_iterations,
        tail_to=config.population_tail_to,
        reference_stride=config.proposal_reference_stride,
    )
    mio.save_population_proposal(out / "population_proposal.csv", population_proposal)
    grid = (
        load_vh_k_grid(config.vh_k_grid_path)
        if config.vh_k_grid_path
        else default_vh_k_grid()
    )

    thetas = sample_bank(
        population_proposal,
        grid,
        j=config.j_simulations,
        seed=config.seed,
        importation_max=config.importation_max,
    )
    proposal_mass = population_proposal.density(
        np.array([t.population for t in thetas], dtype=np.int64)
    )
    scenarios = config.scenario_objects()
    # one (equilibrium, scenario) seed pair per simulation, spawned once here:
    # spawning mutates a SeedSequence, so spawning inside a run would tie the
    # seeds to how often, and in which process, a simulation had run before
    seed_pairs = [
        child.spawn(2)
        for child in np.random.SeedSequence(config.seed).spawn(
            config.j_simulations + max(config.pilot_simulations, 0)
        )
    ]

    if config.pilot_simulations > 0:
        # constant-importation pilot runs feed the per-scenario decay tables
        pilot_thetas = thetas[: config.pilot_simulations]
        results = ordered_map(
            _simulate_one,
            (pilot_thetas, params, scenarios, seed_pairs[config.j_simulations:]),
            len(pilot_thetas), args.workers, chunksize=4,
        )
        scenarios = [
            s.with_decay(importation_decay_from_pilot(np.stack([r[1][s.name] for r in results])))
            for s in scenarios
        ]

    shard_size = config.simulate_shard_size
    # a shard is reused only if it was written from the same bank settings
    config_digest = config.bank_digest()
    shard_entries = []
    for shard_index, start in enumerate(range(0, config.j_simulations, shard_size)):
        stop = min(start + shard_size, config.j_simulations)
        shard_json = out / f"shard_{shard_index:04d}.json"
        if args.resume and shard_json.exists():
            entry = json.loads(shard_json.read_text())
            if entry.get("config_sha256") == config_digest and all(
                (out / name).exists()
                and mio.sha256_file(out / name) == entry["sha256"][name]
                for name in entry["sha256"]
            ):
                shard_entries.append({k: entry[k] for k in ("index", "first_sim_id", "j", "files")})
                continue
        results = ordered_map(
            _simulate_one, (thetas[start:stop], params, scenarios, seed_pairs[start:stop]),
            stop - start, args.workers, chunksize=4,
        )
        eq = np.array([r[0] for r in results])
        traj = {
            s.name: np.stack([r[1][s.name] for r in results]) for s in scenarios
        }
        entry = mio.write_bank_shard(
            out, shard_index, start, thetas[start:stop], proposal_mass[start:stop], eq, traj
        )
        entry_with_sums = dict(entry, config_sha256=config_digest)
        entry_with_sums["sha256"] = {
            name: mio.sha256_file(out / name) for name in entry["files"].values()
        }
        shard_json.write_text(json.dumps(entry_with_sums, indent=2, sort_keys=True) + "\n")
        shard_entries.append(entry)

    # drop shard files of an earlier, larger plan so the manifest never lists them
    kept = {f"shard_{e['index']:04d}.json" for e in shard_entries}
    kept.update(name for e in shard_entries for name in e["files"].values())
    for path in out.iterdir():
        if _SHARD_FILE.fullmatch(path.name) and path.name not in kept:
            path.unlink()
    mio.write_manifest(
        out,
        {
            "schema": mio.SCHEMA_VERSIONS["bank"],
            "seed": config.seed,
            "j": config.j_simulations,
            "years": config.years,
            "scenarios": [s.name for s in scenarios],
            "importation_decay": {
                s.name: list(s.importation_decay) if s.importation_decay else None
                for s in scenarios
            },
            "config": config.to_jsonable(),
            "shards": shard_entries,
        },
    )
    print(f"simulate: wrote {config.j_simulations} simulations to {out}")
    return 0


def cmd_weight(args) -> int:
    config = _run_config(args, delta=args.delta, ernd_kind=args.ernd)
    bank, _ = mio.load_simulation_bank(Path(args.bank))
    pixels = mio.load_pixel_posteriors(Path(args.pixels))
    out = Path(args.out)

    units, excluded = pool_and_filter(
        pixels,
        min_population=config.pooling_min_population,
        max_population=config.pooling_max_population,
    )
    weights = weight_all(units, bank, config, workers=args.workers)
    caught = [
        f"country {u.country}: pooled unit of {len(u.member_pixel_ids)} pixel(s) only reaches "
        f"population {u.population:.0f} (minimum {config.pooling_min_population:.0f})"
        for u in units
        if u.undersized
    ] + [
        f"unit {w.unit_id}: low effective sample size {w.ess:.1f}" for w in weights if w.low_ess
    ]

    out.mkdir(parents=True, exist_ok=True)
    mio.save_weights(out, units, weights)
    mio.write_excluded_pixels(out / "excluded_pixels.csv", excluded)
    mio.write_manifest(
        out,
        {
            "schema": mio.SCHEMA_VERSIONS["weights"],
            "bank": str(args.bank),
            "pixels": str(args.pixels),
            "units": len(units),
            "excluded": excluded,
            "warnings": sorted(caught),
            "config": config.to_jsonable(),
        },
    )
    print(
        f"weight: {len(units)} unit(s), {len(excluded)} excluded pixel(s), "
        f"{len(caught)} warning(s) -> {out}"
    )
    if caught and config.fail_on_warnings:
        return 2
    return 0


def cmd_project(args) -> int:
    config = _run_config(args)
    bank, bank_manifest = mio.load_simulation_bank(Path(args.bank))
    weights = mio.load_weights(Path(args.weights))
    scenario_names = args.scenario or bank_manifest["scenarios"]
    missing = [s for s in scenario_names if s not in bank.trajectories]
    if missing:
        raise ValueError(f"scenario(s) {missing} not present in the bank")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    summaries = []
    for scenario in scenario_names:
        per_scenario = [
            project(w, bank, scenario, elimination_threshold=config.elimination_threshold)
            for w in weights
        ]
        mio.write_summary_csv(out / f"summary_{scenario}.csv", per_scenario)
        summaries.extend(per_scenario)
    mio.write_elimination_csv(
        out / "elimination.csv", summaries, config.probability_thresholds
    )
    mio.write_proportion_eliminated_csv(
        out / "proportion_eliminated.csv", summaries, config.probability_thresholds
    )
    mio.write_population_recovery(out / "population_recovery.csv", weights, bank)
    mio.write_manifest(
        out,
        {
            "schema": mio.SCHEMA_VERSIONS["summary"],
            "bank": str(args.bank),
            "weights": str(args.weights),
            "scenarios": list(scenario_names),
            "elimination_threshold": config.elimination_threshold,
            "probability_thresholds": list(config.probability_thresholds),
            "config": config.to_jsonable(),
        },
    )
    print(f"project: {len(summaries)} summaries over {len(scenario_names)} scenario(s) -> {out}")
    return 0


def cmd_toy_validate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    raw_rows = []
    for proposal_kind in ("prior", "uniform"):
        for ernd_kind in ("distance", "histogram", "discrepancy"):
            reports = run_toy_experiment(
                m=args.m,
                j=args.j,
                replicates=args.replicates,
                ernd_kind=ernd_kind,
                proposal_kind=proposal_kind,
                delta_policy=args.delta,
                seed=args.seed,
            )
            rows.append(summarize_reports(reports))
            raw_rows.extend(reports)
    mio.write_toy_table(out / "toy_table.csv", rows)
    mio.write_toy_replicates(out / "toy_replicates.csv", raw_rows)
    mio.write_manifest(
        out,
        {
            "schema": mio.SCHEMA_VERSIONS["toy_table"],
            "seed": args.seed,
            "m": args.m,
            "j": args.j,
            "replicates": args.replicates,
        },
    )
    print(f"toy-validate: {len(rows)} table cells -> {out}")
    return 0


def cmd_inspect(args) -> int:
    manifest = mio.load_manifest(Path(args.path), verify=not args.no_verify)
    print(f"schema:   {manifest.get('schema', 'unknown')}")
    for key in ("seed", "j", "years", "units", "scenarios"):
        if key in manifest:
            print(f"{key}: {manifest[key]}")
    n_files = len(manifest.get("checksums", {}))
    state = "verified" if not args.no_verify else "not checked"
    print(f"files:    {n_files} ({state})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maplink",
        description="Link prevalence-map posteriors to a transmission-model simulation bank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="build the proposal and run the simulation bank")
    sim.add_argument("--config", type=Path, default=None, help="run configuration JSON")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--out", type=Path, required=True)
    sim.add_argument("--resume", action="store_true", help="keep shards that verify")
    sim.set_defaults(func=cmd_simulate)

    wgt = sub.add_parser("weight", help="reweight the bank for each pixel")
    wgt.add_argument("--config", type=Path, default=None)
    wgt.add_argument("--bank", type=Path, required=True)
    wgt.add_argument("--pixels", type=Path, required=True)
    wgt.add_argument("--out", type=Path, required=True)
    wgt.add_argument("--workers", type=int, default=1)
    wgt.add_argument("--delta", type=float, default=None, help="window width override")
    wgt.add_argument(
        "--ernd", choices=("distance", "histogram", "discrepancy"), default=None
    )
    wgt.set_defaults(func=cmd_weight)

    prj = sub.add_parser("project", help="summarise weighted projections")
    prj.add_argument("--config", type=Path, default=None)
    prj.add_argument("--bank", type=Path, required=True)
    prj.add_argument("--weights", type=Path, required=True)
    prj.add_argument("--out", type=Path, required=True)
    prj.add_argument("--scenario", action="append", default=None)
    prj.set_defaults(func=cmd_project)

    toy = sub.add_parser("toy-validate", help="replicate the analytic benchmark table")
    toy.add_argument("--out", type=Path, required=True)
    toy.add_argument("--m", type=int, default=2000)
    toy.add_argument("--j", type=int, default=2000)
    toy.add_argument("--replicates", type=int, default=100)
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--delta", type=float, default=None,
                     help="fixed window width (default: automatic rule)")
    toy.set_defaults(func=cmd_toy_validate)

    ins = sub.add_parser("inspect", help="verify and describe a run directory")
    ins.add_argument("path", type=Path)
    ins.add_argument("--no-verify", action="store_true")
    ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:  # bad or missing input, DegenerateWeightsError too
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
