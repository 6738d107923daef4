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
    theta, (eq_seed, scenario_seed) = thetas[sim_index], seed_pairs[sim_index]
    prevalence, state = run_to_equilibrium(theta, params, np.random.default_rng(eq_seed))
    return prevalence, {s.name: run_scenario(state, s, theta, params,
                                             np.random.default_rng(scenario_seed))
                        for s in scenarios}


def cmd_simulate(args) -> int:
    config = _run_config(args, seed=args.seed)
    params = config.model_params()
    grid = load_vh_k_grid(config.vh_k_grid_path) if config.vh_k_grid_path else default_vh_k_grid()
    population_proposal = adapt_population_proposal(
        config.population_log_sd, population_range=config.population_range,
        iterations=config.proposal_iterations, tail_to=config.population_tail_to,
        reference_stride=config.proposal_reference_stride,
    )
    mio.start_bank(args.out, population_proposal)

    thetas = sample_bank(population_proposal, grid, j=config.j_simulations, seed=config.seed,
                         importation_max=config.importation_max)
    proposal_mass = population_proposal.density(
        np.array([t.population for t in thetas], dtype=np.int64)
    )
    scenarios = config.scenario_objects()
    # one (equilibrium, scenario) seed pair per simulation, spawned once here:
    # spawning mutates a SeedSequence, so spawning inside a run would tie the
    # seeds to how often, and in which process, a simulation had run before
    seed_pairs = [child.spawn(2) for child in np.random.SeedSequence(config.seed).spawn(
        config.j_simulations + config.pilot_simulations)]

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

    # a shard is reused only if it was written from the same bank settings
    config_digest = config.bank_digest()
    plan = mio.shard_plan(config.j_simulations, config.simulate_shard_size,
                          [s.name for s in scenarios])
    for entry in plan:
        part = mio.shard_to_run(args.out, entry, config_digest, args.resume)
        if part is None:
            continue
        results = ordered_map(
            _simulate_one, (thetas[part], params, scenarios, seed_pairs[part]),
            len(thetas[part]), args.workers, chunksize=4,
        )
        eq = np.array([r[0] for r in results])
        traj = {s.name: np.stack([r[1][s.name] for r in results]) for s in scenarios}
        mio.write_shard_and_record(args.out, entry, thetas[part], proposal_mass[part], eq, traj,
                                   config_digest)
    mio.finish_bank(args.out, config, scenarios, plan)
    print(f"simulate: wrote {config.j_simulations} simulations to {args.out}")
    return 0


def cmd_weight(args) -> int:
    config = _run_config(args, delta=args.delta, ernd_kind=args.ernd)
    bank, _ = mio.load_simulation_bank(args.bank)
    pixels = mio.load_pixel_posteriors(args.pixels)
    units, excluded = pool_and_filter(pixels, min_population=config.pooling_min_population,
                                      max_population=config.pooling_max_population)
    weights = weight_all(units, bank, config, workers=args.workers)
    caught = [
        f"country {u.country}: pooled unit of {len(u.member_pixel_ids)} pixel(s) only reaches "
        f"population {u.population:.0f} (minimum {config.pooling_min_population:.0f})"
        for u in units
        if u.undersized
    ] + [
        f"unit {w.unit_id}: low effective sample size {w.ess:.1f}" for w in weights if w.low_ess
    ]
    mio.write_weight_run(args.out, args.bank, args.pixels, units, weights, excluded, caught,
                         config)
    print(f"weight: {len(units)} unit(s), {len(excluded)} excluded pixel(s), "
          f"{len(caught)} warning(s) -> {args.out}")
    if caught and config.fail_on_warnings:
        return 2
    return 0


def cmd_project(args) -> int:
    config = _run_config(args)
    bank, bank_manifest = mio.load_simulation_bank(args.bank)
    weights = mio.load_weights(args.weights)
    scenario_names = mio.project_scenarios(bank_manifest, args.scenario)

    # every summary is computed before anything is written, so a refusal leaves no --out
    summaries = {}
    for scenario in scenario_names:
        bank.trajectory_order(scenario)  # built once here, not inside the first unit's project
        summaries[scenario] = [
            project(w, bank, scenario, elimination_threshold=config.elimination_threshold)
            for w in weights
        ]
    mio.write_project_run(args.out, args.bank, args.weights, summaries, weights, bank, config)
    print(f"project: {len(weights) * len(summaries)} summaries over {len(summaries)} "
          f"scenario(s) -> {args.out}")
    return 0


def cmd_toy_validate(args) -> int:
    reports = run_toy_experiment(m=args.m, j=args.j, replicates=args.replicates,
                                 delta_policy=args.delta, seed=args.seed)
    n = args.replicates
    rows = [summarize_reports(reports[i:i + n]) for i in range(0, len(reports), n)]
    mio.write_toy_run(args.out, rows, reports, args.seed, args.m, args.j, args.replicates)
    print(f"toy-validate: {len(rows)} table cells -> {args.out}")
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
        if getattr(args, "workers", 1) < 1:  # simulate and weight
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (OSError, ValueError) as err:  # bad or missing input, DegenerateWeightsError too
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
