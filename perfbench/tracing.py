"""Spans around calls into maplink's modules, recorded from outside the package.

`Tracer.install` replaces public functions at the name each caller looks
up, and `Tracer.remove` puts the originals back, so nothing under `src/`
knows it is traced. Every call appends a span (name, start, end, parent) to
a list in memory, with an optional note taken from the call's arguments or
result. `layer_metrics` derives self times and the per-layer metrics from
the spans of each traced iteration.
"""

from __future__ import annotations

import functools
import json
import statistics
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import maplink.cli
import maplink.io
import maplink.pipeline
import maplink.reweight
import maplink.toy
import maplink.transmission

SMALL_COMMUNITY = 1000  # fewer hosts than this: per-call overhead dominates a step
LARGE_COMMUNITY = 5000  # this many hosts or more: per-host work dominates

# (metric, unit, better); BENCHMARK.json lists the same metrics as per_layer
PER_LAYER = [
    ("transmission.run_to_equilibrium.self_s", "s", "lower"),
    ("transmission.run_scenario.self_s", "s", "lower"),
    ("transmission.apply_mda.self_s", "s", "lower"),
    ("transmission.step.calls", "count", "lower"),
    ("transmission.host_steps", "count", "lower"),
    ("transmission.step.ns_per_host_step", "ns", "lower"),
    ("transmission.step.ns_per_host_step.small", "ns", "lower"),
    ("transmission.step.ns_per_host_step.large", "ns", "lower"),
    ("proposal.adapt_population_proposal.self_s", "s", "lower"),
    ("proposal.sample_bank.self_s", "s", "lower"),
    ("reweight.distance_ernd.ms_per_call", "ms", "lower"),
    ("reweight.histogram_ernd.ms_per_call", "ms", "lower"),
    ("reweight.discrepancy_ernd.ms_per_call", "ms", "lower"),
    ("reweight.select_delta.ms_per_call", "ms", "lower"),
    ("reweight.cdf_distances.ms_per_call", "ms", "lower"),
    ("reweight.dropped_map_fraction.max", "fraction", "lower"),
    ("pipeline.pool_and_filter.self_s", "s", "lower"),
    ("pipeline.weight_pixel.ms.p50", "ms", "lower"),
    ("pipeline.weight_pixel.ms.p95", "ms", "lower"),
    ("pipeline.weight_pixel.self_ms.p50", "ms", "lower"),
    ("pipeline.ess.min", "count", "higher"),
    ("pipeline.low_ess_units", "count", "lower"),
    ("pipeline.project.ms.p50", "ms", "lower"),
    ("pipeline.project.ms.p95", "ms", "lower"),
    ("pipeline.nnz_fraction", "fraction", "lower"),
    ("io.load_simulation_bank.self_s", "s", "lower"),
    ("io.load_simulation_bank.calls", "count", "lower"),
    ("io.load_pixel_posteriors.self_s", "s", "lower"),
    ("io.save_weights.self_s", "s", "lower"),
    ("io.load_weights.self_s", "s", "lower"),
    ("io.summary_writers.self_s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("io.write_bank_shard.self_s", "s", "lower"),
    ("io.write_manifest.self_s", "s", "lower"),
    ("toy.draws.self_s", "s", "lower"),
    ("cli.simulate.self_s", "s", "lower"),
    ("cli.weight.self_s", "s", "lower"),
    ("cli.project.self_s", "s", "lower"),
    ("cli.toy_validate.self_s", "s", "lower"),
    ("trace.overhead_fraction", "fraction", "lower"),
    ("trace.uncovered_fraction", "fraction", "lower"),
]


def _community_size(args, result):
    return args[0].size


def _unit_ess(args, result):
    return result.ess, result.low_ess


def _kept_share(args, result):
    return args[0].values.size / args[0].bank_size


def _dropped(args, result):
    return result.dropped_map_fraction


def _sites():
    """(module, attribute, span name, note) for every traced call site.

    Each function is replaced in the namespace its caller reads it from:
    `cli.py` binds its imports when it is imported, `run_to_equilibrium`
    and `run_scenario` read `step` and `apply_mda` from `transmission`,
    `weight_pixel` reads `apply_ernd` from `pipeline`, `apply_ernd` reads the
    estimators from `reweight`, and `toy` binds the `reweight` names it uses.
    """
    cli, io, pipeline = maplink.cli, maplink.io, maplink.pipeline
    reweight, toy, transmission = maplink.reweight, maplink.toy, maplink.transmission
    return [
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "cmd_weight", "cli.weight", None),
        (cli, "cmd_project", "cli.project", None),
        (cli, "cmd_toy_validate", "cli.toy_validate", None),
        (cli, "run_to_equilibrium", "transmission.run_to_equilibrium", None),
        (cli, "run_scenario", "transmission.run_scenario", None),
        (cli, "adapt_population_proposal", "proposal.adapt_population_proposal", None),
        (cli, "sample_bank", "proposal.sample_bank", None),
        (cli, "pool_and_filter", "pipeline.pool_and_filter", None),
        (cli, "weight_all", "pipeline.weight_all", None),
        (cli, "project", "pipeline.project", _kept_share),
        (cli, "run_toy_experiment", "toy.run_toy_experiment", None),
        (transmission, "step", "transmission.step", _community_size),
        (transmission, "apply_mda", "transmission.apply_mda", None),
        (pipeline, "weight_pixel", "pipeline.weight_pixel", _unit_ess),
        (pipeline, "apply_ernd", "reweight.apply_ernd", _dropped),
        (reweight, "distance_ernd", "reweight.distance_ernd", None),
        (reweight, "histogram_ernd", "reweight.histogram_ernd", None),
        (reweight, "discrepancy_ernd", "reweight.discrepancy_ernd", None),
        (reweight, "select_delta", "reweight.select_delta", None),
        (toy, "apply_ernd", "reweight.apply_ernd", _dropped),
        (toy, "select_delta", "reweight.select_delta", None),
        (toy, "ks_distance", "reweight.cdf_distances", None),
        (toy, "integrated_squared_distance", "reweight.cdf_distances", None),
        (toy, "toy_target_sampler", "toy.draws", None),
        (toy, "sample_toy_prior", "toy.draws", None),
        (toy, "sample_toy_uniform_proposal", "toy.draws", None),
        (toy, "toy_stage1_weights", "toy.draws", None),
        (io, "load_simulation_bank", "io.load_simulation_bank", None),
        (io, "load_pixel_posteriors", "io.load_pixel_posteriors", None),
        (io, "save_weights", "io.save_weights", None),
        (io, "load_weights", "io.load_weights", None),
        (io, "write_summary_csv", "io.summary_writers", None),
        (io, "write_elimination_csv", "io.summary_writers", None),
        (io, "write_proportion_eliminated_csv", "io.summary_writers", None),
        (io, "write_bank_shard", "io.write_bank_shard", None),
        (io, "write_manifest", "io.write_manifest", None),
        (io, "save_population_proposal", "io.save_population_proposal", None),
    ]


class Tracer:
    """Records spans of calls into maplink while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self.iterations: list[tuple[int, int, float]] = []  # (first span, end span, wall s)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        self._replace(owner, attr, traced)

    def install(self) -> None:
        for owner, attr, name, note in _sites():
            self._wrap(owner, attr, name, note)
        # toy reads only `StepCdf.from_samples`; a stand-in class object
        # carries the traced method so the reweight estimators keep the original
        cdf = types.SimpleNamespace(from_samples=maplink.toy.StepCdf.from_samples)
        self._wrap(cdf, "from_samples", "reweight.cdf_distances")
        self._replace(maplink.toy, "StepCdf", cdf)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def traced_iteration(self, run):
        """Call ``run()`` with tracing installed; returns its result."""
        first = len(self.spans)
        self.install()
        start = perf_counter()
        try:
            return run()
        finally:
            wall = perf_counter() - start
            self.remove()
            self.iterations.append((first, len(self.spans), wall))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps([name, start, end, parent, note]) + "\n")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, untraced_walls, bytes_written) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced iterations.

    ``untraced_walls`` holds the wall time of the untraced run of each traced
    iteration's inputs, and ``bytes_written`` what each traced iteration wrote.

    Totals per iteration (self times, calls, host-steps) are reported as the
    median over traced iterations; per-call figures pool every call. A layer
    the workload never reaches reads 0.
    """
    spans = tracer.spans
    duration = np.array([end - start for _, start, end, _, _ in spans])
    child_time = np.zeros(len(spans))
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]
    self_time = duration - child_time

    per_iteration = []  # {name: [self seconds, calls]} for each traced iteration
    for first, end, _ in tracer.iterations:
        totals: dict[str, list] = {}
        for i in range(first, end):
            entry = totals.setdefault(spans[i][0], [0.0, 0])
            entry[0] += self_time[i]
            entry[1] += 1
        per_iteration.append(totals)

    def median_total(name: str, field: int) -> float:
        return statistics.median(t.get(name, [0.0, 0])[field] for t in per_iteration)

    def indices(name: str) -> list[int]:
        return [i for i, span in enumerate(spans) if span[0] == name]

    def notes(name: str) -> list:
        """Notes of the calls that returned; a call that raised has none."""
        return [spans[i][4] for i in indices(name) if spans[i][4] is not None]

    def ms_per_call(name: str) -> float:
        calls = indices(name)
        return 1e3 * float(duration[calls].sum()) / len(calls) if calls else 0.0

    steps = [i for i in indices("transmission.step") if spans[i][4] is not None]
    hosts = np.array([spans[i][4] for i in steps], dtype=float)
    step_time = duration[steps]

    def ns_per_host_step(mask) -> float:
        return 1e9 * float(step_time[mask].sum() / hosts[mask].sum()) if mask.any() else 0.0

    host_steps_per_iteration = [
        sum(spans[i][4] or 0 for i in range(first, end) if spans[i][0] == "transmission.step")
        for first, end, _ in tracer.iterations
    ]
    weight_calls = indices("pipeline.weight_pixel")
    unit_notes = notes("pipeline.weight_pixel")
    low_ess_per_iteration = [
        sum(1 for i in range(first, end)
            if spans[i][0] == "pipeline.weight_pixel" and spans[i][4] and spans[i][4][1])
        for first, end, _ in tracer.iterations
    ]
    project_calls = indices("pipeline.project")
    dropped = notes("reweight.apply_ernd")
    kept = notes("pipeline.project")
    uncovered = [
        (wall - sum(duration[i] for i in range(first, end) if spans[i][3] < 0)) / wall
        for first, end, wall in tracer.iterations
    ]
    # each traced iteration repeats the untraced one before it on the same inputs
    overhead = [traced[2] / wall for traced, wall in zip(tracer.iterations, untraced_walls)]

    metrics = {
        name: median_total(span, 0)
        for name, span in [
            ("transmission.run_to_equilibrium.self_s", "transmission.run_to_equilibrium"),
            ("transmission.run_scenario.self_s", "transmission.run_scenario"),
            ("transmission.apply_mda.self_s", "transmission.apply_mda"),
            ("proposal.adapt_population_proposal.self_s", "proposal.adapt_population_proposal"),
            ("proposal.sample_bank.self_s", "proposal.sample_bank"),
            ("pipeline.pool_and_filter.self_s", "pipeline.pool_and_filter"),
            ("io.load_simulation_bank.self_s", "io.load_simulation_bank"),
            ("io.load_pixel_posteriors.self_s", "io.load_pixel_posteriors"),
            ("io.save_weights.self_s", "io.save_weights"),
            ("io.load_weights.self_s", "io.load_weights"),
            ("io.summary_writers.self_s", "io.summary_writers"),
            ("io.write_bank_shard.self_s", "io.write_bank_shard"),
            ("io.write_manifest.self_s", "io.write_manifest"),
            ("toy.draws.self_s", "toy.draws"),
            ("cli.simulate.self_s", "cli.simulate"),
            ("cli.weight.self_s", "cli.weight"),
            ("cli.project.self_s", "cli.project"),
            ("cli.toy_validate.self_s", "cli.toy_validate"),
        ]
    }
    metrics.update({
        "transmission.step.calls": median_total("transmission.step", 1),
        "transmission.host_steps": statistics.median(host_steps_per_iteration),
        "transmission.step.ns_per_host_step": ns_per_host_step(hosts > 0),
        "transmission.step.ns_per_host_step.small": ns_per_host_step(hosts < SMALL_COMMUNITY),
        "transmission.step.ns_per_host_step.large": ns_per_host_step(hosts >= LARGE_COMMUNITY),
        "reweight.distance_ernd.ms_per_call": ms_per_call("reweight.distance_ernd"),
        "reweight.histogram_ernd.ms_per_call": ms_per_call("reweight.histogram_ernd"),
        "reweight.discrepancy_ernd.ms_per_call": ms_per_call("reweight.discrepancy_ernd"),
        "reweight.select_delta.ms_per_call": ms_per_call("reweight.select_delta"),
        "reweight.cdf_distances.ms_per_call": ms_per_call("reweight.cdf_distances"),
        "reweight.dropped_map_fraction.max": max(dropped, default=0.0),
        "pipeline.weight_pixel.ms.p50": _percentile(list(1e3 * duration[weight_calls]), 50),
        "pipeline.weight_pixel.ms.p95": _percentile(list(1e3 * duration[weight_calls]), 95),
        "pipeline.weight_pixel.self_ms.p50": _percentile(list(1e3 * self_time[weight_calls]), 50),
        "pipeline.ess.min": min((ess for ess, _ in unit_notes), default=0.0),
        "pipeline.low_ess_units": statistics.median(low_ess_per_iteration),
        "pipeline.project.ms.p50": _percentile(list(1e3 * duration[project_calls]), 50),
        "pipeline.project.ms.p95": _percentile(list(1e3 * duration[project_calls]), 95),
        "pipeline.nnz_fraction": float(np.mean(kept)) if kept else 0.0,
        "io.load_simulation_bank.calls": median_total("io.load_simulation_bank", 1),
        "io.bytes_written": statistics.median(bytes_written),
        "trace.overhead_fraction": statistics.median(overhead) - 1.0,
        "trace.uncovered_fraction": statistics.median(uncovered),
    })
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}
