"""The benchmark's workloads, the loop that times them and the metrics it reports.

Each workload builds its inputs from the seed (see `inputs.py`), then runs
its timed maplink commands in this process, once per iteration, until the
requested seconds have passed. Every iteration's outputs are checked (see
`checks.py`) outside the timed region. With tracing on, each iteration runs
twice on the same inputs, untraced and then traced, and only per-layer
metrics are reported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from checks import TOY_BANDS, check_bank, check_map, check_toy, invoke
from maplink import io as mio
from tracing import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}


@dataclass
class Iteration:
    """One pass of a workload's timed commands, and what its checks found."""

    wall: float
    ops: int
    failed: int
    rates: dict[str, float]
    quantile_err: float = 0.0
    bytes_written: int = 0


class Bank:
    """`simulate` of BANK_J simulations with the default configuration."""

    name = "bank"
    min_iterations = 1
    rate_units = {"simulate.sims_per_s": "1/s"}

    def __init__(self, seed: int, inputs_dir: Path):
        self.configs = [inputs_dir / f"config_{i}.json" for i in range(inputs.BANK_CONFIGS)]

    def commands(self, i: int, out: Path) -> list[tuple[int, float]]:
        config = self.configs[i % len(self.configs)]
        return [invoke(["simulate", "--config", str(config), "--workers", "1", "--out", str(out)])]

    def check(self, i: int, out: Path, results) -> Iteration:
        [(code, seconds)] = results
        return Iteration(
            wall=seconds,
            ops=inputs.BANK_J,
            failed=check_bank(out, code, inputs.BANK_J),
            rates={"simulate.sims_per_s": inputs.BANK_J / seconds},
        )


class Map:
    """`weight` then `project` of one chunk of pixels against the shared synthetic bank."""

    name = "map"
    min_iterations = inputs.MAP_CHUNKS  # so that quantile_err_max covers every pixel
    rate_units = {"weight.units_per_s": "1/s", "project.summaries_per_s": "1/s"}

    def __init__(self, seed: int, inputs_dir: Path):
        self.inputs = inputs_dir
        self.equilibrium, _ = inputs.map_prevalences(seed)
        self.chunks = [
            {p.pixel_id: (p.population, p.samples) for p in chunk}
            for chunk in inputs.map_pixels(seed)
        ]
        config = mio.RunConfig()
        self.scenarios = [s.name for s in config.scenario_objects()]
        self.years = config.years

    def commands(self, i: int, out: Path) -> list[tuple[int, float]]:
        chunk = i % inputs.MAP_CHUNKS
        shared = ["--config", str(self.inputs / "config.json"), "--bank", str(self.inputs / "bank")]
        weight = invoke([
            "weight", *shared, "--pixels", str(self.inputs / f"pixels_{chunk}.csv"),
            "--out", str(out / "weights"), "--workers", "1",
        ])
        project = invoke(["project", *shared, "--weights", str(out / "weights"),
                          "--out", str(out / "summaries")])
        return [weight, project]

    def check(self, i: int, out: Path, results) -> Iteration:
        (weight_code, weight_s), (project_code, project_s) = results
        found = check_map(
            out / "weights", out / "summaries", (weight_code, project_code),
            self.chunks[i % inputs.MAP_CHUNKS], self.equilibrium, self.scenarios, self.years,
        )
        return Iteration(
            wall=weight_s + project_s,
            ops=found.units + found.summaries,
            failed=found.units_failed + found.summaries_failed,
            rates={
                "weight.units_per_s": found.units / weight_s,
                "project.summaries_per_s": found.summaries / project_s,
            },
            quantile_err=found.quantile_err_max,
        )


class Toy:
    """`toy-validate`: the six proposal x estimator cells with automatic delta."""

    name = "toy"
    min_iterations = 1
    rate_units = {"toy.replicates_per_s": "1/s"}
    replicates = len(TOY_BANDS) * inputs.TOY_REPLICATES

    def __init__(self, seed: int, inputs_dir: Path):
        self.seed = seed

    def commands(self, i: int, out: Path) -> list[tuple[int, float]]:
        toy_seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return [invoke([
            "toy-validate", "--out", str(out), "--m", str(inputs.TOY_M), "--j", str(inputs.TOY_J),
            "--replicates", str(inputs.TOY_REPLICATES), "--seed", str(toy_seed),
        ])]

    def check(self, i: int, out: Path, results) -> Iteration:
        [(code, seconds)] = results
        return Iteration(
            wall=seconds,
            ops=self.replicates,
            failed=check_toy(out, code, inputs.TOY_REPLICATES),
            rates={"toy.replicates_per_s": self.replicates / seconds},
        )


WORKLOADS = {w.name: w for w in (Bank, Map, Toy)}


def _check(workload, i: int, out: Path, results) -> Iteration:
    found = workload.check(i, out, results)
    found.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out, ignore_errors=True)
    return found


def set_up(name: str, seed: int, inputs_dir: Path) -> list[float]:
    """Build the inputs SETUP_REPEATS times, each in a fresh process; returns the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", name, "--seed", str(seed),
             "--out", str(inputs_dir)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def measure(workload, seconds: float, tracer: Tracer | None, out_root: Path):
    """Run iterations until ``seconds`` have passed; returns (untraced, traced) iterations."""
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    start = perf_counter()
    i = 0
    while i < workload.min_iterations or perf_counter() - start < seconds:
        out = out_root / f"{i}"
        untraced.append(_check(workload, i, out, workload.commands(i, out)))
        if tracer is not None:
            out = out_root / f"{i}-traced"
            results = tracer.traced_iteration(lambda: workload.commands(i, out))
            traced.append(_check(workload, i, out, results))
        i += 1
    return untraced, traced


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _why(name: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == name), None)


def best(values: list[float], better: str) -> float:
    """The best iteration: the shortest time or the highest rate.

    Other processes on a small shared machine only ever slow an iteration
    down, in phases that last seconds to minutes, so the least slowed
    iteration varies far less between runs than the median does.
    """
    return min(values) if better == "lower" else max(values)


def _detail(values: list[float]) -> str:
    return f"best of {len(values)}, median {statistics.median(values):.6g}"


def _line(name: str, value: float, unit: str, detail: str) -> None:
    print(f"{name:<44} {value:>14.6g} {unit:<8} {detail}")


def main(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = work / "inputs"
    setup_times = set_up(name, seed, inputs_dir)
    workload = WORKLOADS[name](seed, inputs_dir)
    tracer = Tracer() if trace else None
    untraced, traced = measure(workload, seconds, tracer, work / "out")
    everything = untraced + traced
    attempted = sum(it.ops for it in everything)
    failed = sum(it.failed for it in everything)
    walls = [it.wall for it in untraced]
    n = len(untraced)

    if tracer is not None:
        tracer.write(work / "spans.jsonl")
        values = layer_metrics(tracer, walls, [it.bytes_written for it in traced])
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}
        for m, unit, _ in PER_LAYER:
            _line(m, values[m], unit, f"traced iterations: {len(traced)}")
    else:
        rates = [it.ops / it.wall for it in untraced]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": best(walls, "lower"),
            "peak_rss_mb": _peak_rss_mb(),
            "ops_per_s": best(rates, "higher"),
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in metrics.items()}
        _line("setup_s", metrics["setup_s"]["value"], "s", f"median of {len(setup_times)}")
        _line("wall_s", metrics["wall_s"]["value"], "s", _detail(walls))
        _line("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", "process and children")
        _line("ops_per_s", metrics["ops_per_s"]["value"], "1/s", _detail(rates))
        _line("failed_fraction", failed / attempted, "fraction",
              f"{failed} of {attempted} operations")
        for rate, unit in workload.rate_units.items():
            values = [it.rates[rate] for it in untraced]
            _line(rate, best(values, "higher"), unit, _detail(values))
        if isinstance(workload, Map):
            _line("weight.quantile_err_max", max(it.quantile_err for it in untraced), "fraction",
                  f"max over {n} iterations of {inputs.MAP_CHUNKS} chunks, bound 0.02")

    info = {
        "workload": name,
        "why": _why(name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "iterations": n,
        "machine": machine_facts(),
        "src_lines": src_line_count(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"info": info, **result}, indent=2) + "\n")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0
