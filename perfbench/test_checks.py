"""Each workload's checker counts one corrupted output as failed operations.

Run with `python3 -m pytest perfbench` from the root of the repository.
"""

import csv
import json
from pathlib import Path

import numpy as np

import checks
import inputs
import maplink.toy
import tracing
import workloads
from maplink import io as mio
from maplink.reweight import StepCdf


def _rewrite_manifest(directory: Path) -> None:
    """Refresh the checksums, so that only the content check can catch the change."""
    payload = json.loads((directory / "manifest.json").read_text())
    payload.pop("checksums")
    mio.write_manifest(directory, payload)


def test_bank_check_counts_a_changed_year0_entry(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        mio.RunConfig(seed=3, j_simulations=3, model={"burn_in_months": 120}).to_jsonable()
    ))
    out = tmp_path / "bank"
    code, _ = checks.invoke(["simulate", "--config", str(config), "--workers", "1",
                             "--out", str(out)])
    assert checks.check_bank(out, code, 3) == 0

    path = out / "traj_aMDA65_s0000.npy"
    trajectory = np.load(path)
    trajectory[1, 0] += 0.25
    mio.save_npy(path, trajectory)
    _rewrite_manifest(out)
    assert checks.check_bank(out, code, 3) == 1


def test_map_check_counts_a_weight_vector_summing_to_0_9(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "MAP_J", 10_000)
    monkeypatch.setattr(inputs, "MAP_CHUNKS", 1)
    monkeypatch.setattr(inputs, "MAP_PIXELS_PER_CHUNK", 12)
    inputs.build("map", 5, tmp_path / "inputs")
    workload = workloads.Map(5, tmp_path / "inputs")
    out = tmp_path / "out"
    results = workload.commands(0, out)
    found = workload.check(0, out, results)
    assert found.ops > 0 and found.failed == 0

    path = out / "weights" / "values.npy"
    values = np.load(path)
    offsets = np.load(out / "weights" / "offsets.npy")
    values[offsets[0]:offsets[1]] *= 0.9
    mio.save_npy(path, values)
    _rewrite_manifest(out / "weights")
    assert workload.check(0, out, results).failed == 1


def test_toy_check_counts_a_cell_outside_its_band(tmp_path):
    workload = workloads.Toy(7, tmp_path)
    out = tmp_path / "toy"
    results = workload.commands(0, out)
    assert workload.check(0, out, results).failed == 0

    path = out / "toy_table.csv"
    schema, *lines = path.read_text().splitlines(keepends=True)
    rows = list(csv.DictReader(lines))
    rows[-1]["isd_x1000_median"] = "1.0"  # uniform/discrepancy band is 0.00021 to 0.00029
    with open(path, "w", newline="") as fh:
        fh.write(schema)
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    _rewrite_manifest(out)
    assert workload.check(0, out, results).failed == inputs.TOY_REPLICATES


def test_tracer_puts_every_function_back():
    before = {(owner, attr): getattr(owner, attr) for owner, attr, _, _ in tracing._sites()}
    tracer = tracing.Tracer()
    tracer.install()
    assert maplink.toy.StepCdf is not StepCdf
    tracer.remove()
    assert all(getattr(owner, attr) is f for (owner, attr), f in before.items())
    assert maplink.toy.StepCdf is StepCdf


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END_UNITS.items()
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
