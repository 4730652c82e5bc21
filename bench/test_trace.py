"""The traced run reports every per-layer metric and accounts for its time.

    python3 -m pytest bench/test_trace.py      # about 90 s on 2 cores

For each workload one short ``run.py --trace 1`` run (one untraced and
one traced round) must report exactly the ``per_layer`` metrics of
``BENCHMARK.json`` with their units, give a nonzero value for each
metric the workload is meant to exercise, and leave at most 10 % of
the traced round's ``wall_s`` outside every wrapped kit call (the self
time of the root and per-scenario spans in the dumped call paths).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMON = ["cli.parse_s", "cli.scenario_s", "cli.write_s",
          "cli.bytes_written", "cli.checks", "cli.self_s",
          "model_space.builds", "numerics.table_builds",
          "numerics.table_build_s", "numerics.self_s"]

# the metrics each workload exists to move (see bench/README.md)
EXERCISED = {
    "comparison": COMMON + [
        "talenti_check.run_comparison_s", "talenti_check.make_shifted_cap_s",
        "talenti_check.model_for_misses", "talenti_check.self_s",
        "radial_poisson.solve_explicit_s", "radial_poisson.gradient_norm_s",
        "rearrangement.sample_on_cells_s",
        "rearrangement.decreasing_rearrangement_s",
        "model_space.density_calls", "model_space.density_points",
        "model_space.inverse_points", "model_space.self_s",
        "numerics.table_cumulative_points", "numerics.table_cumulative_s",
        "numerics.table_inverse_points", "numerics.table_inverse_s",
        "numerics.inverse_density_points_per_point"],
    "eigen-holder": COMMON + [
        "eigen.first_eigenpair_s", "eigen.first_eigenpair_calls",
        "eigen.ivp_solves", "eigen.rhs_evals",
        "eigen.model_eigenpair_calls", "eigen.model_eigenpair_misses",
        "eigen.alpha_from_lambda_s", "eigen.lp_norm_s", "eigen.self_s",
        "radial_poisson.density_calls", "radial_poisson.density_points",
        "model_space.density_calls", "model_space.density_points",
        "talenti_check.make_shifted_cap_s"],
    "probe-poisson": COMMON + [
        "numerics.integrate_calls", "numerics.integrate_s",
        "radial_poisson.weak_residual_s", "radial_poisson.solve_mass_form_s",
        "radial_poisson.solve_explicit_s", "radial_poisson.self_s",
        "sobolev_embed.c1_s", "sobolev_embed.c2_s",
        "sobolev_embed.check_embedding_s", "sobolev_embed.self_s",
        "rearrangement.sample_on_cells_s", "model_space.inverse_points",
        "numerics.table_inverse_points"],
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_covers_its_layers(workload):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"]
    metrics = res["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want

    zero = [k for k in EXERCISED[workload] if not metrics[k]["value"] > 0]
    assert not zero, f"{workload} leaves these at zero: {zero}"

    # time inside the root span or a scenario span but outside every
    # wrapped kit call is attributed to no layer; it must stay small
    out = ROOT / "bench" / "out"
    record = json.loads((out / f"result-{workload}-s3-t1.json").read_text())
    wall = [r for r in record["rounds"] if r["traced"]][-1]["wall_s"]
    spans = {tuple(sp["path"]): sp for sp in json.loads(
        (out / f"trace-{workload}-s3-t1.json").read_text())["spans"]}
    root = spans[("cli.run_scenarios",)]
    assert abs(root["total_s"] - wall) <= 0.01 * wall + 0.05
    outside = root["self_s"] + spans[("cli.run_scenarios",
                                      "cli._execute")]["self_s"]
    assert outside <= 0.1 * wall, (outside, wall)
