"""The benchmark's own test: every workload at its tiny size, untraced and
traced.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(name, trace):
    lines = []
    result = run.run_workload(name, seed=3, seconds=0.5, trace=trace, tiny=True,
                              say=lines.append)
    return result, lines


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_reports_checks_and_traces(name, tmp_path):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    plain, lines = _run(name, trace=False)
    assert plain["correct"], plain["problems"]
    assert plain["failed"] == 0 and plain["attempted"] >= 2
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    for metric, unit, _, _ in run.COMMAND_METRICS[name]:
        assert any(line.startswith(f"# {metric} = ") and f" {unit} " in line
                   for line in lines), metric
    assert any(line.startswith("# fail_ratio = 0 ") for line in lines)
    labels = {c["label"] for c in workloads.build(name, 0, tmp_path, tiny=True)["commands"]}
    assert set(plain["checked"]) == labels
    assert set(plain["env"]) >= {"nproc", "python", "numpy", "scipy", "config_sha256"}

    traced, _ = _run(name, trace=True)
    assert traced["correct"], traced["problems"]
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
    assert traced["traced_digests"] == traced["digests"]
    # same seed, same inputs: the untraced runs agree byte for byte as well
    assert traced["digests"] == plain["digests"]


def test_checks_reject_a_wrong_inverse(tmp_path):
    from ponomap.cli import main

    plan = workloads.build("pointmap", 0, tmp_path, tiny=True)
    cmd = plan["commands"][0]
    assert main(cmd["argv"]) == 0
    assert checks.check(cmd) == []
    path = Path(cmd["out"]) / "eval.csv"
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[4] = repr(float(row[4]) + 1e-9)  # back1 of the first data row
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check(cmd)
