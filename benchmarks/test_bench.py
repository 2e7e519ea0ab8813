"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest benchmarks -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
per-layer counts repeat exactly, that every oracle passes on good outputs
and fails loudly on corrupted ones, and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import checked  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CONTRACT["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny_run(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_contract_lists_every_workload_and_layer_metric():
    assert NAMES == list(workloads.WORKLOADS)
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(spans.metric_units())
    layers = json.loads((ROOT / "benchmarks" / "layers.json").read_text())
    assert sorted(layers["workloads"]) == sorted(NAMES)
    mapped = {m for row in layers["layer_to_end_to_end"] for m in row["metrics"]}
    stems = {name.removesuffix(".tail").removesuffix(".n")
             for name in spans.metric_units()}
    assert mapped == stems


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_layer_counts_repeat_exactly_and_follow_the_workload():
    counts = [name for name, _, kind, *_ in spans.LAYER_METRICS
              if kind in spans.COUNT_KINDS] + [n for n in spans.metric_units()
                                                if n.endswith(".n")]
    runs = [tiny_run("ring-suite", 1)["metrics"] for _ in range(2)]
    assert {n: runs[0][n]["value"] for n in counts} == {n: runs[1][n]["value"] for n in counts}
    ring = runs[0]
    # 2 laws x 2 resolutions at tiny size: one distinct run per law.
    assert ring["equivalence.cf_unique_ratio"]["value"] == 0.5
    assert ring["platoon.rk4_calls"]["value"] == 4
    freq = tiny_run("freq-sweep", 1)["metrics"]
    assert all(freq[n]["value"] == 0 for n in freq
               if n.startswith(("transforms.", "continuum.")) and n in counts)
    field = tiny_run("field-roundtrip", 1)["metrics"]
    assert field["platoon.rk4_calls"]["value"] == 0
    assert field["continuum.godunov_steps"]["value"] > 0


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set_verdict(rows):
    rows[1][-1] = "exceeds-threshold"


def _split_growth(rows):
    col = rows[0].index("growth_cf")
    rows[1][col] = repr(2.0 * float(rows[1][col]))


def _shift_first_row(rows):
    # Move every vehicle 40 m (several cells) at the first sampled time.
    for r in rows[1:]:
        if r[0] == rows[1][0]:
            r[2] = repr(float(r[2]) + 40.0)


def _drop_shock(rows):
    # Flatten the last record of the Riemann field to the upstream density.
    t_last = rows[-1][0]
    k_left = rows[1][2]
    for r in rows[1:]:
        if r[0] == t_last:
            r[2] = k_left


CORRUPTIONS = [
    ("ring-suite", "exit code", lambda inputs, result: result.update(rc=1)),
    ("ring-suite", "verdict", lambda inputs, result: _rewrite_csv(
        inputs["out"] / "summary.csv", _set_verdict)),
    ("ring-suite", "growth", lambda inputs, result: _rewrite_csv(
        inputs["out"] / "summary.csv", _split_growth)),
    ("freq-sweep", "raised", lambda inputs, result: result["errors"].append("boom")),
    ("freq-sweep", "ratio", lambda inputs, result: result["runs"].__setitem__(
        0, (*result["runs"][0][:2], result["runs"][0][2] * 1.1, result["runs"][0][3]))),
    ("freq-sweep", "flip", lambda inputs, result: result.update(
        flip=result["flip"] + 1e-4)),
    ("field-roundtrip", "exit code", lambda inputs, result: result.update(
        codes=[0, 2, 0, 0])),
    ("field-roundtrip", "round trip", lambda inputs, result: _rewrite_csv(
        inputs["dirs"]["back"] / "trajectories.csv", _shift_first_row)),
    ("field-roundtrip", "shock", lambda inputs, result: _rewrite_csv(
        inputs["dirs"]["pde"] / "field.csv", _drop_shock)),
]


@pytest.mark.parametrize("workload,what,corrupt", CORRUPTIONS,
                         ids=[f"{w}-{what}" for w, what, _ in CORRUPTIONS])
def test_oracle_fails_loudly_on_corrupted_output(workload, what, corrupt, tmp_path):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.build(3, tmp_path, "tiny")
    result = wl.run_pass(inputs)
    good = checked(wl, inputs, result)
    assert good["violations"] == [] and good["failed"] == 0
    assert math.isfinite(good["oracle_err"]) and good["oracle_err"] > 0
    corrupt(inputs, result)
    assert checked(wl, inputs, result)["violations"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
