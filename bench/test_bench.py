"""Self-tests of the benchmark, in its small-size mode.

Run from the repository root with ``python -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

from workloads import SMALL_ENUMERATE_CASES, WORKLOADS, load_expected  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--small", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(*args: str) -> dict:
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def failed_in_first_pass(workload, corrupt=None) -> int:
    items = next(workload.passes(1))
    _, _, outputs = run.run_pass(items, workload.traced_run, workload.clock)
    if corrupt is not None:
        outputs[0] = corrupt(outputs[0])
    return run.count_failed(workload, items, outputs)


def test_workload_names_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_and_reports_every_listed_metric(name, trace):
    result = result_of("--workload", name, "--seed", "1", "--trace", str(trace))
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_second_seed_passes_every_check(name):
    result = result_of("--workload", name, "--seed", "2", "--trace", "0")
    assert result["correct"] and result["failed"] == 0


def test_corrupted_enumeration_digest_is_a_failed_operation():
    expected = load_expected()
    expected["enumerate"][SMALL_ENUMERATE_CASES[0]]["sha256"] = "0" * 64
    workload = WORKLOADS["enumerate"](expected, small=True)
    assert failed_in_first_pass(workload) == 1


def test_corrupted_cli_text_is_a_failed_operation():
    expected = load_expected()
    expected["cli"]["count -w 1,1 -B 2"] = "9\n"
    workload = WORKLOADS["cli"](expected, small=True)
    assert failed_in_first_pass(workload) == 1


@pytest.mark.parametrize("name", ["points-smooth", "points-hard"])
def test_wrong_point_report_is_a_failed_operation(name):
    workload = WORKLOADS[name](load_expected(), small=True)
    assert failed_in_first_pass(workload) == 0
    doubled = lambda report: dataclasses.replace(report, height=report.height * 2)  # noqa: E731
    assert failed_in_first_pass(workload, doubled) == 1


def test_raising_operation_is_a_failed_operation():
    workload = WORKLOADS["points-smooth"](load_expected(), small=True)
    items = next(workload.passes(1))[:3]

    def op(item):
        if item is items[1]:
            raise ValueError("injected")
        return workload.run(item)

    _, _, outputs = run.run_pass(items, op, workload.clock)
    assert isinstance(outputs[1], ValueError)
    assert run.count_failed(workload, items, outputs) == 1


def test_pinned_cli_text_agrees_with_goldens_and_readme():
    pinned = load_expected()["cli"]
    golden = ROOT / "tests" / "golden"
    for command, name in [
        ("wgcd -w 3,2 1440,700", "wgcd_text.txt"),
        ("height -w 2,4 15,175", "height_text.txt"),
        ("enumerate -w 2,3 -B root(2,6)", "enumerate_text.txt"),
        ("count -w 1,1 -B 2", "count_text.txt"),
    ]:
        assert pinned[command] == (golden / name).read_text()
    readme = (ROOT / "README.md").read_text()
    for command, text in pinned.items():
        if not command.startswith("enumerate"):
            assert "->  " + text.splitlines()[0] in readme, command


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "enumerate", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
