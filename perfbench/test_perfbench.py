"""Tests of the benchmark itself, at smoke size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import reference
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip().splitlines()[-1]
    result = json.loads(line)
    assert json.loads(json.dumps(result)) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0", "--smoke")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split(" = ")[0]: line.split(" = ")[1] for line in proc.stdout.splitlines()
               if " = " in line}
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert printed[name].split()[1] == unit
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert printed["error_rate"].split()[:2] == ["0", "ratio"]


@pytest.mark.parametrize("workload, kraus_calls", [("noiseless_large", 0), ("noisy_mid", 22)])
def test_traced_smoke_reports_every_layer(workload, kraus_calls, tmp_path):
    result = result_of(bench("--workload", workload, "--seed", "3", "--trace", "1", "--smoke"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["channels.kraus_set.calls"] == kraus_calls
    assert metrics["channels.apply_channel.calls"] == kraus_calls
    assert metrics["cli.main.calls"] == len(inputs.build_workload(workload, 3, tmp_path, True).cases)
    assert metrics["scenarios.run_scenario.alloc_peak_mb"] > 0
    assert metrics["output.bytes_written"] > 0


def test_corrupted_csv_value_fails_the_check(tmp_path):
    qwalk = run.import_qwalk()
    workload = inputs.build_workload("noisy_mid", 5, tmp_path / "in", smoke=True)
    expected = {c.name: reference.expected_series(c) for c in workload.cases}

    class Corrupting:
        """Runs the real CLI, then changes one fidelity in the first CSV."""

        class cli:
            @staticmethod
            def main(argv):
                code = qwalk.cli.main(argv)
                path = Path(argv[argv.index("--out") + 1]) / f"{workload.cases[0].name}.csv"
                if path.exists():
                    lines = path.read_text().splitlines()
                    t, noiseless, noisy = lines[3].split(",")
                    lines[3] = f"{t},{float(noiseless) + 1e-6:.12g},{noisy}"
                    path.write_text("\n".join(lines) + "\n")
                return code

    clean = run.run_pass(qwalk, workload, expected, tmp_path / "clean")
    assert (clean["attempted"], clean["failed"]) == (2, 0)
    dirty = run.run_pass(Corrupting, workload, expected, tmp_path / "dirty")
    assert (dirty["attempted"], dirty["failed"]) == (2, 1)
    assert any("t=2" in msg for msg in dirty["problems"])


def test_p5_anchor_is_checked(tmp_path):
    case = next(c for c in inputs.build_workload("paper_suite", 0, tmp_path).cases
                if c.name == "p5_transfer_s0_r4_rtn")
    direct, noisy = reference.expected_series(case)
    assert abs(direct[4] - 1.0) < 1e-12
    lines = [reference.CSV_HEADER] + [f"{t},{d:.12g},{n:.12g}" for t, (d, n) in
                                      enumerate(zip(direct, noisy))]
    path = tmp_path / "p5.csv"
    path.write_text("\n".join(lines) + "\n")
    assert reference.check_csv(path, case, (direct, noisy)) == []
    lines[13] = f"12,0.9999999,{noisy[12]:.12g}"
    path.write_text("\n".join(lines) + "\n")
    assert any("P5 anchor F(t=12)" in msg for msg in reference.check_csv(path, case, (direct, noisy)))


def test_generator_is_seeded_connected_and_simple(tmp_path):
    first = inputs.build_workload("noisy_mid", 11, tmp_path / "a")
    again = inputs.build_workload("noisy_mid", 11, tmp_path / "b")
    other = inputs.build_workload("noisy_mid", 12, tmp_path / "c")
    assert [c.edges for c in first.cases] == [c.edges for c in again.cases]
    assert [c.edges for c in first.cases] != [c.edges for c in other.cases]
    for case in first.cases:
        assert (case.n, len(case.edges), case.dim) == (60, 100, 200)
        assert len(set(case.edges)) == 100 and all(u < v for u, v in case.edges)
        reached, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in case.edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reached:
                        reached.add(y)
                        frontier.append(y)
        assert reached == set(range(case.n))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out"))
    proc = bench("--workload", "paper_suite", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
