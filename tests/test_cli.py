from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import numpy as np

from qwalk.cli import main
from qwalk.graphs import path_graph
from qwalk.operators import walk_spec, walk_unitary


def test_run_with_flags(tmp_path, capsys):
    code = main(
        [
            "run",
            "--graph", "path", "--size", "5",
            "--sender", "0", "--receiver", "4",
            "--mode", "transfer", "--receiver-mode", "outgoing",
            "--noise", "rtn", "--steps", "24",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    csv_path = tmp_path / "path5_transfer_s0_r4_rtn.csv"
    svg_path = tmp_path / "path5_transfer_s0_r4_rtn.svg"
    assert csv_path.exists() and svg_path.exists()
    out = capsys.readouterr().out
    assert str(csv_path) in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "t,fidelity_noiseless,fidelity_noisy"
    assert len(rows) == 26
    # perfect arrival at step 4
    assert rows[5].startswith("4,1,")


def test_run_with_config_and_flag_override(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "graph = path\nsize = 5\nsender = 0\nreceiver = 4\n"
        "mode = transfer\nnoise = none\nsteps = 10\n"
    )
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--steps", "6", "--out", str(out_dir), "--name", "case"]
    )
    assert code == 0
    rows = (out_dir / "case.csv").read_text().splitlines()
    assert len(rows) == 8  # header + steps 0..6: the flag overrode the file


def test_run_periodicity_defaults_receiver(tmp_path):
    code = main(
        [
            "run", "--graph", "star", "--size", "6", "--sender", "0",
            "--mode", "periodicity", "--noise", "oun", "--steps", "12",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "star6_periodic_v0_oun.csv").exists()


def test_run_with_graph_file(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("4\n0 1\n1 2\n2 3\n")
    code = main(
        [
            "run", "--graph", f"file:{graph_file}", "--sender", "0", "--receiver", "3",
            "--mode", "transfer", "--steps", "12", "--out", str(tmp_path), "--name", "custom",
        ]
    )
    assert code == 0
    assert (tmp_path / "custom.csv").exists()


def test_run_rejects_invalid_vertex(tmp_path, capsys):
    code = main(
        [
            "run", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "9",
            "--mode", "transfer", "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_paper_suite_writes_all_series(tmp_path):
    code = main(["paper-suite", "--out", str(tmp_path)])
    assert code == 0
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert len(csvs) == 22
    assert len(svgs) == 22
    assert "p5_transfer_s0_r4_rtn.csv" in csvs
    assert "k23_periodic_v0_oun.csv" in csvs


def test_dump_operators(tmp_path):
    code = main(
        [
            "dump-operators", "--graph", "path", "--size", "5",
            "--sender", "0", "--receiver", "4", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    ops = walk_unitary(walk_spec(path_graph(5), 0, 4))
    for name, matrix in (("coin", ops.coin), ("shift", ops.shift), ("unitary", ops.unitary)):
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        parsed = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.abs(parsed - matrix).max() <= 5e-7  # %.6f rounding


def test_cli_entry_point_runs_as_module(tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "qwalk.cli",
            "run", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "4",
            "--mode", "transfer", "--steps", "4", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "path5_transfer_s0_r4_none.csv").exists()


def test_dump_operators_requires_size_for_families(tmp_path, capsys):
    code = main(
        ["dump-operators", "--graph", "path", "--sender", "0", "--receiver", "1",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "requires --size" in capsys.readouterr().err


def test_run_rejects_rtn_regime_before_building(tmp_path, capsys, monkeypatch):
    import qwalk.scenarios

    def unreachable(*args):
        raise AssertionError("the graph was built before the regime was checked")

    monkeypatch.setattr(qwalk.scenarios, "scenario_graph", unreachable)
    code = main(
        [
            "run", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "4",
            "--noise", "rtn", "--rtn-a", "0.004", "--out", str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "a/gamma" in err


def test_run_reports_internal_error_with_exit_three(tmp_path, capsys, monkeypatch):
    import qwalk.scenarios

    monkeypatch.setattr(qwalk.scenarios, "fidelity_density", lambda rho, sigma: 0.5)
    code = main(
        [
            "run", "--graph", "cycle", "--size", "6", "--sender", "0", "--receiver", "3",
            "--noise", "rtn", "--steps", "4", "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("internal error: fidelity cross-check failed at t=0")
    assert "Traceback" not in err


def test_run_reports_broken_edge_space_with_exit_three(tmp_path, capsys, monkeypatch):
    import qwalk.scenarios

    real_walk_spec = qwalk.scenarios.walk_spec

    def broken_walk_spec(graph, sender, receiver):
        spec = real_walk_spec(graph, sender, receiver)
        dim = spec.space.dim
        rotated = tuple((k + 1) % dim for k in range(dim))  # not an involution
        return replace(spec, space=replace(spec.space, reverse_of=rotated))

    monkeypatch.setattr(qwalk.scenarios, "walk_spec", broken_walk_spec)
    code = main(
        [
            "run", "--graph", "cycle", "--size", "6", "--sender", "0", "--receiver", "3",
            "--steps", "4", "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("internal error: shift operator is not a fixed-point-free involution")


def test_run_rejects_huge_vertex_count_before_allocating(tmp_path, capsys):
    graph = tmp_path / "huge.txt"
    graph.write_text(f"{2**62}\n0 1\n")
    code = main(
        [
            "run", "--graph", f"file:{graph}", "--sender", "0", "--receiver", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: isolated vertex")


def test_run_names_line_of_bad_integer_in_graph_file(tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("3\n0 1\n1 x\n")
    code = main(
        [
            "run", "--graph", f"file:{graph}", "--sender", "0", "--receiver", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 3: expected an integer, got 'x'")
