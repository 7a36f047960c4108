from __future__ import annotations

import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from qwalk.cli import main
from qwalk.graphs import cycle_graph, path_graph
from qwalk.operators import WalkStep
from qwalk.output import write_matrix_csv
from qwalk.scenarios import Scenario

from .oracles import dense_walk_operators


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
    # C6 0->3 negates two degree-2 coin blocks, whose diagonals print -0.000000
    for family, graph, sender, receiver in (("path", path_graph(5), 0, 4),
                                            ("cycle", cycle_graph(6), 0, 3)):
        out, expected = tmp_path / family, tmp_path / f"{family}-oracle"
        expected.mkdir()
        code = main(
            [
                "dump-operators", "--graph", family, "--size", str(graph.n),
                "--sender", str(sender), "--receiver", str(receiver), "--out", str(out),
            ]
        )
        assert code == 0
        dense = dense_walk_operators(graph, sender, receiver)
        for name in ("coin", "shift", "unitary"):
            write_matrix_csv(getattr(dense, name), expected / f"{name}.csv")
            assert (out / f"{name}.csv").read_bytes() == (expected / f"{name}.csv").read_bytes(), (
                family, name
            )


def test_dump_operators_reports_a_failed_operator_check_with_exit_three(
    tmp_path, capsys, monkeypatch
):
    import qwalk.cli

    real_walk_step = qwalk.cli.walk_step

    def doubled_walk_step(graph, sender, receiver):
        step = real_walk_step(graph, sender, receiver)
        return replace(step, sign=2.0 * step.sign)

    monkeypatch.setattr(qwalk.cli, "walk_step", doubled_walk_step)
    code = main(
        [
            "dump-operators", "--graph", "cycle", "--size", "6", "--sender", "0",
            "--receiver", "3", "--out", str(tmp_path / "ops"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == "internal error: coin operator is not an involution\n"
    assert not list(tmp_path.rglob("*.csv"))


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


def test_run_and_paper_suite_need_neither_scipy_nor_hypothesis(tmp_path):
    # scipy and hypothesis are test-only dependencies: the commands must not import
    # them. Nor may the package load the network or XML stack (xml.sax.saxutils
    # alone brings in urllib.request, http.client, email, socket and ssl).
    script = (
        "import sys\n"
        "import qwalk.cli\n"
        "stack = ('ssl', 'socket', 'http.client', 'email', 'urllib.request', 'xml')\n"
        "def loaded(names):\n"
        "    return sorted(m for m in sys.modules for n in names if m == n or m.startswith(n + '.'))\n"
        "print(loaded(stack))\n"
        "from qwalk.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['run', '--graph', 'cycle', '--size', '6', '--sender', '0',\n"
        "             '--receiver', '3', '--noise', 'rtn', '--out', out]) == 0\n"
        "assert main(['paper-suite', '--out', out]) == 0\n"
        "print(loaded(stack))\n"
        "print(loaded(('scipy', 'hypothesis')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [lines[0], *lines[-2:]] == ["[]", "[]", "[]"]  # after import, after the commands
    assert len(list(tmp_path.glob("*.csv"))) == 23


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--noise", "rtn", "--rtn-a", "nan"],
        ["--noise", "rtn", "--rtn-a", "inf"],
        ["--noise", "rtn", "--rtn-gamma=-inf"],
        ["--noise", "oun", "--oun-lambda", "nan"],
        ["--noise", "oun", "--oun-gamma", "inf"],
    ],
)
def test_run_rejects_non_finite_noise_parameters_before_building(tmp_path, capsys, monkeypatch,
                                                                  flags):
    import qwalk.scenarios

    def unreachable(*args):
        raise AssertionError("the graph was built before the noise parameters were checked")

    monkeypatch.setattr(qwalk.scenarios, "scenario_graph", unreachable)
    code = main(
        [
            "run", "--graph", "cycle", "--size", "6", "--sender", "0", "--receiver", "3",
            "--receiver-mode", "outgoing", *flags, "--out", str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: parameters must be finite and positive")
    assert not list(tmp_path.iterdir())


def test_run_rejects_family_vertex_range_before_building(tmp_path, capsys, monkeypatch):
    import qwalk.scenarios

    def unreachable(*args):
        raise AssertionError("the graph was built before the placement was checked")

    monkeypatch.setattr(qwalk.scenarios, "scenario_graph", unreachable)
    code = main(
        [
            "run", "--graph", "cycle", "--size", "3000000", "--sender", "0",
            "--receiver", "5000000", "--out", str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: receiver vertex 5000000 outside 0..2999999\n"


def test_run_rejects_a_horizon_too_long_to_store(tmp_path, capsys):
    # 10**12 steps used to fail allocating the series with a MemoryError traceback
    code = main(
        [
            "run", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "4",
            "--steps", str(10**12), "--out", str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: steps must lie in 1..")


def test_run_reports_internal_error_with_exit_three(tmp_path, capsys, monkeypatch):
    import qwalk.scenarios

    real = qwalk.scenarios.dephased_series
    monkeypatch.setattr(qwalk.scenarios, "dephased_series",
                        lambda channel, kept, flipped: real(channel, flipped, kept))
    # a periodicity run starts on its own target (kept = 1, flipped = 0 at t=0),
    # so the closed form with its overlaps swapped is wrong from the first check
    code = main(
        [
            "run", "--graph", "cycle", "--size", "6", "--sender", "0", "--mode", "periodicity",
            "--noise", "rtn", "--steps", "4", "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("internal error: fidelity cross-check failed at t=0")
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_run_reports_norm_drift_as_an_internal_error(tmp_path, capsys, monkeypatch):
    import qwalk.scenarios

    real_walk_step = qwalk.scenarios.walk_step

    class LeakyStep(WalkStep):
        def __call__(self, psi):
            return super().__call__(psi) * (1.0 + 1e-11)

    monkeypatch.setattr(qwalk.scenarios, "walk_step",
                        lambda *walk: LeakyStep(**vars(real_walk_step(*walk))))
    # (1 + 1e-11)**100 - 1 = 1e-9: a defect of the step, not of the input
    code = main(
        [
            "run", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "4",
            "--noise", "rtn", "--steps", "100", "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("internal error: state norm drifted by 1e-09 over 100 steps")
    assert not list(tmp_path.iterdir())


def test_run_reports_a_fidelity_beyond_round_off_as_an_internal_error(tmp_path, capsys,
                                                                       monkeypatch):
    import qwalk.scenarios

    real_walk = qwalk.scenarios._walk

    def shifted_walk(sc, kinds):
        kept, flipped, checks = real_walk(sc, kinds)
        return kept + 0.5, flipped, checks

    monkeypatch.setattr(qwalk.scenarios, "_walk", shifted_walk)
    # C6 0->3 starts with no weight on the target: kept = 0 at t=0, 1.5 at its peak
    code = main(
        [
            "run", "--graph", "cycle", "--size", "6", "--sender", "0", "--receiver", "3",
            "--out", str(tmp_path),
        ]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "internal error: fidelity 1.5 outside [0, 1] beyond round-off\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ("sender = zero\n", [], "error: sender: expected an integer, got 'zero'\n"),
        ("steps = 1e3\n", [], "error: steps: expected an integer, got '1e3'\n"),
        ("noise = oun\noun_gamma = fast\n", [], "error: oun_gamma: expected a number, got 'fast'\n"),
        ("", ["--size", "5,x"], "error: size: expected integers, got '5,x'\n"),
        ("", ["--sender", "zero"], "error: sender: expected an integer, got 'zero'\n"),
        ("", ["--steps", "1e3"], "error: steps: expected an integer, got '1e3'\n"),
        ("", ["--noise", "oun", "--oun-gamma", "fast"],
         "error: oun_gamma: expected a number, got 'fast'\n"),
    ],
)
def test_run_names_the_key_whose_value_fails_to_convert(tmp_path, capsys, config, flags,
                                                        message):
    path = tmp_path / "scenario.cfg"
    path.write_text("graph = path\nsize = 5\nreceiver = 4\n" + config)
    code = main(["run", "--config", str(path), *flags, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == message


def test_run_reports_broken_edge_space_with_exit_three(tmp_path, capsys, monkeypatch):
    import qwalk.operators

    real_edge_space = qwalk.operators.edge_space

    def broken_edge_space(graph):
        space = real_edge_space(graph)
        rotated = (np.arange(space.dim) + 1) % space.dim  # not an involution
        return replace(space, reverse_of=rotated)

    monkeypatch.setattr(qwalk.operators, "edge_space", broken_edge_space)
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


def test_dump_operators_requires_graph_sender_and_receiver(tmp_path, capsys):
    assert main(["dump-operators", "--sender", "0", "--receiver", "1", "--out", str(tmp_path)]) == 2
    assert "requires --graph" in capsys.readouterr().err
    assert main(["dump-operators", "--graph", "path", "--size", "5", "--out", str(tmp_path)]) == 2
    assert "requires --sender and --receiver" in capsys.readouterr().err


def test_dump_operators_reads_graph_file(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("5\n3 4\n0 1\n2 1\n2 3\n")
    code = main(
        ["dump-operators", "--graph", f"file:{graph_file}", "--sender", "0", "--receiver", "4",
         "--out", str(tmp_path / "file")]
    )
    assert code == 0
    assert main(
        ["dump-operators", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "4",
         "--out", str(tmp_path / "family")]
    ) == 0
    for name in ("coin", "shift", "unitary"):
        assert (tmp_path / "file" / f"{name}.csv").read_bytes() == (
            tmp_path / "family" / f"{name}.csv"
        ).read_bytes()


def test_dump_operators_rejects_dims_above_dense_limit_before_assembly(
    tmp_path, capsys, monkeypatch
):
    import qwalk.cli

    def assembly(step):
        raise RuntimeError(f"assembly reached at dim {step.dim}")

    monkeypatch.setattr(qwalk.cli, "walk_unitary", assembly)
    # a cycle on n vertices has walk dimension 2n
    argv = ["dump-operators", "--graph", "cycle", "--sender", "0", "--receiver", "1",
            "--out", str(tmp_path)]
    assert main(argv + ["--size", str(qwalk.cli.DUMP_MAX_DIM // 2 + 1)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: dump-operators writes dense matrices only up to walk dimension")
    assert f"has {qwalk.cli.DUMP_MAX_DIM + 2}" in err
    assert not list(tmp_path.iterdir())
    # at the limit itself the guard passes and assembly is reached
    assert main(argv + ["--size", str(qwalk.cli.DUMP_MAX_DIM // 2)]) == 3
    assert f"assembly reached at dim {qwalk.cli.DUMP_MAX_DIM}" in capsys.readouterr().err


@pytest.mark.parametrize("graph", ["family", "file"])
def test_dump_operators_refuses_a_large_graph_before_building_its_basis(tmp_path, capsys,
                                                                         monkeypatch, graph):
    import qwalk.operators

    def unreachable(graph):
        raise AssertionError("an edge space was built for a graph dump-operators refuses")

    monkeypatch.setattr(qwalk.operators, "edge_space", unreachable)
    if graph == "family":
        argv = ["--graph", "cycle", "--size", "1025"]
    else:
        path = tmp_path / "c1025.txt"
        path.write_text("1025\n" + "".join(f"{i} {(i + 1) % 1025}\n" for i in range(1025)))
        argv = ["--graph", f"file:{path}"]
    code = main(
        ["dump-operators", *argv, "--sender", "0", "--receiver", "5",
         "--out", str(tmp_path / "ops")]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: dump-operators writes dense matrices only up to walk dimension 2048; "
        "this graph has 2050\n"
    )
    assert not (tmp_path / "ops").exists()


def test_run_help_shows_the_scenario_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    # the option list, past the usage line, with its wrapping undone
    options = " ".join(out[out.index("show this help message"):].split())
    defaults = {f.name: f.default for f in fields(Scenario)}
    for key in ("receiver_mode", "rtn_a", "rtn_gamma", "oun_lambda", "oun_gamma", "steps"):
        flag = "--" + key.replace("_", "-")
        shown = re.search(rf"{flag} \S+ [^()]*\(default ([^)]*)\)", options)[1]
        assert type(defaults[key])(shown) == defaults[key], (key, shown)


@pytest.mark.parametrize("family, size, arcs", [
    ("path", str(10**13), 2 * (10**13 - 1)),
    ("kab", f"{10**7},{10**7}", 2 * 10**14),
])
def test_run_refuses_an_oversized_family_before_building_it(tmp_path, capsys, monkeypatch,
                                                            family, size, arcs):
    import qwalk.graphs

    def unreachable(*args):
        raise AssertionError("the edge list was built before the arc count was checked")

    monkeypatch.setattr(qwalk.graphs, "build_graph", unreachable)
    code = main(
        [
            "run", "--graph", family, "--size", size, "--sender", "0", "--receiver", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and f"has {arcs} arcs" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("exc", [TypeError("unsupported operand\ntype"), MemoryError("out of memory")])
def test_run_reports_any_other_exception_as_an_internal_error(tmp_path, capsys, monkeypatch, exc):
    import qwalk.cli

    def failing(scenario):
        raise exc

    monkeypatch.setattr(qwalk.cli, "run_scenario", failing)
    code = main(
        [
            "run", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "4",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}\n"
    assert not list(tmp_path.iterdir())


def test_run_checks_the_rtn_phase_at_the_horizon_before_building(tmp_path, capsys, monkeypatch):
    import qwalk.scenarios

    argv = ["run", "--graph", "path", "--size", "5", "--sender", "0", "--receiver", "4",
            "--noise", "rtn", "--rtn-a", "1e305", "--rtn-gamma", "1e160"]
    real = qwalk.scenarios.scenario_graph

    def unreachable(*args):
        raise AssertionError("the graph was built before the horizon was checked")

    monkeypatch.setattr(qwalk.scenarios, "scenario_graph", unreachable)
    # nu * gamma = 2e305 is finite; times 10000 steps the phase overflows
    assert main(argv + ["--steps", "10000", "--out", str(tmp_path / "long")]) == 2
    assert capsys.readouterr().err == (
        "error: unsupported regime: a/gamma = 1e+145 overflows the phase at t=10000.0\n"
    )
    assert not list(tmp_path.iterdir())
    monkeypatch.setattr(qwalk.scenarios, "scenario_graph", real)
    assert main(argv + ["--steps", "100", "--out", str(tmp_path / "short")]) == 0
    assert len(list((tmp_path / "short").iterdir())) == 2

