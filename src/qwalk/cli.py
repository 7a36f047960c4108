"""Command-line interface: run scenarios, the bundled suite, operator dumps.

Exit codes: 0 on success, 2 for invalid input or an I/O failure, 3 for an
internal error (a failed numerical cross-check or operator invariant, or any
other exception). Every error is one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .operators import walk_step, walk_unitary
from .output import render_svg, write_csv, write_matrix_csv
from .scenarios import (
    SCENARIO_KEYS,
    Scenario,
    default_name,
    paper_suite,
    parse_scenario_config,
    run_scenario,
    scenario_from_mapping,
    scenario_graph,
)

__all__ = ["main"]


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--graph",
        help="graph family (path|cycle|star|kab) or file:<path> for a custom graph file",
    )
    parser.add_argument(
        "--size",
        help="family size: one integer, or m,n for the complete bipartite family",
    )
    parser.add_argument("--sender", help="sender vertex")
    parser.add_argument("--receiver", help="receiver vertex")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description=(
            "Coined quantum walks on graph edge spaces: state-transfer and "
            "periodicity fidelity, with optional non-Markovian dephasing noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in fields(Scenario)}  # the values a run uses

    run = sub.add_parser("run", help="run one scenario and write its CSV/SVG outputs")
    run.add_argument("--config", help="scenario config file (flat 'key = value' lines)")
    _add_graph_arguments(run)
    run.add_argument("--mode", choices=["transfer", "periodicity"], help="experiment kind")
    run.add_argument(
        "--receiver-mode",
        choices=["incoming", "outgoing"],
        help=f"receiver-state convention (default {defaults['receiver_mode']})",
    )
    run.add_argument("--noise", choices=["none", "rtn", "oun"], help="noise channel")
    for key, text in (
        ("rtn_a", "telegraph transition amplitude"), ("rtn_gamma", "telegraph damping rate"),
        ("oun_lambda", "OU relaxation parameter"), ("oun_gamma", "OU noise bandwidth"),
        ("steps", "number of walk steps"),
    ):
        run.add_argument("--" + key.replace("_", "-"), help=f"{text} (default {defaults[key]:g})")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--name", help="basename for the output files (default: derived)")

    suite = sub.add_parser(
        "paper-suite", help="run the bundled case-study suite and write all outputs"
    )
    suite.add_argument("--out", required=True, help="output directory")

    dump = sub.add_parser(
        "dump-operators", help="write the coin, shift and step matrices as CSV"
    )
    _add_graph_arguments(dump)
    dump.add_argument("--out", required=True, help="output directory")
    return parser


# dump-operators applies the step to the dim x dim identity block, giving three
# dense float64 matrices (32 MiB each at this limit), and checks them in
# O(dim^3); larger walks are refused.
DUMP_MAX_DIM = 2048


def _flag_mapping(args: argparse.Namespace) -> dict[str, str]:
    """The scenario keys given on the command line, unconverted, as a config file gives them."""
    # every scenario key has a command-line flag of the same (dashed) name
    values = {key: getattr(args, key, None) for key in SCENARIO_KEYS}
    return {key: value for key, value in values.items() if value is not None}


def _run_command(args: argparse.Namespace) -> int:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(parse_scenario_config(Path(args.config).read_text(encoding="utf-8")))
    mapping.update(_flag_mapping(args))
    scenario = scenario_from_mapping(mapping)
    series = run_scenario(scenario)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.name or default_name(scenario)
    csv_path = out_dir / f"{name}.csv"
    svg_path = out_dir / f"{name}.svg"
    write_csv(series, csv_path)
    render_svg(series, svg_path, title=name)
    print(csv_path)
    print(svg_path)
    return 0


def _suite_command(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, series in paper_suite():
        write_csv(series, out_dir / f"{name}.csv")
        render_svg(series, out_dir / f"{name}.svg", title=name)
        print(out_dir / f"{name}.csv")
    return 0


def _dump_command(args: argparse.Namespace) -> int:
    if args.graph is None:
        raise ValueError("dump-operators requires --graph")
    if args.sender is None or args.receiver is None:
        raise ValueError("dump-operators requires --sender and --receiver")
    if args.size is None and not args.graph.startswith("file:"):
        raise ValueError(f"graph family {args.graph!r} requires --size")
    scenario = scenario_from_mapping(_flag_mapping(args))
    graph = scenario_graph(scenario)
    if 2 * graph.m > DUMP_MAX_DIM:
        raise ValueError(
            f"dump-operators writes dense matrices only up to walk dimension "
            f"{DUMP_MAX_DIM}; this graph has {2 * graph.m}"
        )
    ops = walk_unitary(walk_step(graph, scenario.sender, scenario.receiver))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, matrix in (("coin", ops.coin), ("shift", ops.shift), ("unitary", ops.unitary)):
        path = out_dir / f"{name}.csv"
        write_matrix_csv(matrix, path)
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _run_command,
        "paper-suite": _suite_command,
        "dump-operators": _dump_command,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A failed cross-check or operator invariant: a defect, not bad input.
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other defect (MemoryError included): one line, exit 3
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
