"""Benchmark of the qwalk CLI: end-to-end metrics, or per-layer ones when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload noisy_mid --seed 1 --seconds 36 --trace 0

One process runs one workload. It measures set-up in fresh child
processes, then drives the workload's ``qwalk.cli.main`` invocations back
to back (a closed loop with one client) for ``--seconds``, checking every
CSV/SVG a pass writes against the independent reference outside the timed
region. ``--trace 1`` alternates untraced passes with passes in which every
public qwalk function is wrapped in a span (see ``spans.py``) and reports
the per-layer metrics instead. Metric names and units are read from
``BENCHMARK.json``. The last stdout line is the result as one JSON object;
the full result, with provenance, goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# Pinned before numpy loads: one BLAS thread gives the steadiest timings on a
# small shared machine, and every process of a run uses the same count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import reference  # noqa: E402  (imports numpy)
from inputs import WORKLOADS, Workload, build_workload  # noqa: E402
from spans import LayerStats, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 5
MIN_PASSES = 3  # timed passes in an untraced run
MIN_TRACED_ROUNDS = 2  # (untraced, traced) pass pairs in a traced run
PROBE_TIMEOUT_S = 60
# Names of derived per-layer metrics; every other one is <module>.<function>.<field>.
ALLOC_METRIC = "scenarios.run_scenario.alloc_peak_mb"
BYTES_METRIC = "output.bytes_written"
OVERHEAD_METRIC = "trace_overhead_s"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one pass and one set-up probe (the benchmark's tests)")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_qwalk():
    """Import qwalk from this checkout's ``src/``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import qwalk
    import qwalk.cli

    if Path(qwalk.__file__).resolve().parent != SRC / "qwalk":
        raise ImportError(f"qwalk imported from {qwalk.__file__}, not from {SRC}")
    return qwalk


# -- set-up -----------------------------------------------------------------

def setup_probe(args) -> int:
    """Child side of a set-up measurement: import qwalk, generate the inputs."""
    import_qwalk()
    build_workload(args.workload, args.seed, Path(args.setup_probe), smoke=args.smoke)
    print("ready", flush=True)
    return 0


def measure_setup(args, scratch: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    times = []
    for i in range(1 if args.smoke else SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-probe", str(scratch / f"probe{i}")]
        if args.smoke:
            cmd.append("--smoke")
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    return times


# -- passes -----------------------------------------------------------------

def run_pass(qwalk, workload: Workload, expected, out_dir: Path, tracer=None,
             trace_alloc: bool = False) -> dict:
    """One pass through ``qwalk.cli.main``; only the CLI calls are timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    if tracer is not None:
        tracer.install()
    if trace_alloc:
        tracemalloc.start()
    seconds = 0.0
    problems: list[str] = []
    failed_cases = set()
    try:
        for argv, cases in workload.invocations(out_dir):
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qwalk.cli.main(argv)
            except Exception as exc:  # a crash counts as a failed scenario
                code = f"{type(exc).__name__}: {exc}"
            seconds += time.perf_counter() - start
            if code != 0:
                problems.append(f"{argv[0]} exited with {code}")
                failed_cases.update(c.name for c in cases)
    finally:
        if trace_alloc:
            tracemalloc.stop()
        if tracer is not None:
            tracer.uninstall()

    for case in workload.cases:
        found = reference.check_csv(out_dir / f"{case.name}.csv", case, expected[case.name])
        found += reference.check_svg(out_dir / f"{case.name}.svg")
        if found:
            failed_cases.add(case.name)
            problems += found
    bytes_written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
    return {"seconds": seconds, "attempted": len(workload.cases), "failed": len(failed_cases),
            "problems": problems, "bytes_written": bytes_written}


def run_passes(qwalk, workload, expected, out_dir, seconds, min_passes, tracer=None):
    """Passes back to back until another would overrun ``seconds``.

    The first pass warms the heap and BLAS and is checked but not timed.
    With a tracer it is also the one pass that runs ``tracemalloc``, whose
    hooks would otherwise inflate every span's self time. Then untraced and
    traced passes alternate, ``min_passes`` of each at least, so both see
    the same machine state.
    """
    kinds = [None] if tracer is None else [None, tracer]
    plain, traced = [], []
    begin = time.perf_counter()
    warmup = run_pass(qwalk, workload, expected, out_dir, tracer, trace_alloc=tracer is not None)
    if tracer is not None:
        warmup["stats"] = tracer.snapshot()
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            record = run_pass(qwalk, workload, expected, out_dir, kind)
            if kind is None:
                plain.append(record)
            else:
                record["stats"] = kind.snapshot()
                traced.append(record)
        now = time.perf_counter()
        if len(plain) >= min_passes and now - begin + (now - round_start) > seconds:
            return warmup, plain, traced


# -- metrics ----------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 passes beyond it, and its rank.

    That is the 11th slowest pass, at percentile ``100 (n - 10) / n``. With
    ``n <= 20`` it would fall at or below the median, so the median (p50)
    is given instead; the rank then reads 50.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n > 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def end_to_end(workload: Workload, passes: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    times = [p["seconds"] for p in passes]
    wall = statistics.median(times)
    tail_value, tail_rank = tail(times)
    values = {
        "wall_s": wall,
        "wall_s.tail": tail_value,
        "edge_steps_per_s": workload.edge_steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = {
        "wall_s": f"median of {len(times)} passes",
        "wall_s.tail": f"p{tail_rank:.0f} of {len(times)} passes",
        "edge_steps_per_s": f"{workload.edge_steps} edge-steps per pass",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {len(setup_times)} fresh processes",
    }
    return values, notes


def per_layer(names: list[str], warmup: dict, plain: list[dict],
              traced: list[dict]) -> tuple[dict, dict]:
    """Per-pass medians of each function's span totals, from the traced passes."""
    deltas = []  # per traced pass: {function: (calls, self_s)}
    previous: dict = warmup["stats"]
    for record in traced:
        zero = LayerStats()
        deltas.append({
            name: (s.calls - previous.get(name, zero).calls,
                   s.self_s - previous.get(name, zero).self_s)
            for name, s in record["stats"].items()
        })
        previous = record["stats"]
    final = traced[-1]["stats"]
    plain_wall = statistics.median(p["seconds"] for p in plain)
    traced_wall = statistics.median(p["seconds"] for p in traced)
    values, notes = {}, {}
    for metric in names:
        if metric == OVERHEAD_METRIC:
            values[metric] = traced_wall - plain_wall
            notes[metric] = f"traced {traced_wall:.6g} s - untraced {plain_wall:.6g} s"
            continue
        if metric == BYTES_METRIC:
            values[metric] = statistics.median(p["bytes_written"] for p in traced)
            continue
        function, field = metric.rsplit(".", 1)
        stats = final.get(function)
        if stats is None:  # removed by a refactor: no calls, not an error
            values[metric] = 0
        elif metric == ALLOC_METRIC:
            values[metric] = stats.alloc_peak_b / 2**20
        elif field == "calls":
            values[metric] = statistics.median_low(d[function][0] for d in deltas)
        elif field == "self_s":
            values[metric] = statistics.median(d[function][1] for d in deltas)
        elif field == "errors":
            values[metric] = stats.errors
        else:
            raise ValueError(f"unknown per-layer metric {metric!r}")
    notes["per_pass"] = f"medians over {len(traced)} traced passes; errors are run totals"
    return values, notes


# -- provenance -------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_runtime_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(ROOT),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
    }


# -- main -------------------------------------------------------------------

def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwalk" / "__init__.py").is_file():
        print(f"error: no qwalk sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    specs = load_metric_specs()[args.trace]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_times = [] if args.trace else measure_setup(args, run_dir)
        qwalk = import_qwalk()
        workload = build_workload(args.workload, args.seed, run_dir / "inputs", smoke=args.smoke)
        expected = {c.name: reference.expected_series(c) for c in workload.cases}
        min_passes = 1 if args.smoke else MIN_TRACED_ROUNDS if args.trace else MIN_PASSES
        tracer = Tracer() if args.trace else None
        warmup, plain, traced = run_passes(qwalk, workload, expected, run_dir / "outputs",
                                           args.seconds, min_passes, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = [warmup] + plain + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    problems = [msg for p in everything for msg in p["problems"]]
    if args.trace:
        values, notes = per_layer([name for name, _ in specs], warmup, plain, traced)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values, notes = end_to_end(workload, plain, setup_times)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}

    for name, unit in specs:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    print(f"error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted} scenarios failed)")
    for msg in problems[:20]:
        print(f"check failed: {msg}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, trace=args.trace, notes=notes,
                  error_rate=failed / attempted, problems=problems[:100],
                  provenance=provenance(args.seed),
                  pass_seconds=[p["seconds"] for p in plain],
                  traced_pass_seconds=[p["seconds"] for p in traced],
                  setup_seconds=setup_times)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
