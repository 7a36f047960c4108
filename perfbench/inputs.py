"""Seeded workload inputs for the benchmark.

Each workload is a list of :class:`Case` objects. A case is one walk the
CLI must compute: the argv tail that asks ``qwalk.cli.main`` for it, plus
the model parameters the independent reference in :mod:`reference` needs
to recompute its CSV. Random graphs are written as graph files and given
to the CLI as ``file:<path>``; the program under test sees only those
files and the flags, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("paper_suite", "noisy_mid", "noiseless_large")

# Channel parameters: the qwalk defaults, passed explicitly on `run`.
RTN_A, RTN_GAMMA = 0.1, 0.01
OUN_LAMBDA, OUN_GAMMA = 1.0, 0.05
# Fewer steps than the paper's 100 leave the per-step work unchanged and let
# one run hold some 20 passes, enough for a steady median and a tail above it.
NOISY_MID_STEPS = 25
NOISELESS_LARGE_STEPS = 50


@dataclass(frozen=True)
class Case:
    """One scenario: its output name, the graph, placement, noise and horizon."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    sender: int
    receiver: int
    mode: str  # "transfer" | "periodicity"
    receiver_mode: str  # "incoming" | "outgoing"
    noise: str  # "none" | "rtn" | "oun"
    steps: int
    graph_arg: tuple[str, ...]  # "--graph ..." (and "--size ...") flags

    @property
    def dim(self) -> int:
        return 2 * len(self.edges)

    def run_argv(self, out_dir: Path) -> list[str]:
        """The ``qwalk run`` argv that asks the CLI for this case."""
        argv = ["run", *self.graph_arg, "--sender", str(self.sender)]
        if self.mode == "transfer":
            argv += ["--receiver", str(self.receiver)]
        argv += [
            "--mode", self.mode,
            "--receiver-mode", self.receiver_mode,
            "--noise", self.noise,
            "--steps", str(self.steps),
            "--out", str(out_dir),
            "--name", self.name,
        ]
        if self.noise == "rtn":
            argv += ["--rtn-a", repr(RTN_A), "--rtn-gamma", repr(RTN_GAMMA)]
        elif self.noise == "oun":
            argv += ["--oun-lambda", repr(OUN_LAMBDA), "--oun-gamma", repr(OUN_GAMMA)]
        return argv


@dataclass(frozen=True)
class Workload:
    """The cases of one workload and the CLI invocations that produce them."""

    name: str
    cases: tuple[Case, ...]
    suite: bool = False  # one `qwalk paper-suite` call instead of one `run` per case

    def invocations(self, out_dir: Path) -> list[tuple[list[str], tuple[Case, ...]]]:
        """One pass: each argv run through ``qwalk.cli.main``, with the cases it writes."""
        if self.suite:
            return [(["paper-suite", "--out", str(out_dir)], self.cases)]
        return [(c.run_argv(out_dir), (c,)) for c in self.cases]

    @property
    def edge_steps(self) -> int:
        """``sum dim * (steps + 1)`` over the cases: the work of one pass."""
        return sum(c.dim * (c.steps + 1) for c in self.cases)


# -- graph families (independent of qwalk.graphs) ---------------------------

def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(0, n - 1)]


def star_edges(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def kab_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def random_connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A simple connected graph with ``n`` vertices and ``m`` edges.

    A random spanning tree (each vertex, in shuffled order, attaches to an
    earlier one) keeps every vertex reachable; the remaining ``m - n + 1``
    edges are drawn uniformly from the pairs not yet joined.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple connected graph with n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def write_graph_file(path: Path, n: int, edges) -> None:
    lines = [str(n)] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- workloads --------------------------------------------------------------

def _paper_suite() -> Workload:
    # The 11 case-study families of `qwalk paper-suite`, each under rtn and
    # oun, with the outgoing receiver convention and 100 steps.
    families = [
        ("p5", 5, path_edges(5), [(0, 4), (0, 1)]),
        ("c6", 6, cycle_edges(6), [(0, 3), (0, 1)]),
        ("s6", 6, star_edges(6), [(0, 1), (1, 0)]),
        ("k23", 5, kab_edges(2, 3), [(0, 1)]),
    ]
    cases = []
    for tag, n, edges, pairs in families:
        edges = tuple(sorted(edges))
        placements = [("transfer", s, r, f"{tag}_transfer_s{s}_r{r}") for s, r in pairs]
        placements.append(("periodicity", 0, 0, f"{tag}_periodic_v0"))
        for mode, s, r, base in placements:
            for noise in ("rtn", "oun"):
                cases.append(Case(
                    name=f"{base}_{noise}", n=n, edges=edges, sender=s, receiver=r,
                    mode=mode, receiver_mode="outgoing", noise=noise, steps=100,
                    graph_arg=(),
                ))
    return Workload("paper_suite", tuple(cases), suite=True)


def _random_case(rng, in_dir: Path, name: str, n: int, m: int, mode: str, noise: str,
                 steps: int) -> Case:
    edges = random_connected_graph(rng, n, m)
    path = in_dir / f"{name}.graph"
    write_graph_file(path, n, edges)
    sender, receiver = rng.sample(range(n), 2)
    if mode == "periodicity":
        receiver = sender
    return Case(
        name=name, n=n, edges=tuple(edges), sender=sender, receiver=receiver, mode=mode,
        receiver_mode="incoming", noise=noise, steps=steps, graph_arg=("--graph", f"file:{path}"),
    )


def _family_case(name: str, family: str, size: tuple[int, ...], edges, sender: int,
                 receiver: int, mode: str, steps: int) -> Case:
    n = max(max(e) for e in edges) + 1
    return Case(
        name=name, n=n, edges=tuple(sorted(edges)), sender=sender, receiver=receiver,
        mode=mode, receiver_mode="incoming", noise="none", steps=steps,
        graph_arg=("--graph", family, "--size", ",".join(map(str, size))),
    )


def build_workload(name: str, seed: int, in_dir: Path, smoke: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` into ``in_dir``.

    ``smoke`` shrinks every random and family graph and the horizon so the
    benchmark's own tests finish in seconds; ``paper_suite`` is fixed by the
    CLI and has no smaller form.
    """
    if name == "paper_suite":
        return _paper_suite()
    rng = random.Random(f"{name}:{seed}")
    in_dir.mkdir(parents=True, exist_ok=True)
    if name == "noisy_mid":
        n, m = (8, 12) if smoke else (60, 100)
        steps = 10 if smoke else NOISY_MID_STEPS
        cases = (
            _random_case(rng, in_dir, "mid_rtn_transfer", n, m, "transfer", "rtn", steps),
            _random_case(rng, in_dir, "mid_oun_periodic", n, m, "periodicity", "oun", steps),
        )
    elif name == "noiseless_large":
        ring, part, (n, m) = (8, 3, (10, 15)) if smoke else (400, 20, (250, 400))
        steps = 10 if smoke else NOISELESS_LARGE_STEPS
        cases = (
            _family_case(f"c{ring}_transfer", "cycle", (ring,), cycle_edges(ring),
                         0, ring // 2, "transfer", steps),
            _family_case(f"k{part}_{part}_periodic", "kab", (part, part), kab_edges(part, part),
                         0, 0, "periodicity", steps),
            _random_case(rng, in_dir, "large_transfer", n, m, "transfer", "none", steps),
        )
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(name, cases)
