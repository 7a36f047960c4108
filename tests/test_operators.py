from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from qwalk.graphs import build_graph, cycle_graph, path_graph, standard_family, star_graph
from qwalk.operators import (
    WalkSpec,
    receiver_state,
    sender_state,
    walk_spec,
    walk_step,
    walk_unitary,
)
from qwalk.scenarios import case_study_scenarios, scenario_graph

from .goldens import CASE_SPECS, FAMILY_BUILDERS, GOLDEN_COINS, GOLDEN_SHIFTS, PRINTED_COINS
from .oracles import (
    coin_operator,
    dense_walk_operators,
    grover_diffusion,
    random_pure,
    random_simple_graph,
    shift_operator,
)


def case_walk_spec(family: str, s: int, r: int):
    kind, size = FAMILY_BUILDERS[family]
    return walk_spec(standard_family(kind, *size), s, r)


def test_grover_diffusion_small_dimensions():
    assert np.allclose(grover_diffusion(1), [[1.0]])
    assert np.allclose(grover_diffusion(2), [[0.0, 1.0], [1.0, 0.0]])
    d3 = grover_diffusion(3)
    assert np.allclose(np.diag(d3), -1 / 3)
    assert np.allclose(d3[~np.eye(3, dtype=bool)], 2 / 3)


def test_grover_diffusion_rejects_zero():
    with pytest.raises(ValueError):
        grover_diffusion(0)


def test_grover_diffusion_is_involution():
    for d in range(1, 8):
        g = grover_diffusion(d)
        assert np.abs(g @ g - np.eye(d)).max() < 1e-12


@pytest.mark.parametrize("family,s,r", CASE_SPECS)
def test_coin_matches_golden(family, s, r):
    spec = case_walk_spec(family, s, r)
    for coin in (coin_operator(spec), walk_unitary(spec).coin):
        assert np.abs(coin - GOLDEN_COINS[(family, s, r)]).max() < 1e-6


@pytest.mark.parametrize("family,s,r", sorted(PRINTED_COINS))
def test_printed_coins_transcribed(family, s, r):
    # The verbatim reference tables; misprinted ones are covered above by
    # the rule-derived goldens instead.
    coin = coin_operator(case_walk_spec(family, s, r))
    assert np.abs(coin - GOLDEN_COINS[(family, s, r)]).max() < 1e-6


@pytest.mark.parametrize("family", sorted(GOLDEN_SHIFTS))
def test_shift_matches_golden(family):
    kind, size = FAMILY_BUILDERS[family]
    spec = walk_spec(standard_family(kind, *size), 0, 0)
    assert np.array_equal(shift_operator(spec.space), GOLDEN_SHIFTS[family])
    assert np.array_equal(walk_unitary(spec).shift, GOLDEN_SHIFTS[family])


def test_coin_is_symmetric_under_sender_receiver_swap():
    g = star_graph(6)
    coins = [walk_unitary(walk_spec(g, s, r)).coin for s, r in ((0, 1), (1, 0))]
    assert np.array_equal(*coins)


def test_periodicity_negates_block_once():
    # sender == receiver negates that vertex's block exactly once
    coin = walk_unitary(walk_spec(path_graph(5), 0, 0)).coin
    assert coin[0, 0] == -1.0
    assert coin[7, 7] == 1.0


def test_coin_blocks_follow_diffusion_formula():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = build_graph(n, random_simple_graph(rng, n))
        s, r = int(rng.integers(0, n)), int(rng.integers(0, n))
        spec = walk_spec(g, s, r)
        coin = walk_unitary(spec).coin
        for v in range(n):
            start, stop = spec.space.starts[v], spec.space.starts[v + 1]
            d = g.degrees[v]
            sign = -1.0 if v in {s, r} else 1.0
            expected = sign * ((2.0 / d) * np.ones((d, d)) - np.eye(d))
            assert np.abs(coin[start:stop, start:stop] - expected).max() < 1e-12
        off_block = coin.copy()
        for v in range(n):
            start, stop = spec.space.starts[v], spec.space.starts[v + 1]
            off_block[start:stop, start:stop] = 0.0
        assert np.abs(off_block).max() == 0.0


def test_shift_squares_to_identity():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        spec = walk_spec(build_graph(n, random_simple_graph(rng, n)), 0, 0)
        shift = walk_unitary(spec).shift
        assert np.array_equal(shift @ shift, np.eye(spec.space.dim))


@pytest.mark.parametrize("family,s,r", CASE_SPECS)
def test_walk_unitary_invariants(family, s, r):
    ops = walk_unitary(case_walk_spec(family, s, r))
    eye = np.eye(ops.dim)
    assert np.abs(ops.coin @ ops.coin - eye).max() < 1e-12
    assert np.abs(ops.shift @ ops.shift - eye).max() < 1e-12
    assert np.abs(ops.unitary.conj().T @ ops.unitary - eye).max() < 1e-12
    assert np.isrealobj(ops.unitary)
    assert np.array_equal(ops.unitary, ops.shift @ ops.coin)


def _faulty_steps():
    """Per check of ``walk_unitary``: a ``walk_step`` stand-in and a spec that fail it.

    On C6 (marks 0 and 3) the arcs 2 and 3 form vertex 1's unmarked block.
    """
    spec = case_walk_spec("c6", 0, 3)
    real = walk_step(spec)
    swap = np.arange(spec.space.dim)
    swap[[2, 3]] = [3, 2]
    # arc reversal after a swap inside one block: a permutation, not an involution
    mixed = replace(spec, space=replace(spec.space, reverse_of=spec.space.reverse_of[swap]))
    dense = dense_walk_operators(spec)
    skewed = dense.coin.copy()
    skewed[2:4, 2:4] = [[1.0, 1.0], [0.0, -1.0]]  # an involution, not orthogonal
    return {
        "coin": (lambda _: replace(real, sign=2.0 * real.sign), spec),
        "shift": (lambda _: real, mixed),
        "step": (lambda _: lambda psi: dense.shift @ (skewed @ psi), spec),
    }


@pytest.mark.parametrize(
    "fault, message",
    [
        ("coin", "coin operator is not an involution"),
        ("shift", "shift operator is not an involution"),
        ("step", "step operator is not unitary"),
    ],
)
def test_walk_unitary_checks_the_materialised_step(monkeypatch, fault, message):
    import qwalk.operators

    faulty_step, spec = _faulty_steps()[fault]
    monkeypatch.setattr(qwalk.operators, "walk_step", faulty_step)
    with pytest.raises(RuntimeError, match=message):
        walk_unitary(spec)


@pytest.mark.parametrize(
    "kind,size,sender,receiver",
    [("star", (200,), 1, 0), ("kab", (20, 30), 0, 21), ("cycle", (50,), 0, 25)],
)
def test_walk_step_on_large_blocks_equals_stepping_each_column(kind, size, sender, receiver):
    # a hub block of 199 arcs, blocks of 20 and 30, and blocks of 2
    step = walk_step(walk_spec(standard_family(kind, *size), sender, receiver))
    rng = np.random.default_rng(16)
    block = rng.normal(size=(step.dim, 7)) + 1j * rng.normal(size=(step.dim, 7))
    stepped = step(block)
    for j in range(7):
        assert stepped[:, j].tobytes() == step(block[:, j]).tobytes(), j


@pytest.mark.parametrize("family,s,r", CASE_SPECS)
def test_walk_unitary_is_the_step_on_each_basis_arc(family, s, r):
    spec = case_walk_spec(family, s, r)
    step = walk_step(spec)
    columns = np.array([step(e) for e in np.eye(step.dim)]).T + 0.0
    assert walk_unitary(spec).unitary.tobytes() == columns.tobytes()


def test_walk_unitary_dimensions():
    assert walk_unitary(case_walk_spec("p5", 0, 4)).dim == 8
    assert walk_unitary(case_walk_spec("s6", 0, 1)).dim == 10
    assert walk_unitary(case_walk_spec("k23", 0, 1)).dim == 12


def test_operators_are_read_only():
    ops = walk_unitary(case_walk_spec("p5", 0, 4))
    with pytest.raises(ValueError):
        ops.unitary[0, 0] = 5.0


def test_sender_state_examples():
    p5 = case_walk_spec("p5", 0, 4)
    assert np.allclose(sender_state(p5), np.eye(8)[0])

    c6 = case_walk_spec("c6", 0, 3)
    expected = np.zeros(12)
    expected[[0, 1]] = 1 / np.sqrt(2)
    assert np.allclose(sender_state(c6), expected)

    s6 = case_walk_spec("s6", 0, 1)
    expected = np.zeros(10)
    expected[:5] = 1 / np.sqrt(5)
    assert np.allclose(sender_state(s6), expected)


def test_receiver_state_incoming_follows_edge_direction():
    # incoming edges of the receiver: for the star with receiver 1 that is
    # the single edge (0, 1), basis index 0
    s6 = case_walk_spec("s6", 0, 1)
    assert np.allclose(receiver_state(s6, "incoming"), np.eye(10)[0])

    p5 = case_walk_spec("p5", 0, 4)
    assert np.allclose(receiver_state(p5, "incoming"), np.eye(8)[6])

    c6 = case_walk_spec("c6", 0, 3)
    expected = np.zeros(12)
    expected[[5, 8]] = 1 / np.sqrt(2)
    assert np.allclose(receiver_state(c6, "incoming"), expected)


def test_receiver_state_outgoing_uses_vertex_block():
    p5 = case_walk_spec("p5", 0, 4)
    assert np.allclose(receiver_state(p5, "outgoing"), np.eye(8)[7])

    s6 = case_walk_spec("s6", 0, 1)
    assert np.allclose(receiver_state(s6, "outgoing"), np.eye(10)[5])

    c6 = case_walk_spec("c6", 0, 3)
    expected = np.zeros(12)
    expected[[6, 7]] = 1 / np.sqrt(2)
    assert np.allclose(receiver_state(c6, "outgoing"), expected)


def test_receiver_state_rejects_unknown_mode():
    with pytest.raises(ValueError, match="receiver mode"):
        receiver_state(case_walk_spec("p5", 0, 4), "sideways")


def test_boundary_states_norm_and_support():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = build_graph(n, random_simple_graph(rng, n))
        s, r = int(rng.integers(0, n)), int(rng.integers(0, n))
        spec = walk_spec(g, s, r)
        psi = sender_state(spec)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert np.count_nonzero(psi) == g.degrees[s]
        for mode in ("incoming", "outgoing"):
            phi = receiver_state(spec, mode)
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
            assert np.count_nonzero(phi) == g.degrees[r]


def test_walk_spec_rejects_bad_vertices():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="sender"):
        walk_spec(g, 9, 0)
    with pytest.raises(ValueError, match="receiver"):
        WalkSpec(graph=g, space=walk_spec(g, 0, 0).space, sender=0, receiver=-1)


def _step_oracle_specs():
    """The 22 case studies plus random graphs with leaf and coinciding marks."""
    specs = [
        (name, walk_spec(scenario_graph(sc), sc.sender, sc.receiver))
        for name, sc in case_study_scenarios()
    ]
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 6, 9, 14, 20):
        g = build_graph(n, random_simple_graph(rng, n))
        leaf = int(np.flatnonzero(g.degrees == 1)[0])  # a spanning tree always has a leaf
        for s, r in ((0, n - 1), (leaf, leaf), (leaf, (leaf + 1) % n)):
            specs.append((f"random{n}_s{s}_r{r}", walk_spec(g, s, r)))
    return specs


def test_walk_step_matches_dense_unitary_at_every_step():
    specs = _step_oracle_specs()
    assert len(specs) == 22 + 21
    assert any(spec.sender == spec.receiver for _, spec in specs)
    assert any(spec.graph.degrees[spec.sender] == 1 for _, spec in specs)
    rng = np.random.default_rng(32)
    for name, spec in specs:
        step = walk_step(spec)
        unitary = dense_walk_operators(spec).unitary
        for psi0 in (sender_state(spec), random_pure(rng, spec.space.dim)):
            free, dense = psi0, psi0
            for t in range(1, 61):
                free, dense = step(free), unitary @ dense
                assert np.abs(free - dense).max() <= 1e-12, (name, t)


def test_walk_step_arrays_are_read_only_and_linear_in_dim():
    spec = case_walk_spec("k23", 0, 1)
    step = walk_step(spec)
    assert step.dim == spec.space.dim == 12
    for a in (step.starts, step.two_over_degree, step.block_of, step.sign, step.reverse_of):
        assert a.ndim == 1 and len(a) <= step.dim
        with pytest.raises(ValueError):
            a[0] = 0


def _broken_spaces():
    space = walk_spec(cycle_graph(6), 0, 3).space
    dim = space.dim
    return {
        # fixed-point-free but not an involution: S @ S != I
        "rotated_reverse": replace(space, reverse_of=(np.arange(dim) + 1) % dim),
        # an involution with fixed points
        "identity_reverse": replace(space, reverse_of=np.arange(dim)),
        # the first block one arc short, the second one long
        "short_blocks": replace(space, starts=np.r_[0, 1, space.starts[2:]]),
        # blocks that stop short of the last arc
        "truncated_blocks": replace(space, starts=np.r_[space.starts[:-1], dim - 1]),
        "missing_vertex": replace(space, starts=space.starts[:-1]),
        # two arcs, reversing each other, that no vertex block owns
        "extra_arcs": replace(space, reverse_of=np.r_[space.reverse_of, dim + 1, dim]),
    }


@pytest.mark.parametrize("broken", sorted(_broken_spaces()))
def test_walk_step_rejects_broken_edge_space(broken):
    g = cycle_graph(6)
    spec = WalkSpec(graph=g, space=_broken_spaces()[broken], sender=0, receiver=3)
    with pytest.raises(RuntimeError):
        walk_step(spec)
