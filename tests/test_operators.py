from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from qwalk.graphs import (
    build_graph,
    cycle_graph,
    edge_space,
    path_graph,
    standard_family,
    star_graph,
)
from qwalk.operators import (
    WalkStep,
    receiver_state,
    sender_state,
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


def case_graph(family: str):
    kind, size = FAMILY_BUILDERS[family]
    return standard_family(kind, *size)


def case_walk_step(family: str, s: int, r: int):
    return walk_step(case_graph(family), s, r)


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
    dense = coin_operator(case_graph(family), s, r)
    for coin in (dense, walk_unitary(case_walk_step(family, s, r)).coin):
        assert np.abs(coin - GOLDEN_COINS[(family, s, r)]).max() < 1e-6


@pytest.mark.parametrize("family,s,r", sorted(PRINTED_COINS))
def test_printed_coins_transcribed(family, s, r):
    # The verbatim reference tables; misprinted ones are covered above by
    # the rule-derived goldens instead.
    coin = coin_operator(case_graph(family), s, r)
    assert np.abs(coin - GOLDEN_COINS[(family, s, r)]).max() < 1e-6


@pytest.mark.parametrize("family", sorted(GOLDEN_SHIFTS))
def test_shift_matches_golden(family):
    assert np.array_equal(shift_operator(edge_space(case_graph(family))), GOLDEN_SHIFTS[family])
    assert np.array_equal(walk_unitary(case_walk_step(family, 0, 0)).shift, GOLDEN_SHIFTS[family])


def test_coin_is_symmetric_under_sender_receiver_swap():
    g = star_graph(6)
    coins = [walk_unitary(walk_step(g, s, r)).coin for s, r in ((0, 1), (1, 0))]
    assert np.array_equal(*coins)


def test_periodicity_negates_block_once():
    # sender == receiver negates that vertex's block exactly once
    coin = walk_unitary(walk_step(path_graph(5), 0, 0)).coin
    assert coin[0, 0] == -1.0
    assert coin[7, 7] == 1.0


def test_coin_blocks_follow_diffusion_formula():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = build_graph(n, random_simple_graph(rng, n))
        s, r = int(rng.integers(0, n)), int(rng.integers(0, n))
        starts = edge_space(g).starts
        coin = walk_unitary(walk_step(g, s, r)).coin
        for v in range(n):
            start, stop = starts[v], starts[v + 1]
            d = g.degrees[v]
            sign = -1.0 if v in {s, r} else 1.0
            expected = sign * ((2.0 / d) * np.ones((d, d)) - np.eye(d))
            assert np.abs(coin[start:stop, start:stop] - expected).max() < 1e-12
        off_block = coin.copy()
        for v in range(n):
            start, stop = starts[v], starts[v + 1]
            off_block[start:stop, start:stop] = 0.0
        assert np.abs(off_block).max() == 0.0


def test_shift_squares_to_identity():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        ops = walk_unitary(walk_step(build_graph(n, random_simple_graph(rng, n)), 0, 0))
        assert np.array_equal(ops.shift @ ops.shift, np.eye(ops.dim))


@pytest.mark.parametrize("family,s,r", CASE_SPECS)
def test_walk_unitary_invariants(family, s, r):
    ops = walk_unitary(case_walk_step(family, s, r))
    eye = np.eye(ops.dim)
    assert np.abs(ops.coin @ ops.coin - eye).max() < 1e-12
    assert np.abs(ops.shift @ ops.shift - eye).max() < 1e-12
    assert np.abs(ops.unitary.conj().T @ ops.unitary - eye).max() < 1e-12
    assert np.isrealobj(ops.unitary)
    assert np.array_equal(ops.unitary, ops.shift @ ops.coin)


def _faulty_steps():
    """Per check of ``walk_unitary``: a step that fails it.

    On C6 (marks 0 and 3) the arcs 2, 3 and 4, 5 form the unmarked blocks of
    vertices 1 and 2, and arc 3 is the reverse of arc 4.
    """
    real = case_walk_step("c6", 0, 3)
    # A 4-cycle 2 -> 4 -> 3 -> 5 -> 2 (arcs 0 and 6 pair up): a permutation, not an
    # involution. Its square swaps each block, which its swap coin undoes.
    cycled = real.reverse_of.copy()
    cycled[[0, 6, 2, 4, 3, 5]] = [6, 0, 4, 3, 5, 2]
    dense = dense_walk_operators(case_graph("c6"), 0, 3)
    skewed = dense.coin.copy()
    skewed[2:4, 2:4] = [[1.0, 1.0], [0.0, -1.0]]  # an involution, not orthogonal

    class SkewedStep(WalkStep):
        def __call__(self, psi):
            return dense.shift @ (skewed @ psi)

    return {
        "coin": replace(real, sign=2.0 * real.sign),
        "shift": replace(real, reverse_of=cycled),
        "step": SkewedStep(**vars(real)),
    }


@pytest.mark.parametrize(
    "fault, message",
    [
        ("coin", "coin operator is not an involution"),
        ("shift", "shift operator is not an involution"),
        ("step", "step operator is not unitary"),
    ],
)
def test_walk_unitary_checks_the_materialised_step(fault, message):
    with pytest.raises(RuntimeError, match=message):
        walk_unitary(_faulty_steps()[fault])


@pytest.mark.parametrize(
    "kind,size,sender,receiver",
    [("star", (200,), 1, 0), ("kab", (20, 30), 0, 21), ("cycle", (50,), 0, 25)],
)
def test_walk_step_on_large_blocks_equals_stepping_each_column(kind, size, sender, receiver):
    # a hub block of 199 arcs, blocks of 20 and 30, and blocks of 2
    step = walk_step(standard_family(kind, *size), sender, receiver)
    rng = np.random.default_rng(16)
    block = rng.normal(size=(step.dim, 7)) + 1j * rng.normal(size=(step.dim, 7))
    stepped = step(block)
    for j in range(7):
        assert stepped[:, j].tobytes() == step(block[:, j]).tobytes(), j


@pytest.mark.parametrize("family,s,r", CASE_SPECS)
def test_walk_unitary_is_the_step_on_each_basis_arc(family, s, r):
    step = case_walk_step(family, s, r)
    columns = np.array([step(e) for e in np.eye(step.dim)]).T + 0.0
    assert walk_unitary(step).unitary.tobytes() == columns.tobytes()


def test_walk_unitary_dimensions():
    assert walk_unitary(case_walk_step("p5", 0, 4)).dim == 8
    assert walk_unitary(case_walk_step("s6", 0, 1)).dim == 10
    assert walk_unitary(case_walk_step("k23", 0, 1)).dim == 12


def test_operators_are_read_only():
    ops = walk_unitary(case_walk_step("p5", 0, 4))
    with pytest.raises(ValueError):
        ops.unitary[0, 0] = 5.0


def test_sender_state_examples():
    p5 = case_walk_step("p5", 0, 4)
    assert np.allclose(sender_state(p5), np.eye(8)[0])

    c6 = case_walk_step("c6", 0, 3)
    expected = np.zeros(12)
    expected[[0, 1]] = 1 / np.sqrt(2)
    assert np.allclose(sender_state(c6), expected)

    s6 = case_walk_step("s6", 0, 1)
    expected = np.zeros(10)
    expected[:5] = 1 / np.sqrt(5)
    assert np.allclose(sender_state(s6), expected)


def test_receiver_state_incoming_follows_edge_direction():
    # incoming edges of the receiver: for the star with receiver 1 that is
    # the single edge (0, 1), basis index 0
    s6 = case_walk_step("s6", 0, 1)
    assert np.allclose(receiver_state(s6, "incoming"), np.eye(10)[0])

    p5 = case_walk_step("p5", 0, 4)
    assert np.allclose(receiver_state(p5, "incoming"), np.eye(8)[6])

    c6 = case_walk_step("c6", 0, 3)
    expected = np.zeros(12)
    expected[[5, 8]] = 1 / np.sqrt(2)
    assert np.allclose(receiver_state(c6, "incoming"), expected)


def test_receiver_state_outgoing_uses_vertex_block():
    p5 = case_walk_step("p5", 0, 4)
    assert np.allclose(receiver_state(p5, "outgoing"), np.eye(8)[7])

    s6 = case_walk_step("s6", 0, 1)
    assert np.allclose(receiver_state(s6, "outgoing"), np.eye(10)[5])

    c6 = case_walk_step("c6", 0, 3)
    expected = np.zeros(12)
    expected[[6, 7]] = 1 / np.sqrt(2)
    assert np.allclose(receiver_state(c6, "outgoing"), expected)


def test_receiver_state_rejects_unknown_mode():
    with pytest.raises(ValueError, match="receiver mode"):
        receiver_state(case_walk_step("p5", 0, 4), "sideways")


def test_boundary_states_norm_and_support():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = build_graph(n, random_simple_graph(rng, n))
        s, r = int(rng.integers(0, n)), int(rng.integers(0, n))
        step = walk_step(g, s, r)
        psi = sender_state(step)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert np.count_nonzero(psi) == g.degrees[s]
        for mode in ("incoming", "outgoing"):
            phi = receiver_state(step, mode)
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
            assert np.count_nonzero(phi) == g.degrees[r]


@pytest.mark.parametrize(
    "sender, receiver, message",
    [
        (9, 0, "sender vertex 9 outside 0..3"),
        (4, 0, "sender vertex 4 outside 0..3"),
        (-1, 0, "sender vertex -1 outside 0..3"),
        (0, -1, "receiver vertex -1 outside 0..3"),
        (0, 4, "receiver vertex 4 outside 0..3"),
        (5, 7, "sender vertex 5 outside 0..3"),
    ],
    ids=["sender_9", "sender_4", "sender_-1", "receiver_-1", "receiver_4", "both_outside"],
)
def test_walk_step_rejects_marks_outside_the_graph(monkeypatch, sender, receiver, message):
    import qwalk.operators

    def unreachable(graph):
        raise AssertionError("the edge space was built for marks outside the graph")

    monkeypatch.setattr(qwalk.operators, "edge_space", unreachable)
    with pytest.raises(ValueError) as err:
        walk_step(cycle_graph(4), sender, receiver)
    assert str(err.value) == message


def _step_oracle_walks():
    """The 22 case studies plus random graphs with leaf and coinciding marks.

    Each walk is ``(name, graph, sender, receiver)``.
    """
    walks = [
        (name, scenario_graph(sc), sc.sender, sc.receiver)
        for name, sc in case_study_scenarios()
    ]
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 6, 9, 14, 20):
        g = build_graph(n, random_simple_graph(rng, n))
        leaf = int(np.flatnonzero(g.degrees == 1)[0])  # a spanning tree always has a leaf
        for s, r in ((0, n - 1), (leaf, leaf), (leaf, (leaf + 1) % n)):
            walks.append((f"random{n}_s{s}_r{r}", g, s, r))
    return walks


def test_walk_step_matches_dense_unitary_at_every_step():
    walks = _step_oracle_walks()
    assert len(walks) == 22 + 21
    assert any(s == r for _, _, s, r in walks)
    assert any(g.degrees[s] == 1 for _, g, s, _ in walks)
    rng = np.random.default_rng(32)
    for name, g, s, r in walks:
        step = walk_step(g, s, r)
        unitary = dense_walk_operators(g, s, r).unitary
        for psi0 in (sender_state(step), random_pure(rng, step.dim)):
            free, dense = psi0, psi0
            for t in range(1, 61):
                free, dense = step(free), unitary @ dense
                assert np.abs(free - dense).max() <= 1e-12, (name, t)


def test_walk_step_arrays_are_read_only_and_linear_in_dim():
    step = case_walk_step("k23", 0, 1)
    assert step.dim == edge_space(case_graph("k23")).dim == 12
    for a in (step.starts, step.two_over_degree, step.block_of, step.sign, step.reverse_of):
        assert a.ndim == 1 and len(a) <= step.dim
        with pytest.raises(ValueError):
            a[0] = 0


def _broken_spaces():
    space = edge_space(cycle_graph(6))
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
def test_walk_step_rejects_broken_edge_space(monkeypatch, broken):
    import qwalk.operators

    monkeypatch.setattr(qwalk.operators, "edge_space", lambda graph: _broken_spaces()[broken])
    with pytest.raises(RuntimeError):
        walk_step(cycle_graph(6), 0, 3)
