"""Coin, shift and step operators of the coined walk, plus boundary states.

The coin acts block-diagonally on each vertex's outgoing-edge block as a
Grover diffusion, with the blocks of the sender and receiver vertices
negated (once each; a vertex that is both sender and receiver is negated
exactly once). The shift is the permutation that reverses every directed
edge, and one walk step is ``shift @ coin``.

:func:`walk_step` applies that step matrix-free in ``O(2m)``: one block sum
(``np.add.reduceat``) and two gathers over ``O(dim)`` index arrays. It is
what the runner iterates. :func:`walk_unitary` materialises the dense
``dim x dim`` coin, shift and step for ``dump-operators`` and as the
reference the matrix-free step is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedEdgeSpace, Graph, edge_space
from .linalg import UNITARY_ATOL, is_unitary

__all__ = [
    "WalkSpec",
    "WalkOperators",
    "WalkStep",
    "walk_spec",
    "grover_diffusion",
    "coin_operator",
    "shift_operator",
    "walk_unitary",
    "walk_step",
    "sender_state",
    "receiver_state",
]

RECEIVER_MODES = ("incoming", "outgoing")


@dataclass(frozen=True)
class WalkSpec:
    """A walk instance: graph, its edge basis, and the two marked vertices.

    ``sender == receiver`` is allowed and denotes a periodicity experiment.
    """

    graph: Graph
    space: DirectedEdgeSpace
    sender: int
    receiver: int

    def __post_init__(self) -> None:
        for label, v in (("sender", self.sender), ("receiver", self.receiver)):
            if not 0 <= v < self.graph.n:
                raise ValueError(f"{label} vertex {v} outside 0..{self.graph.n - 1}")


def walk_spec(graph: Graph, sender: int, receiver: int) -> WalkSpec:
    """Build a :class:`WalkSpec` with the edge space derived from the graph."""
    return WalkSpec(graph=graph, space=edge_space(graph), sender=sender, receiver=receiver)


@dataclass(frozen=True)
class WalkOperators:
    """Materialized coin, shift and one-step unitary (all ``2m x 2m``).

    The arrays are real and marked read-only; construction verifies
    ``coin @ coin == I``, ``shift @ shift == I`` and unitarity of the step
    operator to ``1e-12``. This dense form serves ``dump-operators`` and
    the tests; runs use the matrix-free :class:`WalkStep`.
    """

    coin: np.ndarray
    shift: np.ndarray
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def grover_diffusion(d: int) -> np.ndarray:
    """The d-dimensional reflection about the uniform state.

    Entries are ``2/d - 1`` on the diagonal and ``2/d`` elsewhere; for
    ``d == 1`` this is the scalar ``[1]`` and for ``d == 2`` the swap.
    """
    if d < 1:
        raise ValueError(f"coin dimension must be >= 1, got {d}")
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def coin_operator(spec: WalkSpec) -> np.ndarray:
    """Block-diagonal coin: per-vertex Grover blocks, sender/receiver negated."""
    dim = spec.space.dim
    coin = np.zeros((dim, dim))
    marked = {spec.sender, spec.receiver}
    for v in range(spec.graph.n):
        start, stop = spec.space.out_blocks[v]
        block = grover_diffusion(spec.graph.degrees[v])
        if v in marked:
            block = -block
        coin[start:stop, start:stop] = block
    return coin


def shift_operator(space: DirectedEdgeSpace) -> np.ndarray:
    """Permutation matrix that sends edge ``(u, v)`` to ``(v, u)``."""
    dim = space.dim
    shift = np.zeros((dim, dim))
    for k in range(dim):
        shift[space.reverse_of[k], k] = 1.0
    return shift


def walk_unitary(spec: WalkSpec) -> WalkOperators:
    """Assemble the dense step operator ``U = S @ C`` and verify its invariants.

    Costs ``O(dim^2)`` memory and ``O(dim^3)`` time for the checks; use
    :func:`walk_step` to apply the step.
    """
    coin = coin_operator(spec)
    shift = shift_operator(spec.space)
    unitary = shift @ coin
    eye = np.eye(spec.space.dim)
    if float(np.abs(coin @ coin - eye).max()) > UNITARY_ATOL:
        raise RuntimeError("coin operator is not an involution")
    if float(np.abs(shift @ shift - eye).max()) > UNITARY_ATOL:
        raise RuntimeError("shift operator is not an involution")
    if not is_unitary(unitary, UNITARY_ATOL):
        raise RuntimeError("step operator is not unitary")
    for a in (coin, shift, unitary):
        a.flags.writeable = False
    return WalkOperators(coin=coin, shift=shift, unitary=unitary)


@dataclass(frozen=True)
class WalkStep:
    """The step ``U = S @ C`` as ``O(dim)`` index arrays; call it on a state.

    ``starts`` and ``two_over_degree`` hold, per vertex, the first index of
    its outgoing-edge block and ``2 / deg``. The shift sends edge ``k`` to
    ``reverse_of[k]``, so entry ``j`` of the new state is the coined
    amplitude of edge ``gather[j] = reverse_of[j]``; ``block_after`` and
    ``sign_after`` are the block id and coin sign of that edge. All arrays
    are read-only; build instances with :func:`walk_step`.
    """

    starts: np.ndarray
    two_over_degree: np.ndarray
    gather: np.ndarray
    block_after: np.ndarray
    sign_after: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.gather)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        """``U @ psi`` in ``O(dim)``: ``sign * (2/deg * block_sum - psi)`` after the shift."""
        block_means = np.add.reduceat(psi, self.starts) * self.two_over_degree
        return self.sign_after * (block_means[self.block_after] - psi[self.gather])


def walk_step(spec: WalkSpec) -> WalkStep:
    """Build the matrix-free step and verify its invariants in ``O(dim)``.

    Checks that the outgoing-edge blocks tile ``[0, dim)`` in vertex order
    with lengths equal to the degrees (all ``>= 1``), so every signed Grover
    block is an involution; that ``reverse_of`` is a fixed-point-free
    involution (``S @ S == I``); and that one step keeps the norm of a fixed
    probe state to ``UNITARY_ATOL``. A violation raises ``RuntimeError``.
    """
    space = spec.space
    dim = space.dim
    degrees = np.asarray(spec.graph.degrees, dtype=np.intp)
    blocks = np.asarray(space.out_blocks, dtype=np.intp).reshape(-1, 2)
    starts, stops = blocks[:, 0].copy(), blocks[:, 1]
    if (
        len(blocks) != spec.graph.n
        or degrees.min() < 1
        or starts[0] != 0
        or stops[-1] != dim
        or not np.array_equal(stops - starts, degrees)
        or not np.array_equal(starts[1:], stops[:-1])
    ):
        raise RuntimeError("outgoing-edge blocks do not tile the edge space by degree")

    reverse = np.asarray(space.reverse_of, dtype=np.intp)
    arange = np.arange(dim)
    if (
        reverse.shape != (dim,)
        or reverse.min() < 0
        or reverse.max() >= dim
        or not np.array_equal(reverse[reverse], arange)
        or np.any(reverse == arange)
    ):
        raise RuntimeError("shift operator is not a fixed-point-free involution")

    sign = np.ones(spec.graph.n)
    sign[[spec.sender, spec.receiver]] = -1.0
    block_of = np.repeat(np.arange(spec.graph.n), degrees)
    step = WalkStep(
        starts=starts,
        two_over_degree=2.0 / degrees,
        gather=reverse,
        block_after=block_of[reverse],
        sign_after=sign[block_of][reverse],
    )
    for a in (step.starts, step.two_over_degree, step.gather, step.block_after, step.sign_after):
        a.flags.writeable = False

    probe = np.arange(1.0, dim + 1.0)
    probe /= np.linalg.norm(probe)
    if abs(float(np.linalg.norm(step(probe))) - 1.0) > UNITARY_ATOL:
        raise RuntimeError("step operator is not norm-preserving")
    return step


def sender_state(spec: WalkSpec) -> np.ndarray:
    """Uniform superposition over the sender's outgoing-edge block."""
    psi = np.zeros(spec.space.dim, dtype=complex)
    start, stop = spec.space.out_blocks[spec.sender]
    psi[start:stop] = 1.0 / np.sqrt(stop - start)
    return psi


def receiver_state(spec: WalkSpec, mode: str = "incoming") -> np.ndarray:
    """Uniform superposition marking arrival at the receiver vertex.

    ``mode="incoming"`` (default) spreads the amplitude over the receiver's
    incoming edges; ``mode="outgoing"`` uses its outgoing-edge block
    instead. Both conventions appear in the literature for the same
    experiment, so the choice is explicit here; the bundled case-study
    suite pins ``outgoing`` (see :mod:`qwalk.scenarios`).
    """
    if mode not in RECEIVER_MODES:
        raise ValueError(f"receiver mode must be one of {RECEIVER_MODES}, got {mode!r}")
    psi = np.zeros(spec.space.dim, dtype=complex)
    if mode == "incoming":
        indices = list(spec.space.in_edges[spec.receiver])
    else:
        start, stop = spec.space.out_blocks[spec.receiver]
        indices = list(range(start, stop))
    psi[indices] = 1.0 / np.sqrt(len(indices))
    return psi
