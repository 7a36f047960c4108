"""Coin, shift and step operators of the coined walk, plus boundary states.

The coin acts block-diagonally on each vertex's outgoing-edge block as a
Grover diffusion, with the blocks of the sender and receiver vertices
negated (once each; a vertex that is both sender and receiver is negated
exactly once). The shift is the permutation that reverses every directed
edge, and one walk step is ``shift @ coin``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedEdgeSpace, Graph, edge_space
from .linalg import UNITARY_ATOL, is_unitary

__all__ = [
    "WalkSpec",
    "WalkOperators",
    "walk_spec",
    "grover_diffusion",
    "coin_operator",
    "shift_operator",
    "walk_unitary",
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
    operator to ``1e-12``.
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
    """Assemble the step operator ``U = S @ C`` and verify its invariants."""
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
