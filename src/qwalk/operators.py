"""Coin, shift and step operators of the coined walk, plus boundary states.

The coin acts block-diagonally on each vertex's outgoing-edge block as a
Grover diffusion, with the blocks of the sender and receiver vertices
negated (once each; a vertex that is both sender and receiver is negated
exactly once). The shift is the permutation that reverses every directed
edge, and one walk step is ``shift @ coin``.

:func:`walk_step` is the one definition of that step, matrix-free in
``O(2m)``: the coin in arc order (one ``np.add.reduceat`` block sum), then
the shift as one gather by ``reverse_of``, on a state or a block of states.
The runner iterates it, as :func:`evolve_pure` does on a given state;
:func:`walk_unitary` applies it to the identity block for ``dump-operators``
and reads the shift and the coin off the dense step. The tests check both
against the per-vertex Grover assembly in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedEdgeSpace, Graph, edge_space

__all__ = [
    "WalkSpec",
    "WalkOperators",
    "WalkStep",
    "walk_spec",
    "walk_unitary",
    "walk_step",
    "evolve_pure",
    "sender_state",
    "receiver_state",
]

RECEIVER_MODES = ("incoming", "outgoing")
UNITARY_ATOL = 1e-12  # max-norm residual of an involution or unitarity check
NORM_ATOL = 1e-10  # |‖psi‖ - 1| of a pure state


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

    The arrays are real and marked read-only; :func:`walk_unitary` derives
    them from :class:`WalkStep` and verifies ``coin @ coin == I``,
    ``shift @ shift == I`` and unitarity of the step operator to ``1e-12``.
    This dense form serves ``dump-operators``; runs apply the matrix-free
    :class:`WalkStep`.
    """

    coin: np.ndarray
    shift: np.ndarray
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


@dataclass(frozen=True)
class WalkStep:
    """The step ``U = S @ C`` as ``O(dim)`` index arrays; call it on a state or a block.

    The coin is held in arc order: per vertex, ``starts`` (the first index of
    its outgoing-edge block) and ``two_over_degree`` (``2 / deg``); per arc,
    ``block_of`` (the vertex that owns it) and ``sign`` (that vertex's coin
    sign). The shift is one last gather: entry ``j`` of the new state is the
    coined amplitude of arc ``reverse_of[j]``. All arrays are read-only;
    build instances with :func:`walk_step`.
    """

    starts: np.ndarray
    two_over_degree: np.ndarray
    block_of: np.ndarray
    sign: np.ndarray
    reverse_of: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.reverse_of)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        """``U @ psi`` on a ``(dim,)`` state or a ``(dim, k)`` block (``.T`` puts arcs last)."""
        block_means = (np.add.reduceat(psi, self.starts).T * self.two_over_degree).T
        return (self.sign * (block_means[self.block_of] - psi).T).T[self.reverse_of]


def walk_step(spec: WalkSpec) -> WalkStep:
    """Build the matrix-free step and verify its invariants in ``O(dim)``.

    Checks that the outgoing-edge blocks tile ``[0, dim)`` in vertex order
    with lengths equal to the degrees (all ``>= 1``), so every signed Grover
    block is an involution; that ``reverse_of`` is a fixed-point-free
    involution (``S @ S == I``); and that one step keeps the norm of a fixed
    probe state to ``UNITARY_ATOL``. A violation raises ``RuntimeError``.
    """
    degrees, starts, reverse = spec.graph.degrees, spec.space.starts, spec.space.reverse_of
    dim = spec.space.dim
    if (
        starts.shape != (spec.graph.n + 1,)
        or degrees.min() < 1
        or starts[0] != 0
        or starts[-1] != dim
        or not np.array_equal(np.diff(starts), degrees)
    ):
        raise RuntimeError("outgoing-edge blocks do not tile the edge space by degree")

    arange = np.arange(dim)
    if (
        reverse.ndim != 1
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
        starts=starts[:-1],
        two_over_degree=2.0 / degrees,
        block_of=block_of,
        sign=sign[block_of],
        reverse_of=reverse,
    )
    for a in (step.starts, step.two_over_degree, step.block_of, step.sign, step.reverse_of):
        a.flags.writeable = False

    probe = np.arange(1.0, dim + 1.0)
    probe /= np.linalg.norm(probe)
    if abs(float(np.linalg.norm(step(probe))) - 1.0) > UNITARY_ATOL:
        raise RuntimeError("step operator is not norm-preserving")
    return step


def _check_pure(psi, name: str) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"{name} is not normalized: |{name}| = {norm:.12g}")
    return psi


def evolve_pure(step: WalkStep, psi0, t: int) -> np.ndarray:
    """Apply the walk step ``t`` times to a state normalized to within ``NORM_ATOL``."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    psi = _check_pure(psi0, "psi")
    if psi.shape != (step.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({step.dim},)")
    for _ in range(t):
        psi = step(psi)
    return psi


def walk_unitary(spec: WalkSpec) -> WalkOperators:
    """Materialise :func:`walk_step` as the dense coin, shift and step, and verify them.

    ``U = S @ C`` is the step applied to the identity block, column ``k`` to
    basis arc ``k``; ``S`` is the arc-reversal permutation and ``C = S @ U``.
    Costs ``O(dim^2)`` memory and ``O(dim^3)`` time for the checks.
    """
    step = walk_step(spec)
    eye = np.eye(spec.space.dim)
    reverse = spec.space.reverse_of
    columns = step(eye)
    block_of = np.repeat(np.arange(spec.graph.n), spec.graph.degrees)
    # The step negates zeros into -0.0 around marked vertices, and the dumps
    # print %.6f: keep the signs of the per-vertex Grover assembly, whose only
    # -0.0 sit on the diagonal of a negated degree-2 coin block.
    coin = np.where(block_of[:, None] == block_of[None, :], columns[reverse], 0.0)
    shift = eye[reverse]
    unitary = columns + 0.0
    if float(np.abs(coin @ coin - eye).max()) > UNITARY_ATOL:
        raise RuntimeError("coin operator is not an involution")
    if float(np.abs(shift @ shift - eye).max()) > UNITARY_ATOL:
        raise RuntimeError("shift operator is not an involution")
    if float(np.abs(unitary.T @ unitary - eye).max()) > UNITARY_ATOL:
        raise RuntimeError("step operator is not unitary")
    for a in (coin, shift, unitary):
        a.flags.writeable = False
    return WalkOperators(coin=coin, shift=shift, unitary=unitary)


def sender_state(spec: WalkSpec) -> np.ndarray:
    """Uniform superposition over the sender's outgoing-edge block."""
    psi = np.zeros(spec.space.dim, dtype=complex)
    start, stop = spec.space.starts[spec.sender : spec.sender + 2]
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
    start, stop = spec.space.starts[spec.receiver : spec.receiver + 2]
    arcs = spec.space.reverse_of[start:stop] if mode == "incoming" else slice(start, stop)
    psi[arcs] = 1.0 / np.sqrt(stop - start)
    return psi
