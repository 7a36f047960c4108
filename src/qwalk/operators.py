"""Coin, shift and step operators of the coined walk, plus boundary states.

The coin acts block-diagonally on each vertex's outgoing-edge block as a
Grover diffusion, with the blocks of the sender and receiver vertices
negated (once each; a vertex that is both sender and receiver is negated
exactly once). The shift is the permutation that reverses every directed
edge, and one walk step is ``shift @ coin``.

:func:`walk_step` builds the walk on a graph with two marked vertices: the
step, matrix-free in ``O(2m)``, as the coin in arc order (one
``np.add.reduceat`` block sum), then the shift as one gather by
``reverse_of``. The runner iterates it, ``psi = step(psi)``; the boundary
states read their arcs off it; :func:`walk_unitary` applies it to the
identity block for ``dump-operators``. The tests check both against the
per-vertex Grover assembly in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, edge_space

__all__ = [
    "WalkOperators",
    "WalkStep",
    "walk_unitary",
    "walk_step",
    "sender_state",
    "receiver_state",
]

RECEIVER_MODES = ("incoming", "outgoing")
UNITARY_ATOL = 1e-12  # max-norm residual of an involution or unitarity check
NORM_ATOL = 1e-10  # |‖psi‖ - 1| of a pure state


@dataclass(frozen=True)
class WalkOperators:
    """Materialized coin, shift and one-step unitary (all ``2m x 2m``).

    The arrays are real and read-only; :func:`walk_unitary` reads them off a
    :class:`WalkStep` and verifies ``coin @ coin == I``, ``shift @ shift == I``
    and unitarity of the step to ``1e-12``. Only ``dump-operators`` needs them.
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
    coined amplitude of arc ``reverse_of[j]``. ``sender`` and ``receiver`` are
    the marked vertices. The arrays are read-only; :func:`walk_step` builds it.
    """

    starts: np.ndarray
    two_over_degree: np.ndarray
    block_of: np.ndarray
    sign: np.ndarray
    reverse_of: np.ndarray
    sender: int
    receiver: int

    @property
    def dim(self) -> int:
        return len(self.reverse_of)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        """``U @ psi`` on a ``(dim,)`` state or a ``(dim, k)`` block (``.T`` puts arcs last).

        Computes ``(sign * (2/deg * block_sum[block_of] - psi))[reverse_of]``
        with the factors applied in place on the step's own temporaries: the
        same IEEE operations, zero signs included, in three allocations.
        ``psi`` is not modified. The sums are taken in ``psi``'s dtype and then
        promoted with the float64 factors, so an integer or single-precision
        input gives float64 or complex128, as the expression does.
        """
        working = np.result_type(psi, self.two_over_degree)
        block_means = np.add.reduceat(psi, self.starts).astype(working, copy=False)
        view = block_means.T  # ``*=`` on the view scales block_means in place
        view *= self.two_over_degree
        coined = block_means[self.block_of]
        coined -= psi
        view = coined.T
        view *= self.sign
        return coined[self.reverse_of]


def walk_step(graph: Graph, sender: int, receiver: int) -> WalkStep:
    """The walk on ``graph`` with ``sender`` and ``receiver`` marked, verified in ``O(dim)``.

    ``sender == receiver`` is a periodicity experiment; a mark outside ``0..n-1``
    raises ``ValueError``. The outgoing-edge blocks must tile ``[0, dim)`` by
    degree (all ``>= 1``), so every signed Grover block is an involution;
    ``reverse_of`` must be a fixed-point-free involution (``S @ S == I``); one
    step must keep a probe state's norm to ``UNITARY_ATOL``; else ``RuntimeError``.
    """
    for label, v in (("sender", sender), ("receiver", receiver)):
        if not 0 <= v < graph.n:
            raise ValueError(f"{label} vertex {v} outside 0..{graph.n - 1}")
    space = edge_space(graph)
    degrees, starts, reverse, dim = graph.degrees, space.starts, space.reverse_of, space.dim
    if (
        starts.shape != (graph.n + 1,)
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

    sign = np.ones(graph.n)
    sign[[sender, receiver]] = -1.0
    block_of = np.repeat(np.arange(graph.n), degrees)
    step = WalkStep(
        starts=starts[:-1],
        two_over_degree=2.0 / degrees,
        block_of=block_of,
        sign=sign[block_of],
        reverse_of=reverse,
        sender=sender,
        receiver=receiver,
    )
    for a in (step.starts, step.two_over_degree, step.block_of, step.sign, step.reverse_of):
        a.flags.writeable = False

    probe = np.arange(1.0, dim + 1.0)
    probe /= np.linalg.norm(probe)
    if abs(float(np.linalg.norm(step(probe))) - 1.0) > UNITARY_ATOL:
        raise RuntimeError("step operator is not norm-preserving")
    return step


def walk_unitary(step: WalkStep) -> WalkOperators:
    """Materialise the step as the dense coin, shift and step, and verify them.

    ``U = S @ C`` is the step applied to the identity block, column ``k`` to
    basis arc ``k``; ``S`` is the arc-reversal permutation and ``C = S @ U``.
    Costs ``O(dim^2)`` memory and ``O(dim^3)`` time for the checks.
    """
    eye = np.eye(step.dim)
    reverse, block_of = step.reverse_of, step.block_of
    columns = step(eye)
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


def _uniform(dim: int, arcs: np.ndarray) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[arcs] = 1.0 / np.sqrt(len(arcs))
    return psi


def sender_state(step: WalkStep) -> np.ndarray:
    """Uniform superposition over the sender's outgoing-edge block."""
    return _uniform(step.dim, np.flatnonzero(step.block_of == step.sender))


def receiver_state(step: WalkStep, mode: str = "incoming") -> np.ndarray:
    """Uniform superposition marking arrival at the receiver vertex.

    ``mode="incoming"`` (default) spreads the amplitude over the receiver's
    incoming edges; ``mode="outgoing"`` uses its outgoing-edge block
    instead. Both conventions appear in the literature for the same
    experiment, so the choice is explicit here; the bundled case-study
    suite pins ``outgoing`` (see :mod:`qwalk.scenarios`).
    """
    if mode not in RECEIVER_MODES:
        raise ValueError(f"receiver mode must be one of {RECEIVER_MODES}, got {mode!r}")
    arcs = np.flatnonzero(step.block_of == step.receiver)
    return _uniform(step.dim, step.reverse_of[arcs] if mode == "incoming" else arcs)
