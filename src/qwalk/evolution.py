"""Time evolution of the walker.

The walk iterates the matrix-free step (:class:`qwalk.operators.WalkStep`)
on the state, ``O(2m)`` per step. Noise never enters the evolution: it is
a single channel application at readout time ``t`` on the noiselessly
evolved state, so the noisy fidelity at ``t`` depends on ``t`` only
through ``psi_t`` and the kernel value ``kappa(t)``. Its closed
form, ``(1 + kappa)/2 |<phi|psi_t>|^2 + (1 - kappa)/2 |<phi|Z psi_t>|^2``,
is :func:`qwalk.channels.dephased_fidelity`.
"""

from __future__ import annotations

import numpy as np

from .operators import WalkStep

__all__ = [
    "evolve_pure",
]

_NORM_ATOL = 1e-10


def _check_state(step: WalkStep, psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (step.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({step.dim},)")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > _NORM_ATOL:
        raise ValueError(f"state is not normalized: |psi| = {norm:.12g}")
    return psi


def evolve_pure(step: WalkStep, psi0, t: int) -> np.ndarray:
    """Apply the walk step ``t`` times to a normalized state."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    psi = _check_state(step, psi0)
    for _ in range(t):
        psi = step(psi)
    return psi
