"""Time evolution of the walker.

The walk iterates the matrix-free step (:class:`qwalk.operators.WalkStep`)
on the state, ``O(2m)`` per step. Noise never enters the evolution: it is
one channel application at readout time ``t``, so the noisy fidelity depends
on ``t`` only through ``psi_t`` and the kernel value ``kappa(t)``. The runner
therefore walks once and mixes the overlaps of ``psi_t`` with ``kappa(t)``
for each channel it reads out (:func:`qwalk.channels.dephased_series`).
"""

from __future__ import annotations

import numpy as np

from .fidelity import _check_pure
from .operators import WalkStep

__all__ = ["evolve_pure"]


def evolve_pure(step: WalkStep, psi0, t: int) -> np.ndarray:
    """Apply the walk step ``t`` times to a normalized state."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    psi = _check_pure(psi0, "psi")
    if psi.shape != (step.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({step.dim},)")
    for _ in range(t):
        psi = step(psi)
    return psi
