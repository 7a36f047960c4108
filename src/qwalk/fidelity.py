"""Fidelity between quantum states.

Three routes: the pure-pure overlap, the general density-density formula
``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``, and the exact shortcut
``<phi|rho|phi>`` when the target is pure. Raw values may poke out of
[0, 1] by round-off; :func:`clamp_fidelity` clamps them within a small
window and rejects them beyond it, for one value or a whole series.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_density, psd_sqrt

__all__ = [
    "CLAMP_WINDOW",
    "NORM_ATOL",
    "clamp_fidelity",
    "fidelity_pure",
    "fidelity_density",
    "fidelity_pure_target",
]

CLAMP_WINDOW = 1e-10
NORM_ATOL = 1e-10  # |‖psi‖ - 1| of a pure state


def clamp_fidelity(values):
    """Clamp raw fidelities into ``[0, 1]``; NaN, or a value ``CLAMP_WINDOW`` outside, raises."""
    values = np.asarray(values, dtype=float)
    outside = ~((values >= -CLAMP_WINDOW) & (values <= 1.0 + CLAMP_WINDOW))
    if outside.any():
        raise ValueError(f"fidelity {values[outside].flat[0]:.12g} outside [0, 1] beyond round-off")
    return np.clip(values, 0.0, 1.0)


def _check_pure(psi, name: str) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"{name} is not normalized: |{name}| = {norm:.12g}")
    return psi


def fidelity_pure(psi, phi) -> float:
    """``|<psi|phi>|^2`` for two normalized state vectors."""
    psi = _check_pure(psi, "psi")
    phi = _check_pure(phi, "phi")
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    return float(clamp_fidelity(abs(np.vdot(psi, phi)) ** 2))


def fidelity_density(rho, sigma) -> float:
    """``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2`` for two density matrices."""
    rho = check_density(rho, name="rho")
    sigma = check_density(sigma, dim=rho.shape[0], name="sigma")
    root = psd_sqrt(rho)
    inner = root @ sigma @ root
    trace = float(np.trace(psd_sqrt(0.5 * (inner + inner.conj().T))).real)
    return float(clamp_fidelity(trace**2))


def fidelity_pure_target(rho, phi) -> float:
    """``<phi|rho|phi>``: the density-density fidelity when the target is pure."""
    phi = _check_pure(phi, "phi")
    rho = check_density(rho, dim=phi.shape[0], name="rho")
    return float(clamp_fidelity(np.vdot(phi, rho @ phi).real))
