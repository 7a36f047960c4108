"""Fidelity between quantum states.

Three routes: the pure-pure overlap, the general density-density formula
``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``, and the exact shortcut
``<phi|rho|phi>`` when the target is pure. Raw values may poke out of
[0, 1] by round-off; :func:`clamp_fidelity` clamps them within a small
window and rejects them beyond it, for one value or a whole series. The
density routes rest on two checked dense kernels, :func:`check_density`
(also used by :func:`qwalk.channels.apply_channel`) and :func:`psd_sqrt`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CLAMP_WINDOW",
    "NORM_ATOL",
    "clamp_fidelity",
    "check_density",
    "psd_sqrt",
    "fidelity_pure",
    "fidelity_density",
    "fidelity_pure_target",
]

CLAMP_WINDOW = 1e-10
NORM_ATOL = 1e-10  # |‖psi‖ - 1| of a pure state
HERMITIAN_ATOL = 1e-10  # max |M - M†|
PSD_EIGENVALUE_FLOOR = -1e-10  # eigenvalues above this are clamped to 0
DENSITY_TRACE_ATOL = 1e-10


def clamp_fidelity(values):
    """Clamp raw fidelities into ``[0, 1]``; NaN, or a value ``CLAMP_WINDOW`` outside, raises."""
    values = np.asarray(values, dtype=float)
    outside = ~((values >= -CLAMP_WINDOW) & (values <= 1.0 + CLAMP_WINDOW))
    if outside.any():
        raise ValueError(f"fidelity {values[outside].flat[0]:.12g} outside [0, 1] beyond round-off")
    return np.clip(values, 0.0, 1.0)


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    The input must be Hermitian to within ``HERMITIAN_ATOL``; it is
    symmetrized before decomposition. Eigenvalues in
    ``[PSD_EIGENVALUE_FLOOR, 0)`` are treated as round-off and clamped to 0;
    anything below the floor is rejected as genuinely non-PSD input.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    if float(np.abs(m - m.conj().T).max()) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    if eigenvalues.min() < PSD_EIGENVALUE_FLOOR:
        raise ValueError(
            f"matrix is not positive semidefinite: smallest eigenvalue {eigenvalues.min():.3e}"
        )
    clamped = np.clip(eigenvalues, 0.0, None)
    # Rank-deficient inputs carry eps-size noise eigenvalues whose square
    # roots would be O(1e-8); zero everything below the numerical rank floor.
    floor = clamped.size * np.finfo(float).eps * clamped.max()
    clamped[clamped < floor] = 0.0
    root = (eigenvectors * np.sqrt(clamped)) @ eigenvectors.conj().T
    return 0.5 * (root + root.conj().T)


def check_density(rho, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Validate a density matrix: square, Hermitian, unit trace, PSD.

    Returns the input as a complex array. ``dim``, when given, pins the
    expected dimension.
    """
    rho = _as_matrix(rho, name)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"{name} has dimension {rho.shape[0]}, expected {dim}")
    if float(np.abs(rho - rho.conj().T).max()) > HERMITIAN_ATOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > DENSITY_TRACE_ATOL:
        raise ValueError(f"{name} has trace {trace:.12g}, expected 1")
    smallest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if smallest < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"{name} is not PSD: smallest eigenvalue {smallest:.3e}")
    return rho


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
