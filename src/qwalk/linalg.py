"""Dense complex linear-algebra kernel for small operators and states.

Thin, contract-checking wrappers around numpy sufficient for the walk's
few-hundred-dimensional dense work. All tolerances are max-norm based.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UNITARY_ATOL",
    "HERMITIAN_ATOL",
    "PSD_EIGENVALUE_FLOOR",
    "SQRT_RESIDUAL_ATOL",
    "DENSITY_TRACE_ATOL",
    "is_unitary",
    "hermitian_eig",
    "psd_sqrt",
    "check_density",
]

# Central numerical tolerances (max-norm unless stated otherwise).
UNITARY_ATOL = 1e-12
HERMITIAN_ATOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-10  # eigenvalues above this are clamped to 0
SQRT_RESIDUAL_ATOL = 1e-9
DENSITY_TRACE_ATOL = 1e-10


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def is_unitary(m, tol: float = UNITARY_ATOL) -> bool:
    """True iff ``max |M†M - I| <= tol``. Requires a square matrix."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"unitarity is only defined for square matrices, got {m.shape}")
    delta = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.abs(delta).max()) <= tol


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian to within ``HERMITIAN_ATOL``; it is
    symmetrized before decomposition. Returns real eigenvalues in ascending
    order and the matrix whose columns are the orthonormal eigenvectors.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    if float(np.abs(m - m.conj().T).max()) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (m + m.conj().T)
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    return eigenvalues, eigenvectors


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in ``[PSD_EIGENVALUE_FLOOR, 0)`` are treated as round-off
    and clamped to 0; anything below the floor is rejected as genuinely
    non-PSD input.
    """
    eigenvalues, eigenvectors = hermitian_eig(m)
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
