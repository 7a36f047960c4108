"""Independent reference routines used as test oracles.

Everything here deliberately avoids the code paths under test: products
are computed with explicit loops, evolution with explicit matrix powers,
and matrix square roots via scipy's Schur-based algorithm. The dense
density-matrix routes (``evolve_density``, ``noisy_state``) build the
channel output as a ``dim x dim`` matrix, which the library's closed-form
noisy fidelity never does.
"""

from __future__ import annotations

import numpy as np

from qwalk.channels import NoiseChannel, apply_channel, kraus_set
from qwalk.linalg import check_density
from qwalk.operators import WalkOperators


def naive_matmul(a, b) -> np.ndarray:
    """Element-wise triple-loop matrix product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def power_evolved(unitary, psi0, t: int) -> np.ndarray:
    """State after ``t`` steps via an explicitly precomputed matrix power."""
    return np.linalg.matrix_power(np.asarray(unitary, dtype=complex), t) @ np.asarray(
        psi0, dtype=complex
    )


def evolve_density(ops: WalkOperators, rho0, t: int) -> np.ndarray:
    """Conjugate a density matrix by the step unitary ``t`` times."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    rho = check_density(rho0, dim=ops.dim)
    u_dag = ops.unitary.conj().T
    for _ in range(t):
        rho = ops.unitary @ rho @ u_dag
    return rho


def noisy_state(ops: WalkOperators, psi0, channel: NoiseChannel, t: int) -> np.ndarray:
    """Density matrix after ``t`` noiseless steps followed by one channel pass.

    The channel is evaluated at time ``t`` (walk steps and channel time
    share the same clock) and applied once to ``|psi_t><psi_t|``.
    """
    if channel.dim != ops.dim:
        raise ValueError(f"channel dimension {channel.dim} != walk dimension {ops.dim}")
    psi_t = power_evolved(ops.unitary, psi0, t)
    rho_t = np.outer(psi_t, psi_t.conj())
    return apply_channel(rho_t, kraus_set(channel, t))


def uhlmann_fidelity_scipy(rho, sigma) -> float:
    """Density-density fidelity via scipy's Schur-based matrix square root."""
    from scipy.linalg import sqrtm

    root = sqrtm(np.asarray(rho, dtype=complex))
    inner = sqrtm(root @ np.asarray(sigma, dtype=complex) @ root)
    return float(np.trace(inner).real) ** 2


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_simple_graph(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random simple graph on ``n`` vertices with minimum degree >= 1.

    A random spanning tree guarantees no isolated vertex; extra edges are
    sprinkled on top.
    """
    edges = {(min(v, u), max(v, u)) for v in range(1, n) for u in [int(rng.integers(0, v))]}
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        u, v = rng.choice(n, size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)
