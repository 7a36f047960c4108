"""Dephasing channels built from Weyl operators.

Two noise families are provided, both with a two-element Kraus set

    K1(t) = sqrt((1 + kappa(t)) / 2) * W(0, 0)
    K2(t) = sqrt((1 - kappa(t)) / 2) * W(1, 0)

where ``W(u, v)`` are the Weyl operators in the walk's dimension and the
memory kernel ``kappa`` is either the damped-oscillatory random-telegraph
kernel or the monotone modified Ornstein-Uhlenbeck kernel. Both Kraus
operators are diagonal (``W(0, 0) = I``, ``W(1, 0) = Z = diag(omega^j)``
with ``omega = exp(2 pi i / dim)``), so the channels dephase edge-basis
coherences while leaving populations untouched.

For a pure state ``psi`` and a pure target ``phi`` the channel output's
fidelity therefore has the closed form

    F(t) = (1 + kappa(t)) / 2 * |<phi|psi>|^2 + (1 - kappa(t)) / 2 * |<phi|Z psi>|^2

which :func:`dephased_fidelity` evaluates in ``O(dim)``. The dense route,
:func:`kraus_set` followed by :func:`apply_channel`, builds the same
channel as ``dim x dim`` matrices and serves as its independent check.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fidelity import _clamp
from .linalg import UNITARY_ATOL, check_density

__all__ = [
    "RTN_DEFAULT_A",
    "RTN_DEFAULT_GAMMA",
    "OUN_DEFAULT_LAMBDA",
    "OUN_DEFAULT_GAMMA",
    "NoiseChannel",
    "KrausSet",
    "weyl_operator",
    "rtn_kernel",
    "oun_kernel",
    "rtn_channel",
    "oun_channel",
    "kraus_set",
    "apply_channel",
    "dephased_fidelity",
]

RTN_DEFAULT_A = 0.1
RTN_DEFAULT_GAMMA = 0.01
OUN_DEFAULT_LAMBDA = 1.0
OUN_DEFAULT_GAMMA = 0.05

# |kernel| may exceed 1 by round-off without signalling a bad regime.
_KERNEL_SLACK = 1e-12


def weyl_operator(d: int, u: int, v: int) -> np.ndarray:
    """Weyl operator of order ``d``: phase ``u``, cyclic shift ``v``.

    ``W[k, (k + v) % d] = exp(2 pi i k u / d)``; ``W(0, 0)`` is the
    identity and in ``d = 2`` the pair ``(1, 0)`` gives the Pauli Z matrix.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not (0 <= u < d and 0 <= v < d):
        raise ValueError(f"Weyl indices must lie in 0..{d - 1}, got (u, v) = ({u}, {v})")
    w = np.zeros((d, d), dtype=complex)
    for k in range(d):
        w[k, (k + v) % d] = np.exp(2j * np.pi * k * u / d)
    return w


def rtn_kernel(t: float, a: float = RTN_DEFAULT_A, gamma: float = RTN_DEFAULT_GAMMA) -> float:
    """Damped-oscillatory random-telegraph memory kernel.

    ``exp(-gamma t) [cos(nu gamma t) + sin(nu gamma t) / nu]`` with
    ``nu = sqrt((2 a / gamma)^2 - 1)``. Defined only in the oscillatory
    regime ``a / gamma > 0.5`` where ``nu`` is real; equals 1 at ``t = 0``.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if a <= 0 or gamma <= 0:
        raise ValueError(f"parameters must be positive, got a={a}, gamma={gamma}")
    ratio_sq = (2.0 * a / gamma) ** 2
    if ratio_sq <= 1.0:
        raise ValueError(
            f"unsupported regime: a/gamma = {a / gamma:.6g} <= 0.5 makes the "
            "oscillation frequency imaginary"
        )
    nu = math.sqrt(ratio_sq - 1.0)
    phase = nu * gamma * t
    return math.exp(-gamma * t) * (math.cos(phase) + math.sin(phase) / nu)


def oun_kernel(t: float, lam: float = OUN_DEFAULT_LAMBDA, gamma: float = OUN_DEFAULT_GAMMA) -> float:
    """Monotone Ornstein-Uhlenbeck memory kernel.

    ``exp(-(lam / 2) (t + (exp(-gamma t) - 1) / gamma))``: equals 1 at
    ``t = 0`` and decreases strictly for ``t > 0``.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if lam <= 0 or gamma <= 0:
        raise ValueError(f"parameters must be positive, got lam={lam}, gamma={gamma}")
    return math.exp(-(lam / 2.0) * (t + (math.exp(-gamma * t) - 1.0) / gamma))


@dataclass(frozen=True)
class NoiseChannel:
    """Time-parameterized generator of Kraus sets in a fixed dimension.

    Use :func:`rtn_channel` or :func:`oun_channel` to construct one; the
    parameter fields not belonging to ``kind`` stay ``None``.
    """

    kind: str  # "rtn" | "oun"
    dim: int
    a: float | None = None
    lam: float | None = None
    gamma: float = 0.0

    def kernel(self, t: float) -> float:
        if self.kind == "rtn":
            return rtn_kernel(t, self.a, self.gamma)
        return oun_kernel(t, self.lam, self.gamma)


def rtn_channel(dim: int, a: float = RTN_DEFAULT_A, gamma: float = RTN_DEFAULT_GAMMA) -> NoiseChannel:
    """Random-telegraph channel; warns outside the memory regime ``a/gamma > 0.5``."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if a <= 0 or gamma <= 0:
        raise ValueError(f"parameters must be positive, got a={a}, gamma={gamma}")
    if a / gamma <= 0.5:
        warnings.warn(
            f"a/gamma = {a / gamma:.6g} <= 0.5: outside the oscillatory memory regime; "
            "kernel evaluation will fail",
            stacklevel=2,
        )
    return NoiseChannel(kind="rtn", dim=dim, a=a, gamma=gamma)


def oun_channel(dim: int, lam: float = OUN_DEFAULT_LAMBDA, gamma: float = OUN_DEFAULT_GAMMA) -> NoiseChannel:
    """Ornstein-Uhlenbeck channel with relaxation ``lam`` and bandwidth ``gamma``."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if lam <= 0 or gamma <= 0:
        raise ValueError(f"parameters must be positive, got lam={lam}, gamma={gamma}")
    return NoiseChannel(kind="oun", dim=dim, lam=lam, gamma=gamma)


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of one channel evaluation; completeness holds to 1e-12."""

    operators: tuple[np.ndarray, ...]
    time: float


def _checked_kernel(channel: NoiseChannel, t: float) -> float:
    """Kernel value at ``t``, rejected outside ``[-1, 1]`` beyond round-off and clamped into it."""
    kappa = channel.kernel(t)
    if abs(kappa) > 1.0 + _KERNEL_SLACK:
        raise ValueError(f"invalid kernel value {kappa:.6g} at t={t}: outside [-1, 1]")
    return min(1.0, max(-1.0, kappa))


def kraus_set(channel: NoiseChannel, t: float) -> KrausSet:
    """Evaluate the channel's two Kraus operators at time ``t``.

    The kernel value must lie in ``[-1, 1]`` (up to round-off); the
    completeness relation ``sum K†K = I`` is verified on construction.
    """
    kappa = _checked_kernel(channel, t)
    d = channel.dim
    k1 = math.sqrt((1.0 + kappa) / 2.0) * weyl_operator(d, 0, 0)
    k2 = math.sqrt((1.0 - kappa) / 2.0) * weyl_operator(d, 1, 0)
    total = k1.conj().T @ k1 + k2.conj().T @ k2
    if float(np.abs(total - np.eye(d)).max()) > UNITARY_ATOL:
        raise RuntimeError("Kraus completeness relation violated")
    for k in (k1, k2):
        k.flags.writeable = False
    return KrausSet(operators=(k1, k2), time=float(t))


def apply_channel(rho, ks: KrausSet) -> np.ndarray:
    """Apply ``rho -> sum_i K_i rho K_i†`` to a density matrix."""
    dim = ks.operators[0].shape[0]
    rho = check_density(rho, dim=dim)
    out = np.zeros_like(rho)
    for k in ks.operators:
        out += k @ rho @ k.conj().T
    return out


@functools.lru_cache(maxsize=16)
def _z_diagonal(d: int) -> np.ndarray:
    """Read-only diagonal ``omega^j`` of ``Z = W(1, 0)`` in dimension ``d``, computed once per ``d``."""
    z = np.exp(2j * np.pi * np.arange(d) / d)
    z.flags.writeable = False
    return z


def dephased_fidelity(channel: NoiseChannel, t: float, psi, phi) -> float:
    """``<phi| E_t(|psi><psi|) |phi>`` for the channel ``E_t`` at time ``t``, in ``O(dim)``.

    Both Kraus operators are diagonal, so the fidelity is the kernel-weighted
    mix ``(1 + kappa)/2 |<phi|psi>|^2 + (1 - kappa)/2 |<phi|Z psi>|^2``. It
    equals ``fidelity_pure_target(apply_channel(|psi><psi|, kraus_set(channel, t)), phi)``
    without forming any ``dim x dim`` matrix.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    d = channel.dim
    if psi.shape != (d,) or phi.shape != (d,):
        raise ValueError(
            f"states have shapes {psi.shape} and {phi.shape}, expected ({d},) for the channel"
        )
    kappa = _checked_kernel(channel, t)
    kept = abs(np.vdot(phi, psi)) ** 2
    flipped = abs(np.vdot(phi, _z_diagonal(d) * psi)) ** 2
    return _clamp((1.0 + kappa) / 2.0 * kept + (1.0 - kappa) / 2.0 * flipped)
