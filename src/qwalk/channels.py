"""Diagonal dephasing channels: the random-telegraph and Ornstein-Uhlenbeck noise.

Two noise families are provided, both with a two-element Kraus set

    K1(t) = sqrt((1 + kappa(t)) / 2) * I
    K2(t) = sqrt((1 - kappa(t)) / 2) * Z,    Z = diag(omega^j), omega = exp(2 pi i / dim)

where ``I`` and ``Z`` are the Weyl operators ``W(0, 0)`` and ``W(1, 0)`` in the
walk's dimension and the memory kernel ``kappa`` is either the
damped-oscillatory random-telegraph kernel or the monotone modified
Ornstein-Uhlenbeck kernel. A :class:`NoiseChannel` is that kernel alone
(:meth:`NoiseChannel.kernel`); the walk's dimension enters only :func:`kraus_set`,
which returns the two operators as their diagonals. Being diagonal, they dephase
edge-basis coherences and leave populations untouched.

For a pure state ``psi`` and a pure target ``phi`` the channel output's
fidelity therefore has the closed form

    F(t) = (1 + kappa(t)) / 2 * |<phi|psi>|^2 + (1 - kappa(t)) / 2 * |<phi|Z psi>|^2

which :func:`dephased_series` evaluates on a run's overlap series. The runner
checks it against the Kraus sum ``sum_i |<phi|K_i psi>|^2`` over the diagonals
of :func:`kraus_set`, on the target's support. No density matrix is built here;
the channel acting on one is a test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import UNITARY_ATOL

__all__ = [
    "RTN_DEFAULT_A",
    "RTN_DEFAULT_GAMMA",
    "OUN_DEFAULT_LAMBDA",
    "OUN_DEFAULT_GAMMA",
    "NoiseChannel",
    "rtn_channel",
    "oun_channel",
    "kraus_set",
    "flipped_overlap",
    "dephased_series",
]

RTN_DEFAULT_A = 0.1
RTN_DEFAULT_GAMMA = 0.01
OUN_DEFAULT_LAMBDA = 1.0
OUN_DEFAULT_GAMMA = 0.05

# |kernel| may exceed 1 by round-off without signalling a bad regime.
_KERNEL_SLACK = 1e-12


def _check_parameters(**params: float) -> None:
    """Reject a noise parameter that is not a finite positive number (NaN and inf included)."""
    if not all(math.isfinite(value) and value > 0 for value in params.values()):
        shown = ", ".join(f"{name}={value}" for name, value in params.items())
        raise ValueError(f"parameters must be finite and positive, got {shown}")


@dataclass(frozen=True)
class NoiseChannel:
    """A dephasing channel as its memory kernel, in no particular dimension.

    The one home of the kernel ``kappa(t)`` (:meth:`kernel`) and of the checks on
    its parameters. Build one with :func:`rtn_channel` or :func:`oun_channel`; the fields
    not belonging to ``kind`` stay ``None``. The parameters and (for ``rtn``) the regime
    and the phase at ``t = 0`` are checked once, on construction, so :meth:`kernel`
    checks only ``t`` (and the ``rtn`` phase)."""

    kind: str  # "rtn" | "oun"
    a: float | None = None
    lam: float | None = None
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "rtn":
            _check_parameters(a=self.a, gamma=self.gamma)
            if 2.0 * self.a / self.gamma <= 1.0:
                raise ValueError(
                    f"unsupported regime: a/gamma = {self.a / self.gamma:.6g} <= 0.5 makes the "
                    "oscillation frequency imaginary"
                )
            self.kernel(0.0)  # a phase overflowing at t = 0 overflows at every t
        elif self.kind == "oun":
            _check_parameters(lam=self.lam, gamma=self.gamma)
        else:
            raise ValueError(f"noise kind must be 'rtn' or 'oun', got {self.kind!r}")

    def kernel(self, t: float) -> float:
        """``kappa(t)`` for ``t >= 0`` from the scalar ``math`` formula of ``kind``; 1 at ``t = 0``.

        ``rtn`` (damped-oscillatory): ``exp(-gamma t) [cos(nu gamma t) + sin(nu gamma t) / nu]``,
        ``nu = sqrt((2 a / gamma)^2 - 1)``, real only in the regime ``a / gamma > 0.5``.
        ``oun`` (monotone, strictly decreasing for ``t > 0``):
        ``exp(-(lam / 2) (t + (exp(-gamma t) - 1) / gamma))``.
        """
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        a, lam, gamma = self.a, self.lam, self.gamma
        if self.kind == "rtn":
            ratio = 2.0 * a / gamma
            # Past 1e150 ratio**2 would overflow; sqrt(ratio**2 - 1) rounds to ratio from 7e7 on.
            nu = math.sqrt(ratio**2 - 1.0) if ratio < 1e150 else ratio
            phase = nu * gamma * t
            if not math.isfinite(phase):
                raise ValueError(
                    f"unsupported regime: a/gamma = {a / gamma:.6g} overflows the phase at t={t}"
                )
            return math.exp(-gamma * t) * (math.cos(phase) + math.sin(phase) / nu)
        # expm1 keeps (exp(-gamma t) - 1) / gamma accurate as gamma t -> 0. The exponent is
        # <= 0; the sum with t can still round to a positive value there (kernel > 1).
        return math.exp(min(0.0, -(lam / 2.0) * (t + math.expm1(-gamma * t) / gamma)))


def rtn_channel(a: float = RTN_DEFAULT_A, gamma: float = RTN_DEFAULT_GAMMA) -> NoiseChannel:
    """Random-telegraph channel; raises outside the oscillatory regime ``a/gamma > 0.5``."""
    return NoiseChannel(kind="rtn", a=a, gamma=gamma)


def oun_channel(lam: float = OUN_DEFAULT_LAMBDA, gamma: float = OUN_DEFAULT_GAMMA) -> NoiseChannel:
    """Ornstein-Uhlenbeck channel with relaxation ``lam`` and bandwidth ``gamma``."""
    return NoiseChannel(kind="oun", lam=lam, gamma=gamma)


def _kernel_outside(kappa: float, t: float) -> ValueError:
    return ValueError(f"invalid kernel value {kappa:.6g} at t={t}: outside [-1, 1]")


def _checked_kernel(channel: NoiseChannel, t: float) -> float:
    """Kernel value at ``t``, rejected outside ``[-1, 1]`` beyond round-off and clamped into it."""
    kappa = channel.kernel(t)
    if not abs(kappa) <= 1.0 + _KERNEL_SLACK:  # NaN fails this comparison too
        raise _kernel_outside(kappa, t)
    return min(1.0, max(-1.0, kappa))


@functools.lru_cache(maxsize=1)  # a walk keeps one dimension; keep no stale dim-sized array
def _z_diagonal(d: int) -> np.ndarray:
    """Read-only diagonal ``omega^j`` of ``Z = W(1, 0)`` in dimension ``d``, cached for one ``d``."""
    z = np.exp(2j * np.pi * np.arange(d) / d)
    z.flags.writeable = False
    return z


def kraus_set(channel: NoiseChannel, t: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The channel's two Kraus operators at time ``t`` in dimension ``dim``, as a pair of diagonals.

    They are ``sqrt((1 + kappa)/2) * 1`` and ``sqrt((1 - kappa)/2) * z``, read-only, with
    ``z`` the diagonal of ``Z``. The kernel value must lie in ``[-1, 1]`` (up to
    round-off); completeness ``sum |k_i|^2 = 1`` is verified on construction.
    """
    kappa = _checked_kernel(channel, t)
    k1 = np.full(dim, math.sqrt((1.0 + kappa) / 2.0), dtype=complex)
    k2 = math.sqrt((1.0 - kappa) / 2.0) * _z_diagonal(dim)
    if float(np.abs(np.abs(k1) ** 2 + np.abs(k2) ** 2 - 1.0).max()) > UNITARY_ATOL:
        raise RuntimeError("Kraus completeness relation violated")
    for k in (k1, k2):
        k.flags.writeable = False
    return k1, k2


def flipped_overlap(psi: np.ndarray, phi: np.ndarray) -> float:
    """``|<phi|Z psi>|^2`` for two state vectors of one dimension, in ``O(dim)``."""
    return abs(np.vdot(phi, _z_diagonal(len(psi)) * psi)) ** 2


def _kernel_series(channel: NoiseChannel, n: int) -> np.ndarray:
    """``_checked_kernel(channel, t)`` at ``t = 0 .. n - 1``, bit for bit, checked as one array.

    ``channel.kernel`` evaluates the scalar ``math`` formula at each ``t``; the
    parameters were validated once, when the channel was built. The range check
    and the clamp then run over the whole array, and a bad value is reported at
    its first ``t`` in the words of :func:`_checked_kernel`.
    """
    kappa = np.fromiter((channel.kernel(t) for t in range(n)), dtype=float, count=n)
    outside = ~(np.abs(kappa) <= 1.0 + _KERNEL_SLACK)  # NaN fails this comparison too
    if outside.any():
        t = int(np.argmax(outside))
        raise _kernel_outside(float(kappa[t]), t)
    return np.clip(kappa, -1.0, 1.0)


def dephased_series(channel: NoiseChannel, kept: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """The closed form ``<phi|E_t(|psi_t><psi_t|)|phi>`` at ``t = 0 .. len(kept) - 1``, unclamped.

    ``kept[t] = |<phi|psi_t>|^2`` and ``flipped[t] = |<phi|Z psi_t>|^2``. It equals the
    Kraus sum ``sum_i |<phi|K_i psi_t>|^2`` over the :func:`kraus_set` diagonals (the
    runner's cross-check, on the target's support), without any matrix; the
    density-matrix route to the same value lives only in the test oracles.
    The channel is validated once per series, not once per ``t``: its parameters
    when it was built, the range of ``kappa`` over the whole array. Round-off may
    leave a value just outside ``[0, 1]``; ``FidelitySeries`` clamps it.
    """
    kappa = _kernel_series(channel, len(kept))
    return (1.0 + kappa) / 2.0 * kept + (1.0 - kappa) / 2.0 * flipped
