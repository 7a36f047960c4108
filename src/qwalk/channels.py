"""Diagonal dephasing channels: the random-telegraph and Ornstein-Uhlenbeck noise.

Two noise families are provided, both with a two-element Kraus set

    K1(t) = sqrt((1 + kappa(t)) / 2) * I
    K2(t) = sqrt((1 - kappa(t)) / 2) * Z,    Z = diag(omega^j), omega = exp(2 pi i / dim)

where ``I`` and ``Z`` are the Weyl operators ``W(0, 0)`` and ``W(1, 0)`` in the
walk's dimension and the memory kernel ``kappa`` is either the
damped-oscillatory random-telegraph kernel or the monotone modified
Ornstein-Uhlenbeck kernel, both defined only in :class:`NoiseChannel` (the
public :func:`rtn_kernel` and :func:`oun_kernel` go through it). Both Kraus
operators are diagonal, so the channels dephase edge-basis coherences while
leaving populations untouched, and a :class:`KrausSet` stores each operator
as its diagonal.

For a pure state ``psi`` and a pure target ``phi`` the channel output's
fidelity therefore has the closed form

    F(t) = (1 + kappa(t)) / 2 * |<phi|psi>|^2 + (1 - kappa(t)) / 2 * |<phi|Z psi>|^2

which :func:`dephased_series` evaluates on a run's overlap series. The runner
checks it against the Kraus sum ``sum_i |<phi|K_i psi>|^2`` over the diagonals
of :func:`kraus_set`, on the target's support. :func:`apply_channel` applies the
channel to a density matrix: library API and test oracle, off the run path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fidelity import check_density
from .operators import UNITARY_ATOL

__all__ = [
    "RTN_DEFAULT_A",
    "RTN_DEFAULT_GAMMA",
    "OUN_DEFAULT_LAMBDA",
    "OUN_DEFAULT_GAMMA",
    "NoiseChannel",
    "KrausSet",
    "rtn_kernel",
    "oun_kernel",
    "rtn_channel",
    "oun_channel",
    "kraus_set",
    "apply_channel",
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


def rtn_kernel(t: float, a: float = RTN_DEFAULT_A, gamma: float = RTN_DEFAULT_GAMMA) -> float:
    """Damped-oscillatory random-telegraph memory kernel.

    ``exp(-gamma t) [cos(nu gamma t) + sin(nu gamma t) / nu]`` with
    ``nu = sqrt((2 a / gamma)^2 - 1)``. Defined only in the oscillatory
    regime ``a / gamma > 0.5`` where ``nu`` is real; equals 1 at ``t = 0``.
    """
    return rtn_channel(1, a, gamma).kernel(t)


def oun_kernel(t: float, lam: float = OUN_DEFAULT_LAMBDA, gamma: float = OUN_DEFAULT_GAMMA) -> float:
    """Monotone Ornstein-Uhlenbeck memory kernel.

    ``exp(-(lam / 2) (t + (exp(-gamma t) - 1) / gamma))``: equals 1 at
    ``t = 0`` and decreases strictly for ``t > 0``.
    """
    return oun_channel(1, lam, gamma).kernel(t)


@dataclass(frozen=True)
class NoiseChannel:
    """Time-parameterized generator of Kraus sets in a fixed dimension.

    The one home of the kernel ``kappa(t)`` (:meth:`kernel`) and of the checks on
    its parameters. Build one with :func:`rtn_channel` or :func:`oun_channel`; the
    parameter fields not belonging to ``kind`` stay ``None``. The dimension, the
    parameters and (for ``rtn``) the regime and the phase at ``t = 0`` are checked
    once, on construction, so :meth:`kernel` checks only ``t`` (and the ``rtn`` phase).
    """

    kind: str  # "rtn" | "oun"
    dim: int
    a: float | None = None
    lam: float | None = None
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
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
        """``kappa(t)`` for ``t >= 0``, from the scalar ``math`` formula of ``kind``."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        a, lam, gamma = self.a, self.lam, self.gamma
        if self.kind == "rtn":
            ratio = 2.0 * a / gamma
            nu = math.sqrt(ratio**2 - 1.0) if ratio < 1e150 else math.inf  # ratio**2 would overflow
            phase = nu * gamma * t
            if not math.isfinite(phase):
                raise ValueError(
                    f"unsupported regime: a/gamma = {a / gamma:.6g} overflows the phase at t={t}"
                )
            return math.exp(-gamma * t) * (math.cos(phase) + math.sin(phase) / nu)
        # The exponent is <= 0; at gamma t < 1e-8 round-off can make it positive (kernel > 1).
        return math.exp(min(0.0, -(lam / 2.0) * (t + (math.exp(-gamma * t) - 1.0) / gamma)))


def rtn_channel(dim: int, a: float = RTN_DEFAULT_A, gamma: float = RTN_DEFAULT_GAMMA) -> NoiseChannel:
    """Random-telegraph channel; raises outside the oscillatory regime ``a/gamma > 0.5``."""
    return NoiseChannel(kind="rtn", dim=dim, a=a, gamma=gamma)


def oun_channel(dim: int, lam: float = OUN_DEFAULT_LAMBDA, gamma: float = OUN_DEFAULT_GAMMA) -> NoiseChannel:
    """Ornstein-Uhlenbeck channel with relaxation ``lam`` and bandwidth ``gamma``."""
    return NoiseChannel(kind="oun", dim=dim, lam=lam, gamma=gamma)


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of one channel evaluation, each stored as its diagonal.

    ``operators[i]`` is the length-``dim`` vector ``k_i`` of ``K_i = diag(k_i)``;
    completeness ``sum |k_i|^2 = 1``, that is ``sum K†K = I``, holds to 1e-12."""

    operators: tuple[np.ndarray, ...]
    time: float


def _kernel_outside(kappa: float, t: float) -> ValueError:
    return ValueError(f"invalid kernel value {kappa:.6g} at t={t}: outside [-1, 1]")


def _checked_kernel(channel: NoiseChannel, t: float) -> float:
    """Kernel value at ``t``, rejected outside ``[-1, 1]`` beyond round-off and clamped into it."""
    kappa = channel.kernel(t)
    if not abs(kappa) <= 1.0 + _KERNEL_SLACK:  # NaN fails this comparison too
        raise _kernel_outside(kappa, t)
    return min(1.0, max(-1.0, kappa))


@functools.lru_cache(maxsize=16)
def _z_diagonal(d: int) -> np.ndarray:
    """Read-only diagonal ``omega^j`` of ``Z = W(1, 0)`` in dimension ``d``, computed once per ``d``."""
    z = np.exp(2j * np.pi * np.arange(d) / d)
    z.flags.writeable = False
    return z


def kraus_set(channel: NoiseChannel, t: float) -> KrausSet:
    """Evaluate the channel's two Kraus operators at time ``t``, as diagonals.

    They are ``sqrt((1 + kappa)/2) * 1`` and ``sqrt((1 - kappa)/2) * z`` with
    ``z`` the diagonal of ``Z``. The kernel value must lie in ``[-1, 1]`` (up
    to round-off); completeness ``sum |k_i|^2 = 1`` is verified on construction.
    """
    kappa = _checked_kernel(channel, t)
    d = channel.dim
    k1 = np.full(d, math.sqrt((1.0 + kappa) / 2.0), dtype=complex)
    k2 = math.sqrt((1.0 - kappa) / 2.0) * _z_diagonal(d)
    if float(np.abs(np.abs(k1) ** 2 + np.abs(k2) ** 2 - 1.0).max()) > UNITARY_ATOL:
        raise RuntimeError("Kraus completeness relation violated")
    for k in (k1, k2):
        k.flags.writeable = False
    return KrausSet(operators=(k1, k2), time=float(t))


def apply_channel(rho, ks: KrausSet) -> np.ndarray:
    """Apply ``rho -> sum_i K_i rho K_i†`` (``K_i = diag(k_i)``) to a density matrix in ``O(dim^2)``."""
    dim = ks.operators[0].shape[0]
    rho = check_density(rho, dim=dim)
    out = np.zeros_like(rho)
    for k in ks.operators:
        out += k[:, None] * rho * k.conj()[None, :]
    return out


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
    runner's cross-check, on the target's support) and the :func:`apply_channel` +
    ``fidelity_density`` route, without any matrix.
    The channel is validated once per series, not once per ``t``: its parameters
    when it was built, the range of ``kappa`` over the whole array. Round-off may
    leave a value just outside ``[0, 1]``; ``FidelitySeries`` clamps it.
    """
    kappa = _kernel_series(channel, len(kept))
    return (1.0 + kappa) / 2.0 * kept + (1.0 - kappa) / 2.0 * flipped
