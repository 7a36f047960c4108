from __future__ import annotations

import gc
import math
import tracemalloc
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qwalk.channels import (
    NoiseChannel,
    _checked_kernel,
    _kernel_series,
    _z_diagonal,
    dephased_series,
    flipped_overlap,
    kraus_set,
    oun_channel,
    rtn_channel,
)

from .oracles import (
    apply_channel,
    dense_apply_channel,
    dense_kraus_set,
    dephased_fidelity,
    fidelity_pure_target,
    random_density,
    random_pure,
    weyl_operator,
)

# Frozen kernel values for the default parameters (a=0.1, gamma=0.01 and
# lam=1, gamma=0.05), computed from the closed forms at 40-digit precision.
NU_DEFAULT = 19.974984355438179
RTN_AT_1 = 0.9801987172464657
RTN_AT_16 = -0.8532027710227794
OUN_AT_1 = 0.9877810204632154
OUN_AT_10 = 0.3446221783984445
RTN_SIGN_CHANGES = [9, 24, 40, 56, 72, 87]  # first step after each crossing


@dataclass(frozen=True)
class _StubChannel(NoiseChannel):
    """Channel with a pinned kernel value, for exercising the Kraus formula."""

    value: float = 0.0

    def kernel(self, t: float) -> float:
        return self.value


def stub_channel(value: float) -> _StubChannel:
    return _StubChannel(kind="rtn", a=1.0, gamma=1.0, value=value)


def test_weyl_identity():
    for d in (1, 2, 5, 8):
        assert np.allclose(weyl_operator(d, 0, 0), np.eye(d))


def test_weyl_pauli_z():
    assert np.allclose(weyl_operator(2, 1, 0), np.diag([1.0, -1.0]))


def test_weyl_d3_phase_operator():
    expected = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    assert np.abs(weyl_operator(3, 1, 0) - expected).max() < 1e-15


def test_weyl_shift_component():
    w = weyl_operator(4, 0, 1)
    basis = np.eye(4)
    for k in range(4):
        # W|k'> pattern: entry sits at row k, column (k+1) mod 4
        assert w[k, (k + 1) % 4] == 1.0
    assert np.count_nonzero(w) == 4
    assert np.allclose(w @ basis[:, 1], basis[:, 0])


def test_weyl_unitarity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 13))
        u, v = int(rng.integers(0, d)), int(rng.integers(0, d))
        w = weyl_operator(d, u, v)
        assert np.abs(w.conj().T @ w - np.eye(d)).max() < 1e-12
        assert np.abs(w @ w.conj().T - np.eye(d)).max() < 1e-12


def test_weyl_rejects_out_of_range():
    with pytest.raises(ValueError, match="Weyl indices"):
        weyl_operator(3, 3, 0)
    with pytest.raises(ValueError, match="Weyl indices"):
        weyl_operator(3, 0, -1)


def test_rtn_kernel_values():
    assert rtn_channel().kernel(0.0) == 1.0
    assert math.isclose(math.sqrt((2 * 0.1 / 0.01) ** 2 - 1), NU_DEFAULT, rel_tol=1e-15)
    assert math.isclose(rtn_channel().kernel(1.0), RTN_AT_1, rel_tol=1e-14)
    assert math.isclose(rtn_channel().kernel(16.0), RTN_AT_16, rel_tol=1e-14)


def test_rtn_kernel_bounded():
    for t in range(0, 201):
        assert abs(rtn_channel().kernel(float(t))) <= 1.0 + 1e-15


def test_rtn_kernel_sign_changes():
    kernel = rtn_channel().kernel
    changes = [t for t in range(1, 101) if kernel(t - 1.0) * kernel(float(t)) < 0]
    assert changes == RTN_SIGN_CHANGES
    assert len(changes) >= 2


def test_rtn_kernel_rejects_non_oscillatory_regime():
    with pytest.raises(ValueError, match="unsupported regime"):
        rtn_channel(a=0.1, gamma=0.5).kernel(1.0)


def test_rtn_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        rtn_channel().kernel(-1.0)
    with pytest.raises(ValueError, match="positive"):
        rtn_channel(a=-0.1).kernel(1.0)


def test_public_kernels_report_a_bad_parameter_before_a_bad_time():
    with pytest.raises(ValueError, match="finite and positive"):
        rtn_channel(a=-0.1).kernel(-1.0)
    with pytest.raises(ValueError, match="finite and positive"):
        oun_channel(gamma=0.0).kernel(-1.0)


def test_oun_kernel_values():
    assert oun_channel().kernel(0.0) == 1.0
    assert math.isclose(oun_channel().kernel(1.0), OUN_AT_1, rel_tol=1e-14)
    assert math.isclose(oun_channel().kernel(10.0), OUN_AT_10, rel_tol=1e-14)


def test_oun_kernel_strictly_decreasing():
    values = [oun_channel().kernel(float(t)) for t in range(0, 101)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_oun_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        oun_channel().kernel(-0.5)
    with pytest.raises(ValueError, match="positive"):
        oun_channel(gamma=0.0).kernel(1.0)


def test_rtn_channel_rejects_non_oscillatory_regime():
    # the kernel's own error, at construction: every later evaluation would raise it
    for a, gamma in ((0.1, 0.5), (0.1, 0.2), (1.0, 3.0)):
        with pytest.raises(ValueError, match="unsupported regime"):
            rtn_channel(a=a, gamma=gamma)
    assert abs(rtn_channel(a=0.1, gamma=0.19).kernel(3.0)) <= 1.0  # just inside the regime


def test_channel_constructors_validate():
    with pytest.raises(ValueError):
        rtn_channel(a=0.0)
    with pytest.raises(ValueError):
        oun_channel(lam=-1.0)


def test_kraus_identity_at_time_zero():
    for channel in (rtn_channel(), oun_channel()):
        ks = kraus_set(channel, 0.0, 6)
        assert np.allclose(np.diag(ks[0]), np.eye(6))
        assert np.abs(np.diag(ks[1])).max() == 0.0


@pytest.mark.parametrize("dim", [8, 10, 12])
@pytest.mark.parametrize("make", [rtn_channel, oun_channel])
def test_kraus_completeness(dim, make):
    channel = make()
    eye = np.eye(dim)
    for t in range(0, 101, 7):
        ks = kraus_set(channel, float(t), dim)
        total = sum(np.diag(k).conj().T @ np.diag(k) for k in ks)
        assert np.abs(total - eye).max() <= 1e-12


def test_kraus_weights_sum_to_one():
    channel = oun_channel()
    ks = kraus_set(channel, 50.0, 12)
    p = oun_channel().kernel(50.0)
    w1 = float(np.abs(np.diag(ks[0])[0, 0]) ** 2)
    w2 = float(np.abs(np.diag(ks[1])[0, 0]) ** 2)
    assert math.isclose(w1, (1 + p) / 2, rel_tol=1e-12)
    assert math.isclose(w2, (1 - p) / 2, rel_tol=1e-12)
    assert math.isclose(w1 + w2, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("make", [rtn_channel, oun_channel])
def test_kraus_set_is_the_diagonal_of_the_weyl_operators(make):
    for dim in (2, 5, 12):
        channel = make()
        for t in (0.0, 3.0, 16.0, 57.0):
            kappa = channel.kernel(t)
            weights = ((1 + kappa) / 2, (1 - kappa) / 2)
            ks = kraus_set(channel, t, dim)
            for k, w, weyl in zip(ks, weights, (weyl_operator(dim, 0, 0),
                                                          weyl_operator(dim, 1, 0))):
                assert k.shape == (dim,) and not k.flags.writeable
                assert np.abs(np.diag(k) - math.sqrt(w) * weyl).max() <= 1e-15


def test_apply_channel_matches_dense_weyl_kraus_sum():
    rng = np.random.default_rng(36)
    for make in (rtn_channel, oun_channel):
        for dim in (2, 7, 16):
            channel = make()
            for t in (0.0, 9.0, 33.0):
                rho = random_density(rng, dim)
                diagonal = apply_channel(rho, kraus_set(channel, t, dim))
                dense = dense_apply_channel(rho, dense_kraus_set(channel, t, dim))
                assert np.abs(diagonal - dense).max() <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_kernels_and_channels_reject_non_finite_or_non_positive_parameters(bad):
    for call in (
        lambda: rtn_channel(a=bad).kernel(1.0),
        lambda: rtn_channel(gamma=bad).kernel(1.0),
        lambda: oun_channel(lam=bad).kernel(1.0),
        lambda: oun_channel(gamma=bad).kernel(1.0),
        lambda: rtn_channel(a=bad),
        lambda: oun_channel(gamma=bad),
    ):
        with pytest.raises(ValueError, match="finite and positive"):
            call()


def test_rtn_kernel_rejects_overflowing_phase():
    for t, a, gamma in (
        (0.0, 1e308, 1.0),  # 2a itself overflows
        (1e9, 1e300, 1e160),  # nu * gamma = 2e300 is finite, the phase is not
    ):
        with pytest.raises(ValueError, match="overflows the phase"):
            rtn_channel(a, gamma).kernel(t)
    assert rtn_channel(1e200, 1.0).kernel(0.0) == 1.0  # (2a/gamma)^2 would overflow, nu does not


def test_rtn_channel_rejects_a_phase_overflowing_at_t0_on_construction():
    with pytest.raises(ValueError, match="overflows the phase at t=0.0"):
        rtn_channel(1e308, 1.0)
    assert rtn_channel(1e200, 1.0).kernel(0.0) == 1.0  # a finite phase at a/gamma >= 1e150
    channel = rtn_channel(1e300, 1e160)  # finite at t = 0, overflowing later
    with pytest.raises(ValueError, match="overflows the phase at t=1000000000.0"):
        channel.kernel(1e9)


@pytest.mark.parametrize("ratio", [1e149, 1e150, 1e151, 2e199])
def test_rtn_kernel_is_finite_on_both_sides_of_the_ratio_switch(ratio):
    # past ratio = 2a/gamma = 1e150 nu is ratio itself, as sqrt(ratio**2 - 1) rounds to it,
    # so the kernel neither jumps nor overflows there: exp(-gamma t) cos(2a t)
    a = 0.1
    gamma = 2 * a / ratio
    channel = rtn_channel(a, gamma)
    for t in (0.0, 1.0, 3.0, 10.0):
        assert abs(channel.kernel(t) - math.exp(-gamma * t) * math.cos(2 * a * t)) <= 1e-15
    assert rtn_channel(0.1, 1e-300).kernel(10.0) == math.cos(2.0)
    with pytest.raises(ValueError, match="overflows the phase at t=0.0"):
        rtn_channel(0.1, 5e-324)  # a/gamma itself overflows


def test_oun_kernel_stays_in_unit_interval_at_tiny_gamma_t():
    # (exp(-gamma t) - 1)/gamma loses all precision at gamma t ~ 1e-9; the
    # exponent must still not turn positive (kernel > 1) or overflow
    for lam, gamma in ((1.0, 1e-9), (1.0, 1e-12), (1e308, 1e-9)):
        values = [oun_channel(lam, gamma).kernel(float(t)) for t in range(101)]
        assert all(0.0 <= v <= 1.0 for v in values)
        kraus_set(oun_channel(lam, gamma), 50.0, 4)


def _oun_kernel_decimal(t: float, lam: float, gamma: float) -> float:
    """The OUN kernel at 400 significant digits, from the exact binary values of its inputs."""
    with localcontext() as ctx:
        ctx.prec = 400
        g, t = Decimal(gamma), Decimal(t)
        return float((-(Decimal(lam) / 2) * (t + ((-g * t).exp() - 1) / g)).exp())


def test_oun_kernel_matches_a_400_digit_evaluation_down_to_tiny_gamma():
    # (exp(-gamma t) - 1)/gamma cancels as gamma t -> 0 unless taken through expm1;
    # the bound leaves room for the float limit lam * t * eps (1.1e-10 at t = 1e5)
    worst = 0.0
    for gamma in (0.5, 0.05, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-20, 1e-300):
        for lam in (0.1, 1.0, 10.0):
            channel = oun_channel(lam, gamma)
            for t in (1.0, 2.0, 10.0, 100.0, 1000.0, 1e5):
                error = abs(channel.kernel(t) - _oun_kernel_decimal(t, lam, gamma))
                worst = max(worst, error)
    assert worst <= 2e-10


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_oun_kernel_does_not_grow_with_gamma(t):
    # a faster-decorrelating bath never gives more memory: kappa(t) is
    # nonincreasing in gamma, from gamma = 1 down into the subnormals
    gammas = [10.0 ** (-k / 10) for k in range(3201)]  # 1 .. 1e-320, decreasing
    kappas = [oun_channel(1.0, gamma).kernel(t) for gamma in gammas]
    rise = max(at_larger - at_smaller for at_larger, at_smaller in zip(kappas, kappas[1:]))
    assert rise <= 1e-14


def test_kraus_rejects_kernel_outside_unit_interval():
    for value in (1.5, -1.5, math.nan, math.inf):  # NaN fails every comparison
        with pytest.raises(ValueError, match="invalid kernel"):
            kraus_set(stub_channel(value), 3.0, 4)
        with pytest.raises(ValueError, match="invalid kernel"):
            dephased_series(stub_channel(value), np.ones(2), np.zeros(2))


@dataclass(frozen=True)
class _StepChannel(NoiseChannel):
    """Channel whose kernel jumps from ``before`` to ``after`` at ``t = at``."""

    at: int = 0
    before: float = 0.5
    after: float = 1.5

    def kernel(self, t: float) -> float:
        return self.before if t < self.at else self.after


def test_dephased_series_reports_the_first_bad_time_in_the_per_t_wording():
    for at, after, shown in ((3, 1.5, "1.5"), (0, -2.0, "-2"), (7, math.nan, "nan"),
                             (4, math.inf, "inf"), (5, 1.0 + 1e-11, "1")):
        channel = _StepChannel(kind="oun", lam=1.0, gamma=1.0, at=at, after=after)
        message = f"invalid kernel value {shown} at t={at}: outside [-1, 1]"
        with pytest.raises(ValueError) as per_t:
            _checked_kernel(channel, at)
        assert str(per_t.value) == message
        with pytest.raises(ValueError) as series:
            dephased_series(channel, np.ones(at + 5), np.zeros(at + 5))
        assert str(series.value) == message
    # within round-off of [-1, 1] the stub's values pass, clamped as per t
    channel = _StepChannel(kind="rtn", a=1.0, gamma=1.0, at=2, after=1.0 + 1e-13)
    assert np.array_equal(_kernel_series(channel, 4), [0.5, 0.5, 1.0, 1.0])


@pytest.mark.parametrize("make, grid", [
    (rtn_channel, [(0.1, 0.01), (0.1, 0.19), (1.0, 1.999), (3.0, 0.05), (1e-3, 1e-5),
                   (1e6, 1e-3), (2.5, 4.0)]),
    (oun_channel, [(1.0, 0.05), (0.2, 3.0), (1.0, 1e-9), (1e308, 1e-9), (7.5, 1e-12),
                   (1e-8, 40.0)]),
])
def test_kernel_series_equals_the_per_t_checked_kernel_bitwise(make, grid):
    # the array form of dephased_series against the per-t route it replaced
    for first, second in grid:
        channel = make(first, second)
        n = 401
        series = _kernel_series(channel, n)
        per_t = np.array([_checked_kernel(channel, t) for t in range(n)])
        assert series.tobytes() == per_t.tobytes(), (first, second)
        kept, flipped = np.linspace(0.0, 1.0, n), np.linspace(1.0, 0.0, n)
        old = [(1.0 + k) / 2.0 * a + (1.0 - k) / 2.0 * b for k, a, b in zip(per_t, kept, flipped)]
        assert np.array_equal(dephased_series(channel, kept, flipped), np.clip(old, 0.0, 1.0))


def test_channel_parameters_are_checked_once_on_construction_not_per_t(monkeypatch):
    import qwalk.channels

    calls = []
    real = qwalk.channels._check_parameters
    monkeypatch.setattr(qwalk.channels, "_check_parameters",
                        lambda **params: calls.append(params) or real(**params))
    for make in (rtn_channel, oun_channel):
        calls.clear()
        dephased_series(make(), np.ones(500), np.zeros(500))
        assert len(calls) == 1
    calls.clear()
    rtn_channel().kernel(2.0)
    oun_channel().kernel(2.0)
    assert len(calls) == 2  # each new channel checks its parameters
    with pytest.raises(ValueError, match="finite and positive"):
        NoiseChannel(kind="rtn", a=-1.0, gamma=1.0)
    with pytest.raises(ValueError, match="noise kind"):
        NoiseChannel(kind="gaussian", gamma=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        oun_channel().kernel(-1.0)


def test_dephased_fidelity_on_plus_state():
    # |+> keeps weight (1 + kappa)/2 on itself; Z|+> = |-> is orthogonal to it
    plus = np.ones(2, dtype=complex) / np.sqrt(2.0)
    flipped = flipped_overlap(plus, plus)
    assert flipped < 1e-30
    for kappa in (1.0, 0.3, 0.0, -0.6):
        noisy = dephased_series(stub_channel(kappa), np.ones(3), np.full(3, flipped))
        assert np.abs(noisy - (1 + kappa) / 2).max() < 1e-15
        assert abs(dephased_fidelity(stub_channel(kappa), 1.0, plus, plus) - (1 + kappa) / 2) < 1e-15


@pytest.mark.parametrize("make", [rtn_channel, oun_channel])
def test_dephased_series_equals_the_per_state_closed_form(make):
    # the series form, mixing whole overlap arrays, is the per-state oracle
    # bit for bit, and both match the Kraus route on the density matrix
    rng = np.random.default_rng(37)
    for dim in (2, 7, 16):
        channel = make()
        phi = random_pure(rng, dim)
        states = [random_pure(rng, dim) for _ in range(60)]
        kept = np.array([abs(np.vdot(phi, psi)) ** 2 for psi in states])
        flipped = np.array([flipped_overlap(psi, phi) for psi in states])
        series = dephased_series(channel, kept, flipped)
        per_state = [dephased_fidelity(channel, t, psi, phi) for t, psi in enumerate(states)]
        assert np.array_equal(series, per_state)
        for t in (0, 9, 33, 59):
            rho = apply_channel(np.outer(states[t], states[t].conj()), kraus_set(channel, t, dim))
            assert abs(series[t] - fidelity_pure_target(rho, phi)) <= 1e-12


def test_z_diagonal_is_cached_read_only_per_dimension():
    for d in (2, 7, 24):
        z = _z_diagonal(d)
        assert z is _z_diagonal(d)
        assert not z.flags.writeable
        assert np.abs(z - np.diagonal(weyl_operator(d, 1, 0))).max() < 1e-15


def test_z_diagonal_keeps_only_the_last_dimension_alive():
    # a walk uses one dimension throughout; an array per past dimension would stay allocated
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in (100_000, 60_000):
            psi = np.ones(d, dtype=complex) / math.sqrt(d)
            flipped_overlap(psi, psi)
            del psi
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _z_diagonal.cache_info().currsize == 1
    assert retained <= 16 * 100_000  # at most one complex array, of the larger dimension


def test_one_channel_serves_kraus_sets_in_every_dimension():
    for channel in (rtn_channel(), oun_channel(), rtn_channel(1.0, 0.5)):
        for t in (0.0, 7.0, 50.0):
            kappa = channel.kernel(t)
            for dim in (2, 5, 12):
                k1, k2 = kraus_set(channel, t, dim)
                assert k1.shape == k2.shape == (dim,)
                assert np.abs(np.abs(k1) ** 2 + np.abs(k2) ** 2 - 1.0).max() <= 1e-12
                assert np.allclose(np.abs(k1) ** 2, (1 + kappa) / 2, rtol=1e-12, atol=0)
                assert np.allclose(np.abs(k2) ** 2, (1 - kappa) / 2, rtol=1e-12, atol=1e-15)


def test_dephased_fidelity_rejects_dimension_mismatch():
    for psi, phi in ((np.eye(3)[0], np.eye(4)[0]), (np.eye(4)[0], np.eye(3)[0])):
        with pytest.raises(ValueError):
            flipped_overlap(psi, phi)
        with pytest.raises(ValueError, match="expected"):
            dephased_fidelity(rtn_channel(), 1.0, psi, phi)
    with pytest.raises(ValueError):
        dephased_series(rtn_channel(), np.ones(3), np.ones(4))


def test_apply_channel_identity_at_time_zero():
    rng = np.random.default_rng(32)
    rho = random_density(rng, 6)
    out = apply_channel(rho, kraus_set(rtn_channel(), 0.0, 6))
    assert np.abs(out - rho).max() < 1e-14


def test_apply_channel_mixes_plus_state_at_kernel_zero():
    # (rho + Z rho Z) / 2 on |+><+| is the maximally mixed qubit state
    rho = 0.5 * np.ones((2, 2), dtype=complex)
    out = apply_channel(rho, kraus_set(stub_channel(0.0), 1.0, 2))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-14


def test_apply_channel_fixes_diagonal_states():
    rng = np.random.default_rng(33)
    probabilities = rng.dirichlet(np.ones(5))
    rho = np.diag(probabilities.astype(complex))
    for t in (1.0, 7.0, 40.0):
        out = apply_channel(rho, kraus_set(rtn_channel(a=0.2, gamma=0.01), t, 5))
        assert np.abs(out - rho).max() < 1e-14


def test_apply_channel_preserves_trace_and_populations():
    rng = np.random.default_rng(34)
    for make in (rtn_channel, oun_channel):
        channel = make()
        for _ in range(5):
            rho = random_density(rng, 7)
            out = apply_channel(rho, kraus_set(channel, float(rng.integers(1, 80)), 7))
            assert abs(np.trace(out).real - np.trace(rho).real) <= 1e-12
            assert np.abs(np.diagonal(out) - np.diagonal(rho)).max() < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12


def test_apply_channel_rejects_dimension_mismatch():
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError, match="dimension"):
        apply_channel(random_density(rng, 3), kraus_set(rtn_channel(), 1.0, 4))


def test_apply_channel_rejects_non_density():
    with pytest.raises(ValueError, match="trace"):
        apply_channel(np.eye(4), kraus_set(rtn_channel(), 1.0, 4))
