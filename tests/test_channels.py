from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from qwalk.channels import (
    NoiseChannel,
    _z_diagonal,
    apply_channel,
    dephased_fidelity,
    kraus_set,
    oun_channel,
    oun_kernel,
    rtn_channel,
    rtn_kernel,
    weyl_operator,
)

from .oracles import random_density

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


def stub_channel(dim: int, value: float) -> _StubChannel:
    return _StubChannel(kind="rtn", dim=dim, a=1.0, gamma=1.0, value=value)


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
    assert rtn_kernel(0.0) == 1.0
    assert math.isclose(math.sqrt((2 * 0.1 / 0.01) ** 2 - 1), NU_DEFAULT, rel_tol=1e-15)
    assert math.isclose(rtn_kernel(1.0), RTN_AT_1, rel_tol=1e-14)
    assert math.isclose(rtn_kernel(16.0), RTN_AT_16, rel_tol=1e-14)


def test_rtn_kernel_bounded():
    for t in range(0, 201):
        assert abs(rtn_kernel(float(t))) <= 1.0 + 1e-15


def test_rtn_kernel_sign_changes():
    changes = [t for t in range(1, 101) if rtn_kernel(t - 1.0) * rtn_kernel(float(t)) < 0]
    assert changes == RTN_SIGN_CHANGES
    assert len(changes) >= 2


def test_rtn_kernel_rejects_non_oscillatory_regime():
    with pytest.raises(ValueError, match="unsupported regime"):
        rtn_kernel(1.0, a=0.1, gamma=0.5)


def test_rtn_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        rtn_kernel(-1.0)
    with pytest.raises(ValueError, match="positive"):
        rtn_kernel(1.0, a=-0.1)


def test_oun_kernel_values():
    assert oun_kernel(0.0) == 1.0
    assert math.isclose(oun_kernel(1.0), OUN_AT_1, rel_tol=1e-14)
    assert math.isclose(oun_kernel(10.0), OUN_AT_10, rel_tol=1e-14)


def test_oun_kernel_strictly_decreasing():
    values = [oun_kernel(float(t)) for t in range(0, 101)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_oun_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        oun_kernel(-0.5)
    with pytest.raises(ValueError, match="positive"):
        oun_kernel(1.0, gamma=0.0)


def test_rtn_channel_warns_outside_memory_regime():
    with pytest.warns(UserWarning, match="memory regime"):
        rtn_channel(4, a=0.1, gamma=0.5)


def test_channel_constructors_validate():
    with pytest.raises(ValueError):
        rtn_channel(0)
    with pytest.raises(ValueError):
        oun_channel(4, lam=-1.0)


def test_kraus_identity_at_time_zero():
    for channel in (rtn_channel(6), oun_channel(6)):
        ks = kraus_set(channel, 0.0)
        assert np.allclose(ks.operators[0], np.eye(6))
        assert np.abs(ks.operators[1]).max() == 0.0


@pytest.mark.parametrize("dim", [8, 10, 12])
@pytest.mark.parametrize("make", [rtn_channel, oun_channel])
def test_kraus_completeness(dim, make):
    channel = make(dim)
    eye = np.eye(dim)
    for t in range(0, 101, 7):
        ks = kraus_set(channel, float(t))
        total = sum(k.conj().T @ k for k in ks.operators)
        assert np.abs(total - eye).max() <= 1e-12


def test_kraus_weights_sum_to_one():
    channel = oun_channel(12)
    ks = kraus_set(channel, 50.0)
    p = oun_kernel(50.0)
    w1 = float(np.abs(ks.operators[0][0, 0]) ** 2)
    w2 = float(np.abs(ks.operators[1][0, 0]) ** 2)
    assert math.isclose(w1, (1 + p) / 2, rel_tol=1e-12)
    assert math.isclose(w2, (1 - p) / 2, rel_tol=1e-12)
    assert math.isclose(w1 + w2, 1.0, rel_tol=1e-12)


def test_kraus_rejects_kernel_outside_unit_interval():
    with pytest.raises(ValueError, match="invalid kernel"):
        kraus_set(stub_channel(4, 1.5), 3.0)
    with pytest.raises(ValueError, match="invalid kernel"):
        dephased_fidelity(stub_channel(4, 1.5), 3.0, np.eye(4)[0], np.eye(4)[0])


def test_dephased_fidelity_on_plus_state():
    # |+> keeps weight (1 + kappa)/2 on itself; Z|+> = |-> is orthogonal to it
    plus = np.ones(2, dtype=complex) / np.sqrt(2.0)
    for kappa in (1.0, 0.3, 0.0, -0.6):
        assert abs(dephased_fidelity(stub_channel(2, kappa), 1.0, plus, plus) - (1 + kappa) / 2) < 1e-15


def test_z_diagonal_is_cached_read_only_per_dimension():
    for d in (2, 7, 24):
        z = _z_diagonal(d)
        assert z is _z_diagonal(d)
        assert not z.flags.writeable
        assert np.abs(z - np.diagonal(weyl_operator(d, 1, 0))).max() < 1e-15


def test_dephased_fidelity_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="expected"):
        dephased_fidelity(rtn_channel(4), 1.0, np.eye(3)[0], np.eye(4)[0])
    with pytest.raises(ValueError, match="expected"):
        dephased_fidelity(rtn_channel(4), 1.0, np.eye(4)[0], np.eye(3)[0])


def test_apply_channel_identity_at_time_zero():
    rng = np.random.default_rng(32)
    rho = random_density(rng, 6)
    out = apply_channel(rho, kraus_set(rtn_channel(6), 0.0))
    assert np.abs(out - rho).max() < 1e-14


def test_apply_channel_mixes_plus_state_at_kernel_zero():
    # (rho + Z rho Z) / 2 on |+><+| is the maximally mixed qubit state
    rho = 0.5 * np.ones((2, 2), dtype=complex)
    out = apply_channel(rho, kraus_set(stub_channel(2, 0.0), 1.0))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-14


def test_apply_channel_fixes_diagonal_states():
    rng = np.random.default_rng(33)
    probabilities = rng.dirichlet(np.ones(5))
    rho = np.diag(probabilities.astype(complex))
    for t in (1.0, 7.0, 40.0):
        out = apply_channel(rho, kraus_set(rtn_channel(5, a=0.2, gamma=0.01), t))
        assert np.abs(out - rho).max() < 1e-14


def test_apply_channel_preserves_trace_and_populations():
    rng = np.random.default_rng(34)
    for make in (rtn_channel, oun_channel):
        channel = make(7)
        for _ in range(5):
            rho = random_density(rng, 7)
            out = apply_channel(rho, kraus_set(channel, float(rng.integers(1, 80))))
            assert abs(np.trace(out).real - np.trace(rho).real) <= 1e-12
            assert np.abs(np.diagonal(out) - np.diagonal(rho)).max() < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12


def test_apply_channel_rejects_dimension_mismatch():
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError, match="dimension"):
        apply_channel(random_density(rng, 3), kraus_set(rtn_channel(4), 1.0))


def test_apply_channel_rejects_non_density():
    with pytest.raises(ValueError, match="trace"):
        apply_channel(np.eye(4), kraus_set(rtn_channel(4), 1.0))
