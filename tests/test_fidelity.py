from __future__ import annotations

import numpy as np
import pytest

import qwalk.fidelity as fid
from qwalk.fidelity import fidelity_density, fidelity_pure, fidelity_pure_target

from .oracles import random_density, random_pure, random_unitary, uhlmann_fidelity_scipy


def test_pure_identical_states():
    rng = np.random.default_rng(41)
    psi = random_pure(rng, 7)
    assert abs(fidelity_pure(psi, psi) - 1.0) < 1e-12


def test_pure_orthogonal_states():
    e = np.eye(4, dtype=complex)
    assert fidelity_pure(e[0], e[1]) == 0.0


def test_pure_half_overlap():
    e = np.eye(2, dtype=complex)
    plus = (e[0] + e[1]) / np.sqrt(2)
    assert abs(fidelity_pure(plus, e[0]) - 0.5) < 1e-15


def test_pure_rejects_mismatch_and_norm():
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity_pure(np.eye(2, dtype=complex)[0], np.eye(3, dtype=complex)[0])
    with pytest.raises(ValueError, match="not normalized"):
        fidelity_pure(np.ones(4, dtype=complex), np.eye(4, dtype=complex)[0])


def test_density_pure_state_self_fidelity():
    rng = np.random.default_rng(42)
    psi = random_pure(rng, 5)
    rho = np.outer(psi, psi.conj())
    assert abs(fidelity_density(rho, rho) - 1.0) < 1e-12


def test_density_maximally_mixed_vs_basis_state():
    rho = np.eye(2, dtype=complex) / 2
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert abs(fidelity_density(rho, sigma) - 0.5) < 1e-12


def test_density_matches_pure_formula():
    rng = np.random.default_rng(43)
    for _ in range(25):
        psi, phi = random_pure(rng, 12), random_pure(rng, 12)
        overlap = fidelity_pure(psi, phi)
        full = fidelity_density(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
        assert abs(overlap - full) <= 1e-9


def test_density_matches_scipy_sqrtm_oracle():
    rng = np.random.default_rng(44)
    for _ in range(10):
        rho, sigma = random_density(rng, 6), random_density(rng, 6)
        assert abs(fidelity_density(rho, sigma) - uhlmann_fidelity_scipy(rho, sigma)) < 1e-9


def test_density_symmetry():
    rng = np.random.default_rng(45)
    for _ in range(10):
        rho, sigma = random_density(rng, 8), random_density(rng, 8)
        assert abs(fidelity_density(rho, sigma) - fidelity_density(sigma, rho)) <= 1e-9


def test_density_unitary_invariance():
    rng = np.random.default_rng(46)
    for _ in range(10):
        rho, sigma = random_density(rng, 6), random_density(rng, 6)
        u = random_unitary(rng, 6)
        rotated = fidelity_density(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(rotated - fidelity_density(rho, sigma)) <= 1e-9


def test_density_rejects_non_density():
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError):
        fidelity_density(np.eye(3), random_density(rng, 3))


def test_pure_target_projector():
    rng = np.random.default_rng(48)
    phi = random_pure(rng, 9)
    assert abs(fidelity_pure_target(np.outer(phi, phi.conj()), phi) - 1.0) < 1e-12


def test_pure_target_maximally_mixed():
    rng = np.random.default_rng(49)
    for d in (2, 5, 12):
        phi = random_pure(rng, d)
        assert abs(fidelity_pure_target(np.eye(d, dtype=complex) / d, phi) - 1.0 / d) < 1e-12


def test_pure_target_matches_full_formula():
    rng = np.random.default_rng(50)
    for _ in range(25):
        rho = random_density(rng, 12)
        phi = random_pure(rng, 12)
        shortcut = fidelity_pure_target(rho, phi)
        full = fidelity_density(rho, np.outer(phi, phi.conj()))
        assert abs(shortcut - full) <= 1e-9


def test_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(51)
    for _ in range(20):
        rho, sigma = random_density(rng, 5), random_density(rng, 5)
        assert 0.0 <= fidelity_density(rho, sigma) <= 1.0
        phi = random_pure(rng, 5)
        assert 0.0 <= fidelity_pure_target(rho, phi) <= 1.0


def test_clamp_window_boundaries():
    assert fid.clamp_fidelity(1.0 + 5e-11) == 1.0
    assert fid.clamp_fidelity(-5e-11) == 0.0
    with pytest.raises(ValueError, match="outside"):
        fid.clamp_fidelity(1.0 + 1e-9)
    with pytest.raises(ValueError, match="outside"):
        fid.clamp_fidelity(-1e-9)
    # a whole series at once: clamped element-wise, the first offender named
    series = np.array([-5e-11, 0.25, 1.0 + 5e-11])
    assert fid.clamp_fidelity(series).tolist() == [0.0, 0.25, 1.0]
    with pytest.raises(ValueError, match="fidelity 1.001 outside"):
        fid.clamp_fidelity(np.array([0.5, 1.001, -0.2]))
    with pytest.raises(ValueError, match="fidelity nan outside"):  # NaN is no fidelity
        fid.clamp_fidelity(np.array([0.5, np.nan]))
