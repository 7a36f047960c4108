from __future__ import annotations

import numpy as np
import pytest

from qwalk.channels import oun_channel, rtn_channel
from qwalk.operators import evolve_pure
from qwalk.graphs import complete_bipartite_graph, cycle_graph, path_graph, star_graph
from qwalk.operators import receiver_state, sender_state, walk_spec, walk_step

from .oracles import (
    dense_walk_operators,
    evolve_density,
    fidelity_pure,
    fidelity_pure_target,
    noisy_state,
    power_evolved,
)


@pytest.fixture(scope="module")
def p5_transfer():
    spec = walk_spec(path_graph(5), 0, 4)
    return spec, dense_walk_operators(spec)


def test_evolve_pure_zero_steps(p5_transfer):
    spec, _ = p5_transfer
    psi0 = sender_state(spec)
    assert np.array_equal(evolve_pure(walk_step(spec), psi0, 0), psi0)


def test_p5_transfer_arrives_at_step_four(p5_transfer):
    spec, _ = p5_transfer
    psi4 = evolve_pure(walk_step(spec), sender_state(spec), 4)
    target = receiver_state(spec, "outgoing")
    # equal up to a global sign
    assert min(np.abs(psi4 - target).max(), np.abs(psi4 + target).max()) < 1e-12
    assert abs(fidelity_pure(psi4, target) - 1.0) < 1e-12


def test_p5_periodicity_returns_at_step_eight():
    spec = walk_spec(path_graph(5), 0, 0)
    step = walk_step(spec)
    psi0 = sender_state(spec)
    assert abs(fidelity_pure(evolve_pure(step, psi0, 8), psi0) - 1.0) < 1e-12
    assert abs(fidelity_pure(evolve_pure(step, psi0, 16), psi0) - 1.0) < 1e-12


def test_evolve_pure_norm_preservation():
    spec = walk_spec(star_graph(6), 0, 1)
    step = walk_step(spec)
    psi = sender_state(spec)
    for _ in range(200):
        psi = step(psi)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


@pytest.mark.parametrize(
    "graph, sender, receiver",
    [(star_graph(6), 0, 1), (complete_bipartite_graph(7, 9), 0, 3)],
    ids=["s6_0_1", "k7_9_0_3"],
)
def test_norm_drift_bounded_over_long_horizon(graph, sender, receiver):
    # 10^5 matrix-free steps stay within fidelity_pure's norm tolerance
    spec = walk_spec(graph, sender, receiver)
    step = walk_step(spec)
    psi = sender_state(spec)
    drift = 0.0
    for _ in range(100_000):
        psi = step(psi)
        drift = max(drift, abs(float(np.linalg.norm(psi)) - 1.0))
    assert drift < 1e-10


def test_evolve_pure_matches_matrix_power_oracle(p5_transfer):
    spec, ops = p5_transfer
    psi0 = sender_state(spec)
    for t in (1, 5, 17, 50, 100):
        iterated = evolve_pure(walk_step(spec), psi0, t)
        assert np.abs(iterated - power_evolved(ops.unitary, psi0, t)).max() < 1e-9


def test_evolve_pure_validates_input(p5_transfer):
    step = walk_step(p5_transfer[0])
    with pytest.raises(ValueError, match="shape"):
        evolve_pure(step, np.ones(3, dtype=complex) / np.sqrt(3), 1)
    with pytest.raises(ValueError, match="not normalized"):
        evolve_pure(step, np.ones(8, dtype=complex), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        evolve_pure(step, np.eye(8, dtype=complex)[0], -1)


def test_evolve_density_zero_steps(p5_transfer):
    spec, ops = p5_transfer
    psi0 = sender_state(spec)
    rho0 = np.outer(psi0, psi0.conj())
    assert np.array_equal(evolve_density(ops, rho0, 0), rho0)


def test_evolve_density_tracks_pure_evolution(p5_transfer):
    spec, ops = p5_transfer
    psi0 = sender_state(spec)
    rho0 = np.outer(psi0, psi0.conj())
    for t in (1, 4, 9):
        psi_t = evolve_pure(walk_step(spec), psi0, t)
        rho_t = evolve_density(ops, rho0, t)
        assert np.abs(rho_t - np.outer(psi_t, psi_t.conj())).max() < 1e-10


def test_evolve_density_preserves_spectrum(p5_transfer):
    spec, ops = p5_transfer
    psi0 = sender_state(spec)
    rho = evolve_density(ops, np.outer(psi0, psi0.conj()), 13)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues.min() > -1e-10
    assert eigenvalues.max() < 1.0 + 1e-10


def test_noisy_state_at_time_zero_is_projector(p5_transfer):
    spec, ops = p5_transfer
    psi0 = sender_state(spec)
    rho = noisy_state(ops, psi0, rtn_channel(), 0)
    assert np.abs(rho - np.outer(psi0, psi0.conj())).max() < 1e-14


def test_path_graph_noise_transparency(p5_transfer):
    # the walker on the path stays on a single basis edge, so the diagonal
    # Kraus operators cannot touch it for any target state
    spec, ops = p5_transfer
    psi0 = sender_state(spec)
    target = receiver_state(spec, "outgoing")
    for channel in (rtn_channel(), oun_channel()):
        for t in range(0, 30):
            noiseless = fidelity_pure(evolve_pure(walk_step(spec), psi0, t), target)
            noisy = fidelity_pure_target(noisy_state(ops, psi0, channel, t), target)
            assert abs(noisy - noiseless) <= 1e-12


def test_cycle_transfer_noise_reduces_fidelity_at_peak():
    spec = walk_spec(cycle_graph(6), 0, 3)
    ops = dense_walk_operators(spec)
    psi0 = sender_state(spec)
    target = receiver_state(spec, "outgoing")
    noiseless = fidelity_pure(evolve_pure(walk_step(spec), psi0, 3), target)
    noisy = fidelity_pure_target(noisy_state(ops, psi0, rtn_channel(), 3), target)
    assert noisy < noiseless


def test_basis_target_transparency_on_star():
    spec = walk_spec(star_graph(6), 0, 1)
    ops = dense_walk_operators(spec)
    psi0 = sender_state(spec)
    target = receiver_state(spec, "outgoing")  # a single basis vector
    assert np.count_nonzero(target) == 1
    for channel in (rtn_channel(), oun_channel()):
        for t in range(0, 40):
            noiseless = fidelity_pure(evolve_pure(walk_step(spec), psi0, t), target)
            noisy = fidelity_pure_target(noisy_state(ops, psi0, channel, t), target)
            assert abs(noisy - noiseless) <= 1e-12


def test_noisy_state_rejects_dimension_mismatch(p5_transfer):
    spec, ops = p5_transfer
    with pytest.raises(ValueError, match="dimension"):
        noisy_state(ops, np.ones(12) / np.sqrt(12), rtn_channel(), 3)
