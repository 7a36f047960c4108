from __future__ import annotations

import numpy as np
import pytest

from qwalk.channels import oun_channel, rtn_channel
from qwalk.graphs import complete_bipartite_graph, cycle_graph, path_graph, star_graph
from qwalk.operators import receiver_state, sender_state, walk_step

from .oracles import (
    dense_walk_operators,
    evolve_density,
    fidelity_pure,
    fidelity_pure_target,
    iterate,
    noisy_state,
    power_evolved,
)


@pytest.fixture(scope="module")
def p5_transfer():
    return walk_step(path_graph(5), 0, 4), dense_walk_operators(path_graph(5), 0, 4)


def test_evolve_pure_zero_steps(p5_transfer):
    step, ops = p5_transfer
    psi0 = sender_state(step)
    assert np.array_equal(iterate(step, psi0, 0), psi0)
    assert np.array_equal(power_evolved(ops.unitary, psi0, 0), psi0)


def test_p5_transfer_arrives_at_step_four(p5_transfer):
    step, _ = p5_transfer
    psi4 = iterate(step, sender_state(step), 4)
    target = receiver_state(step, "outgoing")
    # equal up to a global sign
    assert min(np.abs(psi4 - target).max(), np.abs(psi4 + target).max()) < 1e-12
    assert abs(fidelity_pure(psi4, target) - 1.0) < 1e-12


def test_p5_periodicity_returns_at_step_eight():
    step = walk_step(path_graph(5), 0, 0)
    psi0 = sender_state(step)
    assert abs(fidelity_pure(iterate(step, psi0, 8), psi0) - 1.0) < 1e-12
    assert abs(fidelity_pure(iterate(step, psi0, 16), psi0) - 1.0) < 1e-12


def test_evolve_pure_norm_preservation():
    step = walk_step(star_graph(6), 0, 1)
    psi = sender_state(step)
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
    step = walk_step(graph, sender, receiver)
    psi = sender_state(step)
    drift = 0.0
    for _ in range(100_000):
        psi = step(psi)
        drift = max(drift, abs(float(np.linalg.norm(psi)) - 1.0))
    assert drift < 1e-10


def test_evolve_pure_matches_matrix_power_oracle(p5_transfer):
    step, ops = p5_transfer
    psi0 = sender_state(step)
    for t in (1, 5, 17, 50, 100):
        iterated = iterate(step, psi0, t)
        assert np.abs(iterated - power_evolved(ops.unitary, psi0, t)).max() < 1e-9


def test_evolve_density_zero_steps(p5_transfer):
    step, ops = p5_transfer
    psi0 = sender_state(step)
    rho0 = np.outer(psi0, psi0.conj())
    assert np.array_equal(evolve_density(ops, rho0, 0), rho0)


def test_evolve_density_tracks_pure_evolution(p5_transfer):
    step, ops = p5_transfer
    psi0 = sender_state(step)
    rho0 = np.outer(psi0, psi0.conj())
    for t in (1, 4, 9):
        psi_t = iterate(step, psi0, t)
        rho_t = evolve_density(ops, rho0, t)
        assert np.abs(rho_t - np.outer(psi_t, psi_t.conj())).max() < 1e-10


def test_evolve_density_preserves_spectrum(p5_transfer):
    step, ops = p5_transfer
    psi0 = sender_state(step)
    rho = evolve_density(ops, np.outer(psi0, psi0.conj()), 13)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues.min() > -1e-10
    assert eigenvalues.max() < 1.0 + 1e-10


def test_noisy_state_at_time_zero_is_projector(p5_transfer):
    step, ops = p5_transfer
    psi0 = sender_state(step)
    rho = noisy_state(ops, psi0, rtn_channel(), 0)
    assert np.abs(rho - np.outer(psi0, psi0.conj())).max() < 1e-14


def test_path_graph_noise_transparency(p5_transfer):
    # the walker on the path stays on a single basis edge, so the diagonal
    # Kraus operators cannot touch it for any target state
    step, ops = p5_transfer
    psi0 = sender_state(step)
    target = receiver_state(step, "outgoing")
    for channel in (rtn_channel(), oun_channel()):
        for t in range(0, 30):
            noiseless = fidelity_pure(iterate(step, psi0, t), target)
            noisy = fidelity_pure_target(noisy_state(ops, psi0, channel, t), target)
            assert abs(noisy - noiseless) <= 1e-12


def test_cycle_transfer_noise_reduces_fidelity_at_peak():
    step, ops = walk_step(cycle_graph(6), 0, 3), dense_walk_operators(cycle_graph(6), 0, 3)
    psi0 = sender_state(step)
    target = receiver_state(step, "outgoing")
    noiseless = fidelity_pure(iterate(step, psi0, 3), target)
    noisy = fidelity_pure_target(noisy_state(ops, psi0, rtn_channel(), 3), target)
    assert noisy < noiseless


def test_basis_target_transparency_on_star():
    step, ops = walk_step(star_graph(6), 0, 1), dense_walk_operators(star_graph(6), 0, 1)
    psi0 = sender_state(step)
    target = receiver_state(step, "outgoing")  # a single basis vector
    assert np.count_nonzero(target) == 1
    for channel in (rtn_channel(), oun_channel()):
        for t in range(0, 40):
            noiseless = fidelity_pure(iterate(step, psi0, t), target)
            noisy = fidelity_pure_target(noisy_state(ops, psi0, channel, t), target)
            assert abs(noisy - noiseless) <= 1e-12


def test_noisy_state_rejects_dimension_mismatch(p5_transfer):
    _, ops = p5_transfer
    with pytest.raises(ValueError, match="dimension"):
        noisy_state(ops, np.ones(12) / np.sqrt(12), rtn_channel(), 3)
