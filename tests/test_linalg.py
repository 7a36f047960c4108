from __future__ import annotations

import numpy as np
import pytest

from qwalk.graphs import cycle_graph, path_graph, star_graph
from qwalk.linalg import check_density, hermitian_eig, is_unitary, psd_sqrt
from qwalk.operators import coin_operator, shift_operator, walk_spec, walk_unitary

from .oracles import naive_matmul, random_density, random_hermitian, random_pure


def test_matmul_against_triple_loop_on_walk_operators():
    spec = walk_spec(path_graph(5), 0, 4)
    ops = walk_unitary(spec)
    assert np.abs(ops.unitary - naive_matmul(ops.shift, ops.coin)).max() < 1e-15


def test_matmul_against_triple_loop_random():
    # the oracle itself, on non-square factors
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    b = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    assert np.abs(a @ b - naive_matmul(a, b)).max() < 1e-12


def test_matmul_associativity():
    # the step may be applied factor by factor: (S C) psi == S (C psi)
    rng = np.random.default_rng(2)
    for graph in (path_graph(5), cycle_graph(6), star_graph(6)):
        ops = walk_unitary(walk_spec(graph, 0, 1))
        for _ in range(3):
            psi = random_pure(rng, ops.dim)
            assert np.abs(ops.unitary @ psi - ops.shift @ (ops.coin @ psi)).max() < 1e-12


def test_is_unitary_identity():
    assert is_unitary(np.eye(4), tol=1e-12)


def test_is_unitary_walk_step():
    spec = walk_spec(path_graph(5), 0, 4)
    step = shift_operator(spec.space) @ coin_operator(spec)
    assert is_unitary(step, tol=1e-12)


def test_is_unitary_detects_perturbation():
    m = np.eye(4, dtype=complex)
    m[0, 0] += 1e-6
    assert not is_unitary(m, tol=1e-12)


def test_is_unitary_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        is_unitary(np.ones((2, 3)))


def test_hermitian_eig_diagonal():
    values, vectors = hermitian_eig(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vectors), np.eye(3))


def test_hermitian_eig_exchange_matrix():
    values, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1.0, 1.0])


def test_hermitian_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = random_hermitian(rng, 12)
        values, vectors = hermitian_eig(m)
        assert np.all(np.diff(values) >= -1e-12)
        assert np.abs(vectors.conj().T @ vectors - np.eye(12)).max() < 1e-10
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.abs(rebuilt - m).max() < 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_projector_is_fixed_point():
    rng = np.random.default_rng(4)
    psi = random_pure(rng, 6)
    projector = np.outer(psi, psi.conj())
    assert np.abs(psd_sqrt(projector) - projector).max() < 1e-10


def test_psd_sqrt_squares_to_input():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = a.conj().T @ a
        root = psd_sqrt(m)
        assert np.abs(root @ root - m).max() < 1e-9


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_check_density_accepts_valid():
    rng = np.random.default_rng(6)
    check_density(random_density(rng, 5))


@pytest.mark.parametrize(
    "rho,message",
    [
        (np.eye(3) / 2.0, "trace"),
        (np.array([[1.0, 0.5], [0.0, 0.0]]), "Hermitian"),
        (np.diag([1.5, -0.5]), "not PSD"),
    ],
)
def test_check_density_rejects_invalid(rho, message):
    with pytest.raises(ValueError, match=message):
        check_density(rho)
