"""The dense density-matrix kernels of the test oracles (``psd_sqrt``, ``check_density``)
and the matrix-product oracle, checked on the walk operators and on random matrices."""

from __future__ import annotations

import numpy as np
import pytest

from qwalk.graphs import cycle_graph, path_graph, star_graph
from qwalk.operators import walk_spec, walk_unitary

from .oracles import check_density, naive_matmul, psd_sqrt, random_density, random_pure


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


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
