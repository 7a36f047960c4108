"""Independent reference routines used as test oracles.

Everything here deliberately avoids the code paths under test: products
are computed with explicit loops, evolution with explicit matrix powers,
and matrix square roots via scipy's Schur-based algorithm.
``dense_walk_operators`` assembles the coin block by block from
``grover_diffusion`` (``coin_operator``), the shift as a permutation matrix
(``shift_operator``) and the step as their product: the dense assembly that
``walk_unitary`` replaced by materialising the matrix-free step. The dense
density-matrix routes (``evolve_density``, ``noisy_state``) build the
channel output as a ``dim x dim`` matrix, which the library's closed-form
noisy fidelity never does; ``noisy_state`` applies the channel as a sum of
dense Weyl-matrix Kraus products (``weyl_operator``, ``dense_kraus_set``,
``dense_apply_channel``), where the library stores only the diagonals.
``reference_step`` is the walk step as it was before it applied its factors
in place on its own temporaries. ``reference_graph`` and
``reference_edge_space`` are the tuple/set/dict graph layer the
array-native one replaced. ``dephased_fidelity`` and
``stepwise_series`` are the per-state closed form and the per-step readout
loop that the runner's single overlap pass and combine step replaced.
``support_block_fidelity`` is the runner's former stride-25 cross-check: the
channel applied to the ``|S| x |S|`` block of ``S = supp(target)`` and the
general density formula, which the runner's ``O(|S|)`` Kraus sum replaced.
The density-matrix layer the library no longer ships lives here alone:
``check_density``, ``psd_sqrt`` and the pure-state check ``_check_pure``, the
three fidelity routes (``fidelity_pure``, the general ``fidelity_density`` and
the pure-target shortcut ``fidelity_pure_target``) and ``apply_channel``, the
channel on a density matrix from the ``kraus_set`` diagonals in ``O(dim^2)``.
``iterate`` applies the step ``t`` times to a state, as the runner does.
``reference_write_csv``, ``reference_render_svg`` and
``reference_write_matrix_csv`` are the writers as they were before they
formatted from ``tolist()`` and numpy coordinate arrays: one numpy scalar at
a time, the title escaped by ``xml.sax.saxutils``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple
from xml.sax.saxutils import escape

import numpy as np

from qwalk.channels import (
    NoiseChannel,
    _checked_kernel,
    _z_diagonal,
    kraus_set,
    oun_channel,
    rtn_channel,
)
from qwalk.graphs import DirectedEdgeSpace, Graph, edge_space
from qwalk.operators import (
    NORM_ATOL,
    UNITARY_ATOL,
    WalkOperators,
    WalkStep,
    receiver_state,
    sender_state,
    walk_step,
)
from qwalk.output import (
    _BOTTOM,
    _COLORS,
    _HEIGHT,
    _LEFT,
    _RIGHT,
    _TOP,
    _WIDTH,
    CSV_HEADER,
    _x_ticks,
)
from qwalk.scenarios import FidelitySeries, clamp_fidelity, scenario_graph


HERMITIAN_ATOL = 1e-10  # max |M - M†|
PSD_EIGENVALUE_FLOOR = -1e-10  # eigenvalues above this are clamped to 0
DENSITY_TRACE_ATOL = 1e-10


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    The input must be Hermitian to within ``HERMITIAN_ATOL``; it is
    symmetrized before decomposition. Eigenvalues in
    ``[PSD_EIGENVALUE_FLOOR, 0)`` are treated as round-off and clamped to 0;
    anything below the floor is rejected as genuinely non-PSD input.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    if float(np.abs(m - m.conj().T).max()) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    if eigenvalues.min() < PSD_EIGENVALUE_FLOOR:
        raise ValueError(
            f"matrix is not positive semidefinite: smallest eigenvalue {eigenvalues.min():.3e}"
        )
    clamped = np.clip(eigenvalues, 0.0, None)
    # Rank-deficient inputs carry eps-size noise eigenvalues whose square
    # roots would be O(1e-8); zero everything below the numerical rank floor.
    floor = clamped.size * np.finfo(float).eps * clamped.max()
    clamped[clamped < floor] = 0.0
    root = (eigenvectors * np.sqrt(clamped)) @ eigenvectors.conj().T
    return 0.5 * (root + root.conj().T)


def check_density(rho, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Validate a density matrix: square, Hermitian, unit trace, PSD.

    Returns the input as a complex array. ``dim``, when given, pins the
    expected dimension.
    """
    rho = _as_matrix(rho, name)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"{name} has dimension {rho.shape[0]}, expected {dim}")
    if float(np.abs(rho - rho.conj().T).max()) > HERMITIAN_ATOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > DENSITY_TRACE_ATOL:
        raise ValueError(f"{name} has trace {trace:.12g}, expected 1")
    smallest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if smallest < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"{name} is not PSD: smallest eigenvalue {smallest:.3e}")
    return rho


def _check_pure(psi, name: str) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"{name} is not normalized: |{name}| = {norm:.12g}")
    return psi


def fidelity_pure(psi, phi) -> float:
    """``|<psi|phi>|^2`` for two normalized state vectors."""
    psi = _check_pure(psi, "psi")
    phi = _check_pure(phi, "phi")
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    return float(clamp_fidelity(abs(np.vdot(psi, phi)) ** 2))


def fidelity_density(rho, sigma) -> float:
    """``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2`` for two density matrices."""
    rho = check_density(rho, name="rho")
    sigma = check_density(sigma, dim=rho.shape[0], name="sigma")
    root = psd_sqrt(rho)
    inner = root @ sigma @ root
    trace = float(np.trace(psd_sqrt(0.5 * (inner + inner.conj().T))).real)
    return float(clamp_fidelity(trace**2))


def fidelity_pure_target(rho, phi) -> float:
    """``<phi|rho|phi>``: the density-density fidelity when the target is pure."""
    phi = _check_pure(phi, "phi")
    rho = check_density(rho, dim=phi.shape[0], name="rho")
    return float(clamp_fidelity(np.vdot(phi, rho @ phi).real))


def apply_channel(rho, ks) -> np.ndarray:
    """Apply ``rho -> sum_i K_i rho K_i†`` (``K_i = diag(k_i)``) to a density matrix in ``O(dim^2)``."""
    dim = ks[0].shape[0]
    rho = check_density(rho, dim=dim)
    out = np.zeros_like(rho)
    for k in ks:
        out += k[:, None] * rho * k.conj()[None, :]
    return out


def naive_matmul(a, b) -> np.ndarray:
    """Element-wise triple-loop matrix product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def grover_diffusion(d: int) -> np.ndarray:
    """The d-dimensional reflection about the uniform state.

    Entries are ``2/d - 1`` on the diagonal and ``2/d`` elsewhere; for
    ``d == 1`` this is the scalar ``[1]`` and for ``d == 2`` the swap.
    """
    if d < 1:
        raise ValueError(f"coin dimension must be >= 1, got {d}")
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def coin_operator(graph: Graph, sender: int, receiver: int) -> np.ndarray:
    """Block-diagonal coin: per-vertex Grover blocks, sender/receiver negated."""
    space = edge_space(graph)
    coin = np.zeros((space.dim, space.dim))
    marked = {sender, receiver}
    for v in range(graph.n):
        start, stop = space.starts[v : v + 2]
        block = grover_diffusion(graph.degree(v))
        if v in marked:
            block = -block
        coin[start:stop, start:stop] = block
    return coin


def shift_operator(space: DirectedEdgeSpace) -> np.ndarray:
    """Permutation matrix that sends edge ``(u, v)`` to ``(v, u)``."""
    shift = np.zeros((space.dim, space.dim))
    shift[space.reverse_of, np.arange(space.dim)] = 1.0
    return shift


def dense_walk_operators(graph: Graph, sender: int, receiver: int) -> WalkOperators:
    """The coin, shift and step ``shift @ coin`` assembled as dense matrices."""
    coin = coin_operator(graph, sender, receiver)
    shift = shift_operator(edge_space(graph))
    return WalkOperators(coin=coin, shift=shift, unitary=shift @ coin)


def iterate(step: WalkStep, psi: np.ndarray, t: int) -> np.ndarray:
    """``psi`` after ``t`` applications of ``step``."""
    for _ in range(t):
        psi = step(psi)
    return psi


def reference_step(step: WalkStep, psi: np.ndarray) -> np.ndarray:
    """``step(psi)`` as one expression of fresh arrays, each factor applied out of place."""
    block_means = (np.add.reduceat(psi, step.starts).T * step.two_over_degree).T
    return (step.sign * (block_means[step.block_of] - psi).T).T[step.reverse_of]


def power_evolved(unitary, psi0, t: int) -> np.ndarray:
    """State after ``t`` steps via an explicitly precomputed matrix power."""
    return np.linalg.matrix_power(np.asarray(unitary, dtype=complex), t) @ np.asarray(
        psi0, dtype=complex
    )


def evolve_density(ops: WalkOperators, rho0, t: int) -> np.ndarray:
    """Conjugate a density matrix by the step unitary ``t`` times."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    rho = check_density(rho0, dim=ops.dim)
    u_dag = ops.unitary.conj().T
    for _ in range(t):
        rho = ops.unitary @ rho @ u_dag
    return rho


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


def dense_kraus_set(channel: NoiseChannel, t: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The channel's two Kraus operators at time ``t`` in dimension ``dim`` as dense Weyl matrices.

    The kernel value is clamped into ``[-1, 1]``; the completeness relation
    ``sum K†K = I`` is verified with a matrix product.
    """
    kappa = min(1.0, max(-1.0, channel.kernel(t)))
    k1 = math.sqrt((1.0 + kappa) / 2.0) * weyl_operator(dim, 0, 0)
    k2 = math.sqrt((1.0 - kappa) / 2.0) * weyl_operator(dim, 1, 0)
    total = k1.conj().T @ k1 + k2.conj().T @ k2
    if float(np.abs(total - np.eye(dim)).max()) > UNITARY_ATOL:
        raise RuntimeError("Kraus completeness relation violated")
    for k in (k1, k2):
        k.flags.writeable = False
    return k1, k2


def dense_apply_channel(rho, ks) -> np.ndarray:
    """Apply ``rho -> sum_i K_i rho K_i†`` with dense Kraus matrices."""
    dim = ks[0].shape[0]
    rho = check_density(rho, dim=dim)
    out = np.zeros_like(rho)
    for k in ks:
        out += k @ rho @ k.conj().T
    return out


def noisy_state(ops: WalkOperators, psi0, channel: NoiseChannel, t: int) -> np.ndarray:
    """Density matrix after ``t`` noiseless steps followed by one channel pass.

    The channel is evaluated at time ``t`` (walk steps and channel time
    share the same clock) and applied once to ``|psi_t><psi_t|``.
    """
    if np.shape(psi0) != (ops.dim,):
        raise ValueError(f"state shape {np.shape(psi0)} != walk dimension {ops.dim}")
    psi_t = power_evolved(ops.unitary, psi0, t)
    rho_t = np.outer(psi_t, psi_t.conj())
    return dense_apply_channel(rho_t, dense_kraus_set(channel, t, ops.dim))


def dephased_fidelity(channel: NoiseChannel, t: float, psi, phi) -> float:
    """``<phi| E_t(|psi><psi|) |phi>`` for the channel ``E_t`` at time ``t``, in ``O(dim)``.

    Both Kraus operators are diagonal, so the fidelity is the kernel-weighted
    mix ``(1 + kappa)/2 |<phi|psi>|^2 + (1 - kappa)/2 |<phi|Z psi>|^2``, here
    evaluated for one state at a time.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.ndim != 1 or psi.shape != phi.shape:
        raise ValueError(
            f"states have shapes {psi.shape} and {phi.shape}, expected two equal-length vectors"
        )
    kappa = _checked_kernel(channel, t)
    kept = abs(np.vdot(phi, psi)) ** 2
    flipped = abs(np.vdot(phi, _z_diagonal(len(psi)) * psi)) ** 2
    return float(clamp_fidelity((1.0 + kappa) / 2.0 * kept + (1.0 - kappa) / 2.0 * flipped))


def stepwise_series(sc) -> tuple[np.ndarray, np.ndarray | None]:
    """A scenario's ``(noiseless, noisy)`` series read out state by state.

    At every step ``fidelity_pure`` (with its norm checks) and, with noise,
    :func:`dephased_fidelity` evaluate ``psi_t`` on their own; ``noisy`` is
    None without noise.
    """
    step = walk_step(scenario_graph(sc), sc.sender, sc.receiver)
    psi = sender_state(step)
    target = psi if sc.mode == "periodicity" else receiver_state(step, sc.receiver_mode)
    channel = None
    if sc.noise == "rtn":
        channel = rtn_channel(a=sc.rtn_a, gamma=sc.rtn_gamma)
    elif sc.noise == "oun":
        channel = oun_channel(lam=sc.oun_lambda, gamma=sc.oun_gamma)

    noiseless = np.empty(sc.steps + 1)
    noisy = None if channel is None else np.empty(sc.steps + 1)
    for t in range(sc.steps + 1):
        if t > 0:
            psi = step(psi)
        noiseless[t] = fidelity_pure(psi, target)
        if channel is not None:
            noisy[t] = dephased_fidelity(channel, t, psi, target)
    return noiseless, noisy


def support_block_fidelity(channel: NoiseChannel, t: int, dim: int, a: np.ndarray,
                           support: np.ndarray, phi: np.ndarray) -> float:
    """The noisy fidelity by the dense Kraus route on ``S = supp(target)``.

    The Kraus operators are diagonal, so ``(K rho K†)_SS = K_SS rho_SS K_SS†`` and
    ``<phi|E(|psi><psi|)|phi> = p F(E_S(a a†/p), phi_S phi_S†)`` with ``a = psi_S``,
    ``p = |a|^2`` and ``phi = phi_S``: ``|S| x |S|`` matrices, ``|S|`` the receiver's
    (in-)degree. Without weight on ``S`` the fidelity is 0 and the density route
    is skipped. The arguments are those of the runner's ``_dense_fidelity``.
    """
    p = float(np.vdot(a, a).real)
    ks = kraus_set(channel, t, dim)
    if not (p > 0.0 and np.isfinite(p)):  # no weight on S, or a state the norm check rejects
        return 0.0
    block = tuple(k[support] for k in ks)
    rho = apply_channel(np.outer(a, a.conj()) / p, block)
    return p * fidelity_density(rho, np.outer(phi, phi.conj()))


def uhlmann_fidelity_scipy(rho, sigma) -> float:
    """Density-density fidelity via scipy's Schur-based matrix square root."""
    from scipy.linalg import sqrtm

    root = sqrtm(np.asarray(rho, dtype=complex))
    inner = sqrtm(root @ np.asarray(sigma, dtype=complex) @ root)
    return float(np.trace(inner).real) ** 2


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_simple_graph(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random simple graph on ``n`` vertices with minimum degree >= 1.

    A random spanning tree guarantees no isolated vertex; extra edges are
    sprinkled on top.
    """
    edges = {(min(v, u), max(v, u)) for v in range(1, n) for u in [int(rng.integers(0, v))]}
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        u, v = rng.choice(n, size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def arcs(space) -> list[tuple[int, int]]:
    """The arc ``(tail, head)`` at every basis index of a ``DirectedEdgeSpace``.

    The tail of arc ``k`` is the vertex whose block holds ``k``; its head is
    the tail of ``reverse_of[k]``.
    """
    tails = np.repeat(np.arange(len(space.starts) - 1), np.diff(space.starts))
    return list(zip(tails.tolist(), tails[space.reverse_of].tolist()))


class ReferenceGraph(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]


class ReferenceEdgeSpace(NamedTuple):
    """The directed-edge basis as sorted arc tuples plus per-vertex index lists."""

    edges: tuple[tuple[int, int], ...]
    index_of: dict[tuple[int, int], int]
    reverse_of: tuple[int, ...]
    out_blocks: tuple[tuple[int, int], ...]
    in_edges: tuple[tuple[int, ...], ...]


def reference_graph(n: int, edges) -> ReferenceGraph:
    """Validate and canonicalize a simple graph with a set and Python loops."""
    if n < 2:
        raise ValueError(f"graph needs at least 2 vertices, got n={n}")
    canonical: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed in a simple graph")
        e = (u, v) if u < v else (v, u)
        if e not in seen:
            seen.add(e)
            canonical.append(e)
    canonical.sort()
    # m edges touch at most 2m vertices; rejecting a larger n here keeps a
    # huge claimed vertex count from allocating the degree table below.
    if n > 2 * len(canonical):
        raise ValueError(
            f"isolated vertex: {len(canonical)} edge(s) touch at most "
            f"{2 * len(canonical)} of the n={n} vertices"
        )
    degrees = [0] * n
    for u, v in canonical:
        degrees[u] += 1
        degrees[v] += 1
    isolated = [v for v, d in enumerate(degrees) if d == 0]
    if isolated:
        raise ValueError(f"isolated vertex (degree 0): {isolated[0]}")
    return ReferenceGraph(n=n, edges=tuple(canonical), degrees=tuple(degrees))


def reference_edge_space(g: ReferenceGraph) -> ReferenceEdgeSpace:
    """Construct the lexicographic directed-edge basis of ``g``.

    Every undirected edge contributes both orientations; sorting the
    directed pairs lexicographically makes the outgoing edges of vertex
    ``i`` a contiguous block of length ``deg(i)`` starting at
    ``sum(deg(j) for j < i)``.
    """
    directed: list[tuple[int, int]] = []
    for u, v in g.edges:
        directed.append((u, v))
        directed.append((v, u))
    directed.sort()
    index_of = {e: k for k, e in enumerate(directed)}
    reverse_of = tuple(index_of[(v, u)] for (u, v) in directed)

    out_blocks: list[tuple[int, int]] = []
    start = 0
    for v in range(g.n):
        d = g.degrees[v]
        out_blocks.append((start, start + d))
        start += d

    incoming: list[list[int]] = [[] for _ in range(g.n)]
    for k, (_, v) in enumerate(directed):
        incoming[v].append(k)

    return ReferenceEdgeSpace(
        edges=tuple(directed),
        index_of=index_of,
        reverse_of=reverse_of,
        out_blocks=tuple(out_blocks),
        in_edges=tuple(tuple(ks) for ks in incoming),
    )


def reference_write_csv(series: FidelitySeries, path) -> None:
    """``qwalk.output.write_csv`` formatting one numpy scalar per value."""

    def _fmt(value: float) -> str:
        return f"{value:.12g}"

    lines = [CSV_HEADER]
    for t, value in enumerate(series.noiseless):
        noisy = _fmt(series.noisy[t]) if series.noisy is not None else ""
        lines.append(f"{t},{_fmt(value)},{noisy}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def reference_write_matrix_csv(matrix, path: str | Path) -> None:
    """``qwalk.output.write_matrix_csv`` formatting one numpy scalar per entry."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {matrix.shape}")
    lines = [",".join(f"{value:.6f}" for value in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def reference_render_svg(series: FidelitySeries, path: str | Path, title: str) -> None:
    """``qwalk.output.render_svg`` formatting one numpy scalar per coordinate."""
    n_points = len(series.noiseless)
    if n_points < 1:
        raise ValueError("cannot render an empty series")
    t_max = max(n_points - 1, 1)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(t: float) -> float:
        return _LEFT + plot_w * t / t_max

    def py(f: float) -> float:
        return _TOP + plot_h * (1.0 - f)

    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]

    # Axes and gridlines.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(
            f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_LEFT + plot_w}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{frac:g}</text>'
        )
    for tick in _x_ticks(t_max):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_TOP + plot_h}" x2="{x:.1f}" y2="{_TOP + plot_h + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tick}</text>'
        )
    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">time step</text>'
    )
    parts.append(
        f'<text x="20" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_TOP + plot_h / 2:.1f})">fidelity</text>'
    )

    curves = [("noiseless", series.noiseless)]
    if series.noisy is not None:
        curves.append(("noisy", series.noisy))

    for label, values in curves:
        color = _COLORS[label]
        points = " ".join(f"{px(t):.2f},{py(v):.2f}" for t, v in enumerate(values))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if n_points == 1:
            parts.append(
                f'<circle cx="{px(0):.2f}" cy="{py(values[0]):.2f}" r="3.5" fill="{color}"/>'
            )

    # Legend, top-right inside the plot area.
    legend_x = _LEFT + plot_w - 130
    for i, (label, _) in enumerate(curves):
        y = _TOP + 16 + 18 * i
        color = _COLORS[label]
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 32}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
