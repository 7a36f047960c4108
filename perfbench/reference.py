"""Independent reference for every CSV the benchmark asks the CLI for.

The model is re-derived here from the edge list alone, without qwalk:

* the basis is the ``2m`` arcs ``(u, v)`` in lexicographic order;
* the coin is a Grover reflection ``2/d J - I`` on each vertex's block of
  outgoing arcs, negated at the sender and the receiver (once when they
  coincide); the step ``U`` is the coin followed by arc reversal;
* the noiseless fidelity is ``|<phi|U^t psi0>|^2``, computed densely;
* the dephasing channel has Kraus operators ``sqrt((1+k)/2) I`` and
  ``sqrt((1-k)/2) Z`` with ``Z = diag(exp(2 pi i j / dim))``, so for a pure
  target ``F = (1+k)/2 |<phi|psi_t>|^2 + (1-k)/2 |<phi|Z psi_t>|^2``,
  with ``k(t)`` from the random-telegraph or Ornstein-Uhlenbeck kernel.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from inputs import OUN_GAMMA, OUN_LAMBDA, RTN_A, RTN_GAMMA, Case

CSV_HEADER = "t,fidelity_noiseless,fidelity_noisy"
MATCH_ATOL = 1e-9
ANCHOR_ATOL = 1e-10
# P5 end to end: perfect transfer 0 -> 4 at these steps (noiseless column).
P5_ANCHORS = {"p5_transfer_s0_r4_rtn": (4, 12, 20), "p5_transfer_s0_r4_oun": (4, 12, 20)}


def kernel(noise: str, t: int) -> float:
    if noise == "rtn":
        nu = math.sqrt((2.0 * RTN_A / RTN_GAMMA) ** 2 - 1.0)
        phase = nu * RTN_GAMMA * t
        value = math.exp(-RTN_GAMMA * t) * (math.cos(phase) + math.sin(phase) / nu)
    else:
        value = math.exp(-(OUN_LAMBDA / 2.0) * (t + (math.exp(-OUN_GAMMA * t) - 1.0) / OUN_GAMMA))
    return min(1.0, max(-1.0, value))


def expected_series(case: Case) -> tuple[np.ndarray, np.ndarray | None]:
    """Noiseless and (with noise) noisy fidelity for ``t = 0 .. steps``."""
    arcs = sorted([(u, v) for u, v in case.edges] + [(v, u) for u, v in case.edges])
    dim = len(arcs)
    index = {arc: k for k, arc in enumerate(arcs)}
    tails = np.array([u for u, _ in arcs])
    heads = np.array([v for _, v in arcs])

    coin = np.zeros((dim, dim))
    for vertex in range(case.n):
        block = np.flatnonzero(tails == vertex)
        d = len(block)
        sign = -1.0 if vertex in (case.sender, case.receiver) else 1.0
        coin[np.ix_(block, block)] = sign * (2.0 / d - np.eye(d))
    reverse = [index[(v, u)] for u, v in arcs]
    step = np.empty_like(coin)
    step[reverse] = coin  # arc reversal applied after the coin

    psi = (tails == case.sender).astype(float)
    psi /= np.linalg.norm(psi)
    if case.mode == "periodicity":
        target = psi.copy()
    else:
        ends = heads if case.receiver_mode == "incoming" else tails
        target = (ends == case.receiver).astype(float)
        target /= np.linalg.norm(target)
    z_target = target * np.exp(-2j * np.pi * np.arange(dim) / dim)

    direct = np.empty(case.steps + 1)
    dephased = np.empty(case.steps + 1)
    for t in range(case.steps + 1):
        direct[t] = (target @ psi) ** 2
        dephased[t] = abs(z_target @ psi) ** 2
        psi = step @ psi
    if case.noise == "none":
        return direct, None
    kappa = np.array([kernel(case.noise, t) for t in range(case.steps + 1)])
    return direct, (1 + kappa) / 2 * direct + (1 - kappa) / 2 * dephased


def check_csv(path: Path, case: Case, expected) -> list[str]:
    """Every way the CSV at ``path`` disagrees with the reference; empty if none."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path.name}: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != case.steps + 1:
        return [f"{path.name}: {len(rows)} rows, expected {case.steps + 1}"]
    direct, noisy = expected
    problems = []
    got_direct: list[float | None] = []
    for t, row in enumerate(rows):
        if len(row) != 3 or row[0] != str(t) or (row[2] == "") != (noisy is None):
            problems.append(f"{path.name}: malformed row {t}: {lines[t + 1]!r}")
            got_direct.append(None)
            continue
        columns = [(row[1], direct[t])] + ([] if noisy is None else [(row[2], noisy[t])])
        for column, (text, want) in enumerate(columns):
            try:
                got = float(text)
            except ValueError:
                got = math.nan
            if column == 0:
                got_direct.append(got)
            if not 0.0 <= got <= 1.0:
                problems.append(f"{path.name}: fidelity {text!r} outside [0, 1] at t={t}")
            elif abs(got - want) > MATCH_ATOL:
                problems.append(f"{path.name}: t={t} got {got!r}, reference {want!r}")
    for t in P5_ANCHORS.get(case.name, ()):
        got = got_direct[t]
        if got is None or not abs(got - 1.0) <= ANCHOR_ATOL:
            problems.append(f"{path.name}: P5 anchor F(t={t}) = {got}, expected 1")
    return problems


def check_svg(path: Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not text.startswith("<?xml") or not text.endswith("</svg>\n") or "<polyline" not in text:
        return [f"{path.name}: not a complete SVG chart"]
    return []
