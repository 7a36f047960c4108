"""Config-driven scenario runner and the bundled case-study suite.

A scenario bundles a graph, the sender/receiver placement, the receiver
convention, a noise setting and a step count; running it produces the
per-step fidelity of the evolved walker against the target state (the
receiver state for a transfer experiment, the initial sender state for a
periodicity experiment).

The bundled suite covers the canonical path/cycle/star/complete-bipartite
case studies (transfer between notable vertex pairs plus periodicity at
vertex 0), each under both noise channels. Those scenarios pin the
``outgoing`` receiver convention, which is the one the reference operator
tables and curves for these graphs follow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .channels import (
    OUN_DEFAULT_GAMMA,
    OUN_DEFAULT_LAMBDA,
    RTN_DEFAULT_A,
    RTN_DEFAULT_GAMMA,
    NoiseChannel,
    dephased_series,
    flipped_overlap,
    kraus_set,
    oun_channel,
    rtn_channel,
)
from .graphs import Graph, load_graph_file, standard_family
from .operators import NORM_ATOL, RECEIVER_MODES, receiver_state, sender_state, walk_step

__all__ = [
    "Scenario",
    "SCENARIO_KEYS",
    "FidelitySeries",
    "scenario_graph",
    "run_scenario",
    "case_study_scenarios",
    "paper_suite",
    "peak_steps",
    "parse_scenario_config",
    "scenario_from_mapping",
    "default_name",
]

MODES = ("transfer", "periodicity")
NOISE_KINDS = ("none", "rtn", "oun")

# A raw fidelity this far outside [0, 1] is round-off and clamped; any farther is rejected.
CLAMP_WINDOW = 1e-10
# The closed-form noisy fidelity is cross-checked against the Kraus sum
# sum_i |<phi|K_i psi>|^2 on the target's support, every this many steps
# (computed inside the walk, compared after it).
_CROSS_CHECK_STRIDE = 25
_CROSS_CHECK_ATOL = 1e-9
# A run holds a few float64 series of steps + 1 values (80 MB each here).
MAX_STEPS = 10**7
# Each step's rounding moves the norm by a steady bias: over 10^4-10^5 steps on
# 22 graphs (families from P5 to K(100,100), random graphs up to n = 60) the
# drift grew linearly at up to 0.37 eps per step (K(20,20)), 0.12 eps on S6.
# A run may drift by NORM_ATOL plus 4 eps per step: ten times that rate, and
# still below any steady change of 1e-14 per step, which it flags once
# 1e-14 * steps exceeds the bound (after about 1.1e4 steps).
_NORM_DRIFT_PER_STEP = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class Scenario:
    """One experiment: graph, placement, noise setting and horizon.

    ``graph`` is a family name (``path``, ``cycle``, ``star``, ``kab``)
    with ``size`` holding its size parameter(s), or ``file:<path>`` for a
    custom graph file. Periodicity mode forces ``receiver == sender``; a
    ``receiver`` of ``None`` then defaults to the sender.
    """

    graph: str
    size: tuple[int, ...] = ()
    sender: int = 0
    receiver: int | None = None
    mode: str = "transfer"
    receiver_mode: str = "incoming"
    noise: str = "none"
    rtn_a: float = RTN_DEFAULT_A
    rtn_gamma: float = RTN_DEFAULT_GAMMA
    oun_lambda: float = OUN_DEFAULT_LAMBDA
    oun_gamma: float = OUN_DEFAULT_GAMMA
    steps: int = 100

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        if self.receiver_mode not in RECEIVER_MODES:
            raise ValueError(f"receiver_mode must be one of {RECEIVER_MODES}, got {self.receiver_mode!r}")
        if not 1 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must lie in 1..{MAX_STEPS}, got {self.steps}")
        if self.mode == "periodicity":
            if self.receiver is None:
                object.__setattr__(self, "receiver", self.sender)
            elif self.receiver != self.sender:
                raise ValueError(
                    f"periodicity requires receiver == sender, got {self.receiver} != {self.sender}"
                )
        elif self.receiver is None:
            raise ValueError("transfer mode requires a receiver vertex")
        # A family graph has sum(size) vertices: reject a bad placement before
        # building it (sizes the family rejects keep the family's message).
        if not self.graph.startswith("file:") and self.size and min(self.size) >= 1:
            n = sum(self.size)
            for label, v in (("sender", self.sender), ("receiver", self.receiver)):
                if not 0 <= v < n:
                    raise ValueError(f"{label} vertex {v} outside 0..{n - 1}")
        # The run's kappa at the horizon rejects bad noise parameters (say a/gamma
        # <= 0.5, or an RTN phase overflowing by the end) before any graph is built.
        if self.noise != "none":
            _channel(self, self.noise).kernel(float(self.steps))


# The flat keys a config file or command line may set: the Scenario fields.
SCENARIO_KEYS = tuple(f.name for f in fields(Scenario))


def clamp_fidelity(values):
    """Clamp raw fidelities into ``[0, 1]``; NaN, or a value beyond round-off, raises.

    Round-off is ``CLAMP_WINDOW`` for one value. A series of ``T + 1`` values
    (steps ``0 .. T``) also allows twice the norm drift a ``T``-step walk may
    show, as ``|<phi|psi_t>|^2`` can exceed 1 by twice ``|‖psi_t‖ - 1|``.
    """
    values = np.asarray(values, dtype=float)
    window = CLAMP_WINDOW + 2 * _NORM_DRIFT_PER_STEP * max(values.size - 1, 0)
    outside = ~((values >= -window) & (values <= 1.0 + window))
    if outside.any():
        raise ValueError(f"fidelity {values[outside].flat[0]:.12g} outside [0, 1] beyond round-off")
    return np.clip(values, 0.0, 1.0)


@dataclass(frozen=True)
class FidelitySeries:
    """Per-step fidelities for ``t = 0 .. steps``; ``noisy`` is None without noise.

    The one place a fidelity is clamped into ``[0, 1]``, or rejected beyond
    round-off (:func:`clamp_fidelity`), a whole series at a time.
    """

    noiseless: np.ndarray
    noisy: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("noiseless", "noisy"):
            values = getattr(self, name)
            if values is None:
                continue
            values = clamp_fidelity(values)
            if values.ndim != 1 or len(values) < 1:
                raise ValueError(f"{name} series must be a nonempty vector")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.noisy is not None and self.noisy.shape != self.noiseless.shape:
            raise ValueError("noisy and noiseless series must have equal length")

    @property
    def steps(self) -> int:
        return len(self.noiseless) - 1


def scenario_graph(sc: Scenario) -> Graph:
    """Build the graph a scenario refers to."""
    if sc.graph.startswith("file:"):
        return load_graph_file(sc.graph[len("file:"):])
    return standard_family(sc.graph, *sc.size)


def _channel(sc: Scenario, kind: str) -> NoiseChannel:
    """The scenario's ``kind`` channel (``rtn`` or ``oun``)."""
    if kind == "rtn":
        return rtn_channel(a=sc.rtn_a, gamma=sc.rtn_gamma)
    return oun_channel(lam=sc.oun_lambda, gamma=sc.oun_gamma)


_Checks = dict[str, tuple[NoiseChannel, list[float]]]


def _walk(sc: Scenario, kinds: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray | None, _Checks]:
    """The overlap pass of :func:`run_scenario`: ``(kept, flipped, checks)``.

    ``flipped`` is None when ``kinds`` is empty. For each noise kind in
    ``kinds``, ``checks[kind] = (channel, dense)`` where ``dense[i]`` is the
    Kraus-sum fidelity (:func:`_dense_fidelity`) at ``t = i * _CROSS_CHECK_STRIDE``.
    """
    step = walk_step(scenario_graph(sc), sc.sender, sc.receiver)
    psi = sender_state(step)
    target = psi if sc.mode == "periodicity" else receiver_state(step, sc.receiver_mode)
    support = np.flatnonzero(target)
    phi = target[support]
    checks = {kind: (_channel(sc, kind), []) for kind in kinds}
    kept = np.empty(sc.steps + 1)
    flipped = np.empty(sc.steps + 1) if kinds else None
    for t in range(sc.steps + 1):
        if t > 0:
            psi = step(psi)
        kept[t] = abs(np.vdot(target, psi)) ** 2
        if flipped is not None:
            flipped[t] = flipped_overlap(psi, target)
            if t % _CROSS_CHECK_STRIDE == 0:
                block = psi[support]
                for channel, dense in checks.values():
                    dense.append(_dense_fidelity(channel, t, len(psi), block, support, phi))
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    bound = NORM_ATOL + _NORM_DRIFT_PER_STEP * sc.steps
    if not drift <= bound:  # NaN fails this comparison too
        raise RuntimeError(
            f"state norm drifted by {drift:.3g} over {sc.steps} steps (bound {bound:.3g})"
        )
    return kept, flipped, checks


def _combine(sc: Scenario, kept: np.ndarray, flipped: np.ndarray | None,
             checks: _Checks) -> FidelitySeries:
    """Read a scenario's series out of its walk's overlaps, cross-checking the noisy one."""
    if sc.noise == "none":
        return _walk_series(kept)
    channel, dense = checks[sc.noise]
    noisy = dephased_series(channel, kept, flipped)
    for t, value in zip(range(0, sc.steps + 1, _CROSS_CHECK_STRIDE), dense):
        if abs(value - noisy[t]) > _CROSS_CHECK_ATOL:
            raise RuntimeError(
                f"fidelity cross-check failed at t={t}: "
                f"closed form {noisy[t]:.12g} vs dense {value:.12g}"
            )
    return _walk_series(kept, noisy)


def _walk_series(kept: np.ndarray, noisy: np.ndarray | None = None) -> FidelitySeries:
    try:
        return FidelitySeries(noiseless=kept, noisy=noisy)
    except ValueError as exc:  # a walk's fidelity beyond round-off: a numerical fault
        raise RuntimeError(str(exc)) from None


def run_scenario(sc: Scenario) -> FidelitySeries:
    """Run one scenario: one overlap pass over the walk, then a combine step.

    The pass (:func:`_walk`) iterates the ``O(2m)`` matrix-free step, recording
    ``kept[t] = |<target|psi_t>|^2`` and, with noise, ``flipped[t] = |<target|Z
    psi_t>|^2`` and, every ``_CROSS_CHECK_STRIDE`` steps, the noisy fidelity as
    the Kraus sum on ``supp(target)`` (:func:`_dense_fidelity`): one float per
    check, costing ``O(dim) + O(|S|)``, so a run's memory grows with ``steps``
    only through its ``O(T)`` series. The combine step (:func:`_combine`) clamps
    ``kept`` into the noiseless series, mixes both with ``kappa(t)`` into the
    noisy one (:func:`~qwalk.channels.dephased_series`) and compares it with
    those floats. A norm drift ``|‖psi_T‖ - 1|`` beyond ``NORM_ATOL`` plus
    ``_NORM_DRIFT_PER_STEP`` per step, or a difference beyond
    ``_CROSS_CHECK_ATOL``, raises ``RuntimeError``.
    """
    return _combine(sc, *_walk(sc, () if sc.noise == "none" else (sc.noise,)))


def _dense_fidelity(channel: NoiseChannel, t: int, dim: int, a: np.ndarray, support: np.ndarray,
                    phi: np.ndarray) -> float:
    """The noisy fidelity as the Kraus sum on ``S = supp(target)``.

    ``<phi|E_t(|psi><psi|)|phi> = sum_i |<phi|K_i psi>|^2``, and with diagonal
    ``K_i`` only ``a = psi_S`` and ``phi = phi_S`` enter the sum, ``O(|S|)`` with
    ``|S|`` the receiver's (in-)degree. :func:`~qwalk.channels.kraus_set` builds both
    length-``dim`` diagonals with its own scalar kernel and completeness check, apart from
    the closed form's kernel series and mix, so a check costs ``O(dim) + O(|S|)``: the
    order of one step, once every ``_CROSS_CHECK_STRIDE``.
    """
    return sum(abs(np.vdot(phi, k[support] * a)) ** 2 for k in kraus_set(channel, t, dim))


def _family(graph: str, size: tuple[int, ...], s: int, r: int | None, mode: str) -> Scenario:
    # Case-study scenarios follow the outgoing receiver convention.
    return Scenario(
        graph=graph, size=size, sender=s, receiver=r, mode=mode, receiver_mode="outgoing"
    )


_CASE_FAMILIES: tuple[tuple[str, Scenario], ...] = (
    ("p5_transfer_s0_r4", _family("path", (5,), 0, 4, "transfer")),
    ("p5_transfer_s0_r1", _family("path", (5,), 0, 1, "transfer")),
    ("p5_periodic_v0", _family("path", (5,), 0, None, "periodicity")),
    ("c6_transfer_s0_r3", _family("cycle", (6,), 0, 3, "transfer")),
    ("c6_transfer_s0_r1", _family("cycle", (6,), 0, 1, "transfer")),
    ("c6_periodic_v0", _family("cycle", (6,), 0, None, "periodicity")),
    ("s6_transfer_s0_r1", _family("star", (6,), 0, 1, "transfer")),
    ("s6_transfer_s1_r0", _family("star", (6,), 1, 0, "transfer")),
    ("s6_periodic_v0", _family("star", (6,), 0, None, "periodicity")),
    ("k23_transfer_s0_r1", _family("kab", (2, 3), 0, 1, "transfer")),
    ("k23_periodic_v0", _family("kab", (2, 3), 0, None, "periodicity")),
)


def case_study_scenarios() -> list[tuple[str, Scenario]]:
    """The bundled case studies: every family under both noise channels."""
    return [
        (f"{name}_{noise}", replace(sc, noise=noise))
        for name, sc in _CASE_FAMILIES
        for noise in ("rtn", "oun")
    ]


def paper_suite() -> list[tuple[str, FidelitySeries]]:
    """``run_scenario`` on each of :func:`case_study_scenarios`, walking each family once."""
    suite = []
    for name, family in _CASE_FAMILIES:
        walk = _walk(family, ("rtn", "oun"))
        for noise in ("rtn", "oun"):
            suite.append((f"{name}_{noise}", _combine(replace(family, noise=noise), *walk)))
    return suite


def peak_steps(values, ratio: float = 0.9) -> list[int]:
    """Steps that are local maxima and exceed ``ratio`` of the series maximum.

    A step counts as a peak when its value is at least each existing
    neighbour's value and strictly above ``ratio * max(values)``.
    """
    values = np.asarray(values, dtype=float)
    left = np.r_[-np.inf, values[:-1]]
    right = np.r_[values[1:], -np.inf]
    peaks = (values > ratio * values.max()) & (values >= left) & (values >= right)
    return np.flatnonzero(peaks).tolist()


def parse_scenario_config(text: str) -> dict[str, str]:
    """Parse a flat ``key = value`` scenario config; ``#`` starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


# How scenario_from_mapping reads each key that is not a plain string.
_PARSERS = {
    "size": lambda text: tuple(int(part) for part in text.split(",") if part.strip()),
    "sender": int, "receiver": int, "steps": int,
    "rtn_a": float, "rtn_gamma": float, "oun_lambda": float, "oun_gamma": float,
    "mode": lambda text: "transfer" if text == "state_transfer" else text,
}


def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
    """Build a scenario from flat string keys (config file or CLI values).

    Recognized keys mirror the :class:`Scenario` fields; ``size`` takes one
    integer or two comma-separated integers, and ``state_transfer`` is
    accepted as an alias of ``transfer``.
    """
    unknown = set(mapping) - set(SCENARIO_KEYS)
    if unknown:
        raise ValueError(f"unknown scenario key(s): {sorted(unknown)}")
    if "graph" not in mapping:
        raise ValueError("scenario needs a 'graph' entry")
    values = {}
    for key, text in mapping.items():
        parse = _PARSERS.get(key, str)
        try:
            values[key] = parse(text)
        except ValueError:
            expected = {int: "an integer", float: "a number"}.get(parse, "integers")
            raise ValueError(f"{key}: expected {expected}, got {text!r}") from None
    return Scenario(**values)


def default_name(sc: Scenario) -> str:
    """Deterministic output slug for a scenario."""
    graph = sc.graph.removeprefix("file:")
    graph = graph.rsplit("/", 1)[-1].rsplit(".", 1)[0] or "graph"
    size = "x".join(str(p) for p in sc.size)
    parts = [f"{graph}{size}"]
    if sc.mode == "periodicity":
        parts.append(f"periodic_v{sc.sender}")
    else:
        parts.append(f"transfer_s{sc.sender}_r{sc.receiver}")
    parts.append(sc.noise)
    return "_".join(parts)
