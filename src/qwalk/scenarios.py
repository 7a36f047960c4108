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

from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    OUN_DEFAULT_GAMMA,
    OUN_DEFAULT_LAMBDA,
    RTN_DEFAULT_A,
    RTN_DEFAULT_GAMMA,
    NoiseChannel,
    apply_channel,
    dephased_fidelity,
    kraus_set,
    oun_channel,
    oun_kernel,
    rtn_channel,
    rtn_kernel,
)
from .fidelity import fidelity_density, fidelity_pure
from .graphs import Graph, load_graph_file, standard_family
from .operators import RECEIVER_MODES, receiver_state, sender_state, walk_spec, walk_step

__all__ = [
    "Scenario",
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

# The closed-form noisy fidelity is cross-checked against the dense Kraus
# channel and the general density formula every this many steps.
_CROSS_CHECK_STRIDE = 25
_CROSS_CHECK_ATOL = 1e-9


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
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.mode == "periodicity":
            if self.receiver is None:
                object.__setattr__(self, "receiver", self.sender)
            elif self.receiver != self.sender:
                raise ValueError(
                    f"periodicity requires receiver == sender, got {self.receiver} != {self.sender}"
                )
        elif self.receiver is None:
            raise ValueError("transfer mode requires a receiver vertex")
        # One kernel evaluation rejects bad noise parameters (including the
        # RTN regime a/gamma <= 0.5) before any graph or operator is built.
        if self.noise == "rtn":
            rtn_kernel(0.0, self.rtn_a, self.rtn_gamma)
        elif self.noise == "oun":
            oun_kernel(0.0, self.oun_lambda, self.oun_gamma)


@dataclass(frozen=True)
class FidelitySeries:
    """Per-step fidelities for ``t = 0 .. steps``; ``noisy`` is None without noise."""

    noiseless: np.ndarray
    noisy: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("noiseless", "noisy"):
            values = getattr(self, name)
            if values is None:
                continue
            values = np.array(values, dtype=float)
            if values.ndim != 1 or len(values) < 1:
                raise ValueError(f"{name} series must be a nonempty vector")
            if values.min() < 0.0 or values.max() > 1.0:
                raise ValueError(f"{name} series has values outside [0, 1]")
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


def _scenario_channel(sc: Scenario, dim: int) -> NoiseChannel | None:
    if sc.noise == "rtn":
        return rtn_channel(dim, a=sc.rtn_a, gamma=sc.rtn_gamma)
    if sc.noise == "oun":
        return oun_channel(dim, lam=sc.oun_lambda, gamma=sc.oun_gamma)
    return None


def run_scenario(sc: Scenario) -> FidelitySeries:
    """Run one scenario and collect its fidelity series in one streaming pass.

    Only the current state ``psi_t`` is kept, and each step is the
    matrix-free :func:`~qwalk.operators.walk_step`: ``O(2m)`` time and no
    ``dim x dim`` array. At every step the noiseless fidelity is
    ``|<target|psi_t>|^2``; with noise, the noisy fidelity is the
    closed form ``(1 + kappa(t))/2 |<target|psi_t>|^2 + (1 - kappa(t))/2
    |<target|Z psi_t>|^2`` (:func:`~qwalk.channels.dephased_fidelity`). Every
    ``_CROSS_CHECK_STRIDE`` steps it is checked against the dense route: the
    Kraus channel applied to ``|psi_t><psi_t|`` and the general
    density-matrix fidelity. A mismatch raises ``RuntimeError``.
    """
    graph = scenario_graph(sc)
    spec = walk_spec(graph, sc.sender, sc.receiver)
    step = walk_step(spec)
    psi = sender_state(spec)
    if sc.mode == "periodicity":
        target = sender_state(spec)
    else:
        target = receiver_state(spec, sc.receiver_mode)
    channel = _scenario_channel(sc, spec.space.dim)

    noiseless = np.empty(sc.steps + 1)
    noisy = None if channel is None else np.empty(sc.steps + 1)
    for t in range(sc.steps + 1):
        if t > 0:
            psi = step(psi)
        noiseless[t] = fidelity_pure(psi, target)
        if channel is None:
            continue
        noisy[t] = dephased_fidelity(channel, t, psi, target)
        if t % _CROSS_CHECK_STRIDE == 0:
            _cross_check(channel, t, psi, target, noisy[t])
    return FidelitySeries(noiseless=noiseless, noisy=noisy)


def _cross_check(channel: NoiseChannel, t: int, psi: np.ndarray, target: np.ndarray,
                 closed_form: float) -> None:
    rho = apply_channel(np.outer(psi, psi.conj()), kraus_set(channel, t))
    dense = fidelity_density(rho, np.outer(target, target.conj()))
    if abs(dense - closed_form) > _CROSS_CHECK_ATOL:
        raise RuntimeError(
            f"fidelity cross-check failed at t={t}: "
            f"closed form {closed_form:.12g} vs dense {dense:.12g}"
        )


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
    """Run the full bundled case-study suite and return the named series."""
    return [(name, run_scenario(sc)) for name, sc in case_study_scenarios()]


def peak_steps(values, ratio: float = 0.9) -> list[int]:
    """Steps that are local maxima and exceed ``ratio`` of the series maximum.

    A step counts as a peak when its value is at least each existing
    neighbour's value and strictly above ``ratio * max(values)``.
    """
    values = np.asarray(values, dtype=float)
    top = values.max()
    peaks = []
    for t, v in enumerate(values):
        if v <= ratio * top:
            continue
        if t > 0 and v < values[t - 1]:
            continue
        if t < len(values) - 1 and v < values[t + 1]:
            continue
        peaks.append(t)
    return peaks


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


def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
    """Build a scenario from flat string keys (config file or CLI values).

    Recognized keys mirror the :class:`Scenario` fields; ``size`` takes one
    integer or two comma-separated integers, and ``state_transfer`` is
    accepted as an alias of ``transfer``.
    """
    known = {
        "graph", "size", "sender", "receiver", "mode", "receiver_mode",
        "noise", "rtn_a", "rtn_gamma", "oun_lambda", "oun_gamma", "steps",
    }
    unknown = set(mapping) - known
    if unknown:
        raise ValueError(f"unknown scenario key(s): {sorted(unknown)}")
    if "graph" not in mapping:
        raise ValueError("scenario needs a 'graph' entry")

    kwargs: dict[str, object] = {"graph": mapping["graph"]}
    if "size" in mapping:
        kwargs["size"] = tuple(int(part) for part in mapping["size"].split(",") if part.strip())
    for key in ("sender", "receiver", "steps"):
        if key in mapping:
            kwargs[key] = int(mapping[key])
    for key in ("rtn_a", "rtn_gamma", "oun_lambda", "oun_gamma"):
        if key in mapping:
            kwargs[key] = float(mapping[key])
    for key in ("receiver_mode", "noise"):
        if key in mapping:
            kwargs[key] = mapping[key]
    if "mode" in mapping:
        mode = mapping["mode"]
        kwargs["mode"] = "transfer" if mode == "state_transfer" else mode
    return Scenario(**kwargs)


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
