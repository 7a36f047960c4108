from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qwalk.channels import apply_channel, kraus_set, oun_channel, rtn_channel
from qwalk.fidelity import fidelity_density
from qwalk.operators import receiver_state, sender_state, walk_spec, walk_unitary
from qwalk.scenarios import (
    FidelitySeries,
    Scenario,
    case_study_scenarios,
    default_name,
    parse_scenario_config,
    peak_steps,
    run_scenario,
    scenario_from_mapping,
    scenario_graph,
)

from .oracles import random_simple_graph


def test_scenario_validation():
    with pytest.raises(ValueError, match="mode"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, mode="diffusion")
    with pytest.raises(ValueError, match="noise"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, noise="white")
    with pytest.raises(ValueError, match="receiver_mode"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, receiver_mode="both")
    with pytest.raises(ValueError, match="steps"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, steps=0)
    with pytest.raises(ValueError, match="requires a receiver"):
        Scenario(graph="path", size=(5,), sender=0)
    with pytest.raises(ValueError, match="a/gamma"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, noise="rtn", rtn_gamma=0.5)
    with pytest.raises(ValueError, match="positive"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, noise="oun", oun_gamma=0.0)


def test_periodicity_forces_receiver():
    sc = Scenario(graph="path", size=(5,), sender=2, mode="periodicity")
    assert sc.receiver == 2
    with pytest.raises(ValueError, match="receiver == sender"):
        Scenario(graph="path", size=(5,), sender=0, receiver=3, mode="periodicity")


def test_scenario_graph_families_and_files(tmp_path):
    assert scenario_graph(Scenario(graph="cycle", size=(6,), sender=0, receiver=3)).n == 6
    assert scenario_graph(Scenario(graph="kab", size=(2, 3), sender=0, receiver=1)).m == 6
    path = tmp_path / "custom.txt"
    path.write_text("3\n0 1\n1 2\n")
    sc = Scenario(graph=f"file:{path}", sender=0, receiver=2)
    assert scenario_graph(sc).n == 3


def test_noiseless_series_has_no_noisy_column():
    series = run_scenario(Scenario(graph="path", size=(5,), sender=0, receiver=4, steps=8))
    assert series.noisy is None
    assert series.steps == 8
    assert len(series.noiseless) == 9


def test_periodicity_starts_at_one():
    series = run_scenario(
        Scenario(graph="cycle", size=(6,), sender=0, mode="periodicity", noise="oun", steps=12)
    )
    assert abs(series.noiseless[0] - 1.0) < 1e-12
    assert abs(series.noisy[0] - 1.0) < 1e-12


def test_transfer_starts_at_overlap():
    series = run_scenario(
        Scenario(graph="path", size=(5,), sender=0, receiver=4, receiver_mode="outgoing", steps=6)
    )
    assert series.noiseless[0] == 0.0
    assert abs(series.noiseless[4] - 1.0) < 1e-12


def test_noisy_series_within_bounds():
    series = run_scenario(
        Scenario(graph="star", size=(6,), sender=1, receiver=0, noise="rtn", steps=40)
    )
    assert series.noisy is not None
    assert series.noisy.min() >= 0.0
    assert series.noisy.max() <= 1.0


def test_fidelity_series_validation():
    with pytest.raises(ValueError, match="outside"):
        FidelitySeries(noiseless=np.array([0.5, 1.2]))
    with pytest.raises(ValueError, match="equal length"):
        FidelitySeries(noiseless=np.array([0.5]), noisy=np.array([0.5, 0.6]))
    series = FidelitySeries(noiseless=np.array([0.5, 0.25]))
    with pytest.raises(ValueError):
        series.noiseless[0] = 0.9


def test_case_study_composition():
    cases = case_study_scenarios()
    names = [name for name, _ in cases]
    assert len(cases) == 22
    assert len(set(names)) == 22
    assert sum(1 for n in names if n.endswith("_rtn")) == 11
    assert sum(1 for n in names if n.endswith("_oun")) == 11
    for name, sc in cases:
        assert sc.steps == 100
        assert sc.noise in ("rtn", "oun")
        if sc.mode == "transfer":
            assert sc.receiver_mode == "outgoing"


def test_peak_steps_rule():
    values = [0.0, 0.2, 1.0, 0.2, 0.95, 0.1, 0.5]
    assert peak_steps(values) == [2, 4]
    # below-threshold local maxima are ignored
    assert peak_steps(values, ratio=0.4) == [2, 4, 6]
    assert peak_steps([1.0]) == [0]


def test_parse_scenario_config():
    text = """
    # transfer on the path graph
    graph = path
    size = 5
    sender = 0
    receiver = 4     # far end
    mode = transfer
    noise = rtn
    steps = 24
    """
    mapping = parse_scenario_config(text)
    sc = scenario_from_mapping(mapping)
    assert sc.graph == "path"
    assert sc.size == (5,)
    assert sc.receiver == 4
    assert sc.noise == "rtn"
    assert sc.steps == 24


def test_parse_scenario_config_rejects_bad_lines():
    with pytest.raises(ValueError, match="key = value"):
        parse_scenario_config("graph path\n")


def test_scenario_from_mapping_validates_keys():
    with pytest.raises(ValueError, match="unknown scenario key"):
        scenario_from_mapping({"graph": "path", "size": "5", "sender": "0", "walker": "x"})
    with pytest.raises(ValueError, match="needs a 'graph'"):
        scenario_from_mapping({"size": "5"})


def test_scenario_from_mapping_aliases_and_pairs():
    sc = scenario_from_mapping(
        {
            "graph": "kab",
            "size": "2,3",
            "sender": "0",
            "receiver": "1",
            "mode": "state_transfer",
            "rtn_a": "0.2",
        }
    )
    assert sc.size == (2, 3)
    assert sc.mode == "transfer"
    assert sc.rtn_a == 0.2


def test_default_name():
    sc = Scenario(graph="path", size=(5,), sender=0, receiver=4, noise="rtn")
    assert default_name(sc) == "path5_transfer_s0_r4_rtn"
    sc = Scenario(graph="kab", size=(2, 3), sender=0, mode="periodicity")
    assert default_name(sc) == "kab2x3_periodic_v0_none"


def test_shortcut_cross_check_runs():
    # sampled steps exercise the dense Kraus + density-formula cross-check inside the runner
    series = run_scenario(
        Scenario(graph="kab", size=(2, 3), sender=0, receiver=1,
                 receiver_mode="outgoing", noise="rtn", steps=25)
    )
    assert len(series.noiseless) == 26


def _write_graph_file(path, n: int, edges) -> str:
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return f"file:{path}"


def _random_graph_scenarios(tmp_path) -> list[tuple[str, Scenario]]:
    rng = np.random.default_rng(7)
    cases = []
    for index, n in enumerate((5, 7, 9)):
        graph = _write_graph_file(tmp_path / f"random{index}.txt", n, random_simple_graph(rng, n))
        for noise in ("rtn", "oun"):
            for receiver_mode in ("incoming", "outgoing"):
                sc = Scenario(graph=graph, sender=0, receiver=n - 1, noise=noise,
                              receiver_mode=receiver_mode, steps=40)
                cases.append((f"random{index}_{noise}_{receiver_mode}", sc))
    return cases


def test_noisy_series_matches_dense_channel_at_every_step(tmp_path):
    # the closed form against the dense Kraus channel and the general
    # density formula, at every step rather than the runner's sampled ones
    cases = case_study_scenarios() + _random_graph_scenarios(tmp_path)
    assert len(cases) == 22 + 12
    for name, sc in cases:
        series = run_scenario(sc)
        spec = walk_spec(scenario_graph(sc), sc.sender, sc.receiver)
        ops = walk_unitary(spec)
        psi = sender_state(spec)
        target = psi if sc.mode == "periodicity" else receiver_state(spec, sc.receiver_mode)
        sigma = np.outer(target, target.conj())
        if sc.noise == "rtn":
            channel = rtn_channel(ops.dim, a=sc.rtn_a, gamma=sc.rtn_gamma)
        else:
            channel = oun_channel(ops.dim, lam=sc.oun_lambda, gamma=sc.oun_gamma)
        rho = np.outer(psi, psi.conj())
        for t in range(sc.steps + 1):
            dense = fidelity_density(apply_channel(rho, kraus_set(channel, t)), sigma)
            assert abs(series.noisy[t] - dense) <= 1e-12, (name, t)
            rho = ops.unitary @ rho @ ops.unitary.conj().T


def test_run_memory_does_not_grow_with_steps(tmp_path):
    # a streaming run keeps O(dim) state per step: 175 extra steps must not
    # retain even one dim x dim matrix
    rng = np.random.default_rng(11)
    n = 90
    graph = _write_graph_file(tmp_path / "g.txt", n, random_simple_graph(rng, n))
    short = Scenario(graph=graph, sender=0, receiver=n - 1, noise="rtn", steps=25)
    dim = walk_spec(scenario_graph(short), 0, n - 1).space.dim
    assert dim >= 200

    def peak(sc: Scenario) -> int:
        tracemalloc.start()
        try:
            run_scenario(sc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_scenario(short)  # warm caches outside the measurement
    growth = peak(replace(short, steps=200)) - peak(short)
    assert growth < dim * dim * 16


def test_run_scenario_never_assembles_dense_operators(monkeypatch):
    import qwalk

    def dense_forbidden(*args, **kwargs):
        raise AssertionError("run_scenario assembled the dense walk unitary")

    for module in (qwalk, qwalk.operators, qwalk.scenarios, qwalk.evolution):
        monkeypatch.setattr(module, "walk_unitary", dense_forbidden, raising=False)
    for noise in ("none", "rtn", "oun"):
        series = run_scenario(
            Scenario(graph="kab", size=(2, 3), sender=0, receiver=1, noise=noise, steps=60)
        )
        assert series.steps == 60


def test_noiseless_run_allocates_no_dense_matrix():
    sc = Scenario(graph="cycle", size=(500,), sender=0, receiver=250, steps=50)
    dim = walk_spec(scenario_graph(sc), 0, 250).space.dim
    assert dim >= 1000
    run_scenario(replace(sc, steps=1))  # warm caches outside the measurement
    tracemalloc.start()
    try:
        run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 8  # one dim x dim float64 array
