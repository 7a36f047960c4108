from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qwalk.channels import _kernel_series, oun_channel, rtn_channel
from qwalk.graphs import path_graph
from qwalk.operators import receiver_state, sender_state, walk_spec
from qwalk.scenarios import (
    MAX_STEPS,
    FidelitySeries,
    Scenario,
    case_study_scenarios,
    default_name,
    paper_suite,
    parse_scenario_config,
    peak_steps,
    run_scenario,
    scenario_from_mapping,
    scenario_graph,
)

from .oracles import (
    dense_apply_channel,
    dense_kraus_set,
    dense_walk_operators,
    fidelity_density,
    random_simple_graph,
    stepwise_series,
    support_block_fidelity,
)


def test_scenario_validation():
    with pytest.raises(ValueError, match="mode"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, mode="diffusion")
    with pytest.raises(ValueError, match="noise"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, noise="white")
    with pytest.raises(ValueError, match="receiver_mode"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, receiver_mode="both")
    with pytest.raises(ValueError, match="steps"):
        Scenario(graph="path", size=(5,), sender=0, receiver=1, steps=0)
    for steps in (MAX_STEPS + 1, 10**400):  # the series would not fit; 10**400 is no float
        with pytest.raises(ValueError, match="steps must lie in"):
            Scenario(graph="path", size=(5,), sender=0, receiver=1, noise="rtn", steps=steps)
    assert Scenario(graph="path", size=(5,), sender=0, receiver=1, steps=MAX_STEPS).steps == MAX_STEPS
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
    # sampled steps exercise the runner's cross-check, the Kraus sum on the target's support
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
    # the closed form against the dense Weyl-matrix Kraus channel on the full
    # space and the general density formula, at every step rather than the
    # runner's sampled ones
    cases = case_study_scenarios() + _random_graph_scenarios(tmp_path)
    assert len(cases) == 22 + 12
    for name, sc in cases:
        series = run_scenario(sc)
        spec = walk_spec(scenario_graph(sc), sc.sender, sc.receiver)
        ops = dense_walk_operators(spec)
        psi = sender_state(spec)
        target = psi if sc.mode == "periodicity" else receiver_state(spec, sc.receiver_mode)
        sigma = np.outer(target, target.conj())
        if sc.noise == "rtn":
            channel = rtn_channel(ops.dim, a=sc.rtn_a, gamma=sc.rtn_gamma)
        else:
            channel = oun_channel(ops.dim, lam=sc.oun_lambda, gamma=sc.oun_gamma)
        rho = np.outer(psi, psi.conj())
        for t in range(sc.steps + 1):
            dense = fidelity_density(dense_apply_channel(rho, dense_kraus_set(channel, t)), sigma)
            assert abs(series.noisy[t] - dense) <= 1e-12, (name, t)
            rho = ops.unitary @ rho @ ops.unitary.conj().T


def test_one_pass_series_equal_the_stepwise_readout_bitwise(tmp_path):
    # the overlap pass plus the combine step against the per-step fidelity_pure
    # and per-state closed form they replaced: the same bits, so the same CSVs
    rng = np.random.default_rng(13)
    cases = list(case_study_scenarios())
    for index, n in enumerate((4, 6, 8, 11)):
        graph = _write_graph_file(tmp_path / f"g{index}.txt", n, random_simple_graph(rng, n))
        for noise in ("none", "rtn", "oun"):
            for receiver_mode in ("incoming", "outgoing"):
                cases.append((f"g{index}_{noise}_{receiver_mode}",
                              Scenario(graph=graph, sender=0, receiver=n - 1, noise=noise,
                                       receiver_mode=receiver_mode, steps=60)))
    assert len(cases) == 22 + 24
    for name, sc in cases:
        series = run_scenario(sc)
        noiseless, noisy = stepwise_series(sc)
        assert np.array_equal(series.noiseless, noiseless), name
        if sc.noise == "none":
            assert series.noisy is None and noisy is None
        else:
            assert np.array_equal(series.noisy, noisy), name


def test_paper_suite_walks_each_family_once(monkeypatch):
    import qwalk.scenarios

    real, built = qwalk.scenarios.walk_step, []

    def spy(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(qwalk.scenarios, "walk_step", spy)
    suite = paper_suite()
    assert len(built) == 11  # one walk per family, read out under rtn and oun
    expected = [(name, run_scenario(sc)) for name, sc in case_study_scenarios()]
    assert len(built) == 11 + 22
    assert [name for name, _ in suite] == [name for name, _ in expected]
    for (name, series), (_, single) in zip(suite, expected):
        assert np.array_equal(series.noiseless, single.noiseless), name
        assert np.array_equal(series.noisy, single.noisy), name


def test_noise_never_touches_the_path_graph():
    # a walk from P5's degree-1 end sits on one arc at every step (the
    # degree-2 Grover block is a swap), where the diagonal channel is a phase
    suite = dict(paper_suite())
    p5 = [name for name in suite if name.startswith("p5_")]
    assert len(p5) == 6
    worst = max(float(np.abs(suite[name].noisy - suite[name].noiseless).max()) for name in p5)
    assert worst <= 1e-15


def test_the_noisy_series_depends_on_arc_order(tmp_path):
    # Z = diag(w^j) phases each arc by its lexicographic position, so swapping
    # the leaves 1 and 2 of S6 moves the noisy series of 1 -> 0 while the
    # noiseless one stays: a property of the model, not a fault
    perm = (0, 2, 1, 3, 4, 5)
    edges = [(0, leaf) for leaf in range(1, 6)]
    graph = _write_graph_file(tmp_path / "s6.txt", 6, edges)
    relabelled = _write_graph_file(tmp_path / "s6_swapped.txt", 6,
                                   [(perm[u], perm[v]) for u, v in edges])
    for noise in ("rtn", "oun"):
        sc = Scenario(graph=graph, sender=1, receiver=0, receiver_mode="outgoing",
                      noise=noise, steps=60)
        before = run_scenario(sc)
        after = run_scenario(replace(sc, graph=relabelled, sender=perm[1], receiver=perm[0]))
        assert np.abs(after.noiseless - before.noiseless).max() <= 1e-12, noise
        assert np.abs(after.noisy - before.noisy).max() > 0.1, noise


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


def test_noisy_hub_run_grows_with_steps_only_through_its_series():
    # the stride-25 dense check runs inside the pass and keeps one float per
    # check, not psi on the receiver's 199 in-arcs: 1000 more steps may add a
    # few float64 series to the peak (kept and flipped are allocated up front)
    sc = Scenario(graph="star", size=(200,), sender=1, receiver=0, noise="rtn", steps=100)
    assert np.count_nonzero(receiver_state(walk_spec(scenario_graph(sc), 1, 0), "incoming")) == 199

    def peak(steps: int) -> int:
        tracemalloc.start()
        try:
            run_scenario(replace(sc, steps=steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_scenario(sc)  # warm caches outside the measurement
    extra = 1000
    growth = peak(sc.steps + extra) - peak(sc.steps)
    assert growth < 4 * 8 * extra, growth


def test_run_scenario_never_assembles_dense_operators(monkeypatch):
    import qwalk

    def dense_forbidden(*args, **kwargs):
        raise AssertionError("run_scenario assembled the dense walk unitary")

    for module in (qwalk, qwalk.operators, qwalk.scenarios):
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


def test_noisy_run_allocates_no_dense_matrix():
    # the stride-25 cross-check runs on the target's support, so a noisy run
    # stays O(dim) in memory too
    for noise in ("rtn", "oun"):
        sc = Scenario(graph="cycle", size=(500,), sender=0, receiver=250, noise=noise, steps=100)
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


def test_cross_check_equals_the_support_block_route_at_every_step(monkeypatch):
    # the runtime Kraus sum against the |S| x |S| channel and density formula
    # it replaced, on the same arguments at every step
    import qwalk.scenarios

    real = qwalk.scenarios._dense_fidelity
    sizes, worst = set(), 0.0

    def spy(channel, t, a, support, phi):
        nonlocal worst
        value = real(channel, t, a, support, phi)
        worst = max(worst, abs(value - support_block_fidelity(channel, t, a, support, phi)))
        sizes.add(len(support))
        return value

    monkeypatch.setattr(qwalk.scenarios, "_CROSS_CHECK_STRIDE", 1)
    monkeypatch.setattr(qwalk.scenarios, "_dense_fidelity", spy)
    suite = paper_suite()
    assert len(suite) == 22
    # receivers whose support S is a hub's 59 or 30 incoming arcs
    for graph, size, sender in (("star", (60,), 1), ("kab", (10, 30), 10)):
        for noise in ("rtn", "oun"):
            sc = Scenario(graph=graph, size=size, sender=sender, receiver=0, noise=noise, steps=50)
            assert run_scenario(sc).steps == 50
    assert {59, 30} <= sizes
    assert worst <= 1e-12


def test_cross_check_reads_only_the_target_support_block(monkeypatch, tmp_path):
    import qwalk.scenarios

    real = qwalk.scenarios._dense_fidelity
    seen: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []

    def spy(channel, t, a, support, phi):
        seen.append((len(support), np.shape(a), np.shape(phi)))
        return real(channel, t, a, support, phi)

    monkeypatch.setattr(qwalk.scenarios, "_dense_fidelity", spy)
    graph = _write_graph_file(tmp_path / "g.txt", 9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                                      (5, 6), (6, 7), (7, 8), (8, 0), (4, 0),
                                                      (4, 2), (4, 7)])
    cases = [
        (Scenario(graph="kab", size=(4, 5), sender=0, receiver=4, noise="rtn", steps=100), 4),
        (Scenario(graph="star", size=(8,), sender=0, mode="periodicity", noise="oun",
                  steps=100), 7),
        (Scenario(graph=graph, sender=0, receiver=4, noise="rtn", steps=100), 5),
        (Scenario(graph=graph, sender=3, receiver=4, noise="oun", receiver_mode="outgoing",
                  steps=100), 5),
    ]
    for sc, support in cases:
        seen.clear()
        series = run_scenario(sc)
        assert series.steps == 100
        assert len(seen) == 5, sc  # t = 0, 25, 50, 75, 100
        assert all(s == support and a == phi == (support,) for s, a, phi in seen), sc


def test_cross_check_skips_the_dense_route_when_psi_misses_the_support(monkeypatch):
    import importlib.util

    import qwalk.channels
    import qwalk.scenarios

    # the dense channel + density route is not in the library at all
    assert not hasattr(qwalk.channels, "apply_channel")
    assert importlib.util.find_spec("qwalk.fidelity") is None
    real = qwalk.scenarios._dense_fidelity
    checked: dict[int, float] = {}

    def spy(channel, t, a, support, phi):
        checked[t] = real(channel, t, a, support, phi)
        return checked[t]

    monkeypatch.setattr(qwalk.scenarios, "_dense_fidelity", spy)
    # at t = 0 the walker sits on vertex 0's arcs, two vertices away from 3's:
    # no weight on the support gives exactly 0
    series = run_scenario(Scenario(graph="cycle", size=(6,), sender=0, receiver=3,
                                   noise="rtn", steps=24))
    assert checked == {0: 0.0}
    assert series.noisy[0] == 0.0


def _other_kernel(channel, n):
    other = oun_channel(channel.dim) if channel.kind == "rtn" else rtn_channel(channel.dim)
    return _kernel_series(other, n)


@pytest.mark.parametrize("fault", [
    pytest.param(lambda channel, n: -_kernel_series(channel, n), id="kappa-negated"),
    pytest.param(lambda channel, n: _kernel_series(channel, n + 1)[1:], id="kappa-shifted"),
    pytest.param(lambda channel, n: _kernel_series(channel, n) ** 2, id="kappa-squared"),
    pytest.param(_other_kernel, id="other-channel-kappa"),
    pytest.param(None, id="kept-flipped-swapped"),
])
def test_cross_check_catches_closed_form_faults(monkeypatch, fault):
    import qwalk.channels
    import qwalk.scenarios

    if fault is None:
        real = qwalk.scenarios.dephased_series
        monkeypatch.setattr(qwalk.scenarios, "dephased_series",
                            lambda channel, kept, flipped: real(channel, flipped, kept))
    else:
        monkeypatch.setattr(qwalk.channels, "_kernel_series", fault)
    with pytest.raises(RuntimeError, match="fidelity cross-check failed at t="):
        paper_suite()


def test_runs_call_no_eigensolver(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an eigensolver ran on the run path")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, unreachable)
    assert len(paper_suite()) == 22
    for noise in ("rtn", "oun"):
        sc = Scenario(graph="star", size=(200,), sender=1, receiver=0, noise=noise, steps=300)
        assert run_scenario(sc).steps == 300


def test_family_placement_rejected_before_the_graph_is_built(monkeypatch):
    import qwalk.scenarios

    def unreachable(*args):
        raise AssertionError("the graph was built before the placement was checked")

    monkeypatch.setattr(qwalk.scenarios, "scenario_graph", unreachable)
    for kwargs, message in (
        ({"graph": "cycle", "size": (3_000_000,), "sender": 0, "receiver": 5_000_000},
         "receiver vertex 5000000 outside 0..2999999"),
        ({"graph": "kab", "size": (2, 3), "sender": 5, "receiver": 0},
         "sender vertex 5 outside 0..4"),
        ({"graph": "path", "size": (5,), "sender": -1, "receiver": 0},
         "sender vertex -1 outside 0..4"),
        ({"graph": "star", "size": (6,), "sender": 6, "mode": "periodicity"},
         "sender vertex 6 outside 0..5"),
    ):
        with pytest.raises(ValueError, match=message):
            Scenario(**kwargs)
    # the same wording as WalkSpec, which still guards file graphs
    with pytest.raises(ValueError, match="receiver vertex 9 outside 0..4"):
        walk_spec(path_graph(5), 0, 9)
