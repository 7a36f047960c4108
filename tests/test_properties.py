"""Property tests on random graphs and fuzzed scenario input.

The array graph layer is checked against the reference; the matrix-free
step, and ``walk_unitary`` bitwise (signs of zero included), against the
dense Grover assembly, and the in-place step bitwise against its
out-of-place expression; the boundary states bitwise against the edge
space's block slices; the bulk graph-file parse against the line parser;
and the scenario parsers and runner against their contracts (only
``ValueError`` on bad input, fidelities in [0, 1], a state norm within 1e-10
of 1 after 10^4 steps).

Every property runs derandomized (the examples are a function of the test
alone) and without the example database, so a run is reproducible.
"""

from __future__ import annotations

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qwalk.graphs import (
    _PLAIN_GRAPH_FILE,
    Graph,
    _parse_graph_lines,
    build_graph,
    edge_space,
    parse_graph_file,
)
from qwalk.operators import NORM_ATOL, receiver_state, sender_state, walk_step, walk_unitary
from qwalk.scenarios import (
    Scenario,
    parse_scenario_config,
    peak_steps,
    run_scenario,
    scenario_from_mapping,
)

from .oracles import (
    arcs,
    dense_walk_operators,
    iterate,
    random_pure,
    reference_edge_space,
    reference_graph,
    reference_step,
)


def _settings(max_examples: int):
    return settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)


@st.composite
def graph_inputs(draw, max_n: int = 14):
    """``(n, edges)`` of a simple graph without isolated vertices.

    The edges come with duplicates, in either orientation and in any order:
    a spanning tree on relabelled vertices, extra edges on top, some of them
    listed again, each pair possibly reversed, the whole list shuffled.
    """
    n = draw(st.integers(2, max_n))
    label = draw(st.permutations(range(n)))
    edges = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    # (u, u + k mod n) with 0 < k < n is never a loop
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    edges += draw(st.lists(pair.map(lambda e: (e[0], (e[0] + e[1]) % n)), max_size=2 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=n))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    return n, draw(st.permutations(edges))


@_settings(max_examples=250)
@given(graph_inputs())
def test_array_graph_layer_matches_reference(graph_input):
    n, edges = graph_input
    g, ref = build_graph(n, edges), reference_graph(n, edges)
    assert g.n == ref.n
    assert [tuple(e) for e in g.edges.tolist()] == list(ref.edges)
    assert g.degrees.tolist() == list(ref.degrees)

    space, ref_space = edge_space(g), reference_edge_space(ref)
    assert space.dim == len(ref_space.edges)
    assert arcs(space) == list(ref_space.edges)
    assert space.reverse_of.tolist() == list(ref_space.reverse_of)
    blocks = list(zip(space.starts[:-1].tolist(), space.starts[1:].tolist()))
    assert blocks == list(ref_space.out_blocks)
    for v in range(n):
        incoming = space.reverse_of[space.starts[v]:space.starts[v + 1]]
        assert sorted(incoming.tolist()) == list(ref_space.in_edges[v])


@st.composite
def edge_lists(draw):
    """``(n, edges)`` from :func:`graph_inputs`, then broken up to twice.

    A break is a loop or an out-of-range endpoint inserted anywhere, the
    list cut short, or extra vertices that no edge touches.
    """
    n, edges = draw(graph_inputs(max_n=8))
    for kind in draw(st.lists(st.sampled_from(["loop", "outside", "cut", "grow"]), max_size=2)):
        at = draw(st.integers(0, len(edges)))
        vertex = draw(st.integers(0, n - 1))
        if kind == "loop":
            edges.insert(at, (vertex, vertex))
        elif kind == "outside":
            edges.insert(at, (vertex, draw(st.sampled_from([-1, n, 2**40]))))
        elif kind == "cut":
            edges = edges[:at]
        else:
            n += draw(st.integers(1, 2 * n))
    return n, edges


@_settings(max_examples=200)
@given(edge_lists())
def test_build_graph_accepts_and_rejects_like_reference(graph_input):
    n, edges = graph_input
    try:
        ref = reference_graph(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            build_graph(n, edges)
        event(str(exc).split(" ", 2)[0] + " rejected")
        # the isolated-vertex check may fire on the listed or on the distinct edges
        if str(exc).startswith("isolated vertex"):
            assert str(err.value).startswith("isolated vertex")
        else:
            assert str(err.value) == str(exc)
        return
    event("accepted")
    g = build_graph(n, edges)
    assert [tuple(e) for e in g.edges.tolist()] == list(ref.edges)
    assert g.degrees.tolist() == list(ref.degrees)


@_settings(max_examples=80)
@given(graph_inputs(max_n=10), st.data())
def test_walk_step_matches_dense_unitary_on_random_graphs(graph_input, data):
    n, edges = graph_input
    sender = data.draw(st.integers(0, n - 1), label="sender")
    receiver = data.draw(st.integers(0, n - 1), label="receiver")
    graph = build_graph(n, edges)
    step, dense = walk_step(graph, sender, receiver), dense_walk_operators(graph, sender, receiver)
    ops = walk_unitary(step)
    for name in ("coin", "shift", "unitary"):
        got, expected = getattr(ops, name), getattr(dense, name)
        assert np.array_equal(got, expected), name
        assert np.array_equal(np.signbit(got), np.signbit(expected)), name
    unitary = dense.unitary
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    free = dense = random_pure(rng, step.dim)
    for t in range(1, 21):
        free, dense = step(free), unitary @ dense
        assert np.abs(free - dense).max() <= 1e-12, t

    ref_space = reference_edge_space(reference_graph(n, edges))
    support = np.flatnonzero(receiver_state(step, "incoming")).tolist()
    assert support == list(ref_space.in_edges[receiver])


@_settings(max_examples=150)
@given(graph_inputs(), st.data())
def test_boundary_states_are_the_edge_space_blocks_bitwise(graph_input, data):
    # the states read their arcs off the step; the edge space's block slices
    # give the same vectors, bit for bit
    n, edges = graph_input
    sender = data.draw(st.integers(0, n - 1), label="sender")
    receiver = data.draw(st.integers(0, n - 1), label="receiver")
    graph = build_graph(n, edges)
    step, space = walk_step(graph, sender, receiver), edge_space(graph)

    def block_state(v: int, incoming: bool) -> np.ndarray:
        start, stop = space.starts[v:v + 2]
        psi = np.zeros(space.dim, dtype=complex)
        psi[space.reverse_of[start:stop] if incoming else slice(start, stop)] = (
            1.0 / np.sqrt(stop - start)
        )
        return psi

    assert _bits(sender_state(step)) == _bits(block_state(sender, incoming=False))
    for mode in ("incoming", "outgoing"):
        expected = block_state(receiver, incoming=mode == "incoming")
        assert _bits(receiver_state(step, mode)) == _bits(expected), mode


@_settings(max_examples=100)
@given(graph_inputs(), st.integers(1, 5), st.data())
def test_walk_step_on_a_block_equals_stepping_each_column(graph_input, k, data):
    n, edges = graph_input
    sender = data.draw(st.integers(0, n - 1), label="sender")
    receiver = data.draw(st.integers(0, n - 1), label="receiver")
    step = walk_step(build_graph(n, edges), sender, receiver)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    block = rng.normal(size=(step.dim, k)) + 1j * rng.normal(size=(step.dim, k))
    stepped = step(block)
    assert stepped.shape == (step.dim, k)
    for j in range(k):
        assert stepped[:, j].tobytes() == step(block[:, j]).tobytes(), j


def _bits(a: np.ndarray) -> tuple[np.dtype, bytes, bytes]:
    """The dtype and bytes of ``a`` and its sign bits: equal bytes can still differ in ``-0.0``."""
    parts = a.view(a.real.dtype) if np.iscomplexobj(a) else a
    return a.dtype, a.tobytes(), np.signbit(parts).tobytes()


@_settings(max_examples=100)
@given(graph_inputs(), st.integers(1, 4), st.data())
def test_in_place_step_equals_the_out_of_place_expression_bitwise(graph_input, k, data):
    n, edges = graph_input
    sender = data.draw(st.integers(0, n - 1), label="sender")
    receiver = data.draw(st.integers(0, n - 1), label="receiver")
    step = walk_step(build_graph(n, edges), sender, receiver)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    block = rng.normal(size=(step.dim, k)) + 1j * rng.normal(size=(step.dim, k))
    # zeros of both signs in either part, so the step's own zeros meet signed ones
    floats = block.view(float)
    floats[rng.random(floats.shape) < 0.3] = 0.0
    floats[rng.random(floats.shape) < 0.3] *= -1.0
    # integer and single-precision inputs are promoted as by the expression
    ints = rng.integers(-3, 4, size=(step.dim, k))
    for psi in (block[:, 0].copy(), block, np.eye(step.dim), ints, ints[:, 0].copy(),
                block.astype(np.complex64), np.eye(step.dim, dtype=np.float32)):
        before = _bits(psi)
        assert _bits(step(psi)) == _bits(reference_step(step, psi))
        assert _bits(psi) == before  # the input is not mutated


_DIGITS = st.integers(0, 30).map(str) | st.integers(0, 30).map(lambda v: f"{v:03d}")


@st.composite
def plain_graph_files(draw):
    """Graph files in the plain form: loops, repeats and out-of-range endpoints included."""
    n = draw(st.integers(0, 25))
    edges = draw(st.lists(st.tuples(_DIGITS, _DIGITS), max_size=40))
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@_settings(max_examples=300)
@given(plain_graph_files() | graph_inputs().map(
    lambda g: f"{g[0]}\n" + "".join(f"{u} {v}\n" for u, v in g[1])))
def test_bulk_parse_equals_the_line_parser(text):
    assert re.fullmatch(_PLAIN_GRAPH_FILE, text)  # the bulk route is the one under test
    expected = _parse_outcome(_parse_graph_lines, text)
    event("accepted" if isinstance(expected, Graph) else "rejected")
    assert _parse_outcome(parse_graph_file, text) == expected


@_settings(max_examples=60)
@given(graph_inputs(), st.data())
def test_noiseless_series_is_invariant_under_vertex_relabelling(graph_input, data):
    # relabelling reorders the arc basis; only the noise's Z, which phases arcs
    # by position, can see that (tests/test_scenarios.py pins an S6 case)
    n, edges = graph_input
    label = data.draw(st.permutations(range(n)), label="relabelling")
    sender = data.draw(st.integers(0, n - 1), label="sender")
    receiver = data.draw(st.integers(0, n - 1), label="receiver")
    with tempfile.TemporaryDirectory() as tmp:
        graphs = []
        for name, pairs in (("g", edges), ("h", [(label[u], label[v]) for u, v in edges])):
            path = Path(tmp) / f"{name}.txt"
            path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
            graphs.append(f"file:{path}")
        for receiver_mode in ("incoming", "outgoing"):
            sc = Scenario(graph=graphs[0], sender=sender, receiver=receiver,
                          receiver_mode=receiver_mode, steps=300)
            moved = Scenario(graph=graphs[1], sender=label[sender], receiver=label[receiver],
                             receiver_mode=receiver_mode, steps=300)
            difference = np.abs(run_scenario(sc).noiseless - run_scenario(moved).noiseless)
            assert difference.max() <= 1e-12, receiver_mode


_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "-1", "07", "2.5", "x", "1e3", "0x1", "1_0", "10" * 10, "#", "\t"]
)
_LINES = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8).map("\n".join)


@_settings(max_examples=300)
@given(st.one_of(st.text(max_size=60), _LINES))
def test_parse_graph_file_raises_only_value_error(text):
    try:
        g = parse_graph_file(text)
    except ValueError:
        return
    assert g.n >= 2 and g.m >= 1 and g.degrees.min() >= 1


_SCENARIO_KEYS = ("graph", "size", "sender", "receiver", "mode", "receiver_mode", "noise",
                  "rtn_a", "rtn_gamma", "oun_lambda", "oun_gamma", "steps")
_SCENARIO_VALUES = st.one_of(
    st.sampled_from([
        "path", "cycle", "star", "kab", "complete_bipartite", "file:", "transfer",
        "state_transfer", "periodicity", "incoming", "outgoing", "none", "rtn", "oun",
        "0", "1", "3", "-1", "2,3", "5,", ",", "1,2,3", "0.1", "0.01", "0.004", "1e308",
        "1e-320", "nan", "inf", "-inf", "1_0", "0x1", "", " ", "10" * 20,
    ]),
    st.integers(-10, 10**7).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=8),
)


# A valid placement on a small family, so that fuzzed entries on top of it
# exercise the later checks too, not only the missing-key ones.
_BASE = st.sampled_from([
    {},
    {"graph": "path", "size": "5", "sender": "0", "receiver": "4"},
    {"graph": "kab", "size": "2,3", "sender": "0", "mode": "periodicity"},
    {"graph": "cycle", "size": "6", "sender": "1", "receiver": "3", "noise": "rtn"},
    {"graph": "star", "size": "6", "sender": "0", "receiver": "1", "noise": "oun"},
])


@_settings(max_examples=400)
@given(_BASE, st.dictionaries(st.one_of(st.sampled_from(_SCENARIO_KEYS), st.text(max_size=6)),
                              _SCENARIO_VALUES, max_size=3))
def test_scenario_from_mapping_raises_only_value_error(base, fuzz):
    mapping = {**base, **fuzz}
    try:
        sc = scenario_from_mapping(mapping)
    except ValueError:
        event("rejected")
        return
    event("accepted")
    assert isinstance(sc, Scenario) and sc.steps >= 1 and sc.receiver is not None


_CONFIG_LINES = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_SCENARIO_KEYS), _SCENARIO_VALUES).map(" = ".join),
        st.sampled_from(["# comment", "", "graph", "= 3", "a = b = c", "size = 2 # pair"]),
        st.text(max_size=20),
    ),
    max_size=10,
).map("\n".join)


@_settings(max_examples=300)
@given(_BASE, st.one_of(st.text(max_size=80), _CONFIG_LINES))
def test_parse_scenario_config_raises_only_value_error(base, fuzz):
    text = "".join(f"{key} = {value}\n" for key, value in base.items()) + fuzz
    try:
        mapping = parse_scenario_config(text)
        scenario_from_mapping(mapping)
    except ValueError:
        event("rejected")
        return
    event("accepted")
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items())


_NOISE_PARAMETER = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)
# (a, gamma): half the draws inside the RTN memory regime a/gamma > 0.5
_RTN_PARAMETERS = st.one_of(
    st.tuples(st.floats(1e-3, 1.0), st.floats(0.51, 1e3)).map(lambda p: (p[0] * p[1], p[0])),
    st.tuples(_NOISE_PARAMETER, _NOISE_PARAMETER),
)


@_settings(max_examples=120)
@given(graph_inputs(max_n=9), st.data())
def test_accepted_runs_have_fidelities_in_unit_interval(graph_input, data):
    # any scenario that construction accepts runs to the end, and both
    # fidelity columns stay in [0, 1]
    n, edges = graph_input
    noise = data.draw(st.sampled_from(["none", "rtn", "oun"]), label="noise")
    params = {key: data.draw(_NOISE_PARAMETER, label=key) for key in ("oun_lambda", "oun_gamma")}
    params["rtn_a"], params["rtn_gamma"] = data.draw(_RTN_PARAMETERS, label="rtn")
    periodicity = data.draw(st.booleans(), label="periodicity")
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.txt"
        graph.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        try:
            sc = Scenario(
                graph=f"file:{graph}",
                sender=data.draw(st.integers(0, n - 1), label="sender"),
                receiver=None if periodicity else data.draw(st.integers(0, n - 1), label="receiver"),
                mode="periodicity" if periodicity else "transfer",
                receiver_mode=data.draw(st.sampled_from(["incoming", "outgoing"]), label="mode"),
                noise=noise,
                steps=data.draw(st.integers(1, 60), label="steps"),
                **params,
            )
        except ValueError:
            event("rejected")
            return
        event(f"accepted {noise}")
        series = run_scenario(sc)
    for column in (series.noiseless, series.noisy):
        if column is not None:
            assert len(column) == sc.steps + 1
            assert all(math.isfinite(f) and 0.0 <= f <= 1.0 for f in column)


@_settings(max_examples=20)
@given(graph_inputs(max_n=12), st.data())
def test_norm_drift_stays_bounded_over_ten_thousand_steps(graph_input, data):
    # the runner checks |‖psi_T‖ - 1| <= 1e-10 once per run; 10^4 steps on
    # any random graph stay inside that bound
    n, edges = graph_input
    sender = data.draw(st.integers(0, n - 1), label="sender")
    receiver = data.draw(st.integers(0, n - 1), label="receiver")
    step = walk_step(build_graph(n, edges), sender, receiver)
    psi = iterate(step, sender_state(step), 10**4)
    assert NORM_ATOL == 1e-10
    assert abs(float(np.linalg.norm(psi)) - 1.0) <= NORM_ATOL
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.txt"
        graph.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        sc = Scenario(graph=f"file:{graph}", sender=sender, receiver=receiver, steps=10**4)
        assert run_scenario(sc).steps == 10**4  # the drift guard does not fire


@_settings(max_examples=300)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.95, 1.0]) | st.floats(0.0, 1.0),
                min_size=1, max_size=30),
       st.floats(0.0, 1.0))
def test_peak_steps_matches_its_definition(values, ratio):
    top = max(values)
    expected = [
        t for t, v in enumerate(values)
        if v > ratio * top
        and (t == 0 or v >= values[t - 1])
        and (t == len(values) - 1 or v >= values[t + 1])
    ]
    assert peak_steps(values, ratio) == expected
