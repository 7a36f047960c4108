"""Property tests on random graphs: the array graph layer against the reference.

Every property runs derandomized (the examples are a function of the test
alone) and without the example database, so a run is reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qwalk.graphs import build_graph, edge_space, parse_graph_file
from qwalk.operators import receiver_state, walk_spec, walk_step, walk_unitary

from .oracles import arcs, random_pure, reference_edge_space, reference_graph


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
    spec = walk_spec(build_graph(n, edges), sender, receiver)
    step, unitary = walk_step(spec), walk_unitary(spec).unitary
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    free = dense = random_pure(rng, spec.space.dim)
    for t in range(1, 21):
        free, dense = step(free), unitary @ dense
        assert np.abs(free - dense).max() <= 1e-12, t

    ref_space = reference_edge_space(reference_graph(n, edges))
    support = np.flatnonzero(receiver_state(spec, "incoming")).tolist()
    assert support == list(ref_space.in_edges[receiver])


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
