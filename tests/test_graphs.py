from __future__ import annotations

import numpy as np
import pytest

from qwalk.graphs import (
    build_graph,
    complete_bipartite_graph,
    cycle_graph,
    edge_space,
    load_graph_file,
    parse_graph_file,
    path_graph,
    standard_family,
    star_graph,
)

from .oracles import random_simple_graph


def test_smallest_valid_graph():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2
    assert g.m == 1
    assert g.degrees == (1, 1)


def test_path_graph_edges():
    g = path_graph(5)
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert g.degrees == (1, 2, 2, 2, 1)


def test_loop_edge_rejected():
    with pytest.raises(ValueError, match="loop edge"):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError, match="outside"):
        build_graph(3, [(0, 3)])


def test_isolated_vertex_rejected():
    with pytest.raises(ValueError, match="isolated vertex"):
        build_graph(3, [(0, 1)])


def test_vertex_count_beyond_edge_cover_rejected_before_allocation():
    # a per-vertex table for this n cannot be allocated; the bound check
    # must fire first
    with pytest.raises(ValueError, match="isolated vertex.*touch at most 2"):
        build_graph(2**62, [(0, 1)])
    with pytest.raises(ValueError, match="isolated vertex"):
        build_graph(5, [(0, 1), (1, 0), (2, 3)])  # duplicates do not count
    assert build_graph(4, [(0, 1), (2, 3)]).n == 4  # n == 2m is a perfect matching


def test_too_few_vertices_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        build_graph(1, [])


def test_duplicate_edges_deduplicated():
    g = build_graph(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert g.m == 2


def test_star_degrees():
    g = star_graph(6)
    assert g.degree(0) == 5
    assert all(g.degree(i) == 1 for i in range(1, 6))


def test_complete_bipartite_shape():
    g = complete_bipartite_graph(2, 3)
    assert g.m == 6
    assert g.degrees == (3, 3, 2, 2, 2)


def test_cycle_degrees():
    g = cycle_graph(6)
    assert all(d == 2 for d in g.degrees)


@pytest.mark.parametrize(
    "kind,params",
    [("path", (1,)), ("cycle", (2,)), ("star", (1,)), ("kab", (0, 3))],
)
def test_family_size_below_minimum(kind, params):
    with pytest.raises(ValueError):
        standard_family(kind, *params)


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown graph family"):
        standard_family("torus", 4)


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 7


def test_p5_edge_order():
    space = edge_space(path_graph(5))
    assert space.edges == (
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3),
    )


def test_k23_index_and_reverse():
    space = edge_space(complete_bipartite_graph(2, 3))
    assert space.index_of[(0, 2)] == 0
    assert space.reverse_of[0] == 6


def test_reverse_is_fixed_point_free_involution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        space = edge_space(build_graph(n, random_simple_graph(rng, n)))
        for k in range(space.dim):
            assert space.reverse_of[space.reverse_of[k]] == k
            assert space.reverse_of[k] != k


def test_degree_sum_and_block_layout():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        g = build_graph(n, random_simple_graph(rng, n))
        space = edge_space(g)
        assert sum(g.degrees) == 2 * g.m == space.dim
        expected_start = 0
        for v in range(g.n):
            start, stop = space.out_blocks[v]
            assert start == expected_start
            assert stop - start == g.degrees[v]
            for k in range(start, stop):
                assert space.edges[k][0] == v
            expected_start = stop
        assert expected_start == space.dim


def test_incoming_edges_point_at_vertex():
    g = complete_bipartite_graph(2, 3)
    space = edge_space(g)
    for v in range(g.n):
        assert len(space.in_edges[v]) == g.degrees[v]
        for k in space.in_edges[v]:
            assert space.edges[k][1] == v


def test_parse_graph_file():
    text = """# a triangle with a tail
    4
    0 1
    1 2
    2 0   # closing edge
    2 3
    """
    g = parse_graph_file(text)
    assert g.n == 4
    assert g.m == 4


def test_parse_graph_file_errors():
    with pytest.raises(ValueError, match="vertex count"):
        parse_graph_file("# only comments\n")
    with pytest.raises(ValueError, match="expected 'u v'"):
        parse_graph_file("3\n0 1 2\n")
    with pytest.raises(ValueError, match="vertex count alone"):
        parse_graph_file("3 3\n")


@pytest.mark.parametrize(
    "text, lineno, field",
    [("three\n0 1\n", 1, "three"), ("# c\n3\n0 1\n1 2.5\n", 4, "2.5"), ("2\nz 1\n", 2, "z")],
    ids=["vertex_count", "edge_after_comment", "first_endpoint"],
)
def test_parse_graph_file_names_line_of_bad_integer(text, lineno, field):
    with pytest.raises(ValueError, match=f"^line {lineno}: expected an integer, got '{field}'"):
        parse_graph_file(text)


def test_load_graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2\n0 1\n")
    g = load_graph_file(path)
    assert g.edges == ((0, 1),)
