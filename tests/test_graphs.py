from __future__ import annotations

import re

import numpy as np
import pytest

from qwalk.graphs import (
    _PLAIN_GRAPH_FILE,
    _parse_graph_lines,
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

from .oracles import arcs, random_simple_graph


def test_smallest_valid_graph():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2
    assert g.m == 1
    assert g.degrees.tolist() == [1, 1]


def test_path_graph_edges():
    g = path_graph(5)
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]
    assert g.degrees.tolist() == [1, 2, 2, 2, 1]


def test_loop_edge_rejected():
    with pytest.raises(ValueError, match="loop edge"):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError, match="outside"):
        build_graph(3, [(0, 3)])


def test_unsigned_endpoint_above_int64_named_as_given():
    # the range check runs before the cast to intp, which would wrap the value
    edges = np.array([[0, 2**63 + 1], [1, 2]], dtype=np.uint64)
    with pytest.raises(ValueError) as err:
        build_graph(3, edges)
    assert str(err.value) == "edge (0, 9223372036854775809) has an endpoint outside 0..2"
    g = build_graph(3, np.array([[2, 1], [0, 1]], dtype=np.uint64))
    assert g.edges.dtype == np.intp and g.edges.tolist() == [[0, 1], [1, 2]]


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
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_edges_are_canonicalized_and_sorted():
    g = build_graph(4, [(3, 2), (1, 0), (2, 0), (0, 1), (3, 1)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert g.degrees.tolist() == [2, 2, 2, 2]


def test_non_integer_endpoint_rejected():
    for edges in ([(0.5, 1), (1, 2)], [(0, 1), (1, "2")], [(0, 1.0), (1, 2)], [(0, 2**70), (1, 2)]):
        with pytest.raises(ValueError, match="integer pairs"):
            build_graph(3, edges)
    with pytest.raises(ValueError, match="integer pairs"):
        build_graph(3, [(0, 1, 2)])


def test_star_degrees():
    g = star_graph(6)
    assert g.degree(0) == 5
    assert all(g.degree(i) == 1 for i in range(1, 6))


def test_complete_bipartite_shape():
    g = complete_bipartite_graph(2, 3)
    assert g.m == 6
    assert g.degrees.tolist() == [3, 3, 2, 2, 2]


def test_cycle_degrees():
    g = cycle_graph(6)
    assert all(d == 2 for d in g.degrees)


# Each family as a Python list of edge tuples: the edges its constructor
# builds with np.arange, np.repeat and np.tile.
_FAMILY_TUPLES = {
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "cycle": lambda n: [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)],
    "star": lambda n: [(0, i) for i in range(1, n)],
    "kab": lambda a, b: [(i, a + j) for i in range(a) for j in range(b)],
}


@pytest.mark.parametrize(
    "kind,params",
    [("path", (2,)), ("path", (3,)), ("path", (9,)), ("cycle", (3,)), ("cycle", (4,)),
     ("cycle", (10,)), ("star", (2,)), ("star", (3,)), ("star", (8,)), ("kab", (1, 1)),
     ("kab", (1, 4)), ("kab", (2, 3)), ("kab", (3, 2)), ("kab", (4, 5))],
)
def test_family_equals_build_graph_of_its_tuple_list(kind, params):
    g = standard_family(kind, *params)
    assert g == build_graph(sum(params), _FAMILY_TUPLES[kind](*params))
    assert g.edges.dtype == np.intp and g.degrees.dtype == np.intp


def test_edge_array_and_its_tuple_list_give_equal_graphs():
    rng = np.random.default_rng(5)
    for n in (2, 5, 12, 40):
        edges = random_simple_graph(rng, n)
        array = np.array(edges, dtype=np.int64)
        assert array.shape == (len(edges), 2)
        assert build_graph(n, array) == build_graph(n, edges)
        # reversed pairs and repeats, as a list would give them
        doubled = np.concatenate((array, array[::-1, ::-1]))
        assert build_graph(n, doubled) == build_graph(n, edges + [(v, u) for u, v in edges])
    # an array fails with the message a list of the same pairs gets
    for bad in ([(0, 1), (1, 1)], [(0, 1), (1, 3)]):
        messages = []
        for edges in (bad, np.array(bad)):
            with pytest.raises(ValueError) as err:
                build_graph(3, edges)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "kind,params",
    [("path", (1,)), ("cycle", (2,)), ("star", (1,)), ("kab", (0, 3))],
)
def test_family_size_below_minimum(kind, params):
    with pytest.raises(ValueError):
        standard_family(kind, *params)


@pytest.mark.parametrize(
    "kind,at_limit,over",
    [("path", (13,), (14,)), ("cycle", (12,), (13,)), ("star", (13,), (14,)),
     ("kab", (3, 4), (5, 3))],
)
def test_family_arc_count_is_capped_before_the_edge_list(monkeypatch, kind, at_limit, over):
    import qwalk.graphs

    monkeypatch.setattr(qwalk.graphs, "MAX_FAMILY_ARCS", 24)
    assert edge_space(standard_family(kind, *at_limit)).dim == 24
    monkeypatch.setattr(qwalk.graphs, "build_graph", _unreachable_build)
    with pytest.raises(ValueError, match="arcs; graph families are built up to 24"):
        standard_family(kind, *over)


def _unreachable_build(*args):
    raise AssertionError("the edge list was built before the arc count was checked")


def test_oversized_family_raises_without_building(monkeypatch):
    import qwalk
    import qwalk.graphs

    monkeypatch.setattr(qwalk.graphs, "build_graph", _unreachable_build)
    with pytest.raises(ValueError, match="path graph of this size has 19999999999998 arcs"):
        qwalk.path_graph(10**13)


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown graph family"):
        standard_family("torus", 4)


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 7
    space = edge_space(g)
    for a in (g.edges, g.degrees, space.starts, space.reverse_of):
        assert a.dtype == np.intp
        with pytest.raises(ValueError):
            a[0] = 1


def test_graph_and_space_compare_and_hash_by_value():
    a, b = path_graph(5), build_graph(5, [(4, 3), (0, 1), (2, 1), (3, 2)])
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != path_graph(6) and a != cycle_graph(5) and a != "path"
    assert edge_space(a) == edge_space(b) and hash(edge_space(a)) == hash(edge_space(b))
    assert edge_space(a) != edge_space(star_graph(5))
    assert len({a, b, cycle_graph(5)}) == 2


def test_p5_edge_order():
    space = edge_space(path_graph(5))
    assert arcs(space) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3),
    ]
    assert space.starts.tolist() == [0, 1, 3, 5, 7, 8]
    assert space.reverse_of.tolist() == [1, 0, 3, 2, 5, 4, 7, 6]


def test_k23_index_and_reverse():
    space = edge_space(complete_bipartite_graph(2, 3))
    assert arcs(space).index((0, 2)) == 0
    assert space.reverse_of[0] == 6
    assert arcs(space)[6] == (2, 0)


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
        arc_list = arcs(space)
        assert sum(g.degrees) == 2 * g.m == space.dim
        assert len(space.starts) == g.n + 1
        expected_start = 0
        for v in range(g.n):
            start, stop = space.starts[v], space.starts[v + 1]
            assert start == expected_start
            assert stop - start == g.degrees[v]
            for k in range(start, stop):
                assert arc_list[k][0] == v
            expected_start = stop
        assert expected_start == space.dim
        assert arc_list == sorted(arc_list)
        assert arc_list == sorted([(u, v) for u, v in g.edges.tolist()]
                                  + [(v, u) for u, v in g.edges.tolist()])


def test_incoming_edges_point_at_vertex():
    g = complete_bipartite_graph(2, 3)
    space = edge_space(g)
    arc_list = arcs(space)
    for v in range(g.n):
        incoming = space.reverse_of[space.starts[v]:space.starts[v + 1]]
        assert len(incoming) == g.degrees[v]
        for k in incoming:
            assert arc_list[k][1] == v
        neighbours = [u for e in g.edges.tolist() if v in e for u in e if u != v]
        assert sorted(arc_list[k][0] for k in incoming) == sorted(neighbours)


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


@pytest.mark.parametrize(
    "text, lineno, field",
    [
        ("3\n0 1\n1 9999999999999999999\n", 3, "9999999999999999999"),
        ("3\n0 1\n1 -99999999999999999999\n", 3, "-99999999999999999999"),
        ("3\n0 1\n1 9223372036854775808\n", 3, "9223372036854775808"),
        ("9999999999999999999\n0 1\n1 2\n", 1, "9999999999999999999"),
    ],
    ids=["19_digit_endpoint", "20_digit_negative_endpoint", "2_to_the_63", "19_digit_count"],
)
def test_parse_graph_file_names_line_of_integer_beyond_int64(text, lineno, field):
    message = f"^line {lineno}: integer '{field}' in '.*' does not fit in int64$"
    with pytest.raises(ValueError, match=message):
        parse_graph_file(text)


def test_largest_int64_endpoint_reaches_the_range_check():
    message = r"^edge \(1, 9223372036854775807\) has an endpoint outside 0\.\.2$"
    with pytest.raises(ValueError, match=message):
        parse_graph_file("3\n0 1\n1 9223372036854775807\n")


_C11 = "11\n" + "".join(f"{i} {(i + 1) % 11}\n" for i in range(11))


@pytest.mark.parametrize(
    "text",
    [
        "# C11\n" + _C11,
        _C11.replace("5 6\n", "5 6  # trailing\n"),
        _C11.replace("\n", "\r\n"),
        _C11.replace(" ", "\t"),
        _C11.replace("3 4\n", "+3 4\n"),
        _C11.replace("9 10\n", "9 1_0\n"),
        _C11.replace("10 0\n", "0000000000000000010 0\n"),
        _C11[:-1],
        _C11.replace("\n", "\n\n", 1),
    ],
    ids=["comment_line", "trailing_comment", "crlf", "tabs", "plus_sign", "underscore",
         "19_digits", "no_final_newline", "blank_line"],
)
def test_other_forms_parse_line_by_line_to_the_plain_forms_graph(text):
    assert re.fullmatch(_PLAIN_GRAPH_FILE, _C11)
    assert not re.fullmatch(_PLAIN_GRAPH_FILE, text)
    assert parse_graph_file(text) == parse_graph_file(_C11) == cycle_graph(11)


@pytest.mark.parametrize("digits", [18, 19, 20])
def test_long_endpoints_give_the_line_parsers_message(digits):
    # 18 digits fit int64 and take the bulk route; longer ones go line by line
    text = _C11 + f"0 {'9' * digits}\n"
    assert bool(re.fullmatch(_PLAIN_GRAPH_FILE, text)) == (digits <= 18)
    with pytest.raises(ValueError) as expected:
        _parse_graph_lines(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        parse_graph_file(text)


def test_load_graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2\n0 1\n")
    g = load_graph_file(path)
    assert g.edges.tolist() == [[0, 1]]
