"""Simple graphs and the directed-edge basis of the walk's Hilbert space.

Vertices are always labelled ``0 .. n-1``. An undirected edge set is stored
in canonical ``(min, max)`` form; the walk itself lives on the *directed*
edges, two per undirected edge, arranged in lexicographic order. The
position of a directed edge in that order is the index of the corresponding
computational-basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Graph",
    "DirectedEdgeSpace",
    "build_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite_graph",
    "standard_family",
    "edge_space",
    "parse_graph_file",
    "load_graph_file",
]


@dataclass(frozen=True)
class Graph:
    """Validated simple undirected graph with vertices ``0 .. n-1``.

    Instances are immutable; build them through :func:`build_graph` or one
    of the family constructors so the invariants (no loops, no duplicate
    edges, no isolated vertices) are guaranteed to hold.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(repr=False)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.degrees[v]


@dataclass(frozen=True)
class DirectedEdgeSpace:
    """The ordered basis of directed edges underlying the walk.

    Attributes
    ----------
    edges : tuple[tuple[int, int], ...]
        All ``2m`` directed edges ``(u, v)`` sorted lexicographically:
        ``(u, v) < (p, q)`` iff ``u < p``, or ``u == p and v < q``.
    index_of : dict[tuple[int, int], int]
        Basis index of each directed edge.
    reverse_of : tuple[int, ...]
        ``reverse_of[k]`` is the index of ``(v, u)`` when edge ``k`` is
        ``(u, v)``. A fixed-point-free involution.
    out_blocks : tuple[tuple[int, int], ...]
        Per vertex, the half-open index range ``(start, stop)`` of its
        outgoing edges. Blocks are contiguous and ordered by vertex label.
    in_edges : tuple[tuple[int, ...], ...]
        Per vertex, the (sorted) indices of its incoming edges.
    """

    edges: tuple[tuple[int, int], ...]
    index_of: dict[tuple[int, int], int] = field(repr=False)
    reverse_of: tuple[int, ...] = field(repr=False)
    out_blocks: tuple[tuple[int, int], ...] = field(repr=False)
    in_edges: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def dim(self) -> int:
        """Dimension ``2m`` of the walk's Hilbert space."""
        return len(self.edges)


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize a simple graph.

    Parameters
    ----------
    n : int
        Vertex count, at least 2.
    edges : iterable of (int, int)
        Undirected edges. Duplicates (in either orientation) are dropped.

    Raises
    ------
    ValueError
        On ``n < 2``, an out-of-range endpoint, a loop edge, or a vertex
        that would end up with degree 0 (the walk needs a coin space at
        every vertex). ``n`` larger than twice the edge count is rejected
        before any per-vertex storage is allocated.
    """
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
    return Graph(n=n, edges=tuple(canonical), degrees=tuple(degrees))


def path_graph(n: int) -> Graph:
    """Path on ``n >= 2`` vertices with edges ``(i, i+1)``."""
    if n < 2:
        raise ValueError(f"path graph needs n >= 2, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices: the path plus the closing edge."""
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)])


def star_graph(n: int) -> Graph:
    """Star on ``n >= 2`` vertices: centre 0 adjacent to all others."""
    if n < 2:
        raise ValueError(f"star graph needs n >= 2, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts ``{0..a-1}`` and ``{a..a+b-1}``.

    The first part takes the lower vertex labels, which fixes the edge
    ordering (and hence all operator matrices) for a given ``(a, b)``.
    """
    if a < 1 or b < 1:
        raise ValueError(f"complete bipartite graph needs both parts >= 1, got ({a}, {b})")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "star": (star_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
    "kab": (complete_bipartite_graph, 2),
}


def standard_family(kind: str, *params: int) -> Graph:
    """Build one of the named graph families.

    ``kind`` is one of ``path``, ``cycle``, ``star``,
    ``complete_bipartite`` (alias ``kab``). Path/cycle/star take a single
    size parameter, complete bipartite takes the two part sizes.
    """
    try:
        builder, arity = _FAMILIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown graph family {kind!r}; expected one of "
            f"{sorted(set(_FAMILIES) - {'kab'})} (or 'kab')"
        ) from None
    if len(params) != arity:
        raise ValueError(f"graph family {kind!r} takes {arity} size parameter(s), got {len(params)}")
    return builder(*params)


def edge_space(g: Graph) -> DirectedEdgeSpace:
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

    return DirectedEdgeSpace(
        edges=tuple(directed),
        index_of=index_of,
        reverse_of=reverse_of,
        out_blocks=tuple(out_blocks),
        in_edges=tuple(tuple(ks) for ks in incoming),
    )


def _parse_int(field: str, lineno: int, raw: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {field!r} in {raw!r}") from None


def parse_graph_file(text: str) -> Graph:
    """Parse the plain-text graph format.

    First non-comment line is the vertex count ``n``; each further line is
    one undirected edge ``u v``. ``#`` starts a comment (full line or
    trailing); blank lines are ignored.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ValueError(f"line {lineno}: expected the vertex count alone, got {raw!r}")
            n = _parse_int(fields[0], lineno, raw)
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        edges.append((_parse_int(fields[0], lineno, raw), _parse_int(fields[1], lineno, raw)))
    if n is None:
        raise ValueError("empty graph file: missing vertex count")
    return build_graph(n, edges)


def load_graph_file(path: str | Path) -> Graph:
    return parse_graph_file(Path(path).read_text(encoding="utf-8"))
