"""Simple graphs and the directed-edge basis of the walk's Hilbert space.

Vertices are always labelled ``0 .. n-1``. A graph stores its undirected
edges as one sorted ``(m, 2)`` array of ``(min, max)`` pairs; the walk
itself lives on the ``2m`` *directed* edges (arcs), two per undirected
edge, arranged in lexicographic order. The position of an arc in that
order is the index of the corresponding computational-basis vector, and
the whole basis is described by two index arrays (:class:`DirectedEdgeSpace`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

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


class _IndexArrays:
    """Frozen record whose ``_arrays`` fields are read-only ``intp`` arrays.

    ``==`` and ``hash`` compare those arrays by value, as they would tuples.
    """

    _arrays: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self._arrays:
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.intp))
            getattr(self, name).flags.writeable = False

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class Graph(_IndexArrays):
    """Validated simple undirected graph with vertices ``0 .. n-1``.

    ``edges`` is the sorted ``(m, 2)`` array of edges ``(u, v)`` with
    ``u < v``, and ``degrees`` the length-``n`` array of vertex degrees.
    Build instances through :func:`build_graph` or one of the family
    constructors so the invariants (no loops, no duplicate edges, no
    isolated vertices) are guaranteed to hold.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray = field(repr=False)
    _arrays = ("edges", "degrees")

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return int(self.degrees[v])


@dataclass(frozen=True, eq=False)
class DirectedEdgeSpace(_IndexArrays):
    """The ordered basis of the ``2m`` arcs (directed edges) of the walk.

    Arcs ``(u, v)`` are sorted lexicographically, and the position of an
    arc in that order is its basis index. Two arrays describe the basis:

    starts : length ``n + 1``
        The outgoing arcs of vertex ``v`` are ``starts[v]:starts[v + 1]``,
        a block of length ``deg(v)``; the blocks tile ``[0, 2m)`` in order.
    reverse_of : length ``2m``
        The index of ``(v, u)`` when arc ``k`` is ``(u, v)``: a
        fixed-point-free involution. ``reverse_of[starts[v]:starts[v + 1]]``
        are the incoming arcs of ``v``.
    """

    starts: np.ndarray
    reverse_of: np.ndarray = field(repr=False)
    _arrays = ("starts", "reverse_of")

    @property
    def dim(self) -> int:
        """Dimension ``2m`` of the walk's Hilbert space."""
        return len(self.reverse_of)


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize a simple graph.

    Parameters
    ----------
    n : int
        Vertex count, at least 2.
    edges : iterable of (int, int)
        Undirected edges. Duplicates (in either orientation) are dropped. An
        ``(m, 2)`` integer ``ndarray`` is used as given.

    Raises
    ------
    ValueError
        On ``n < 2``, a non-integer or out-of-range endpoint, a loop edge, or
        a vertex that would end up with degree 0 (the walk needs a coin space
        at every vertex). ``n`` larger than twice the number of listed edges
        is rejected before any per-vertex storage is allocated.
    """
    if n < 2:
        raise ValueError(f"graph needs at least 2 vertices, got n={n}")
    pairs = edges if isinstance(edges, np.ndarray) else np.asarray(list(edges))
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"):
        raise ValueError(f"edges must be integer pairs, got {pairs.dtype} of shape {pairs.shape}")
    # Range-check in the input dtype: a uint64 endpoint above 2**63 - 1 would wrap in intp.
    pairs = pairs.reshape(-1, 2)
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    bad = outside | (pairs[:, 0] == pairs[:, 1])
    if bad.any():
        k = int(np.argmax(bad))  # the first bad edge, as a loop over the input would find
        u, v = pairs[k]
        if outside[k]:
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        raise ValueError(f"loop edge ({u}, {v}) is not allowed in a simple graph")
    pairs = pairs.astype(np.intp)
    # k edges touch at most 2k vertices; rejecting a larger n here keeps a
    # huge claimed vertex count from allocating the degree table, and keeps
    # the keys min*n + max below n**2 <= 4k**2, far inside int64.
    if n > 2 * len(pairs):
        raise ValueError(
            f"isolated vertex: {len(pairs)} edge(s) touch at most "
            f"{2 * len(pairs)} of the n={n} vertices"
        )
    # Sort and drop repeats rather than np.unique, whose hash-table path
    # (numpy >= 2.3) is far slower on a million distinct int64 keys.
    keys = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    canonical = np.column_stack((keys // n, keys % n))
    degrees = np.bincount(canonical.ravel(), minlength=n)
    if not degrees.all():
        raise ValueError(f"isolated vertex (degree 0): {np.argmin(degrees)}")
    return Graph(n=n, edges=canonical, degrees=degrees)


# A run on a family graph peaks near 130-150 bytes of RSS per arc (noiseless
# cycles of 1e5 and 1e6 vertices), so this many arcs need about 1.3 GB; a
# family is refused above it before its edge list is built. Graph files stay
# uncapped: their memory is proportional to the file itself.
MAX_FAMILY_ARCS = 10**7


def _check_family_arcs(family: str, arcs: int) -> None:
    if arcs > MAX_FAMILY_ARCS:
        raise ValueError(
            f"{family} graph of this size has {arcs} arcs; "
            f"graph families are built up to {MAX_FAMILY_ARCS}"
        )


def path_graph(n: int) -> Graph:
    """Path on ``n >= 2`` vertices with edges ``(i, i+1)``."""
    if n < 2:
        raise ValueError(f"path graph needs n >= 2, got {n}")
    _check_family_arcs("path", 2 * (n - 1))
    return build_graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices: the path plus the closing edge."""
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    _check_family_arcs("cycle", 2 * n)
    return build_graph(n, np.column_stack((np.arange(n), np.arange(1, n + 1) % n)))


def star_graph(n: int) -> Graph:
    """Star on ``n >= 2`` vertices: centre 0 adjacent to all others."""
    if n < 2:
        raise ValueError(f"star graph needs n >= 2, got {n}")
    _check_family_arcs("star", 2 * (n - 1))
    return build_graph(n, np.column_stack((np.zeros(n - 1, dtype=np.intp), np.arange(1, n))))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts ``{0..a-1}`` and ``{a..a+b-1}``.

    The first part takes the lower vertex labels, which fixes the edge
    ordering (and hence all operator matrices) for a given ``(a, b)``.
    """
    if a < 1 or b < 1:
        raise ValueError(f"complete bipartite graph needs both parts >= 1, got ({a}, {b})")
    _check_family_arcs("complete bipartite", 2 * a * b)
    parts = np.repeat(np.arange(a), b), np.tile(np.arange(a, a + b), a)
    return build_graph(a + b, np.column_stack(parts))


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

    Arc ``i`` is edge ``i`` as stored and arc ``i + m`` its reverse; one
    ``lexsort`` puts the ``2m`` arcs in basis order, and its inverse
    permutation maps the partner of each arc to its basis index. Sorting
    makes the outgoing arcs of vertex ``v`` a contiguous block of length
    ``deg(v)`` starting at ``sum(deg(j) for j < v)``.
    """
    m = g.m
    arcs = np.concatenate((g.edges, g.edges[:, ::-1]))
    order = np.lexsort((arcs[:, 1], arcs[:, 0]))
    position = np.empty_like(order)
    position[order] = np.arange(2 * m)
    return DirectedEdgeSpace(
        starts=np.concatenate(([0], np.cumsum(g.degrees))),
        reverse_of=position[(order + m) % (2 * m)],
    )


def _parse_int(field: str, lineno: int, raw: str) -> int:
    try:
        value = int(field)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {field!r} in {raw!r}") from None
    if not -(2**63) <= value < 2**63:  # numpy would not read it as an integer
        raise ValueError(f"line {lineno}: integer {field!r} in {raw!r} does not fit in int64")
    return value


# The plain form of a graph file: the vertex count alone on the first line,
# then one "u v" edge per line, in ASCII digits and single spaces, every line
# ending in "\n". At most 18 digits keep every value inside int64. ``re``
# compiles it on first use, not at import.
_PLAIN_GRAPH_FILE = r"[0-9]{1,18}\n(?:[0-9]{1,18} [0-9]{1,18}\n)*"


def parse_graph_file(text: str) -> Graph:
    """Parse the plain-text graph format.

    First non-comment line is the vertex count ``n``; each further line is
    one undirected edge ``u v``. ``#`` starts a comment (full line or
    trailing); blank lines are ignored.

    A file in the plain form (no comments, blank lines, tabs, signs or
    carriage returns) is read in bulk, one ``split`` into one integer array;
    any other text goes line by line, which also words every line-numbered
    error. Both routes give the same :class:`Graph` or the same message.
    """
    if re.fullmatch(_PLAIN_GRAPH_FILE, text):
        values = np.array(text.split(), dtype=np.int64)
        return build_graph(int(values[0]), values[1:].reshape(-1, 2))
    return _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> Graph:
    """:func:`parse_graph_file` one line at a time: any text, line-numbered errors."""
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
