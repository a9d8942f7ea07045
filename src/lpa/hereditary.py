"""Hereditary and saturated vertex sets, entry paths, restriction graphs."""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .graphs import INFINITE, Edge, Graph, GraphError


class NotHereditaryError(ValueError):
    """Operation requires a hereditary vertex set."""


class HereditarySet:
    """A vertex subset with its hereditary status precomputed.

    The set is kept as `bits`, a bitset over the graph's declared vertices,
    which every test on it reads.  Built from members, each member is
    checked against the graph once, in `__post_init__`, to make the bits.
    Built by `from_bits`, whose bits name vertices of the graph already,
    it checks nothing and makes `members`, the frozenset of names, only on
    first read.  Either way `__post_init__` computes the hereditary flag.

    Two are equal when they have the same graph object and members."""

    __slots__ = ("graph", "_members", "is_hereditary", "bits")

    def __init__(
        self, graph: Graph, members: Optional[frozenset[str]], bits: Optional[int] = None
    ):
        self.graph = graph
        self._members = members  # None, with bits given, until first read
        self.bits = bits  # the members as a bitset; checked and computed when None
        self.__post_init__()

    @classmethod
    def from_bits(cls, graph: Graph, bits: int) -> "HereditarySet":
        """The set of a bitset of vertices of graph, which its bits already
        name, so no member is looked up or checked again."""
        return cls(graph, None, bits)

    @property
    def members(self) -> frozenset[str]:
        if self._members is None:
            self._members = self.graph.vertices_of(self.bits)
        return self._members

    def __post_init__(self):
        if self.bits is None:
            self.bits = self.graph.vertex_bits(self._members)
        # a set is hereditary iff the union of its members' trees stays inside
        bits = self.bits
        self.is_hereditary = not self.graph.tree_union_bits(bits) & ~bits

    def __eq__(self, other):
        if other.__class__ is not HereditarySet:
            return NotImplemented
        return self.graph == other.graph and self.bits == other.bits

    def __hash__(self):
        return hash((self.graph, self.bits))

    def __repr__(self):
        return f"HereditarySet({self.graph!r}, {self.members!r})"

    def require_hereditary(self) -> None:
        if not self.is_hereditary:
            raise NotHereditaryError(f"set is not hereditary: {sorted(self.members)}")


class EntryPathSet(NamedTuple):
    """F_E(H): first-entry paths into H, or the INFINITE marker.

    Paths are edge-id tuples; the first edge starts outside H, all
    intermediate vertices stay outside, the last edge lands in H.
    """

    target: HereditarySet
    paths: "tuple[tuple[str, ...], ...] | object"  # tuple of paths or INFINITE

    @property
    def is_infinite(self) -> bool:
        return self.paths is INFINITE


def hereditary_closure(g: Graph, X) -> HereditarySet:
    """Least hereditary set containing X: the union of the trees T(v)."""
    return HereditarySet.from_bits(g, g.tree_union_bits(g.vertex_bits(X)))


def saturated_closure(g: Graph, H: HereditarySet) -> HereditarySet:
    """Least saturated set containing the hereditary set H: the vertices w
    whose tree T(w) holds no sink and no cycle vertex outside H, that is
    the vertices that are not ancestors of such a vertex.

    Saturation, which adds a non-sink whose edges all land inside, never
    adds such a vertex x: the first vertex of a cycle to be added would
    need its successor on the cycle inside before it.  Nor any w above x,
    since a path from w to x never enters the hereditary H.  Below any
    other w, the part outside H is acyclic and free of sinks, and
    saturation fills it in order of the longest path into H.

    Every tree holds a sink or a cycle vertex, so a w that reaches no
    vertex of H is out, and only the ancestors of H need the test.  The
    trees of those outside H hold every sink and cycle vertex that can
    fail one of them, and their ancestors are the vertices that fail.
    """
    H.require_hereditary()
    above = g.ancestor_bits(H.bits)
    below = g.tree_union_bits(above & ~H.bits)
    blocking = below & (g.cycle_bits() | g.sink_bits()) & ~H.bits
    return HereditarySet.from_bits(g, above & ~g.ancestor_bits(blocking))


def entry_paths(g: Graph, H: HereditarySet) -> EntryPathSet:
    """F_E(H), or INFINITE when an outside cycle can feed H.

    The paths run through the ancestors of H outside H, and only there.
    """
    H.require_hereditary()
    reaching = g.ancestor_bits(H.bits) & ~H.bits
    # a cycle through an outside vertex that reaches H: every vertex on it
    # reaches H too, and none is inside, since H is hereditary
    if reaching & g.cycle_bits():
        return EntryPathSet(H, INFINITE)

    # the paths are sorted at the end, so the order they are found in is free;
    # the walk meets only vertices of g, so it reads the adjacency g validated
    # at construction instead of checking each vertex again in out_edges, and
    # tests each edge's target by its bit in H and in the reaching set
    out, index_of, inside = g._out, g._vertex_index, H.bits
    paths: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(v, ()) for v in g.names_of(reaching)]
    while stack:
        at, acc = stack.pop()
        for e in out[at]:
            i = index_of[e.dst]
            if inside >> i & 1:
                paths.append(acc + (e.id,))
            elif reaching >> i & 1:
                stack.append((e.dst, acc + (e.id,)))
    paths.sort()
    paths.sort(key=len)  # stable: by length, then as sorted before
    return EntryPathSet(H, tuple(paths))


def path_vertex_id(path: tuple[str, ...], pad: str = "") -> str:
    """Vertex id for an entry path in the restriction graph: `pad`, then the
    path as a JSON list of edge ids, from which it is read back exactly."""
    return pad + json.dumps(path, separators=(",", ":"))


def restriction_graph(g: Graph, eps: EntryPathSet) -> Graph:
    """The graph _H E whose Leavitt path algebra realizes the ideal I(H),
    built from F_E(H) as `entry_paths` gives it, with H its target.

    Each entry path p becomes a vertex `path_vertex_id(p, pad)` with one
    edge "bar" + that id.  The JSON list determines p, so distinct paths
    get distinct ids.  Every id starts with pad + "[", and the pad is the
    shortest run of "#" for which that prefix starts no vertex id of g and
    follows "bar" in no edge id of g, so no new id is one of g's, nor of H's.

    These ids never reach a report.  `ideal_structure` builds a restriction
    graph only for an extreme class, with H the component K = T(c^0), and
    that graph always certifies as purely infinite simple, so its
    certificate names no vertex.  Each path vertex is a source with one
    edge into K, so the cycles are K's: every vertex reaches one, each has
    an exit since K has a bifurcation, and every tree holds all of K, so
    every cycle vertex, since K is strongly connected.
    """
    if eps.is_infinite:
        raise GraphError("entry path set is infinite; restriction graph not finite")
    members = eps.target.members
    vertices = [v for v in g.vertices if v in members]
    edges = [e for e in g.edges if e.src in members]
    taken = list(g.vertices) + [e.id[3:] for e in g.edges if e.id.startswith("bar")]
    pad = ""
    while any(t.startswith(pad + "[") for t in taken):
        pad += "#"
    for p in eps.paths:
        v = path_vertex_id(p, pad)
        vertices.append(v)
        edges.append(Edge("bar" + v, v, g.edge(p[-1]).dst))
    return Graph(vertices, edges)


def is_dense_ideal(g: Graph, H: HereditarySet) -> bool:
    """True iff every vertex connects into H (I(H) is then a dense ideal).

    Connectivity is tested against the literal member set, so the test is
    meaningful for arbitrary vertex sets, not only hereditary ones.
    """
    return g.ancestor_bits(H.bits) == (1 << len(g.vertices)) - 1
