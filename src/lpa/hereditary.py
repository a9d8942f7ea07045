"""Hereditary and saturated vertex sets, entry paths, restriction graphs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    INFINITE,
    Edge,
    Graph,
    GraphError,
    tree_bits_of_set,
)


class NotHereditaryError(ValueError):
    """Operation requires a hereditary vertex set."""


@dataclass(frozen=True)
class HereditarySet:
    """A vertex subset with its hereditary/saturated status precomputed."""

    graph: Graph
    members: frozenset[str]
    is_hereditary: bool = field(init=False)
    is_saturated: bool = field(init=False)

    def __post_init__(self):
        g = self.graph
        for v in self.members:
            g.check_vertex(v)
        hereditary = all(
            e.dst in self.members for v in self.members for e in g.out_edges(v)
        )
        saturated = True
        for v in g.vertices:
            if v in self.members:
                continue
            out = g.out_edges(v)
            if out and all(e.dst in self.members for e in out):
                saturated = False
                break
        object.__setattr__(self, "is_hereditary", hereditary)
        object.__setattr__(self, "is_saturated", saturated)

    def require_hereditary(self) -> None:
        if not self.is_hereditary:
            raise NotHereditaryError(f"set is not hereditary: {sorted(self.members)}")


@dataclass(frozen=True)
class EntryPathSet:
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
    return HereditarySet(g, g.vertices_of(tree_bits_of_set(g, X)))


def saturated_closure(g: Graph, H: HereditarySet) -> HereditarySet:
    """Least fixed point of the saturation step over a hereditary set.

    Vertices are examined in declared order; a full pass that adds
    nothing terminates the iteration.
    """
    H.require_hereditary()
    members = set(H.members)
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v in members:
                continue
            out = g.out_edges(v)
            if out and all(e.dst in members for e in out):
                members.add(v)
                changed = True
    return HereditarySet(g, frozenset(members))


def entry_paths(g: Graph, H: HereditarySet) -> EntryPathSet:
    """F_E(H), or INFINITE when an outside cycle can feed H."""
    H.require_hereditary()
    inside = g.vertex_bits(H.members)
    outside_reaching = {
        v for v in g.vertices if v not in H.members and g.tree_bits(v) & inside
    }
    # a cycle among outside vertices that reach H forces infinitely many paths
    indeg = {v: 0 for v in outside_reaching}
    succ = {v: [] for v in outside_reaching}
    for e in g.edges:
        if e.src in outside_reaching and e.dst in outside_reaching:
            succ[e.src].append(e.dst)
            indeg[e.dst] += 1
    queue = [v for v in outside_reaching if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != len(outside_reaching):
        return EntryPathSet(H, INFINITE)

    paths: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [
        (v, ()) for v in g.vertices if v in outside_reaching
    ]
    while stack:
        at, acc = stack.pop()
        for e in g.out_edges(at):
            if e.dst in H.members:
                paths.append(acc + (e.id,))
            elif e.dst in outside_reaching:
                stack.append((e.dst, acc + (e.id,)))
    paths.sort(key=lambda p: (len(p), p))
    return EntryPathSet(H, tuple(paths))


def path_vertex_id(path: tuple[str, ...]) -> str:
    """Printable vertex id for an entry path in the restriction graph."""
    return "[" + "".join(path) + "]"


def restriction_graph(g: Graph, H: HereditarySet) -> Graph:
    """The graph _H E whose Leavitt path algebra realizes the ideal I(H)."""
    H.require_hereditary()
    eps = entry_paths(g, H)
    if eps.is_infinite:
        raise GraphError("entry path set is infinite; restriction graph not finite")
    vertices = [v for v in g.vertices if v in H.members]
    vertices += [path_vertex_id(p) for p in eps.paths]
    edges = [e for e in g.edges if e.src in H.members]
    for p in eps.paths:
        edges.append(
            Edge(id="bar" + path_vertex_id(p), src=path_vertex_id(p), dst=g.edge(p[-1]).dst)
        )
    return Graph(vertices, edges)


def is_dense_ideal(g: Graph, H: HereditarySet) -> bool:
    """True iff every vertex connects into H (I(H) is then a dense ideal).

    Connectivity is tested against the literal member set, so the test is
    meaningful for arbitrary vertex sets, not only hereditary ones.
    """
    inside = g.vertex_bits(H.members)
    return all(g.tree_bits(v) & inside for v in g.vertices)


def resolve_vertex(g: Graph, v: str, H: HereditarySet) -> list[tuple[str, ...]]:
    """Paths alpha_i with ranges in H such that sum alpha_i alpha_i^* = v.

    Unfolds the out-edges of v until every branch lands in H; that
    unfolding is finite exactly when v lies in the saturated closure of H.
    The identity itself is checked by the symbolic engine elsewhere.  A
    length-0 path is the empty tuple.
    """
    if v not in saturated_closure(g, H).members:
        raise GraphError(f"vertex {v!r} is outside the saturated closure")

    # depth-first over the unfolding, edges in declared order
    out: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(v, ())]
    while stack:
        u, path = stack.pop()
        if u in H.members:
            out.append(path)
        else:
            stack.extend((e.dst, path + (e.id,)) for e in reversed(g.out_edges(u)))
    return out
