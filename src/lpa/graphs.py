"""Finite directed multigraphs: parsing, reachability, cycles, path counting.

Everything downstream (closures, classification, the symbolic engine)
queries graphs exclusively through this module.  Graphs and cycles are
immutable; all functions here are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable


class GraphError(ValueError):
    """Malformed graph document or query against unknown ids."""


class _Infinite:
    """Distinguished infinite count; not an error value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

Count = "int | _Infinite"


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


class Graph:
    """Finite directed multigraph with named vertices and edges.

    Vertex and edge iteration order is the declared order, which makes
    every derived report deterministic.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        if not self.vertices:
            raise GraphError("graph must have at least one vertex")
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise GraphError(f"duplicate vertex id: {v!r}")
            seen.add(v)
        self._vertex_set = seen
        self._edge_by_id: dict[str, Edge] = {}
        self._out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.id in self._edge_by_id:
                raise GraphError(f"duplicate edge id: {e.id!r}")
            if e.src not in self._vertex_set:
                raise GraphError(f"edge {e.id!r} has undeclared source: {e.src!r}")
            if e.dst not in self._vertex_set:
                raise GraphError(f"edge {e.id!r} has undeclared target: {e.dst!r}")
            self._edge_by_id[e.id] = e
            self._out[e.src].append(e)
            self._in[e.dst].append(e)
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}

    # -- basic views ------------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def check_vertex(self, v: str) -> None:
        if v not in self._vertex_set:
            raise GraphError(f"unknown vertex: {v!r}")

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise GraphError(f"unknown edge: {eid!r}") from None

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_by_id

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self.check_vertex(v)
        return tuple(self._out[v])

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        self.check_vertex(v)
        return tuple(self._in[v])

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    def is_bifurcation(self, v: str) -> bool:
        return len(self.out_edges(v)) >= 2

    def vertex_order(self, v: str) -> int:
        return self._vertex_index[v]

    def sorted_vertices(self, vs: Iterable[str]) -> list[str]:
        return sorted(vs, key=self.vertex_order)

    def path_range(self, source: str, edge_ids: tuple[str, ...]) -> str:
        """Range of the path starting at `source` along `edge_ids`."""
        self.check_vertex(source)
        at = source
        for eid in edge_ids:
            e = self.edge(eid)
            if e.src != at:
                raise GraphError(f"edge {eid!r} does not continue the path at {at!r}")
            at = e.dst
        return at

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_document(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }


@dataclass(frozen=True)
class Cycle:
    """Simple cycle stored in canonical rotation.

    The rotation starts at the lexicographically least vertex on the
    cycle, so equal cycles compare equal regardless of how they were
    discovered.
    """

    edges: tuple[str, ...]
    sources: tuple[str, ...]  # sources[i] = source of edges[i]

    @property
    def base(self) -> str:
        return self.sources[0]

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.sources)

    @property
    def edge_set(self) -> frozenset[str]:
        return frozenset(self.edges)

    def __len__(self):
        return len(self.edges)

    def rotation_at(self, u: str) -> tuple[str, ...]:
        """The cycle read starting from its vertex `u`."""
        i = self.sources.index(u)
        return self.edges[i:] + self.edges[:i]


def make_cycle(g: Graph, edge_ids: Iterable[str]) -> Cycle:
    """Validate an edge sequence as a simple cycle and canonicalize it."""
    eids = tuple(edge_ids)
    if not eids:
        raise GraphError("a cycle needs at least one edge")
    edges = [g.edge(eid) for eid in eids]
    for a, b in zip(edges, edges[1:] + edges[:1]):
        if a.dst != b.src:
            raise GraphError(f"edges {a.id!r} and {b.id!r} are not consecutive")
    sources = [e.src for e in edges]
    if len(set(sources)) != len(sources):
        raise GraphError("cycle is not simple: repeated source vertex")
    base = min(sources)
    i = sources.index(base)
    return Cycle(edges=eids[i:] + eids[:i], sources=tuple(sources[i:] + sources[:i]))


# -- parsing ---------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the JSON graph document format into a validated Graph."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed graph document: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    vertices = doc.get("vertices")
    edge_docs = doc.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError("'vertices' must be a list of strings")
    if not isinstance(edge_docs, list):
        raise GraphError("'edges' must be a list")
    edges = []
    for ed in edge_docs:
        if not isinstance(ed, dict) or not {"id", "src", "dst"} <= set(ed):
            raise GraphError(f"malformed edge record: {ed!r}")
        if not all(isinstance(ed[k], str) for k in ("id", "src", "dst")) or not ed["id"]:
            raise GraphError(
                f"edge id, src and dst must be strings, the id nonempty: {ed!r}"
            )
        edges.append(Edge(id=ed["id"], src=ed["src"], dst=ed["dst"]))
    return Graph(vertices, edges)


# -- reachability ----------------------------------------------------------


def tree(g: Graph, v: str) -> frozenset[str]:
    """T(v): the forward-reachable vertex set, including v itself."""
    g.check_vertex(v)
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for e in g.out_edges(u):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return frozenset(seen)


def tree_of_set(g: Graph, vs: Iterable[str]) -> frozenset[str]:
    out: set[str] = set()
    for v in vs:
        out |= tree(g, v)
    return frozenset(out)


def connects_to(g: Graph, v: str, H: Iterable[str]) -> bool:
    """True iff some vertex of H is forward-reachable from v."""
    hs = set(H)
    for w in hs:
        g.check_vertex(w)
    return bool(tree(g, v) & hs)


# -- components ------------------------------------------------------------


def connected_components(g: Graph) -> list[Graph]:
    """Split into maximal components of the underlying undirected graph."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        a, b = find(e.src), find(e.dst)
        if a != b:
            parent[a] = b
    groups: dict[str, str] = {}
    order: list[str] = []
    for v in g.vertices:
        root = find(v)
        if root not in groups:
            groups[root] = root
            order.append(root)
    comps = []
    for root in order:
        vs = [v for v in g.vertices if find(v) == root]
        vset = set(vs)
        es = [e for e in g.edges if e.src in vset]
        comps.append(Graph(vs, es))
    return comps


# -- cycle enumeration -----------------------------------------------------


def simple_cycles(g: Graph) -> list[Cycle]:
    """All simple cycles, each exactly once in canonical rotation.

    DFS from each start vertex, only visiting vertices >= the start in
    lexicographic order; graphs here are small so no Johnson-style
    blocking is needed.
    """
    found: list[Cycle] = []
    for start in sorted(g._vertex_set):
        # path of edges; sources strictly above `start` except the start itself
        def walk(at: str, path: list[str], used: set[str]):
            for e in g.out_edges(at):
                if e.dst == start:
                    found.append(make_cycle(g, path + [e.id]))
                elif e.dst > start and e.dst not in used:
                    used.add(e.dst)
                    path.append(e.id)
                    walk(e.dst, path, used)
                    path.pop()
                    used.remove(e.dst)

        walk(start, [], {start})
    found.sort(key=lambda c: (len(c), c.base, c.edges))
    return found


def cycle_vertices(g: Graph) -> frozenset[str]:
    """Vertices lying on at least one cycle."""
    out = set()
    for v in g.vertices:
        if v not in out:
            if any(v in tree(g, e.dst) for e in g.out_edges(v)):
                out.add(v)
    return frozenset(out)


def cycle_exits(g: Graph, c: Cycle) -> frozenset[str]:
    """Edges leaving the cycle: source on the cycle, edge not in it."""
    for eid in c.edges:
        g.edge(eid)
    exits = set()
    for v in c.vertex_set:
        for e in g.out_edges(v):
            if e.id not in c.edge_set:
                exits.add(e.id)
    return frozenset(exits)


# -- path counting ---------------------------------------------------------


def count_paths_into(g: Graph, targets: Iterable[str], forbidden: Iterable[str] = ()):
    """Count paths ending in `targets` that avoid `forbidden` edges.

    Length-0 paths count, one per target vertex.  Returns INFINITE when a
    forbidden-free cycle can reach the targets; otherwise the exact count.
    """
    tset = set(targets)
    for v in tset:
        g.check_vertex(v)
    fset = set(forbidden)
    for eid in fset:
        g.edge(eid)
    allowed = [e for e in g.edges if e.id not in fset]

    # vertices that reach the targets through allowed edges
    rev: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in allowed:
        rev[e.dst].append(e.src)
    reach = set(tset)
    stack = list(tset)
    while stack:
        u = stack.pop()
        for w in rev[u]:
            if w not in reach:
                reach.add(w)
                stack.append(w)

    # any allowed cycle inside `reach` makes the count infinite
    sub = {v: [] for v in reach}
    indeg = {v: 0 for v in reach}
    for e in allowed:
        if e.src in reach and e.dst in reach:
            sub[e.src].append(e.dst)
            indeg[e.dst] += 1
    order = [v for v in reach if indeg[v] == 0]
    topo = []
    queue = list(order)
    while queue:
        u = queue.pop()
        topo.append(u)
        for w in sub[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(topo) != len(reach):
        return INFINITE

    # f(v) = number of paths from v ending in targets; total over sources
    f = {v: 0 for v in reach}
    out_in_reach: dict[str, list[str]] = {v: [] for v in reach}
    for e in allowed:
        if e.src in reach and e.dst in reach:
            out_in_reach[e.src].append(e.dst)
    for v in reversed(topo):
        f[v] = (1 if v in tset else 0) + sum(f[w] for w in out_in_reach[v])
    return sum(f.values())


def enumerate_paths_into(
    g: Graph, targets: Iterable[str], forbidden: Iterable[str] = ()
) -> list[tuple[str, tuple[str, ...]]]:
    """Brute-force list of the paths counted by count_paths_into.

    Only valid when the count is finite; used as the independent oracle.
    Returns (source vertex, edge ids) pairs.
    """
    tset = set(targets)
    fset = set(forbidden)
    rev: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.id not in fset:
            rev[e.dst].append(e.src)
    reach = set(tset)
    stack = list(tset)
    while stack:
        u = stack.pop()
        for w in rev[u]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    results: list[tuple[str, tuple[str, ...]]] = []

    def extend(src: str, edges: tuple[str, ...], at: str, depth: int):
        if depth > len(g.vertices):
            raise GraphError("path enumeration does not terminate (infinite count)")
        if at in tset:
            results.append((src, edges))
        for e in g.out_edges(at):
            if e.id not in fset and e.dst in reach:
                extend(src, edges + (e.id,), e.dst, depth + 1)

    for v in g.vertices:
        if v in reach:
            extend(v, (), v, 0)
    return results


def disjoint_union(g1: Graph, g2: Graph, suffix1: str = "", suffix2: str = "'") -> Graph:
    """Disjoint union with ids kept apart by suffixes."""
    vs = [v + suffix1 for v in g1.vertices] + [v + suffix2 for v in g2.vertices]
    es = [Edge(e.id + suffix1, e.src + suffix1, e.dst + suffix1) for e in g1.edges]
    es += [Edge(e.id + suffix2, e.src + suffix2, e.dst + suffix2) for e in g2.edges]
    return Graph(vs, es)
