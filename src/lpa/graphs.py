"""Finite directed multigraphs: parsing, reachability, cycles, path counting.

Everything downstream (closures, classification, the symbolic engine)
queries graphs exclusively through this module.  Graphs and cycles are
immutable; all functions here are pure.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional


class GraphError(ValueError):
    """Malformed graph document or query against unknown ids."""


class InvariantError(RuntimeError):
    """A fact the theory guarantees failed to hold: a bug, not bad input."""


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


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class Graph:
    """Finite directed multigraph with named vertices and edges.

    Vertex and edge iteration order is the declared order, which makes
    every derived report deterministic.

    Reachability is indexed once, on first use: a Tarjan decomposition
    into strongly connected components, and from it T(v) and the
    ancestors of v for every vertex as int bitsets whose bit i stands for
    ``vertices[i]``, and each component's inflow, from which `path_count`
    and the cycle classification read their counts.  A graph never
    changes after construction, so the index never goes stale.  The
    vertex sets are ints rather than frozensets because callers may keep
    many graphs alive: over the 44 graphs of the lpabench structure
    workload (up to 200 vertices) the whole index takes 0.23 MB, and a
    frozenset per vertex for the trees alone would add 4.7 MB.
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
        by_id: dict[str, Edge] = {}
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            eid, src, dst = e
            if eid in by_id:
                raise GraphError(f"duplicate edge id: {eid!r}")
            if src not in seen:
                raise GraphError(f"edge {eid!r} has undeclared source: {src!r}")
            if dst not in seen:
                raise GraphError(f"edge {eid!r} has undeclared target: {dst!r}")
            by_id[eid] = e
            out[src].append(e)
        self._edge_by_id = by_id
        self._out = {v: tuple(es) for v, es in out.items()}
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._index: Optional[_ReachIndex] = None

    # -- basic views ------------------------------------------------------

    def check_vertex(self, v: str) -> None:
        if v not in self._vertex_index:
            raise GraphError(f"unknown vertex: {v!r}")

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise GraphError(f"unknown edge: {eid!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self.check_vertex(v)
        return self._out[v]

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    def sorted_vertices(self, vs: Iterable[str]) -> list[str]:
        return sorted(vs, key=self._vertex_index.__getitem__)

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

    # -- reachability index -------------------------------------------------

    def _reach(self) -> "_ReachIndex":
        if self._index is None:
            self._index = _ReachIndex(self)
        return self._index

    def vertex_bits(self, vs: Iterable[str]) -> int:
        """The bitset of a vertex set."""
        bits = 0
        for v in vs:
            self.check_vertex(v)
            bits |= 1 << self._vertex_index[v]
        return bits

    def vertices_of(self, bits: int) -> frozenset[str]:
        """The vertex set of a bitset."""
        out = []
        while bits:
            low = bits & -bits
            out.append(self.vertices[low.bit_length() - 1])
            bits ^= low
        return frozenset(out)

    def tree_bits(self, v: str) -> int:
        """T(v), the vertices forward-reachable from v (v included), as a bitset."""
        self.check_vertex(v)
        return self._reach().trees[self._vertex_index[v]]

    def all_tree_bits(self) -> tuple[int, ...]:
        """T(v) for every vertex v, in declared order, as bitsets: the
        index's own table, read in one go."""
        return self._reach().trees

    def tree_union_bits(self, bits: int) -> int:
        """The union of the trees T(v), v in the bitset `bits`.

        A vertex w already in the union adds nothing, since T(w) lies
        inside the tree that holds w, so only the vertices outside the
        union so far are looked up.
        """
        trees = self._reach().trees
        out = 0
        while bits:
            out |= trees[(bits & -bits).bit_length() - 1]
            bits &= ~out
        return out

    def ancestor_bits(self, bits: int) -> int:
        """The vertices that reach some vertex of the bitset `bits`, those
        vertices included.

        The dual of `tree_union_bits`: a vertex w that already reaches the
        set has its ancestors inside the union so far.
        """
        ancestors = self._reach().ancestors
        out = 0
        while bits:
            out |= ancestors[(bits & -bits).bit_length() - 1]
            bits &= ~out
        return out

    def component_bits(self, v: str) -> int:
        """The strongly connected component of v as a bitset."""
        self.check_vertex(v)
        idx, i = self._reach(), self._vertex_index[v]
        return idx.trees[i] & idx.ancestors[i]

    def component_inflow(self, v: str):
        """The number of paths whose last edge enters the component of v
        from outside it, or INFINITE when a cycle outside that component
        reaches it."""
        self.check_vertex(v)
        return self._reach().inflow[self._vertex_index[v]]

    def path_count(self, v: str):
        """The number of paths ending at v, length 0 included, or INFINITE
        when a cycle reaches v: count_paths_into(g, {v}) read from the
        index."""
        self.check_vertex(v)
        idx, i = self._reach(), self._vertex_index[v]
        if idx.cyclic >> i & 1 or idx.inflow[i] is INFINITE:
            return INFINITE
        return 1 + idx.inflow[i]

    def cycle_bits(self) -> int:
        """Vertices lying on at least one cycle."""
        return self._reach().cyclic

    def sink_bits(self) -> int:
        """Vertices with no outgoing edge."""
        return self._reach().sinks

    def bifurcation_bits(self) -> int:
        """Vertices with at least two outgoing edges."""
        return self._reach().bifurcations

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_document(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }


class _ReachIndex:
    """Strongly connected components, forward trees, ancestors and path
    counts of one graph.

    Iterative Tarjan (1972) over vertex indices.  It emits components in
    reverse topological order, so every component a component reaches
    has a smaller id and its tree is known when the component is closed.
    While closing a component it also notes whether an edge lies inside
    it, which makes it cyclic.

    A second pass walks the components in topological order, the reverse
    of emission, so every edge into a component is seen before the
    component itself.  For each component k it keeps
    - ``ancestors[k]``: the vertices that reach k, k included;
    - ``inflow[k]``: the number of paths whose last edge enters k from
      outside, or INFINITE.
    Both are pushed along the edges leaving k, once k is final.  A vertex
    v on no cycle is a component of its own, and a path ending at v is
    either v itself or a path ending at the source of an edge into v
    followed by that edge, so the number P(v) of paths ending at v is
    1 + inflow[k].  P is INFINITE on a cyclic component, and an edge
    leaving a vertex with P INFINITE makes the inflow it enters INFINITE,
    so inflow[k] is INFINITE exactly when a cycle outside k reaches k.
    Both passes are O(V + E) bitset operations.

    Graphs keep their index for life, so it is stored compactly, in slots
    and tuples, and the vertices of a component share its entries.  Its
    members are the vertices both in the tree and among the ancestors of
    any one of them, so they are not stored.
    """

    __slots__ = ("trees", "ancestors", "inflow", "cyclic", "sinks", "bifurcations")

    def __init__(self, g: Graph):
        n = len(g.vertices)
        index_of = g._vertex_index
        succ = [[index_of[e.dst] for e in g._out[v]] for v in g.vertices]
        order = [-1] * n  # discovery number
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        component_of = [-1] * n
        members_of: list[list[int]] = []  # scratch: members per component
        ancestors: list[int] = []  # the component's members until the second pass
        comp_trees: list[int] = []
        cyclic = 0
        counter = 0
        for root in range(n):
            if order[root] != -1:
                continue
            order[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, 0)]
            while work:
                v, i = work[-1]
                if i < len(succ[v]):
                    work[-1] = (v, i + 1)
                    w = succ[v][i]
                    if order[w] == -1:
                        order[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, 0))
                    elif on_stack[w] and order[w] < low[v]:
                        low[v] = order[w]
                    continue
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != order[v]:
                    continue
                k = len(members_of)
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component_of[w] = k
                    members.append(w)
                    if w == v:
                        break
                own = 0
                for w in members:
                    own |= 1 << w
                bits = own
                internal = False
                for w in members:
                    for x in succ[w]:
                        if component_of[x] == k:
                            internal = True
                        else:
                            bits |= comp_trees[component_of[x]]
                members_of.append(members)
                ancestors.append(own)
                comp_trees.append(bits)
                if internal:
                    cyclic |= own
        inflow: list = [0] * len(members_of)
        for k in range(len(members_of) - 1, -1, -1):
            up = ancestors[k]
            if cyclic >> members_of[k][0] & 1 or inflow[k] is INFINITE:
                paths = INFINITE
            else:
                paths = 1 + inflow[k]
            for w in members_of[k]:
                for x in succ[w]:
                    j = component_of[x]
                    if j != k:
                        ancestors[j] |= up
                        if paths is INFINITE or inflow[j] is INFINITE:
                            inflow[j] = INFINITE
                        else:
                            inflow[j] += paths
        # one entry per vertex, shared by the vertices of a component
        self.trees = tuple(comp_trees[k] for k in component_of)
        self.ancestors = tuple(ancestors[k] for k in component_of)
        self.inflow = tuple(inflow[k] for k in component_of)
        self.cyclic = cyclic
        self.sinks = self.bifurcations = 0
        for i, out in enumerate(succ):
            if not out:
                self.sinks |= 1 << i
            elif len(out) >= 2:
                self.bifurcations |= 1 << i


class Cycle(NamedTuple):
    """Simple cycle stored in canonical rotation.

    The rotation starts at the lexicographically least vertex on the
    cycle, so equal cycles compare equal regardless of how they were
    discovered.  Its length is ``len(cycle.edges)``.
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

    def rotation_at(self, u: str) -> tuple[str, ...]:
        """The cycle read starting from its vertex `u`."""
        i = self.sources.index(u)
        return self.edges[i:] + self.edges[:i]


# -- parsing ---------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the JSON graph document format into a validated Graph."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode
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
        # only a JSON object can be indexed by a str: a list, a string, a
        # number or null raises TypeError, an object without the key KeyError
        try:
            eid, src, dst = ed["id"], ed["src"], ed["dst"]
        except (TypeError, KeyError):
            raise GraphError(f"malformed edge record: {ed!r}") from None
        if type(eid) is not str or type(src) is not str or type(dst) is not str or not eid:
            raise GraphError(
                f"edge id, src and dst must be strings, the id nonempty: {ed!r}"
            )
        edges.append(Edge(eid, src, dst))
    return Graph(vertices, edges)


# -- components ------------------------------------------------------------


def _linked_groups(g: Graph, edges: Iterable[Edge]) -> list[list[str]]:
    """Vertices grouped by undirected connection through `edges`.

    Union-find; groups and their members come in declared vertex order.
    """
    parent = list(range(len(g.vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index_of = g._vertex_index
    for _, src, dst in edges:
        a, b = find(index_of[src]), find(index_of[dst])
        if a != b:
            parent[a] = b
    groups: dict[int, list[str]] = {}
    for i, v in enumerate(g.vertices):
        groups.setdefault(find(i), []).append(v)
    return list(groups.values())


# -- cycle enumeration -----------------------------------------------------


def simple_cycles(g: Graph) -> list[Cycle]:
    """All simple cycles, each exactly once in canonical rotation.

    Depth-first search from each start vertex, only visiting vertices
    above the start in lexicographic order and inside its strongly
    connected component, which no simple cycle leaves.  So the start is
    the least vertex of every cycle its search closes, and the search
    path, read from the start, is already the canonical rotation: the
    cycle is built from it directly, its edges known to follow each
    other and its vertices known to be distinct.  The search keeps its
    own stack, so path length is not bounded by Python's recursion limit.
    A vertex on no cycle closes no search, so only the vertices of
    `cycle_bits` start one.
    """
    found: list[Cycle] = []
    out, index_of = g._out, g._vertex_index
    for start in sorted(g.vertices_of(g.cycle_bits())):
        component = g.component_bits(start)
        ids: list[str] = []  # the search path's edges
        sources = [start]  # their sources, then the vertex the path ends at
        on_path = {start}
        branches = [iter(out[start])]
        while branches:
            e = next(branches[-1], None)
            if e is None:
                branches.pop()
                if ids:
                    ids.pop()
                    on_path.remove(sources.pop())
            elif e.dst == start:
                found.append(Cycle(edges=(*ids, e.id), sources=tuple(sources)))
            elif e.dst > start and component >> index_of[e.dst] & 1 and e.dst not in on_path:
                ids.append(e.id)
                sources.append(e.dst)
                on_path.add(e.dst)
                branches.append(iter(out[e.dst]))
    found.sort(key=lambda c: (len(c.edges), c.sources[0], c.edges))  # (len, base, edges)
    return found


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
    for v in reversed(topo):
        f[v] = (1 if v in tset else 0) + sum(f[w] for w in sub[v])
    return sum(f.values())
