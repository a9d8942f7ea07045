"""Finite directed multigraphs: parsing, reachability, cycles, path counting.

Everything downstream (closures, classification, the symbolic engine)
queries graphs exclusively through this module.  Graphs and cycles are
immutable; all functions here are pure.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence


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

# `Graph.names_of` walks a bitset of at most this many members bit by bit
_FEW = 8
# the binary digits "0" and "1" as the bytes 0 and 1, a selector for `compress`
_DIGITS = bytes.maketrans(b"01", b"\0\1")


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
    ``vertices[i]``, each component's inflow, from which `path_count`
    and the cycle classification read their counts, and the vertices of
    the condensation's end and start components, which the unions of
    trees and of ancestors read first.  A graph never changes after
    construction, so the index never goes stale.  The vertex sets are
    ints rather than frozensets because callers may keep many graphs
    alive: over the 44 graphs of the lpabench structure workload (up to
    200 vertices) the whole index takes 0.21 MB (tracemalloc), and a
    frozenset per vertex for the trees alone would add 4.7 MB.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        if not self.vertices:
            raise GraphError("graph must have at least one vertex")
        index: dict[str, int] = {}
        for v in self.vertices:
            if v in index:
                raise GraphError(f"duplicate vertex id: {v!r}")
            index[v] = len(index)
        by_id: dict[str, Edge] = {}
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            eid, src, dst = e
            if eid in by_id:
                raise GraphError(f"duplicate edge id: {eid!r}")
            if src not in index:
                raise GraphError(f"edge {eid!r} has undeclared source: {src!r}")
            if dst not in index:
                raise GraphError(f"edge {eid!r} has undeclared target: {dst!r}")
            by_id[eid] = e
            out[src].append(e)
        self._edge_by_id = by_id
        self._out = {v: tuple(es) for v, es in out.items()}
        self._vertex_index = index
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
        return frozenset(self.names_of(bits))

    def names_of(self, bits: int, names: Optional[Sequence[str]] = None) -> list[str]:
        """The members of the bitset `bits` in declared order, each as its
        entry in `names`, a list in declared order (the vertex ids when
        None), such as the report writer's escaped ids.

        A set of at most `_FEW` members is walked one bit at a time, lowest
        first; a larger one is read by `compress` over `names`, selected by
        its binary digits, lowest first.  Either way nothing is sorted.  The
        walk costs about 0.13 µs a member, and `compress` about 0.45 µs plus
        0.009 µs a vertex up to the highest member, so on 20 to 200 vertices
        the walk is ahead up to 6 to 16 members (2 vCPUs, Python 3.11.7).
        Writing the reports of one lpabench `structure` pass took 15.5 ms
        with the cutoff at 8 or 12, and 17.5 and 17.8 ms with the walk or
        `compress` alone (best of 9).
        """
        if names is None:
            names = self.vertices
        if bits.bit_count() > _FEW:
            return list(compress(names, bin(bits)[:1:-1].encode().translate(_DIGITS)))
        out = []
        while bits:
            low = bits & -bits
            out.append(names[low.bit_length() - 1])
            bits ^= low
        return out

    def tree_bits(self, v: str) -> int:
        """T(v), the vertices forward-reachable from v (v included), as a bitset."""
        self.check_vertex(v)
        return self._reach().trees[self._vertex_index[v]]

    def tree_union_bits(self, bits: int) -> int:
        """The union of the trees T(v), v in the bitset `bits`.

        `_union` reads the members in a start component of the
        condensation first, so a set closed under ancestors costs one tree
        per start component it holds (see `_ReachIndex`).
        """
        idx = self._reach()
        return _union(idx.trees, bits, idx.starts)

    def ancestor_bits(self, bits: int) -> int:
        """The vertices that reach some vertex of the bitset `bits`, those
        vertices included.

        The dual of `tree_union_bits`: `_union` reads the members in an end
        component first, so a hereditary set costs one entry per end
        component it holds, whichever way the graph is declared.
        """
        idx = self._reach()
        return _union(idx.ancestors, bits, idx.ends)

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
        when a cycle reaches v, read from the index.  `count_paths_into`
        reads its counts here, on the graph it keeps."""
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

    def end_bits(self) -> int:
        """The vertices of the condensation's end components, those that no
        edge leaves (see `_ReachIndex`)."""
        return self._reach().ends

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_document(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }


class _ReachIndex:
    """Strongly connected components, forward trees, ancestors, path
    counts and the ends of the condensation of one graph.

    The condensation is the graph with each component collapsed to one
    node; it is acyclic.  ``ends`` holds the vertices of the components
    that no edge leaves, ``starts`` those of the components that no edge
    enters.  Every vertex of a hereditary set H reaches an end component
    inside H: a walk along the condensation's edges from its component
    stops, since the condensation is finite and acyclic, and it stops at
    an end, which lies in the vertex's tree and so in H.  Dually, every
    vertex of a set closed under ancestors is reached from a start
    component inside the set.  `Graph.ancestor_bits` and
    `Graph.tree_union_bits` read those members first.

    Iterative Tarjan (1972) over vertex indices, with one iterator over
    the successors per frame.  It emits components in reverse topological
    order, so every component a component reaches has a smaller id and
    its tree is known when the component is closed.  A component of one
    vertex is the top of the stack, popped with no scan of the stack; it
    is cyclic when the vertex has a loop.  A component of more vertices
    is always cyclic.  It is an end when its tree is itself.

    A second pass walks the components in topological order, the reverse
    of emission, so every edge into a component is seen before the
    component itself.  For each component k it keeps
    - ``ancestors[k]``: the vertices that reach k, k included;
    - ``inflow[k]``: the number of paths whose last edge enters k from
      outside, or INFINITE; it stays 0 exactly when k is a start.
    Both are pushed along the edges leaving k, once k is final.  A vertex
    v on no cycle is a component of its own, and a path ending at v is
    either v itself or a path ending at the source of an edge into v
    followed by that edge, so the number P(v) of paths ending at v is
    1 + inflow[k].  P is INFINITE on a cyclic component, and an edge
    leaving a vertex with P INFINITE makes the inflow it enters INFINITE,
    so inflow[k] is INFINITE exactly when a cycle outside k reaches k.
    Both passes are O(V + E) bitset operations.

    Graphs keep their index for life, so it is stored compactly, in slots
    and tuples, and the vertices of a component share its entries, each
    per-vertex table filled by one `map` over the vertices' component ids.
    A component's members are the vertices both in the tree and among the
    ancestors of any one of them, so they are not stored.
    """

    __slots__ = (
        "trees", "ancestors", "inflow", "cyclic", "sinks", "bifurcations", "ends", "starts"
    )

    def __init__(self, g: Graph):
        n = len(g.vertices)
        index_of = g._vertex_index
        succ: list[list[int]] = [[] for _ in range(n)]
        for _, src, dst in g.edges:
            succ[index_of[src]].append(index_of[dst])
        order = [-1] * n  # discovery number; n once the vertex's component is closed
        low = [0] * n
        stack: list[int] = []  # the visited vertices whose component is open
        component_of = [0] * n
        members_of: list = []  # scratch: members per component
        looped: list[bool] = []  # scratch: whether the component is cyclic
        ancestors: list[int] = []  # the component's members until the second pass
        comp_trees: list[int] = []
        cyclic = ends = 0
        counter = 0
        for root in range(n):
            if order[root] != -1:
                continue
            order[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                v, successors = work[-1]
                for w in successors:
                    if order[w] == -1:
                        order[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        work.append((w, iter(succ[w])))
                        break
                    if order[w] < low[v]:  # w is on the stack: a closed w has order n
                        low[v] = order[w]
                else:
                    work.pop()
                    lv = low[v]
                    if lv != order[v]:  # v is not its component's root, so has a parent
                        u = work[-1][0]
                        if lv < low[u]:
                            low[u] = lv
                        continue
                    k = len(comp_trees)
                    if stack[-1] == v:  # a component of one vertex
                        stack.pop()
                        order[v] = n
                        own = tree = 1 << v
                        loop = False
                        for x in succ[v]:
                            if x == v:
                                loop = True
                            else:
                                tree |= comp_trees[component_of[x]]
                        component_of[v] = k
                        members_of.append((v,))
                        looped.append(loop)
                        if loop:
                            cyclic |= own
                    else:
                        members = []
                        own = 0
                        while True:
                            w = stack.pop()
                            members.append(w)
                            own |= 1 << w
                            order[w] = n
                            component_of[w] = k
                            if w == v:
                                break
                        tree = own
                        for w in members:
                            for x in succ[w]:
                                j = component_of[x]
                                if j != k:
                                    tree |= comp_trees[j]
                        members_of.append(members)
                        looped.append(True)
                        cyclic |= own
                    comp_trees.append(tree)
                    ancestors.append(own)
                    if tree == own:
                        ends |= own
        inflow: list = [0] * len(comp_trees)
        starts = 0
        for k in range(len(comp_trees) - 1, -1, -1):
            up, into = ancestors[k], inflow[k]
            if into == 0:  # no edge enters k, so its ancestors are k itself
                starts |= up
            paths = INFINITE if looped[k] or into is INFINITE else 1 + into
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
        self.trees = tuple(map(comp_trees.__getitem__, component_of))
        self.ancestors = tuple(map(ancestors.__getitem__, component_of))
        self.inflow = tuple(map(inflow.__getitem__, component_of))
        self.cyclic, self.ends, self.starts = cyclic, ends, starts
        self.sinks = self.bifurcations = 0
        for i, out in enumerate(succ):
            if not out:
                self.sinks |= 1 << i
            elif len(out) >= 2:
                self.bifurcations |= 1 << i


def _union(table: Sequence[int], bits: int, first: int) -> int:
    """The union of the entries of `table`, the index's trees or ancestor
    sets, over the members of the bitset `bits`, those in `first` read
    first.

    Each entry holds its own vertex, and a member w already in the union
    adds nothing: its entry lies inside the entry that put w there.  So
    each loop reads the lowest member not yet in the union.  The members in
    `first`, the ends or starts of the condensation, read first, cover a
    hereditary set or a set closed under ancestors (see `_ReachIndex`),
    and the second loop finds nothing left.
    """
    out = 0
    for part in (bits & first, bits):
        part &= ~out
        while part:
            out |= table[(part & -part).bit_length() - 1]
            part &= ~out
    return out


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


def _linked_groups(g: Graph, edges: Iterable[Edge]) -> list[int]:
    """Vertices grouped by undirected connection through `edges`, each
    group as a bitset.

    Union-find with path halving, the finds written out in the loop; the
    groups come in the declared order of their first members.
    """
    parent = list(range(len(g.vertices)))
    index_of = g._vertex_index
    for _, src, dst in edges:
        a, b = index_of[src], index_of[dst]
        # each step points a vertex at its grandparent, then moves there
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
    groups: dict[int, int] = {}
    for i in range(len(parent)):
        root = i
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        groups[root] = groups.get(root, 0) | 1 << i
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
    for start in sorted(g.names_of(g.cycle_bits())):
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

    The count is read from the reachability index of one graph: `keep`,
    the targets' ancestors in g, with the edges of g that end in `keep`
    and are not forbidden (an edge into `keep` starts there too).  Every
    vertex of a path that ends at a target reaches that target, so the
    forbidden-free paths of g ending at a target are exactly the paths of
    that graph ending there, and summing `path_count` over the targets
    counts each once, by its last vertex.  A forbidden-free cycle that
    reaches a target lies in `keep` with all its edges, so the sum is
    INFINITE exactly when some target's count is.  g's own index does not
    answer once edges are forbidden, so each call indexes that new graph,
    and it holds only the ancestors because no other vertex lies on a
    counted path.
    """
    tset = set(targets)
    for v in tset:
        g.check_vertex(v)
    fset = set(forbidden)
    for eid in fset:
        g.edge(eid)
    if not tset:
        return 0
    index_of = g._vertex_index
    keep = g.ancestor_bits(sum(1 << index_of[v] for v in tset))
    edges = [e for e in g.edges if keep >> index_of[e.dst] & 1 and e.id not in fset]
    sub = Graph(g.names_of(keep), edges)
    counts = [sub.path_count(v) for v in tset]
    return INFINITE if INFINITE in counts else sum(counts)
