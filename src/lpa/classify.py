"""Vertex and cycle classification: line points, no-exit/extreme cycles,
the ~ relation, the X_f decomposition, ideal structure, and primeness."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graphs import (
    INFINITE,
    Cycle,
    Graph,
    InvariantError,
    _linked_groups,
    count_paths_into,
    simple_cycles,
)
from .hereditary import (
    EntryPathSet,
    HereditarySet,
    entry_paths,
    is_dense_ideal,
    restriction_graph,
    saturated_closure,
)


class CycleInfo(NamedTuple):
    cycle: Cycle
    has_exits: bool
    is_extreme: bool
    in_S: bool
    entry_count: object  # int | INFINITE: paths into c^0 edge-disjoint from c
    wrap_count: object  # int | INFINITE: paths into c^0 missing some edge of c


# Every vertex set below is an int bitset over the graph's declared
# vertices, bit i standing for ``g.vertices[i]``, as the reachability index
# makes it; `Graph.names_of` lists its members in declared order.


class ExtremeClass(NamedTuple):
    class_id: str  # least base vertex among member cycles
    cycles: tuple[Cycle, ...]
    vertices: int  # bitset: the hereditary set T(c^0), the component K


class XClass(NamedTuple):
    members: int  # bitset: the full ~ class in E^0
    rep: str  # least member in declared order
    closure: int  # bitset: the saturated closure of the members' trees
    entry: EntryPathSet
    is_finite: bool  # in X_f
    class_type: Optional[str]  # line | cycle_laurent | cycle_degenerate | extreme


class ClassificationReport(NamedTuple):
    # the vertex sets are bitsets
    p_l: int
    p_c: int
    p_c_plus: int
    p_c_minus: int
    p_e: int
    p_ec: int
    p_binf: int
    cycles: tuple[CycleInfo, ...]
    x_ec: tuple[ExtremeClass, ...]
    sim_classes: tuple[int, ...]  # bitsets, by least member in declared order
    x_classes: tuple[XClass, ...]  # classes meeting P
    h_f: int  # bitset: the union of the closures of X_f
    h_inf: int  # bitset: the union of the other closures

    @property
    def p(self) -> int:
        """P = P_l | P_c | P_ec, as a bitset."""
        return self.p_l | self.p_c | self.p_ec

    @property
    def x_f(self) -> tuple[XClass, ...]:
        return tuple(c for c in self.x_classes if c.is_finite)


def line_points(g: Graph) -> int:
    """Vertices whose tree has no bifurcations and no cycle vertices, as a
    bitset: the vertices that are not ancestors of a bifurcation or a
    cycle vertex."""
    everything = (1 << len(g.vertices)) - 1
    return everything & ~g.ancestor_bits(g.cycle_bits() | g.bifurcation_bits())


def sim_classes(g: Graph) -> list[int]:
    """Equivalence classes of ~ (transitive closure of ~1) on all vertices,
    as bitsets, in the declared order of their least members.

    Both rules come down to linking the two ends of single edges.  Rule
    (ii) relates a cycle vertex to everything in its tree, and that tree
    is joined up by the edges leaving its members.  Rule (i) relates
    comparable vertices whose trees have no bifurcation; such a vertex
    has at most one edge, and its target's tree lies inside its own.  So
    an edge links its ends when its source lies below a cycle or is no
    ancestor of a bifurcation, and one bit test per edge reads that.
    """
    blocked = g.ancestor_bits(g.bifurcation_bits()) & ~g.tree_union_bits(g.cycle_bits())
    index = g._vertex_index
    return _linked_groups(g, [e for e in g.edges if not blocked >> index[e.src] & 1])


def x_decomposition(g: Graph) -> ClassificationReport:
    """The classification of g, read one strongly connected component at a
    time: every simple cycle's exits, extremeness, entry and wrap counts
    (in `simple_cycles` order), the P-sets, the extreme classes and the
    ~ classes that meet P.

    Every fact about a cycle c below is a fact about its component K, K's
    inflow (the paths whose last edge enters K from outside, INFINITE when
    a cycle outside K reaches K) and the other simple cycles of K.  Every
    edge of c starts in c^0, so a path into c^0 cut at its first vertex in
    c^0 uses none of c's edges, and what comes before that vertex lies
    outside K, which nothing returns to.

    1. K is exactly c (its edges are c's edges) iff c is K's only simple
       cycle.  An edge of K and a shortest path inside K back from its
       target to its source form a simple cycle of K; if that is c for
       every edge, K's edges are c's, and every vertex of K is on one of
       them.  Conversely the edges of c close no simple cycle but c.
    2. Exits.  A simple cycle has one edge at each vertex, so c has an exit
       iff some vertex of c is a bifurcation.  When K is c, c's vertices
       are K's.  Otherwise some edge e of K lies outside c: e is an exit
       if it starts in c^0, and if not, a path inside K from c^0 to e's
       source has an edge from c^0 to a vertex outside c^0, which is not
       an edge of c.  So every cycle of K has exits, and K has a
       bifurcation.  Either way c has an exit iff K has a bifurcation.
       It is extreme iff it has exits and every vertex it reaches returns
       to it, that is T(c^0) = K, which holds exactly when no edge leaves
       K: when K is an end of the condensation.
    3. Entry count: the paths ending at c^0 that share no edge with c,
       length 0 included.
       - INFINITE when K's inflow is: a shortest path from a cycle d
         outside K to c^0 shares no edge with c, so going round d any
         number of times first gives infinitely many.
       - |c| plus the inflow when K is c: every edge at c^0 other than
         c's leaves K, so a path without c's edges meets c^0 only at its
         end; it is one of the |c| trivial paths, or an edge into c^0
         from outside K after a path ending at its source.
       - Otherwise INFINITE exactly when c is partnered: some simple cycle
         d of K shares no edge with c.  A shortest path from d to c^0
         uses no edge of c, so going round d n times first gives
         infinitely many.  Conversely, infinitely many paths into c^0
         without c's edges, in a finite graph, repeat a vertex, so they
         give a simple cycle d that avoids c's edges and reaches c^0; d
         outside K would make the inflow INFINITE, so d lies in K.  The
         test builds one frozenset of c's edges and scans K's cycles in
         `simple_cycles` order, shortest first, stopping at the first d
         that shares none.  Each d read costs at most |d| set lookups, so
         c costs at most the total length of K's cycles, and usually far
         less, since a short cycle that misses c comes early.
       - Otherwise finite, and `count_paths_into` counts it on the graph
         without c's edges: g's index does not cover that graph, so it
         builds the index of the part that reaches c^0.
    4. Wrap count: the paths ending at c^0 that miss at least one edge of
       c.  It is INFINITE exactly when a simple cycle d != c reaches c^0:
       d misses some edge e of c, and going round d before a shortest
       path to c^0 gives infinitely many paths that miss e.  Such a d
       exists iff K is not c (by 1) or the inflow is INFINITE.  Otherwise
       a path ending at c^0 leaves c only before it first meets c^0 (a
       later detour would close a cycle other than c through c^0), so it
       is an entry path followed by k < |c| steps round c: |c| times the
       entry count.
    c lies in S iff it has no exits and a finite wrap count.

    So the vertex sets are unions of components, and each is one bitset
    expression over the index: every vertex of a cyclic K lies on one of
    K's simple cycles (by the argument of 1), so the vertices of K's
    cycles are K itself.
    - A cyclic K without a bifurcation gives each member exactly one
      out-edge, and that edge stays inside K, so K is an end and reaches
      no bifurcation.  A cyclic K with exits holds a bifurcation (by 2),
      and every member reaches it.  So P_c, the components without
      exits, is the cycle vertices that reach no cycle bifurcation, and
      P_e is the other cycle vertices.
    - A K with exits is extreme exactly when K is an end (by 2), so P_ec
      is the end vertices of P_e.
    - A no-exit K has an INFINITE inflow exactly when a cycle outside K
      reaches it, and that cycle lies in P_e, because a component of P_c
      is an end and reaches only itself.  So P_c+ is the part of P_c in
      the trees of P_e.
    - A no-exit K is one cycle (by 2 and 1), so its wrap count is finite
      exactly when its inflow is (by 4).  Its cycle is in S exactly when
      K lies in P_c- = P_c - P_c+.
    - An extreme class is one extreme component: the tree of an extreme
      cycle is its component, so two extreme cycles are connected exactly
      when they share one.  It lists K's cycles in `simple_cycles` order,
      and its id, the least base among them, is K's least vertex, since a
      cycle's base is its least vertex.
    So a cycle has exits, is extreme or lies in S when its component
    meets P_e, P_ec or P_c-, and only the entry and wrap counts and the
    extreme classes read the cycle list.
    A cycle lies inside one ~ class, by rule (ii), so a class holds a cycle
    of S, and is cycle_laurent, exactly when it meets P_c-.
    """
    cycles = simple_cycles(g)
    cyc = g.cycle_bits()
    pc = cyc & ~g.ancestor_bits(g.bifurcation_bits() & cyc)
    pe = cyc & ~pc
    pec = pe & g.end_bits()
    pc_plus = pc & g.tree_union_bits(pe)
    pc_minus = pc & ~pc_plus
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(cycles):
        groups.setdefault(g.component_bits(c.base), []).append(i)
    infos: list = [None] * len(cycles)
    x_ec = []
    for bits, members in groups.items():
        inflow = g.component_inflow(cycles[members[0]].base)
        has_exits, is_extreme, in_s = bool(bits & pe), bool(bits & pec), bool(bits & pc_minus)
        if is_extreme:
            x_ec.append(
                ExtremeClass(
                    class_id=min(g.names_of(bits)),
                    cycles=tuple(cycles[i] for i in members),
                    vertices=bits,
                )
            )
        lone = len(members) == 1  # K is c
        for i in members:
            c = cycles[i]
            if inflow is INFINITE:
                entry = wrap = INFINITE
            elif lone:
                entry = len(c.edges) + inflow
                wrap = len(c.edges) * entry
            else:
                own = c.edge_set
                if any(own.isdisjoint(cycles[j].edges) for j in members):  # partnered
                    entry = wrap = INFINITE
                else:
                    entry, wrap = count_paths_into(g, c.vertex_set, own), INFINITE
            infos[i] = CycleInfo(
                cycle=c,
                has_exits=has_exits,
                is_extreme=is_extreme,
                in_S=in_s,
                entry_count=entry,
                wrap_count=wrap,
            )
    x_ec.sort(key=lambda xc: xc.class_id)
    pl = line_points(g)
    p = pl | pc | pec
    classes = sim_classes(g)

    x_classes = []
    h_f = h_inf = 0  # the unions of the closures
    for cls in classes:
        inter = cls & p
        if not inter:
            continue
        closure = saturated_closure(g, HereditarySet.from_bits(g, g.tree_union_bits(cls)))
        eps = entry_paths(g, closure)
        if eps.is_infinite:
            h_inf |= closure.bits
        else:
            h_f |= closure.bits
        if not inter & ~pl:
            ctype = "line"
        elif not inter & ~pec:
            ctype = "extreme"
        elif cls & pc_minus:
            ctype = "cycle_laurent"
        else:
            ctype = "cycle_degenerate"
        x_classes.append(
            XClass(
                members=cls,
                rep=g.vertices[(cls & -cls).bit_length() - 1],
                closure=closure.bits,
                entry=eps,
                is_finite=not eps.is_infinite,
                class_type=ctype,
            )
        )

    return ClassificationReport(
        p_l=pl,
        p_c=pc,
        p_c_plus=pc_plus,
        p_c_minus=pc_minus,
        p_e=pe,
        p_ec=pec,
        # the vertices whose tree meets infinitely many bifurcations: none
        # on a finite graph, so the report carries the field empty
        p_binf=0,
        cycles=tuple(infos),
        x_ec=tuple(x_ec),
        sim_classes=tuple(classes),
        x_classes=tuple(x_classes),
        h_f=h_f,
        h_inf=h_inf,
    )


class PisCertificate(NamedTuple):
    purely_infinite_simple: bool
    failing_condition: Optional[str] = None  # "connects-to-cycle" | "exit" | "lattice"
    witness: Optional[str] = None


def is_purely_infinite_simple(g: Graph) -> PisCertificate:
    """Graph-side criteria: cycle reach, Condition (L), trivial H-lattice.

    The "connects-to-cycle" witness is the first vertex in declared order
    that reaches no cycle vertex: the first outside the ancestors of the
    cycle vertices.

    A cycle without exits is a cyclic strongly connected component with no
    bifurcation, and those components make up P_c, read as
    `x_decomposition` reads it.  Such a component gives each member
    exactly one out-edge, which stays inside, so it is an end and reaches
    no bifurcation; every member of a cyclic component with a bifurcation
    reaches it.  So the cycles without exits cover the cycle vertices that
    reach no cycle bifurcation.  Each is its component, so the "exit"
    witness, the base of the first one in `simple_cycles` order, is the
    least vertex of the least (size, least vertex) component among them.

    The lattice is trivial when the saturated closure of every T(v) is E^0;
    the "lattice" witness is the first v in declared order for which it is
    not.  Once every vertex reaches a cycle there is no sink, since a
    sink's tree is itself.  So by `saturated_closure`'s closed form,
    cl(T(v)) is the set of w whose tree holds no cycle vertex outside T(v).
    Every cycle vertex lies in its own tree, so cl(T(v)) = E^0 exactly when
    T(v) holds every cycle vertex.
    """
    cyc = g.cycle_bits()
    if missing := ~g.ancestor_bits(cyc) & ((1 << len(g.vertices)) - 1):
        v = g.vertices[(missing & -missing).bit_length() - 1]
        return PisCertificate(False, "connects-to-cycle", v)
    if pc := cyc & ~g.ancestor_bits(g.bifurcation_bits() & cyc):
        exitless = {g.component_bits(v) for v in g.names_of(pc)}
        least = min((c.bit_count(), min(g.names_of(c))) for c in exitless)
        return PisCertificate(False, "exit", least[1])
    for v in g.vertices:
        if cyc & ~g.tree_bits(v):
            return PisCertificate(False, "lattice", v)
    return PisCertificate(True)


class SinkSummand(NamedTuple):
    sink: str
    matrix_size: object  # int | INFINITE


class CycleSummand(NamedTuple):
    cycle: Cycle
    matrix_size: object  # entry count, int | INFINITE


class ExtremeSummand(NamedTuple):
    extreme_class: ExtremeClass
    certificate: Optional[PisCertificate]  # None when entry paths are infinite
    note: Optional[str] = None


class IdealStructureReport(NamedTuple):
    sinks: tuple[SinkSummand, ...]
    no_exit_cycles: tuple[CycleSummand, ...]
    extreme: tuple[ExtremeSummand, ...]
    dense: bool


def ideal_structure(g: Graph, report: ClassificationReport) -> IdealStructureReport:
    sinks = tuple(SinkSummand(v, g.path_count(v)) for v in g.names_of(g.sink_bits()))
    no_exit = tuple(
        CycleSummand(ci.cycle, ci.entry_count)
        for ci in report.cycles
        if not ci.has_exits
    )
    # F_E(H) depends only on the members of H, so an extreme class whose
    # T(c^0) is the closure of an X-class reuses that class's entry paths
    entry_of = {c.closure: c.entry for c in report.x_classes}
    extreme = []
    for xc in report.x_ec:
        eps = entry_of.get(xc.vertices)
        if eps is None:
            eps = entry_paths(g, HereditarySet.from_bits(g, xc.vertices))
        if eps.is_infinite:
            extreme.append(
                ExtremeSummand(xc, None, "entry paths infinite; certificate skipped")
            )
        else:
            sub = restriction_graph(g, eps)
            extreme.append(ExtremeSummand(xc, is_purely_infinite_simple(sub)))
    dense = is_dense_ideal(g, HereditarySet.from_bits(g, report.p))
    return IdealStructureReport(
        sinks=sinks,
        no_exit_cycles=no_exit,
        extreme=tuple(extreme),
        dense=dense,
    )


class PrimeTrichotomy(NamedTuple):
    kind: str  # "sink-case" | "no-exit-cycle-case" | "extreme-case" | "not-prime"
    witness: object = None
    matrix_size: object = None  # for the sink / no-exit cycle cases
    note: str = "primeness tested as downward directedness (invented criterion)"


def prime_trichotomy(
    g: Graph, report: ClassificationReport, ideal: IdealStructureReport
) -> PrimeTrichotomy:
    """The prime case of g.  The sink case reads the sink and its matrix
    size from `ideal`, the ideal structure of g, which has counted the paths
    into each sink already.

    g is prime (downward directed) when the trees T(v) meet pairwise, and
    that holds exactly when the condensation has one end component.  Every
    vertex reaches an end, so with one end E every tree holds E.  Two ends
    E and E' share no vertex, and the tree of a vertex of an end is that
    end, so trees of their vertices are disjoint.  The tree of any one end
    vertex is its own component, so it is all of the ends iff there is one.

    The not-prime witness is the first pair (u, v) in declared order whose
    trees are disjoint, found by two scans.  A tree is closed under
    successors, so one that holds a vertex of an end component holds all
    of it.  So when T(u) holds every end vertex, every T(v) meets it, in
    the end that T(v) holds; and when T(u) misses an end vertex w, it
    misses w's whole component, which is T(w).  So u is the first vertex
    whose tree does not hold every end vertex, and v the first vertex whose
    tree misses T(u), the pair the scan over all pairs finds first.
    """
    ends = g.end_bits()
    if g.tree_bits(g.vertices[(ends & -ends).bit_length() - 1]) != ends:
        u = next(u for u in g.vertices if ends & ~g.tree_bits(u))
        tu = g.tree_bits(u)
        v = next(v for v in g.vertices if not g.tree_bits(v) & tu)
        return PrimeTrichotomy(kind="not-prime", witness=(u, v))
    if ideal.sinks:
        if len(ideal.sinks) > 1:
            raise InvariantError("downward-directed graph with two sinks")
        summand = ideal.sinks[0]
        return PrimeTrichotomy(
            kind="sink-case", witness=summand.sink, matrix_size=summand.matrix_size
        )
    no_exit = [ci for ci in report.cycles if not ci.has_exits]
    if no_exit:
        if len(no_exit) > 1:
            raise InvariantError("downward-directed graph with two no-exit cycles")
        ci = no_exit[0]
        return PrimeTrichotomy(
            kind="no-exit-cycle-case", witness=ci.cycle, matrix_size=ci.wrap_count
        )
    if report.x_ec:
        if len(report.x_ec) > 1:
            raise InvariantError("downward-directed graph with two extreme classes")
        return PrimeTrichotomy(kind="extreme-case", witness=report.x_ec[0])
    raise InvariantError("prime finite graph with empty P")
