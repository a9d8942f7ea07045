"""Vertex and cycle classification: line points, no-exit/extreme cycles,
the ~ relation, the X_f decomposition, ideal structure, and primeness."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_
from typing import Optional

from .graphs import (
    INFINITE,
    Cycle,
    Graph,
    InvariantError,
    _linked_groups,
    count_paths_into,
    simple_cycles,
    tree_bits_of_set,
)
from .hereditary import (
    EntryPathSet,
    HereditarySet,
    entry_paths,
    hereditary_closure,
    is_dense_ideal,
    restriction_graph,
    saturated_closure,
)


@dataclass(frozen=True)
class CycleInfo:
    cycle: Cycle
    has_exits: bool
    is_extreme: bool
    in_S: bool
    entry_count: object  # int | INFINITE: paths into c^0 edge-disjoint from c
    wrap_count: object  # int | INFINITE: paths into c^0 missing some edge of c


@dataclass(frozen=True)
class ExtremeClass:
    class_id: str  # least base vertex among member cycles
    cycles: tuple[Cycle, ...]
    vertices: frozenset[str]  # the hereditary set T(c^0)


@dataclass(frozen=True)
class XClass:
    members: frozenset[str]  # the full ~ class in E^0
    rep: str  # least member in declared order
    closure: frozenset[str]
    entry: EntryPathSet
    is_finite: bool  # in X_f
    class_type: Optional[str]  # line | cycle_laurent | cycle_degenerate | extreme


@dataclass(frozen=True)
class ClassificationReport:
    p_l: frozenset[str]
    p_c: frozenset[str]
    p_c_plus: frozenset[str]
    p_c_minus: frozenset[str]
    p_e: frozenset[str]
    p_ec: frozenset[str]
    p_binf: frozenset[str]
    cycles: tuple[CycleInfo, ...]
    x_ec: tuple[ExtremeClass, ...]
    sim_classes: tuple[frozenset[str], ...]
    x_classes: tuple[XClass, ...]  # classes meeting P
    h_f: frozenset[str]
    h_inf: frozenset[str]

    @property
    def p(self) -> frozenset[str]:
        return self.p_l | self.p_c | self.p_ec

    @property
    def x_f(self) -> tuple[XClass, ...]:
        return tuple(c for c in self.x_classes if c.is_finite)


def line_points(g: Graph) -> frozenset[str]:
    """Vertices whose tree has no bifurcations and no cycle vertices."""
    blocked = g.cycle_bits() | g.bifurcation_bits()
    return frozenset(v for v in g.vertices if not g.tree_bits(v) & blocked)


def _entry_count(g: Graph, c: Cycle, partnered: bool):
    """Paths ending at c^0 that share no edge with c, length 0 included.

    `partnered` says whether some simple cycle of c's component K shares
    no edge with c.

    Every edge of c starts at c^0, so a path into c^0 cut at its first
    vertex in c^0 uses none of c's edges, and what comes before that
    vertex lies outside K, which nothing returns to.

    1. Infinite when a cycle d outside K reaches c^0: a shortest path
       from d to c^0 shares no edge with c, and neither does d, so going
       round d any number of times first gives infinitely many paths.
       The index says so as K's inflow being INFINITE.
    2. When K's inflow is finite, the count is infinite exactly when c
       is partnered.  If a simple cycle d of K shares no edge with c, d
       reaches c^0, and a shortest path from d to c^0 uses no edge of c,
       since every edge of c starts in c^0; going round d n times and
       then taking that path gives infinitely many paths.  Conversely,
       infinitely many paths into c^0 without c's edges, in a finite
       graph, repeat a vertex, so they give a simple cycle d that avoids
       c's edges and reaches c^0.  A d outside K would make K's inflow
       INFINITE, so d lies in K, and d != c.
    3. When K is exactly c (its only inner edges are c's |c| edges, and
       then its only vertices are c^0, since any other vertex of K lies
       on a cycle of K with an edge outside c), every edge at c^0 other
       than c's leaves K, and no path returns to K.  So a path that
       avoids c's edges meets c^0 only at its end: it is one of the |c|
       trivial paths, or a path ending at the source of an edge into
       c^0 from outside K followed by that edge.  That is |c| plus K's
       inflow.
    4. Otherwise the count is finite, and count_paths_into counts it on
       the graph without c's edges.
    """
    inflow = g.component_inflow(c.base)
    if inflow is INFINITE or partnered:
        return INFINITE
    if g.component_edge_count(c.base) == len(c):
        return len(c) + inflow
    return count_paths_into(g, c.vertex_set, c.edge_set)


def _partnered(g: Graph, cycles: list[Cycle]) -> list[bool]:
    """For each cycle c, whether some simple cycle of c's component shares
    no edge with c, given every simple cycle of g.

    Per component, each edge maps to the bitmask of the component's
    cycles through it; the cycles meeting c are the OR of those masks
    over c's edges, and c is partnered when that misses one.  That is
    2·Σ|c| big-int ORs instead of a scan over pairs.
    """
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(cycles):
        groups.setdefault(g.component_bits(c.base), []).append(i)
    partnered = [False] * len(cycles)
    for members in groups.values():
        if len(members) == 1:
            continue
        through: dict[str, int] = {}
        for bit, i in enumerate(members):
            for eid in cycles[i].edges:
                through[eid] = through.get(eid, 0) | 1 << bit
        everyone = (1 << len(members)) - 1
        for i in members:
            meets = 0
            for eid in cycles[i].edges:
                meets |= through[eid]
            partnered[i] = meets != everyone
    return partnered


def _wrap_count(g: Graph, c: Cycle, entry_count):
    """Paths ending at c^0 that miss at least one edge of c.

    `entry_count` is the number of paths into c^0 that share no edge
    with c.  The count is INFINITE exactly when a simple cycle d != c
    reaches c^0, and otherwise it is entry_count * |c|:

    1. Infinite.  A simple cycle that contains every edge of c is c, so
       d misses some edge e of c.  A shortest path from d to c^0 misses
       every edge of c, because all its edges start outside c^0.  Going
       round d any number of times before that path gives infinitely
       many paths that miss e.  Such a d exists exactly when c's
       component K has an edge outside c (every edge inside a strongly
       connected component lies on a cycle of it, which reaches c^0), or
       when a cycle outside K reaches K, which the index records as K's
       inflow being INFINITE.  A d inside K has an edge outside c, and a
       d with a vertex outside K lies wholly outside it.
    2. Finite.  With no such d, a path ending at c^0 can leave c^0 or
       take an edge outside c only before it first meets c^0: any later
       detour would close a walk back to c^0 through an edge outside c,
       hence a cycle other than c that reaches c^0.  So the path is an
       entry path (one of the entry_count paths, length 0 included)
       followed by k steps round c, and it misses an edge of c exactly
       when k < |c|.
    """
    if g.component_edge_count(c.base) != len(c) or g.component_inflow(c.base) is INFINITE:
        return INFINITE
    return entry_count * len(c)


def classify_cycles(g: Graph) -> list[CycleInfo]:
    infos = []
    bifs = g.bifurcation_bits()
    cycles = simple_cycles(g)
    for c, partnered in zip(cycles, _partnered(g, cycles)):
        # a simple cycle has one edge at each vertex: an exit is a second one
        has_exits = bool(g.vertex_bits(c.vertex_set) & bifs)
        # every vertex c reaches returns to c iff T(c^0) is c's component
        is_extreme = has_exits and g.tree_bits(c.base) == g.component_bits(c.base)
        entry_count = _entry_count(g, c, partnered)
        wrap_count = _wrap_count(g, c, entry_count)
        in_s = (not has_exits) and wrap_count is not INFINITE
        infos.append(
            CycleInfo(
                cycle=c,
                has_exits=has_exits,
                is_extreme=is_extreme,
                in_S=in_s,
                entry_count=entry_count,
                wrap_count=wrap_count,
            )
        )
    return infos


def extreme_classes(g: Graph, infos: list[CycleInfo]) -> list[ExtremeClass]:
    """Partition extreme cycles by connectivity; carries c~^0 = T(c^0).

    The tree of an extreme cycle is its strongly connected component, so
    two extreme cycles are connected exactly when their trees are equal.
    """
    groups: dict[int, list[Cycle]] = {}
    for ci in infos:
        if ci.is_extreme:
            groups.setdefault(g.tree_bits(ci.cycle.base), []).append(ci.cycle)
    out = [
        ExtremeClass(
            class_id=min(c.base for c in cycles),
            cycles=tuple(sorted(cycles, key=lambda c: (len(c), c.base, c.edges))),
            vertices=g.vertices_of(bits),
        )
        for bits, cycles in groups.items()
    ]
    out.sort(key=lambda xc: xc.class_id)
    return out


def sim_classes(g: Graph) -> list[frozenset[str]]:
    """Equivalence classes of ~ (transitive closure of ~1) on all vertices.

    Both rules come down to linking the two ends of single edges.  Rule
    (ii) relates a cycle vertex to everything in its tree, and that tree
    is joined up by the edges leaving its members.  Rule (i) relates
    comparable vertices whose trees have no bifurcation; such a vertex
    has at most one edge, and its target's tree lies inside its own.
    """
    bifs = g.bifurcation_bits()
    below_cycle = tree_bits_of_set(g, g.vertices_of(g.cycle_bits()))
    linking = [
        e
        for e in g.edges
        if below_cycle >> g.vertex_order(e.src) & 1 or not g.tree_bits(e.src) & bifs
    ]
    return [frozenset(vs) for vs in _linked_groups(g, linking)]


def x_decomposition(g: Graph) -> ClassificationReport:
    infos = classify_cycles(g)
    pl = line_points(g)
    pc = frozenset().union(*(ci.cycle.vertex_set for ci in infos if not ci.has_exits))
    pc_plus = frozenset().union(
        *(
            ci.cycle.vertex_set
            for ci in infos
            if not ci.has_exits and ci.wrap_count is INFINITE
        )
    )
    pe = frozenset().union(*(ci.cycle.vertex_set for ci in infos if ci.has_exits))
    pec = frozenset().union(*(ci.cycle.vertex_set for ci in infos if ci.is_extreme))
    p = pl | pc | pec
    classes = sim_classes(g)
    s_cycles = [ci.cycle for ci in infos if ci.in_S]

    x_classes = []
    for cls in classes:
        if not (cls & p):
            continue
        closure = saturated_closure(g, hereditary_closure(g, cls))
        eps = entry_paths(g, closure)
        is_finite = not eps.is_infinite
        inter = cls & p
        if inter <= pl:
            ctype = "line"
        elif inter <= pec:
            ctype = "extreme"
        elif any(c.vertex_set <= cls for c in s_cycles):
            ctype = "cycle_laurent"
        else:
            ctype = "cycle_degenerate"
        x_classes.append(
            XClass(
                members=cls,
                rep=min(cls, key=g.vertex_order),
                closure=closure.members,
                entry=eps,
                is_finite=is_finite,
                class_type=ctype,
            )
        )

    h_f = frozenset().union(*(xc.closure for xc in x_classes if xc.is_finite))
    h_inf = frozenset().union(*(xc.closure for xc in x_classes if not xc.is_finite))

    return ClassificationReport(
        p_l=pl,
        p_c=pc,
        p_c_plus=pc_plus,
        p_c_minus=pc - pc_plus,
        p_e=pe,
        p_ec=pec,
        # the vertices whose tree meets infinitely many bifurcations: none
        # on a finite graph, so the report carries the field empty
        p_binf=frozenset(),
        cycles=tuple(infos),
        x_ec=tuple(extreme_classes(g, infos)),
        sim_classes=tuple(classes),
        x_classes=tuple(x_classes),
        h_f=h_f,
        h_inf=h_inf,
    )


@dataclass(frozen=True)
class PisCertificate:
    purely_infinite_simple: bool
    failing_condition: Optional[str] = None  # "connects-to-cycle" | "exit" | "lattice"
    witness: Optional[str] = None


def is_purely_infinite_simple(g: Graph) -> PisCertificate:
    """Graph-side criteria: cycle reach, Condition (L), trivial H-lattice.

    A cycle without exits is a cyclic strongly connected component with no
    bifurcation.  The "exit" witness is the base of the first one in
    `simple_cycles` order, the least (length, least vertex).

    The lattice is trivial when the saturated closure of every T(v) is E^0;
    the "lattice" witness is the first v in declared order for which it is
    not.  Once every vertex reaches a cycle there is no sink, since a
    sink's tree is itself.  So by `saturated_closure`'s closed form,
    cl(T(v)) is the set of w whose tree holds no cycle vertex outside T(v).
    Every cycle vertex lies in its own tree, so cl(T(v)) = E^0 exactly when
    T(v) holds every cycle vertex.
    """
    cyc = g.cycle_bits()
    for v in g.vertices:
        if not g.tree_bits(v) & cyc:
            return PisCertificate(False, "connects-to-cycle", v)
    exitless = [
        (c.bit_count(), min(g.vertices_of(c)))
        for c in {g.component_bits(v) for v in g.vertices_of(cyc)}
        if not c & g.bifurcation_bits()
    ]
    if exitless:
        return PisCertificate(False, "exit", min(exitless)[1])
    for v in g.vertices:
        if cyc & ~g.tree_bits(v):
            return PisCertificate(False, "lattice", v)
    return PisCertificate(True)


@dataclass(frozen=True)
class SinkSummand:
    sink: str
    matrix_size: object  # int | INFINITE


@dataclass(frozen=True)
class CycleSummand:
    cycle: Cycle
    matrix_size: object  # entry count, int | INFINITE


@dataclass(frozen=True)
class ExtremeSummand:
    extreme_class: ExtremeClass
    certificate: Optional[PisCertificate]  # None when entry paths are infinite
    note: Optional[str] = None


@dataclass(frozen=True)
class IdealStructureReport:
    graph: Graph
    sinks: tuple[SinkSummand, ...]
    no_exit_cycles: tuple[CycleSummand, ...]
    extreme: tuple[ExtremeSummand, ...]
    dense: bool


def ideal_structure(g: Graph, report: ClassificationReport) -> IdealStructureReport:
    sinks = tuple(SinkSummand(v, g.path_count(v)) for v in g.sinks())
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
            eps = entry_paths(g, HereditarySet(g, xc.vertices))
        if eps.is_infinite:
            extreme.append(
                ExtremeSummand(xc, None, "entry paths infinite; certificate skipped")
            )
        else:
            sub = restriction_graph(g, eps)
            extreme.append(ExtremeSummand(xc, is_purely_infinite_simple(sub)))
    dense = is_dense_ideal(g, HereditarySet(g, report.p)) if report.p else False
    return IdealStructureReport(
        graph=g,
        sinks=sinks,
        no_exit_cycles=no_exit,
        extreme=tuple(extreme),
        dense=dense,
    )


@dataclass(frozen=True)
class PrimeTrichotomy:
    kind: str  # "sink-case" | "no-exit-cycle-case" | "extreme-case" | "not-prime"
    witness: object = None
    matrix_size: object = None  # for the sink / no-exit cycle cases
    note: str = "primeness tested as downward directedness (invented criterion)"


def prime_trichotomy(
    g: Graph, report: ClassificationReport, ideal: IdealStructureReport
) -> PrimeTrichotomy:
    """The prime case of g.  The sink case reads the sink and its matrix
    size from `ideal`, the ideal structure of g, which has counted the paths
    into each sink already."""
    trees = [g.tree_bits(v) for v in g.vertices]
    # the trees meet pairwise iff they share a vertex (the one terminal
    # component), so the pair search runs only when a witness exists
    if not reduce(and_, trees):
        for u, tu in zip(g.vertices, trees):
            for v, tv in zip(g.vertices, trees):
                if not tu & tv:
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
