"""Slow references for the fast paths: the graph parser that read each edge
record's keys as a set, the commutators, the degree-0 idempotents and
the Laurent basis elements with their vertex terms on the general route,
the all-pairs candidate enumeration, the matrix built from one
``commutators`` call per candidate and the single global-pivot
elimination the oracle replaced, the classification read from every
enumerated cycle that the pass over the components replaced, the
reachability index and its unions read lowest member first, the line
points scanned tree by tree, the ~ classes linked edge by edge and the
primeness and cycle-reach witnesses scanned tree by tree that the reads
from the condensation's ends replaced, the path count by a Kahn sort
that the reachability index replaced, and the degree-0 center's
dimension counted from the blocks of the AF core, plus the graph
families and graph documents the tests draw from, among them every small
multigraph up to isomorphism.

Also the helpers that tests read and no command runs: trees, reachability
and the cycle vertices as vertex sets, cycles made from edge sequences,
brute-force path lists, disjoint unions, the generators as elements, and
elements built from paths or parsed from their rendering."""

import itertools
import json
import random
import re
from fractions import Fraction

from hypothesis import strategies as st

from lpa.center import CentralBasisElement
from lpa.classify import (
    ClassificationReport,
    ExtremeClass,
    XClass,
    line_points,
    sim_classes,
)
from lpa.engine import AlgebraElement, EngineError, sort_key
from lpa.graphs import INFINITE, Cycle, Edge, Graph, GraphError
from lpa.hereditary import HereditarySet, entry_paths, hereditary_closure, saturated_closure
from lpa.randomgen import random_graph


# Graphs on which two entry-path vertices of a restriction graph once got
# the same id: the paths ("a", "b") and ("ab",) into u, and the path ("a",)
# into a vertex named "[a]".
PATH_ID_CLASHES = {
    "concatenated_edge_ids": {
        "vertices": ["x", "y", "u"],
        "edges": [
            {"id": "a", "src": "x", "dst": "y"},
            {"id": "b", "src": "y", "dst": "u"},
            {"id": "ab", "src": "x", "dst": "u"},
            {"id": "l1", "src": "u", "dst": "u"},
            {"id": "l2", "src": "u", "dst": "u"},
        ],
    },
    "bracketed_vertex_id": {
        "vertices": ["x", "[a]"],
        "edges": [
            {"id": "a", "src": "x", "dst": "[a]"},
            {"id": "l1", "src": "[a]", "dst": "[a]"},
            {"id": "l2", "src": "[a]", "dst": "[a]"},
        ],
    },
}


def rose(n):
    """R_n: one vertex with n loops."""
    return Graph(["v"], [Edge(f"e{i}", "v", "v") for i in range(1, n + 1)])


def line(n, reverse=False):
    """L_n: v_0 -> v_1 -> ... -> v_{n-1}, names in declared order; with
    `reverse`, the same edges with the vertices declared sink first."""
    vs = [f"v{i:05d}" for i in range(n)]
    es = [Edge(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    return Graph(vs[::-1] if reverse else vs, es)


def cycle_with_tail(n):
    """C_n: a no-exit n-cycle plus one entry edge from a tail vertex t."""
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [Edge(f"e{i}", vs[i - 1], vs[i % n]) for i in range(1, n + 1)]
    return Graph(vs + ["t"], es + [Edge("f", "t", "v1")])


def complete_digraph(n):
    """K_n: n vertices and one edge from each to every other."""
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [Edge(f"e{a}.{b}", a, b) for a in vs for b in vs if a != b])


def sparse(seed, vertices=100, edges=125):
    """A sparse random multigraph, endpoints uniform: at 100 vertices and
    125 edges it mostly has small strongly connected components, some of
    them a lone cycle and some holding more, above and below each other."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(1, vertices + 1)]
    es = [Edge(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(1, edges + 1)]
    return Graph(vs, es)


def chained(seed, parts=3, max_vertices=5, max_edges=8):
    """The disjoint union of `parts` seeded random graphs, plus a few edges
    from each part into later ones.  The added edges close no cycle, so
    every cycle stays inside one part and short, while the cycles and
    sinks of a part are fed by the cycles of the parts before it."""
    rng = random.Random(seed)
    vs, es = [], []
    for i in range(parts):
        g = random_graph(rng, max_vertices, max_edges)
        vs.append([f"{v}.{i}" for v in g.vertices])
        es += [Edge(f"{e.id}.{i}", f"{e.src}.{i}", f"{e.dst}.{i}") for e in g.edges]
    for i in range(parts):
        for j in range(i + 1, parts):
            for _ in range(rng.randint(0, 2)):
                es.append(Edge(f"x{len(es)}", rng.choice(vs[i]), rng.choice(vs[j])))
    return Graph([v for part in vs for v in part], es)


def chained_graphs(parts=3, max_vertices=5, max_edges=8):
    """Seeded `chained` graphs, shrinking towards seed 0."""
    return st.integers(0, 10**6).map(lambda s: chained(s, parts, max_vertices, max_edges))


def small_multigraphs(n, max_edges, simple=False):
    """Every graph on the vertices v0, ..., v{n-1} with at most max_edges
    edges, one per isomorphism class, by edge count and then canonical
    form.  Loops are allowed, and parallel edges unless `simple`.

    The canonical form is the naive one: the least sorted list of
    (source, range) index pairs over all permutations of the vertices.
    The classes with k + 1 edges are the classes of one more edge on a
    class with k edges, since deleting an edge leaves a graph with one
    edge fewer, so each layer is built from the one before."""
    perms = list(itertools.permutations(range(n)))
    pairs = list(itertools.product(range(n), repeat=2))

    def canonical(edges):
        return min(tuple(sorted((p[a], p[b]) for a, b in edges)) for p in perms)

    layer, forms = [()], [()]
    for _ in range(max_edges):
        layer = sorted({
            canonical(form + (pair,))
            for form in layer
            for pair in pairs
            if not (simple and pair in form)
        })
        forms += layer
    vs = [f"v{i}" for i in range(n)]
    return [
        Graph(vs, [Edge(f"e{j}", vs[a], vs[b]) for j, (a, b) in enumerate(form)])
        for form in forms
    ]


@st.composite
def dense_graphs(draw, max_vertices=5, max_edges=12):
    """At least as many edges as vertices, endpoints drawn freely, so
    loops and parallel edges are common and a component often holds
    several cycles that share edges and several that do not."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    ends = st.sampled_from(vs)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=n, max_size=max_edges))
    return Graph(vs, [Edge(f"e{j}", a, b) for j, (a, b) in enumerate(pairs)])


def random_graphs(max_vertices=5, max_edges=8):
    """Seeded `random_graph`s, shrinking towards seed 0."""
    return st.integers(0, 10**6).map(
        lambda s: random_graph(random.Random(s), max_vertices, max_edges)
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
names = st.sampled_from(["u", "v", "w", "x", "y"])


@st.composite
def graph_documents(draw, strict=True):
    """Up to 5 vertices and 8 edges.  Unless `strict`, an edge may name an
    undeclared vertex or repeat an id."""
    vertices = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    ends = st.sampled_from(vertices) if strict else names
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=8))
    ids = [f"e{j}" for j in range(len(pairs))]
    if not strict:
        ids = draw(st.lists(st.sampled_from("abc"), min_size=len(pairs), max_size=len(pairs)))
    return {
        "vertices": vertices,
        "edges": [{"id": i, "src": s, "dst": d} for i, (s, d) in zip(ids, pairs)],
    }


@st.composite
def wrong_fields(draw):
    """A strict document with its vertices, its edges or one field of its
    first edge replaced by any JSON value."""
    doc = draw(graph_documents())
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["vertices", "edges"]))] = draw(json_values)
    elif doc["edges"]:
        doc["edges"][0][draw(st.sampled_from(["id", "src", "dst"]))] = draw(json_values)
    return json.dumps(doc)


def renamed(g, rng):
    """g with vertices and edges renamed at random and declared in shuffled
    order, so that lexicographic order (v10 < v2), which picks the special
    edges and sorts the monomials, differs from declared order."""
    vnames = dict(zip(g.vertices, rng.sample([f"v{i}" for i in range(12)], len(g.vertices))))
    enames = dict(zip((e.id for e in g.edges), rng.sample([f"e{i}" for i in range(16)], len(g.edges))))
    vs = [vnames[v] for v in g.vertices]
    es = [Edge(enames[e.id], vnames[e.src], vnames[e.dst]) for e in g.edges]
    rng.shuffle(vs)
    rng.shuffle(es)
    return Graph(vs, es)


# -- graphs ---------------------------------------------------------------------


def tree(g, v):
    """T(v): the forward-reachable vertex set, including v itself."""
    return g.vertices_of(g.tree_bits(v))


def connects_to(g, v, H):
    """True iff some vertex of H is forward-reachable from v."""
    return bool(g.tree_bits(v) & g.vertex_bits(H))


def cycle_vertices(g):
    """Vertices lying on at least one cycle."""
    return g.vertices_of(g.cycle_bits())


def make_cycle(g, edge_ids):
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
    i = sources.index(min(sources))
    return Cycle(edges=eids[i:] + eids[:i], sources=tuple(sources[i:] + sources[:i]))


def ref_count_paths_into(g, targets, forbidden=()):
    """`count_paths_into` before it read the reachability index: the
    targets' ancestors through allowed edges, a Kahn sort of the graph
    they span, INFINITE when the sort leaves a cycle, and then the number
    of paths from each vertex into the targets, in reverse topological
    order."""
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


def enumerate_paths_into(g, targets, forbidden=()):
    """Brute-force list of the paths counted by `count_paths_into`, as
    (source vertex, edge ids) pairs.  Only valid when the count is finite."""
    tset = set(targets)
    fset = set(forbidden)
    rev = {v: [] for v in g.vertices}
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
    results = []

    def extend(src, edges, at, depth):
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


def disjoint_union(g1, g2, suffix1="", suffix2="'"):
    """Disjoint union with ids kept apart by suffixes."""
    vs = [v + suffix1 for v in g1.vertices] + [v + suffix2 for v in g2.vertices]
    es = [Edge(e.id + suffix1, e.src + suffix1, e.dst + suffix1) for e in g1.edges]
    es += [Edge(e.id + suffix2, e.src + suffix2, e.dst + suffix2) for e in g2.edges]
    return Graph(vs, es)


# -- elements -------------------------------------------------------------------


def generators(alg):
    """(label, element) for every vertex, edge and ghost edge, in the order
    of `generator_labels`, each built by the constructor its kind names."""
    for label, kind, gid in alg.generator_labels():
        yield label, getattr(alg, kind)(gid)


def path_from_edges(alg, edges):
    """The path along the edge ids, from the source of the first; checked."""
    eids = tuple(edges)
    if not eids:
        raise EngineError("a path from edges needs at least one edge")
    p = (alg.graph.edge(eids[0]).src, eids)
    alg.graph.path_range(*p)  # validates
    return p


def path_element(alg, p):
    """The path p as the element p r(p)*."""
    return alg.normal_form([(p + (alg.graph.path_range(*p), ()), 1)])


def monomial_element(alg, alpha, beta, k=1):
    """k alpha beta*; `normal_form` checks that the ranges agree."""
    return alg.normal_form([(alpha + beta, k)])


def plain_monomial(m):
    """m is the one form of a monomial: an exact tuple (s(alpha), alpha,
    s(beta), beta) of a str, a tuple of strs, a str and a tuple of strs."""
    return (
        type(m) is tuple
        and len(m) == 4
        and type(m[0]) is type(m[2]) is str
        and type(m[1]) is type(m[3]) is tuple
        and all(type(e) is str for e in m[1] + m[3])
    )


def parse_coefficient(field, text):
    """A coefficient as `render` prints it: an integer, or over Q a
    fraction a/b."""
    return field.coerce(Fraction(text))


_TERM_RE = re.compile(r"^\(?(-?[0-9][0-9/]*)\)?·(.*?)(?:\s*\(([^)]*)\)\*)?$")


def _parse_path(alg, tokens):
    g = alg.graph
    if len(tokens) == 1 and tokens[0] in g.vertices and all(e.id != tokens[0] for e in g.edges):
        return tokens[0], ()
    return path_from_edges(alg, tokens)


def parse_element(alg, text):
    """The element that `alg.render` prints as text."""
    text = text.strip()
    if text == "0":
        return alg.zero()
    raw = []
    for chunk in text.split(" + "):
        match = _TERM_RE.match(chunk.strip())
        if not match:
            raise EngineError(f"cannot parse term: {chunk!r}")
        coef_s, alpha_s, beta_s = match.groups()
        alpha = _parse_path(alg, alpha_s.split())
        if beta_s:
            beta = path_from_edges(alg, beta_s.split())
        else:
            beta = alg.graph.path_range(*alpha), ()
        raw.append((alpha + beta, parse_coefficient(alg.field, coef_s)))
    return alg.normal_form(raw)


def ref_parse_graph(text):
    """The graph parser before the one-pass edge read: a set of each edge
    record's keys, then an all() over the three fields."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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


def ref_involution(alg, x):
    """x* through `normal_form`: each term's sides swapped, then normalized,
    as `LeavittAlgebra.involution` did before it swapped the terms alone."""
    return alg.normal_form([((sb, q, sa, p), k) for (sa, p, sb, q), k in x.terms.items()])


def ref_commutators(alg, x):
    """`LeavittAlgebra.commutators` with every term of x, vertex terms too,
    through `generator_action`, as it was before x's vertex part was summed
    in closed form."""
    acc = {}
    alg.generator_action(x.terms.items(), acc)
    grouped = {}
    for t, c in acc.items():
        if c := alg.field.coerce(c):
            grouped.setdefault(t[:2], {})[t[2:]] = c
    return {key: AlgebraElement(alg, terms) for key, terms in grouped.items()}


def ref_dressed(alg, loops, paths):
    """`center._dressed` with every raw term, the vertex terms u loops[u]
    too, through `normal_form`, as both basis builders were before their
    vertex terms were built directly."""
    g = alg.graph
    raw = [((u, loop, u, ()), 1) for u, loop in loops.items()]
    for p in paths:
        s = g.edge(p[0]).src
        raw.append(((s, p + loops[g.edge(p[-1]).dst], s, p), 1))
    return alg.normal_form(raw)


def ref_a_class(alg, xclass):
    """`center.a_class` on the general route: the closure's vertices and
    the alpha alpha* over its entry paths, all through `normal_form`."""
    loops = dict.fromkeys(alg.graph.names_of(xclass.closure), ())
    return CentralBasisElement(
        degree=0, element=ref_dressed(alg, loops, xclass.entry.paths), class_id=xclass.rep
    )


def ref_laurent_basis(alg, report, degree_window):
    """`center_report(...).basis_nonzero` on the general route: for each
    no-exit cycle c in S and each m >= 1 with m|c| in the window, the
    vertex terms u c_u^m of c's vertices and the terms p c^m p* of its
    entry paths all through `normal_form`, then the involution at degree
    -m|c|."""
    g = alg.graph
    by_degree = {}
    for ci in report.cycles:
        if not ci.in_S:
            continue
        c = ci.cycle
        k = g.component_bits(c.base)
        paths = entry_paths(g, HereditarySet.from_bits(g, k)).paths
        class_id = next(xc.rep for xc in report.x_classes if xc.members & k)
        for m in range(1, degree_window // len(c.edges) + 1):
            loops = {u: c.rotation_at(u) * m for u in g.names_of(k)}
            elem = ref_dressed(alg, loops, paths)
            n = m * len(c.edges)
            for degree, x, power in ((n, elem, m), (-n, alg.involution(elem), -m)):
                by_degree.setdefault(degree, []).append(
                    CentralBasisElement(degree, x, class_id, c.base, power)
                )
    return {n: tuple(by_degree[n]) for n in sorted(by_degree)}


def ref_reducible(alg, alpha_edges, beta_edges):
    """alpha beta* is reducible: both sides end in one edge, and that edge is
    the special edge of its source, its least out-edge, looked up through
    `Graph.edge` and `Graph.out_edges`."""
    if not alpha_edges or not beta_edges:
        return False
    e = alpha_edges[-1]
    if e != beta_edges[-1]:
        return False
    g = alg.graph
    return e == min(g.out_edges(g.edge(e).src)).id


def ref_normal_monomials(alg, degree, max_len):
    """Every pair of paths up to max_len with a common range, filtered by
    length and degree."""
    paths = alg.enumerate_paths(max_len)
    by_range = {}
    for p in paths:
        by_range.setdefault(alg.graph.path_range(*p), []).append(p)
    out = []
    for ps in by_range.values():
        for a in ps:
            for b in ps:
                if len(a[1]) - len(b[1]) == degree and len(a[1]) + len(b[1]) <= max_len:
                    if not ref_reducible(alg, a[1], b[1]):
                        out.append(a + b)
    out.sort(key=sort_key)
    return out


def ref_oracle_candidates(alg, degree, max_len):
    """The oracle's candidates from `normal_monomials`: those with
    s(alpha) = s(beta) that the length bound does not force to 0.  At the
    top lengths, |alpha| + |beta| + 2 > L with a nonempty side, a candidate
    at v = s(alpha) is forced when both sides are nonempty and v has an
    in-edge, or when one side is trivial and v's in-edges are not exactly
    one edge that is special at its source."""
    into = {v: [e for e in alg.graph.edges if e.dst == v] for v in alg.graph.vertices}

    def forced(m):
        v, p, _, q = m
        if len(p) + len(q) + 2 <= max_len or not (p or q):
            return False
        if p and q:
            return bool(into[v])
        es = into[v]
        return not (len(es) == 1 and min(alg.graph.out_edges(es[0].src)).id == es[0].id)

    return [m for m in alg.normal_monomials(degree, max_len) if m[0] == m[2] and not forced(m)]


def ref_oracle_matrix(alg, degree, max_len):
    """The oracle's candidates and rows, with one ``commutators`` call per
    candidate and rows of field elements keyed by (generator, monomial)."""
    cands = [m for m in alg.normal_monomials(degree, max_len) if m[0] == m[2]]
    rows = {}
    for j, m in enumerate(cands):
        coms = alg.commutators(AlgebraElement(alg, {m: 1}))
        for generator, com in coms.items():
            for mm, k in com.terms.items():
                rows.setdefault((generator, mm), {})[j] = k
    return cands, list(rows.values())


def ref_rref(rows, field):
    """Reduced row echelon form with one pivot dict over all columns and
    field arithmetic throughout, on values of the reference's own: in
    Fraction over Q, where entries may be ints and int / int is a float,
    and over F_p in int residues, each value reduced with its own % p and
    each pivot inverted with pow(k, -1, p)."""
    p = getattr(field, "p", None)
    if p is None:
        norm, inverse = Fraction, lambda k: 1 / k
    else:
        norm, inverse = (lambda k: k % p), (lambda k: pow(k, -1, p))
    pivots = {}  # pivot col -> normalized row

    def subtract(row, factor, prow):
        for c, k in prow.items():
            s = norm(row.get(c, 0) - factor * k)
            if s:
                row[c] = s
            else:
                row.pop(c, None)

    for row in rows:
        row = {c: v for c, k in row.items() if (v := norm(k))}
        while row:
            lead = min(row)
            if lead in pivots:
                subtract(row, row[lead], pivots[lead])
            else:
                inv = inverse(row[lead])
                pivots[lead] = {c: norm(k * inv) for c, k in row.items()}
                break
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other_lead, orow in pivots.items():
            if other_lead != lead and orow.get(lead, 0):
                subtract(orow, orow[lead], prow)
    return [pivots[lead] for lead in sorted(pivots)]


def ref_kernel_basis(rows, ncols, field):
    """Null space from ref_rref, scanning every pivot row per free column."""
    p = getattr(field, "p", None)
    rref_rows = ref_rref(rows, field)
    pivot_cols = {min(r) for r in rref_rows}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = {f: 1}
        for r in rref_rows:
            k = r.get(f, 0)
            if k:
                vec[min(r)] = -k if p is None else -k % p
        basis.append(vec)
    return basis


def ref_same_span(alg, xs, ys):
    """same_span with ref_rref."""
    monomials = sorted(
        {m for x in xs for m in x.terms} | {m for y in ys for m in y.terms},
        key=sort_key,
    )
    index = {m: i for i, m in enumerate(monomials)}

    def canon(elems):
        rows = [{index[m]: k for m, k in e.terms.items()} for e in elems if e.terms]
        return [tuple(sorted(r.items())) for r in ref_rref(rows, alg.field)]

    return canon(xs) == canon(ys)


# -- the degree-0 center from the AF core ------------------------------------------


def ref_af_center_zero(g, n):
    """dim Z(L)_0 ∩ L_{0,n}, counted from the graph alone: no monomial, no
    engine call and no elimination.  The oracle's V_L at degree 0 is
    L_{0,n} for L = 2n, so this is len(oracle_commutant(alg, 0, 2n)).

    L_{0,n} = span{αβ* : |α| = |β| ≤ n} is the direct sum of the matrix
    algebras with matrix units αβ*, α and β in one block: a block (m, w)
    holds the paths of length m < n ending at the sink w, and a block
    (n, v) the paths of length n ending at v (Ara, Moreno and Pardo,
    "Nonstable K-theory for graph algebras", 2007).  An element of L_{0,n}
    central in L commutes with L_{0,n}, so it lies in the center of that
    sum, spanned by the block identities 1_B = Σ_{α in B} αα* of the
    nonempty blocks, which are linearly independent.  So the count is the
    dimension of the space of x = Σ c_B 1_B central in L.

    Such an x commutes with every vertex v, since v·αα* = αα*·v is αα*
    when s(α) = v and 0 otherwise, and x* = x, so [e*, x] = [x, e]*: x is
    central iff it commutes with every edge e.  Let u = r(e).  Every term
    of x·e begins with e, so x·e = ee*·x·e, and e·x = e·u·x; as e*e = u,
    e·x = x·e iff u·x = e*·x·e.  For n = 0, where 1_(0,v) = v, that reads
    c_(0,u)·u = c_(0,s(e))·u: c_(0,s(e)) = c_(0,r(e)).  For n ≥ 1,
    u·x = Σ c_B Σ αα* over the α in B with s(α) = u, and
    e*·x·e = Σ c_B Σ α'α'* over the α' with eα' in B.  Write both in the
    diagonal matrix units ββ* (|β| = m < n with r(β) a sink, or |β| = n),
    which are independent, expanding α'α'* with |α'| = n - 1 and r(α') not
    a sink by the CK relation r(α') = Σ_{s(f) = r(α')} ff*.  Comparing the
    coefficients of ββ* with s(β) = u gives:
    - β of length m < n ending at a sink w: c_(m,w) on the left and, from
      α' = β with eβ in (m + 1, w), c_(m+1,w) on the right;
    - β = α'f of length n: c_(n,r(f)) on the left and, from eα' in
      (n, s(f)), c_(n,s(f)) on the right.
    Every block named is nonempty, as β or eβ, or α' and eα', is a path of
    its length.  So x is central iff its coefficients are equal along
    these identifications, and the count is the number of classes of
    nonempty blocks under them."""
    sinks = {v for v in g.vertices if not g.out_edges(v)}
    ends = [set(g.vertices)]  # ends[m]: where some path of length m ends
    for _ in range(n):
        ends.append({f.dst for v in ends[-1] for f in g.out_edges(v)})
    blocks = [(m, w) for m in range(n) for w in ends[m] & sinks]
    blocks += [(n, v) for v in ends[n]]
    index = {b: i for i, b in enumerate(blocks)}
    if n == 0:
        related = [((0, e.src), (0, e.dst)) for e in g.edges]
    else:
        related = []
        for u in {e.dst for e in g.edges}:
            layer = {u}  # where the paths of length m from u end
            for m in range(n):
                related += [((m, w), (m + 1, w)) for w in layer & sinks]
                last = [f for v in layer for f in g.out_edges(v)]
                layer = {f.dst for f in last}
            related += [((n, f.dst), (n, f.src)) for f in last]
    return len(union_find_classes(len(blocks), [(index[a], index[b]) for a, b in related]))


# -- classification ---------------------------------------------------------------


def ref_tree(g, v):
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


def ref_not_prime_witness(g):
    """The first pair (u, v) in declared order whose trees are disjoint, by
    the scan over all pairs of trees that `prime_trichotomy` ran before it
    read the pair from the condensation's ends; None when the trees meet
    pairwise."""
    trees = {v: ref_tree(g, v) for v in g.vertices}
    for u in g.vertices:
        for v in g.vertices:
            if not (trees[u] & trees[v]):
                return (u, v)
    return None


def ref_cycle_reach_witness(g):
    """The first vertex in declared order whose tree holds no cycle vertex,
    by the scan tree by tree that `is_purely_infinite_simple` ran before it
    read the ancestors of the cycle vertices; None when every vertex
    reaches a cycle."""
    cyc = cycle_vertices(g)
    return next((v for v in g.vertices if not ref_tree(g, v) & cyc), None)


class RefReachIndex:
    """The reachability index before it recorded the condensation's ends:
    Tarjan with an index per frame and a scan of the stack for every
    component, then the pass in topological order, each per-vertex table
    filled by a generator.  Its tables are those of `lpa.graphs._ReachIndex`
    but `ends` and `starts`."""

    __slots__ = ("trees", "ancestors", "inflow", "cyclic", "sinks", "bifurcations")

    def __init__(self, g):
        n = len(g.vertices)
        index_of = g._vertex_index
        succ = [[index_of[e.dst] for e in g.out_edges(v)] for v in g.vertices]
        order = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack = []
        component_of = [-1] * n
        members_of = []
        ancestors = []
        comp_trees = []
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
        inflow = [0] * len(members_of)
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


def ref_union(table, bits):
    """The union of the entries of `table`, a per-vertex table of trees or
    of ancestor sets, over the members of the bitset `bits`, the lowest
    member not yet in the union read first: `tree_union_bits` and
    `ancestor_bits` before they read the condensation's ends first."""
    out = 0
    while bits:
        out |= table[(bits & -bits).bit_length() - 1]
        bits &= ~out
    return out


def ref_line_point_scan(g):
    """The line points as a bitset, one tree at a time: the vertices whose
    tree holds no cycle vertex and no bifurcation."""
    idx = RefReachIndex(g)
    blocked = idx.cyclic | idx.bifurcations
    bits = 0
    for i, t in enumerate(idx.trees):
        if not t & blocked:
            bits |= 1 << i
    return bits


def ref_linked_groups(g, edges):
    """Vertices grouped by undirected connection through `edges`, as
    bitsets in the declared order of their first members, by union-find
    with its find a closure called per end."""
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
    groups = {}
    for i in range(len(g.vertices)):
        root = find(i)
        groups[root] = groups.get(root, 0) | 1 << i
    return list(groups.values())


def ref_edge_filter_classes(g):
    """The ~ classes as bitsets, each edge kept when its source lies below
    a cycle or its source's tree holds no bifurcation."""
    idx = RefReachIndex(g)
    below_cycle = ref_union(idx.trees, idx.cyclic)
    index = g._vertex_index
    linking = [
        e
        for e in g.edges
        if below_cycle >> (i := index[e.src]) & 1 or not idx.trees[i] & idx.bifurcations
    ]
    return ref_linked_groups(g, linking)


def union_find_classes(n, related):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in related:
        a, b = find(i), find(j)
        if a != b:
            parent[a] = b
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def ref_extreme_classes(g, infos):
    ext = [ci.cycle for ci in infos if ci.is_extreme]
    trees = [frozenset().union(*(ref_tree(g, v) for v in c.vertex_set)) for c in ext]
    related = [
        (i, j)
        for i, c in enumerate(ext)
        for j, d in enumerate(ext)
        if i < j and (trees[i] & d.vertex_set or trees[j] & c.vertex_set)
    ]
    out = []
    for idxs in union_find_classes(len(ext), related):
        cycles = tuple(sorted((ext[i] for i in idxs), key=lambda c: (len(c.edges), c.base, c.edges)))
        out.append(
            ExtremeClass(
                class_id=min(c.base for c in cycles),
                cycles=cycles,
                vertices=frozenset().union(*(trees[i] for i in idxs)),
            )
        )
    out.sort(key=lambda xc: xc.class_id)
    return out


def ref_x_decomposition(g, infos):
    """The classification report read from the per-cycle `infos`, with
    every vertex set a frozenset of names: P_c, P_c+, P_e and P_ec as
    unions of cycle vertex sets, a class is cycle_laurent when it holds a
    whole cycle of S, and the extreme classes are joined by their trees.
    The line points, the ~ classes, the closures and the entry paths come
    from lpa; the tests compare each of them with its own reference.  Its
    fields are those of `named_report` of lpa's bitset report."""

    def union(keep):
        return frozenset().union(*(ci.cycle.vertex_set for ci in infos if keep(ci)))

    pl = g.vertices_of(line_points(g))
    pc = union(lambda ci: not ci.has_exits)
    pc_plus = union(lambda ci: not ci.has_exits and ci.wrap_count is INFINITE)
    pe = union(lambda ci: ci.has_exits)
    pec = union(lambda ci: ci.is_extreme)
    p = pl | pc | pec
    s_cycles = [ci.cycle for ci in infos if ci.in_S]
    classes = [g.vertices_of(c) for c in sim_classes(g)]
    x_classes = []
    for cls in classes:
        if not cls & p:
            continue
        closure = saturated_closure(g, hereditary_closure(g, cls))
        eps = entry_paths(g, closure)
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
                rep=min(cls, key=g.vertices.index),
                closure=closure.members,
                entry=eps,
                is_finite=not eps.is_infinite,
                class_type=ctype,
            )
        )
    return ClassificationReport(
        p_l=pl,
        p_c=pc,
        p_c_plus=pc_plus,
        p_c_minus=pc - pc_plus,
        p_e=pe,
        p_ec=pec,
        p_binf=frozenset(),
        cycles=tuple(infos),
        x_ec=tuple(ref_extreme_classes(g, infos)),
        sim_classes=tuple(classes),
        x_classes=tuple(x_classes),
        h_f=frozenset().union(*(xc.closure for xc in x_classes if xc.is_finite)),
        h_inf=frozenset().union(*(xc.closure for xc in x_classes if not xc.is_finite)),
    )


def named_report(g, rep):
    """The classification report `rep` of g with every vertex bitset, in
    the report, its extreme classes and its X-classes, turned into the
    frozenset of the names it holds: the form `ref_x_decomposition` gives."""
    names = g.vertices_of
    return rep._replace(
        p_l=names(rep.p_l),
        p_c=names(rep.p_c),
        p_c_plus=names(rep.p_c_plus),
        p_c_minus=names(rep.p_c_minus),
        p_e=names(rep.p_e),
        p_ec=names(rep.p_ec),
        p_binf=names(rep.p_binf),
        x_ec=tuple(xc._replace(vertices=names(xc.vertices)) for xc in rep.x_ec),
        sim_classes=tuple(map(names, rep.sim_classes)),
        x_classes=tuple(
            xc._replace(members=names(xc.members), closure=names(xc.closure))
            for xc in rep.x_classes
        ),
        h_f=names(rep.h_f),
        h_inf=names(rep.h_inf),
    )


def sorted_vertices(g, vs):
    """The vertices `vs` of g in declared order, sorted by their indices."""
    return sorted(vs, key=g.vertices.index)


def names_by_walk(bits, names):
    """The entries of `names` at the set bits of `bits`, lowest bit first,
    found one bit at a time: the reference of `Graph.names_of`."""
    return [name for i, name in enumerate(names) if bits >> i & 1]
