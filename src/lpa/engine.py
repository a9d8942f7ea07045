"""Exact symbolic arithmetic in the Leavitt path algebra of a finite graph.

Elements are finite linear combinations of normal-form monomials
``alpha beta*`` over an exact field.  The normal form forbids alpha and
beta from both ending in the special (lexicographically least) edge of
their common last source, which is exactly the rewrite target of the
range relation at regular vertices.

A path is the plain pair (source, edge ids), and a monomial alpha beta*
with r(alpha) = r(beta) the plain 4-tuple (s(alpha), alpha edges,
s(beta), beta edges), which is ``alpha + beta``: ``m[:2]`` is alpha and
``m[2:]`` is beta.  Its hash, equality and order are the tuple's, so
monomials sort as the pairs of paths (alpha, beta) do.  The engine reads
one by position, ``sa, p, sb, q = m``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .fields import QQ
from .graphs import Graph


class EngineError(ValueError):
    pass


def sort_key(m: tuple) -> tuple:
    """The order of the terms of an element: |alpha| + |beta|, then
    (s(alpha), alpha, s(beta), beta), the order of the tuple itself."""
    return len(m[1]) + len(m[3]), m


def _term_key(term: tuple) -> tuple:
    """`sort_key` of the monomial of a (monomial, coefficient) term."""
    m = term[0]
    return len(m[1]) + len(m[3]), m


class AlgebraElement:
    """Immutable linear combination of normal-form monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "LeavittAlgebra", terms: dict):
        self.algebra = algebra
        self.terms = terms  # monomial -> nonzero field value; treated as frozen

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        self._check(other)
        coerce = self.algebra.field.coerce
        terms = dict(self.terms)
        for m, k in other.terms.items():
            s = coerce(terms.get(m, 0) + k)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return AlgebraElement(self.algebra, terms)

    def __neg__(self):
        coerce = self.algebra.field.coerce
        return AlgebraElement(self.algebra, {m: coerce(-k) for m, k in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        coerce = self.algebra.field.coerce
        k = coerce(k)
        if not k:
            return self.algebra.zero()
        return AlgebraElement(self.algebra, {m: coerce(c * k) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, k):
        return self.scale(k)

    def _check(self, other):
        """Refuse an element of another algebra.  Coefficients are plain
        numbers that carry no field, so this is also what keeps values of
        two fields apart: elements over F_5 and F_7, or over F_7 and Q, of
        one graph belong to two algebras."""
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise EngineError("elements belong to different algebras")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_term_key)

    def __repr__(self):
        return self.algebra.render(self) if self.terms else "0"


class CentralityResult(NamedTuple):
    central: bool
    witness: Optional[str] = None  # generator label, e.g. "v1", "e1", "e1*"
    commutator: Optional[AlgebraElement] = None

    def __bool__(self):
        return self.central


class LeavittAlgebra:
    """Arithmetic context: a finite graph plus an exact coefficient field."""

    def __init__(self, graph: Graph, field=QQ):
        self.graph = graph
        self.field = field
        # the special edges, each vertex's least out-edge, read from the
        # adjacency the graph validated at construction; edges are (id, src,
        # dst) tuples with distinct ids, so the least edge is the one with
        # the least id.  alpha beta* is reducible exactly when alpha and
        # beta are nonempty and end in the same edge, and that edge is here
        self._specials = frozenset(min(out).id for out in graph._out.values() if out)
        self._in: dict[str, list] = {v: [] for v in graph.vertices}
        for e in graph.edges:
            self._in[e.dst].append(e)
        # the oracle's path tables (`center._OracleTables`), built on its
        # first solve on this algebra
        self._oracle_tables = None

    # -- constructors -------------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def vertex(self, v: str) -> AlgebraElement:
        return self.normal_form([((v, (), v, ()), 1)])

    def edge(self, eid: str) -> AlgebraElement:
        e = self.graph.edge(eid)
        return self.normal_form([((e.src, (eid,), e.dst, ()), 1)])

    def ghost(self, eid: str) -> AlgebraElement:
        e = self.graph.edge(eid)
        return self.normal_form([((e.dst, (), e.src, (eid,)), 1)])

    def one(self) -> AlgebraElement:
        out = self.zero()
        for v in self.graph.vertices:
            out = out + self.vertex(v)
        return out

    # -- normal form ---------------------------------------------------------

    def normal_form(self, raw_terms) -> AlgebraElement:
        """Rewrite until no monomial has both parts ending in a special edge.

        The rewrite replaces alpha'ss* beta'* (s special at v) by
        alpha' beta'* minus the other ee* insertions at v; each step
        strictly shortens the reducible part, so it terminates.

        Every raw term is checked: both sides must be paths of the graph
        with one range, or `Graph.path_range` raises its `GraphError` and a
        mismatch raises `EngineError`.  A term with alpha = beta has its
        one side checked once, and nothing is kept between calls.  The
        rewrites read the algebra's special-edge set and the graph's own
        edge and adjacency tables, since every edge they meet is an edge of
        a checked term.
        """
        coerce = self.field.coerce
        specials = self._specials
        out_of, edge_by_id = self.graph._out, self.graph._edge_by_id
        path_range = self.graph.path_range
        out: dict[tuple, object] = {}
        stack = [(m, coerce(k)) for m, k in raw_terms]
        for m, _ in stack:
            sa, p, sb, q = m
            r = path_range(sa, p)
            if (p != q or sa != sb) and r != path_range(sb, q):
                raise EngineError(f"range mismatch in raw term: {m}")
        # every coefficient on the stack is a field value, so a monomial met
        # for the first time is stored as it is
        while stack:
            m, k = stack.pop()
            if not k:
                continue
            sa, p, sb, q = m
            if p and q and p[-1] == q[-1] and p[-1] in specials:
                s = p[-1]
                p1, q1 = p[:-1], q[:-1]
                stack.append(((sa, p1, sb, q1), k))
                neg_k = coerce(-k)
                for fid, _, _ in out_of[edge_by_id[s].src]:
                    if fid != s:
                        fe = (fid,)
                        stack.append(((sa, p1 + fe, sb, q1 + fe), neg_k))
            else:
                acc = out.get(m)
                if acc is None:
                    out[m] = k
                elif acc := coerce(acc + k):
                    out[m] = acc
                else:
                    del out[m]
        return AlgebraElement(self, out)

    # -- products -------------------------------------------------------------

    def mono_mul_raw(self, m1: tuple, m2: tuple):
        """(a1 b1*)(a2 b2*) before normalization; None when it vanishes:
        b1 and a2 must start at one vertex, and one must be a prefix of the
        other."""
        sa1, p1, sb1, q1 = m1
        sa2, p2, sb2, q2 = m2
        if sb1 != sa2:
            return None
        if p2[: len(q1)] == q1:
            return sa1, p1 + p2[len(q1):], sb2, q2
        if q1[: len(p2)] == p2:
            return sa1, p1, sb2, q2 + q1[len(p2):]
        return None

    def multiply(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        raw = []
        for m1, k1 in x.terms.items():
            for m2, k2 in y.terms.items():
                prod = self.mono_mul_raw(m1, m2)
                if prod is not None:
                    raw.append((prod, k1 * k2))
        return self.normal_form(raw)

    def commutator(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        return x * y - y * x

    # -- structure maps --------------------------------------------------------

    def involution(self, x: AlgebraElement) -> AlgebraElement:
        """x*, term by term: (k alpha beta*)* = k beta alpha*, for x in normal
        form.  The swap keeps normal form, since the condition (alpha and
        beta do not both end in the same special edge) is symmetric in alpha
        and beta, and it is a bijection on monomials, so no two terms meet
        and every coefficient stays the field value it was.  No
        `normal_form` runs."""
        return AlgebraElement(
            self, {(sb, q, sa, p): k for (sa, p, sb, q), k in x.terms.items()}
        )

    # -- centrality --------------------------------------------------------------

    def generator_labels(self):
        """(label, kind, id) for every generator: the vertices, then the
        edges, then the ghost edges, each in declared order.

        kind is "vertex", "edge" or "ghost", the name of the constructor that
        builds the generator; it keeps the generators apart where a vertex id
        equals an edge id.
        """
        for v in self.graph.vertices:
            yield v, "vertex", v
        for e in self.graph.edges:
            yield e.id, "edge", e.id
        for e in self.graph.edges:
            yield e.id + "*", "ghost", e.id

    def generator_action(self, terms, acc: dict) -> None:
        """Add [k·m, g] for every term (m, k) of terms and every generator g
        into the dict acc, without building g.

        A term is (m, k) for a monomial m = alpha beta* in normal form.
        Each c·alpha beta* that [k·m, g] contains is added to acc under the
        flat key (kind, id, s(alpha), alpha, s(beta), beta), with (kind, id)
        as in generator_labels(): acc[key] = acc.get(key, 0) + c, as plain
        numbers that no field reduces.  Entries are never removed, so terms
        that cancel leave an entry equal to 0 (over F_p a multiple of p),
        and the caller reduces and keeps the nonzero ones.  No ``multiply``
        or ``normal_form`` runs.  A monomial m = alpha beta* meets only the
        generators below, and each result is normal (for an edge e write
        a = s(e), b = r(e)):

        - vertex v: [m, v] = ([s(beta)=v] - [s(alpha)=v]) m, so only s(alpha)
          and s(beta) act, and only when they differ.
        - edge e: m e is alpha e when beta is trivial at a, alpha (beta')*
          when beta = e beta', else 0, so only the edges out of s(beta) (beta
          trivial) or beta's first edge act.  e m is (e alpha) beta* when
          s(alpha) = b, else 0, so only the edges into s(alpha) act.  Cutting
          the front edge off beta, or putting e in front of a nonempty alpha,
          leaves the last edges of alpha and beta as they were, so the
          result is normal.  The one exception: alpha trivial, beta = beta0 e
          and e special at a.  Then e m = e e* beta0* needs the range
          relation e e* = a - sum_{f != e} f f* once, giving
          a beta0* - sum_{f != e} f (beta0 f)*, which is normal.
        - ghost e*: [x, e*] = -([x*, e])*, because (x e* - e* x)* =
          e x* - x* e.  The swap alpha beta* -> beta alpha* keeps normal
          form, since the condition is symmetric in alpha and beta, so the
          edge case runs on the swapped term and its results are swapped
          back and negated.

        Both the edge and the ghost case are written out below, the ghost
        case with the swap, the swap back and the negation already applied.
        """
        # an in-edge of sa or sb leaves its source a, and `specials` holds one
        # edge per source, so it is special at a exactly when it is there
        specials, into = self._specials, self._in
        out, edge_by_id = self.graph._out, self.graph._edge_by_id
        get = acc.get
        for (sa, p, sb, q), k in terms:
            neg_k = -k
            # vertices
            if sa != sb:
                key = ("vertex", sb, sa, p, sb, q)
                acc[key] = get(key, 0) + k
                key = ("vertex", sa, sa, p, sb, q)
                acc[key] = get(key, 0) + neg_k
            # edges: m e
            if q:
                eid, _, b = edge_by_id[q[0]]
                key = ("edge", eid, sa, p, b, q[1:])
                acc[key] = get(key, 0) + k
            else:
                for eid, _, b in out[sb]:
                    key = ("edge", eid, sa, p + (eid,), b, ())
                    acc[key] = get(key, 0) + k
            # edges: -e m, with the range relation when it applies
            for eid, a, _ in into[sa]:
                if not p and q and q[-1] == eid and eid in specials:
                    beta0 = q[:-1]
                    key = ("edge", eid, a, (), sb, beta0)
                    acc[key] = get(key, 0) + neg_k
                    for fid, _, _ in out[a]:
                        if fid != eid:
                            fe = (fid,)
                            key = ("edge", eid, a, fe, sb, beta0 + fe)
                            acc[key] = get(key, 0) + k
                else:
                    key = ("edge", eid, a, (eid,) + p, sb, q)
                    acc[key] = get(key, 0) + neg_k
            # ghosts: -(m* e)*
            if p:
                eid, _, b = edge_by_id[p[0]]
                key = ("ghost", eid, b, p[1:], sb, q)
                acc[key] = get(key, 0) + neg_k
            else:
                for eid, _, b in out[sa]:
                    key = ("ghost", eid, b, (), sb, q + (eid,))
                    acc[key] = get(key, 0) + neg_k
            # ghosts: (e m*)*, with the range relation when it applies
            for eid, a, _ in into[sb]:
                if not q and p and p[-1] == eid and eid in specials:
                    alpha0 = p[:-1]
                    key = ("ghost", eid, sa, alpha0, a, ())
                    acc[key] = get(key, 0) + k
                    for fid, _, _ in out[a]:
                        if fid != eid:
                            fe = (fid,)
                            key = ("ghost", eid, sa, alpha0 + fe, a, fe)
                            acc[key] = get(key, 0) + neg_k
                else:
                    key = ("ghost", eid, sa, p, a, (eid,) + q)
                    acc[key] = get(key, 0) + k

    def commutators(self, x: AlgebraElement) -> dict:
        """{(kind, id): [x, g]} for every generator g with [x, g] != 0, keyed
        as in generator_labels(); x must be in normal form.

        Equal to ``commutator(x, g)`` for each g, summed into one dict under
        the flat keys of generator_action.  x's vertex terms (alpha = beta
        trivial) are summed in closed form, and only its other terms go
        through generator_action.  By the vertex relations v e =
        [v = s(e)] e and e v = [v = r(e)] e, with e* = r(e) e* s(e), the
        vertex sum y = sum_u k_u u, k_u = 0 where u has no term, has

        - [y, v] = 0 for every vertex v, since vertices commute;
        - [y, e] = (k_a - k_b) e and [y, e*] = (k_b - k_a) e* for an edge
          e = (a -> b), under the keys ("edge", e, a, (e,), b, ()) and
          ("ghost", e, b, (), a, (e,)).

        So the vertex part costs one difference per edge that meets a vertex
        term.  The edges out of each such u are read with c = k_u - k_b,
        skipped when c = 0, as on a loop; an edge into u is read only when
        its source has no term, so each edge is counted once.  The range
        relation is never needed: generator_action rewrites only a term with
        a nonempty alpha or beta.  A central vertex sum, such as the
        identity, leaves acc empty.

        Entries that are nonzero as numbers are put into the field, those
        still nonzero there are grouped by (kind, id) at the end, each under
        its monomial, the last four fields of its key, and elements are made
        only for the generators whose commutator is nonzero, so a central x
        builds none.  Over Q the entries of a central x cancel to an exact
        0, so verifying it ends after one `any` over the entries, with no
        per-entry loop and no `coerce`; over F_p an entry may be a nonzero
        multiple of p, and the loop puts each into the field.
        """
        ks: dict[str, object] = {}  # vertex -> coefficient of its vertex term
        rest = []
        for t in x.terms.items():
            (sa, p, _, q), k = t
            if p or q:
                rest.append(t)
            else:
                ks[sa] = k
        # each edge's two keys are set once, into an empty acc
        acc: dict[tuple, object] = {}
        out, into = self.graph._out, self._in
        for u, k in ks.items():
            for eid, _, b in out[u]:
                if c := k - ks.get(b, 0):
                    acc[("edge", eid, u, (eid,), b, ())] = c
                    acc[("ghost", eid, b, (), u, (eid,))] = -c
            for eid, a, _ in into[u]:
                if a not in ks:
                    acc[("edge", eid, a, (eid,), u, ())] = -k
                    acc[("ghost", eid, u, (), a, (eid,))] = k
        self.generator_action(rest, acc)
        if not any(acc.values()):
            return {}  # every entry cancelled as a number: x is central
        coerce = self.field.coerce
        grouped: dict[tuple, dict] = {}
        for t, c in acc.items():
            if c and (c := coerce(c)):
                grouped.setdefault(t[:2], {})[t[2:]] = c
        return {key: AlgebraElement(self, terms) for key, terms in grouped.items()}

    def is_central(self, x: AlgebraElement) -> CentralityResult:
        coms = self.commutators(x)
        if coms:  # the witness is the first generator in generator_labels() order
            for label, kind, gid in self.generator_labels():
                c = coms.get((kind, gid))
                if c is not None:
                    return CentralityResult(False, label, c)
        return CentralityResult(True)

    # -- bounded enumeration ------------------------------------------------

    def enumerate_paths(self, max_len: int) -> list[tuple]:
        """Every path (source, edges) of length at most max_len, ordered by
        length, then source, then edges."""
        paths = [(v, ()) for v in self.graph.vertices]
        frontier = list(paths)
        for _ in range(max_len):
            if not frontier:
                break  # no path is longer: the bound may be far past the longest
            nxt = []
            for p in frontier:
                at = self.graph.path_range(*p)
                for e in self.graph.out_edges(at):
                    nxt.append((p[0], p[1] + (e.id,)))
            paths.extend(nxt)
            frontier = nxt
        paths.sort(key=lambda p: (len(p[1]), p))
        return paths

    def normal_monomials(self, degree: int, max_len: int) -> list[tuple]:
        """All normal-form monomials of a degree with |alpha|+|beta| <= max_len.

        A candidate has |alpha| = i and |beta| = i - degree with
        2i - degree <= max_len, so neither side is longer than
        (max_len + |degree|) // 2.  Paths are bucketed by (range, length),
        and only the buckets (r, i) and (r, i - degree) are paired.  The
        oracle enumerates only the candidates it keeps
        (`center._oracle_candidates`); this is the reference it is tested
        against.
        """
        if abs(degree) > max_len:
            return []
        buckets: dict[tuple[str, int], list[tuple]] = {}
        for p in self.enumerate_paths((max_len + abs(degree)) // 2):
            buckets.setdefault((self.graph.path_range(*p), len(p[1])), []).append(p)
        specials = self._specials
        out = []
        for (r, i), alphas in buckets.items():
            if 2 * i - degree > max_len:
                continue
            for b in buckets.get((r, i - degree), ()):
                q = b[1]
                for a in alphas:
                    p = a[1]
                    if not (p and q and p[-1] == q[-1] and p[-1] in specials):
                        out.append(a + b)
        out.sort(key=sort_key)
        return out

    # -- rendering --------------------------------------------------------------

    def render(self, x: AlgebraElement) -> str:
        if not x.terms:
            return "0"
        parts = []
        for (sa, p, _, q), k in x.sorted_terms():
            ks = str(k)
            if ks[0] == "-":
                ks = f"({ks})"
            alpha = " ".join(p) if p else sa
            parts.append(f"{ks}·{alpha} ({' '.join(q)})*" if q else f"{ks}·{alpha}")
        return " + ".join(parts)
