"""Exact symbolic arithmetic in the Leavitt path algebra of a finite graph.

Elements are finite linear combinations of normal-form monomials
``alpha beta*`` over an exact field.  The normal form forbids alpha and
beta from both ending in the special (lexicographically least) edge of
their common last source, which is exactly the rewrite target of the
range relation at regular vertices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .fields import QQ
from .graphs import Graph


class EngineError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class GPath:
    """A path: source vertex plus an edge-id sequence (possibly empty)."""

    source: str
    edges: tuple[str, ...] = ()

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True, order=True)
class Monomial:
    """alpha beta* with r(alpha) = r(beta)."""

    alpha: GPath
    beta: GPath

    @property
    def degree(self) -> int:
        return len(self.alpha) - len(self.beta)

    def sort_key(self):
        return (
            len(self.alpha) + len(self.beta),
            self.alpha.source,
            self.alpha.edges,
            self.beta.source,
            self.beta.edges,
        )


def _is_prefix(p: GPath, q: GPath) -> bool:
    return p.source == q.source and q.edges[: len(p.edges)] == p.edges


class AlgebraElement:
    """Immutable linear combination of normal-form monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "LeavittAlgebra", terms: dict):
        self.algebra = algebra
        self.terms = terms  # Monomial -> nonzero scalar; treated as frozen

    def is_zero(self) -> bool:
        return not self.terms

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
        terms = dict(self.terms)
        zero = self.algebra.field.zero
        for m, k in other.terms.items():
            s = terms.get(m, zero) + k
            if s == zero:
                terms.pop(m, None)
            else:
                terms[m] = s
        return AlgebraElement(self.algebra, terms)

    def __neg__(self):
        return AlgebraElement(self.algebra, {m: -k for m, k in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        k = self.algebra.field.coerce(k)
        if k == self.algebra.field.zero:
            return self.algebra.zero()
        return AlgebraElement(self.algebra, {m: c * k for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, k):
        return self.scale(k)

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise EngineError("elements belong to different algebras")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mk: mk[0].sort_key())

    def monomials(self):
        return list(self.terms)

    def __repr__(self):
        return self.algebra.render(self) if self.terms else "0"


@dataclass(frozen=True)
class CentralityResult:
    central: bool
    witness: Optional[str] = None  # generator label, e.g. "v1", "e1", "e1*"
    commutator: Optional[AlgebraElement] = None

    def __bool__(self):
        return self.central


@dataclass(frozen=True)
class CornerReduction:
    kind: str  # "vertex" | "laurent" | "inconclusive"
    alpha: Optional[GPath] = None
    beta: Optional[GPath] = None
    element: Optional[AlgebraElement] = None
    scalar: object = None
    vertex: Optional[str] = None
    cycle_base: Optional[str] = None


class LeavittAlgebra:
    """Arithmetic context: a finite graph plus an exact coefficient field."""

    def __init__(self, graph: Graph, field=QQ):
        self.graph = graph
        self.field = field
        self._special: dict[str, str] = {}
        for v in graph.vertices:
            out = graph.out_edges(v)
            if out:
                self._special[v] = min(e.id for e in out)
        self._range_cache: dict[GPath, str] = {}

    # -- paths and monomials ----------------------------------------------

    def special_edge(self, v: str) -> str:
        self.graph.check_vertex(v)
        if v not in self._special:
            raise EngineError(f"vertex {v!r} is a sink; it has no special edge")
        return self._special[v]

    def path_range(self, p: GPath) -> str:
        r = self._range_cache.get(p)
        if r is None:
            r = self.graph.path_range(p.source, p.edges)
            self._range_cache[p] = r
        return r

    def trivial_path(self, v: str) -> GPath:
        self.graph.check_vertex(v)
        return GPath(v, ())

    def path(self, source: str, edges: Iterable[str]) -> GPath:
        p = GPath(source, tuple(edges))
        self.path_range(p)  # validates
        return p

    def path_from_edges(self, edges: Iterable[str]) -> GPath:
        eids = tuple(edges)
        if not eids:
            raise EngineError("a path from edges needs at least one edge")
        return self.path(self.graph.edge(eids[0]).src, eids)

    def monomial(self, alpha: GPath, beta: GPath) -> Monomial:
        if self.path_range(alpha) != self.path_range(beta):
            raise EngineError(
                f"range mismatch in monomial: {alpha} vs {beta}"
            )
        return Monomial(alpha, beta)

    def _reducible(self, m: Monomial) -> bool:
        if not m.alpha.edges or not m.beta.edges:
            return False
        e = m.alpha.edges[-1]
        if e != m.beta.edges[-1]:
            return False
        return e == self._special[self.graph.edge(e).src]

    # -- constructors -------------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def element(self, raw_terms) -> AlgebraElement:
        return self.normal_form(raw_terms)

    def vertex(self, v: str) -> AlgebraElement:
        t = self.trivial_path(v)
        return self.normal_form([(Monomial(t, t), self.field.one)])

    def edge(self, eid: str) -> AlgebraElement:
        e = self.graph.edge(eid)
        alpha = GPath(e.src, (eid,))
        beta = self.trivial_path(e.dst)
        return self.normal_form([(Monomial(alpha, beta), self.field.one)])

    def ghost(self, eid: str) -> AlgebraElement:
        e = self.graph.edge(eid)
        alpha = self.trivial_path(e.dst)
        beta = GPath(e.src, (eid,))
        return self.normal_form([(Monomial(alpha, beta), self.field.one)])

    def path_element(self, p: GPath) -> AlgebraElement:
        beta = self.trivial_path(self.path_range(p))
        return self.normal_form([(Monomial(p, beta), self.field.one)])

    def monomial_element(self, alpha: GPath, beta: GPath, k=1) -> AlgebraElement:
        return self.normal_form([(self.monomial(alpha, beta), self.field.coerce(k))])

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
        """
        zero = self.field.zero
        out: dict[Monomial, object] = {}
        stack = [(m, self.field.coerce(k)) for m, k in raw_terms]
        for m, _ in stack:
            if self.path_range(m.alpha) != self.path_range(m.beta):
                raise EngineError(f"range mismatch in raw term: {m}")
        while stack:
            m, k = stack.pop()
            if k == zero:
                continue
            if self._reducible(m):
                s = m.alpha.edges[-1]
                v = self.graph.edge(s).src
                alpha1 = GPath(m.alpha.source, m.alpha.edges[:-1])
                beta1 = GPath(m.beta.source, m.beta.edges[:-1])
                stack.append((Monomial(alpha1, beta1), k))
                for e in self.graph.out_edges(v):
                    if e.id != s:
                        stack.append(
                            (
                                Monomial(
                                    GPath(alpha1.source, alpha1.edges + (e.id,)),
                                    GPath(beta1.source, beta1.edges + (e.id,)),
                                ),
                                -k,
                            )
                        )
            else:
                acc = out.get(m, zero) + k
                if acc == zero:
                    out.pop(m, None)
                else:
                    out[m] = acc
        return AlgebraElement(self, out)

    # -- products -------------------------------------------------------------

    def mono_mul_raw(self, m1: Monomial, m2: Monomial):
        """(a1 b1*)(a2 b2*) before normalization; None when it vanishes."""
        b1, a2 = m1.beta, m2.alpha
        if _is_prefix(b1, a2):
            gamma = a2.edges[len(b1.edges):]
            alpha = GPath(m1.alpha.source, m1.alpha.edges + gamma)
            return Monomial(alpha, m2.beta)
        if _is_prefix(a2, b1):
            delta = b1.edges[len(a2.edges):]
            beta = GPath(m2.beta.source, m2.beta.edges + delta)
            return Monomial(m1.alpha, beta)
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

    def homogeneous_components(self, x: AlgebraElement) -> dict[int, AlgebraElement]:
        split: dict[int, dict] = {}
        for m, k in x.terms.items():
            split.setdefault(m.degree, {})[m] = k
        return {n: AlgebraElement(self, terms) for n, terms in sorted(split.items())}

    def involution(self, x: AlgebraElement) -> AlgebraElement:
        return self.normal_form(
            [(Monomial(m.beta, m.alpha), k) for m, k in x.terms.items()]
        )

    # -- centrality --------------------------------------------------------------

    def generators(self):
        """(label, element) for every vertex, edge, and ghost edge."""
        for v in self.graph.vertices:
            yield v, self.vertex(v)
        for e in self.graph.edges:
            yield e.id, self.edge(e.id)
        for e in self.graph.edges:
            yield e.id + "*", self.ghost(e.id)

    def generator_labels(self):
        """(label, kind, id) for every generator, in the order of generators().

        kind is "vertex", "edge" or "ghost"; it keeps the generators apart
        where a vertex id equals an edge id.
        """
        for v in self.graph.vertices:
            yield v, "vertex", v
        for e in self.graph.edges:
            yield e.id, "edge", e.id
        for e in self.graph.edges:
            yield e.id + "*", "ghost", e.id

    def generator_commutator(
        self, x: AlgebraElement, kind: str, gid: str
    ) -> AlgebraElement:
        """[x, g] for the generator g = vertex v, edge e or ghost e*, in
        closed form; x must be in normal form.

        Equal to ``commutator(x, g)``, but g is never built and neither
        ``multiply`` nor ``normal_form`` runs.  Per monomial m = alpha beta*
        (write a = s(e), b = r(e)):

        - vertex v: [m, v] = ([s(beta)=v] - [s(alpha)=v]) m, already normal.
        - edge e: m e is alpha e when beta is trivial at a, alpha (beta')*
          when beta = e beta', else 0.  e m is (e alpha) beta* when
          s(alpha) = b, else 0.  Cutting the front edge off beta, or putting
          e in front of a nonempty alpha, leaves the last edges of alpha and
          beta as they were, so the result is normal.  The one exception:
          alpha trivial, beta = beta0 e and e special at a.  Then
          e m = e e* beta0* needs the range relation e e* = a - sum_{f != e}
          f f* once, giving a beta0* - sum_{f != e} f (beta0 f)*, which is
          normal.
        - ghost e*: the mirror.  m e* is alpha (e beta)* when s(beta) = b,
          else 0, and needs the rewrite exactly when beta is trivial,
          alpha = alpha0 e and e is special at a: alpha0 a* - sum_{f != e}
          (alpha0 f) f*.  e* m is alpha' beta* when alpha = e alpha',
          b (beta e)* when alpha is trivial at a, else 0.
        """
        zero = self.field.zero
        out: dict[Monomial, object] = {}

        def add(alpha, beta, k):
            m = Monomial(alpha, beta)
            acc = out.get(m)
            if acc is None:
                out[m] = k
            elif acc + k == zero:
                del out[m]
            else:
                out[m] = acc + k

        if kind == "vertex":
            self.graph.check_vertex(gid)
            for m, k in x.terms.items():
                if m.alpha.source != m.beta.source:
                    if m.beta.source == gid:
                        out[m] = k
                    elif m.alpha.source == gid:
                        out[m] = -k
            return AlgebraElement(self, out)
        if kind not in ("edge", "ghost"):
            raise EngineError(f"unknown generator kind: {kind!r}")
        e = self.graph.edge(gid)
        a, b, ge = e.src, e.dst, (gid,)
        special = self._special[a] == gid
        others = ()
        if special:
            others = [(f.id,) for f in self.graph.out_edges(a) if f.id != gid]
        for m, k in x.terms.items():
            alpha, beta = m.alpha, m.beta
            p, q = alpha.edges, beta.edges
            if kind == "edge":
                if not q:
                    if beta.source == a:
                        add(GPath(alpha.source, p + ge), GPath(b), k)
                elif q[0] == gid:
                    add(alpha, GPath(b, q[1:]), k)
                if alpha.source != b:
                    continue
                if special and not p and q and q[-1] == gid:
                    add(GPath(a), GPath(beta.source, q[:-1]), -k)
                    for f in others:
                        add(GPath(a, f), GPath(beta.source, q[:-1] + f), k)
                else:
                    add(GPath(a, ge + p), beta, -k)
            else:
                if beta.source == b:
                    if special and not q and p and p[-1] == gid:
                        add(GPath(alpha.source, p[:-1]), GPath(a), k)
                        for f in others:
                            add(GPath(alpha.source, p[:-1] + f), GPath(a, f), -k)
                    else:
                        add(alpha, GPath(a, ge + q), k)
                if not p:
                    if alpha.source == a:
                        add(GPath(b), GPath(beta.source, q + ge), -k)
                elif p[0] == gid:
                    add(GPath(b, p[1:]), beta, -k)
        return AlgebraElement(self, out)

    def is_central(self, x: AlgebraElement) -> CentralityResult:
        for label, kind, gid in self.generator_labels():
            c = self.generator_commutator(x, kind, gid)
            if c:
                return CentralityResult(False, label, c)
        return CentralityResult(True)

    # -- bounded corner search ------------------------------------------------------

    def enumerate_paths(self, max_len: int) -> list[GPath]:
        paths = [self.trivial_path(v) for v in self.graph.vertices]
        frontier = list(paths)
        for _ in range(max_len):
            nxt = []
            for p in frontier:
                at = self.path_range(p)
                for e in self.graph.out_edges(at):
                    nxt.append(GPath(p.source, p.edges + (e.id,)))
            paths.extend(nxt)
            frontier = nxt
        paths.sort(key=lambda p: (len(p.edges), p.source, p.edges))
        return paths

    def normal_monomials(self, degree: int, max_len: int) -> list[Monomial]:
        """All normal-form monomials of a degree with |alpha|+|beta| <= max_len."""
        paths = self.enumerate_paths(max_len)
        by_range: dict[str, list[GPath]] = {}
        for p in paths:
            by_range.setdefault(self.path_range(p), []).append(p)
        out = []
        for r, ps in by_range.items():
            for a in ps:
                for b in ps:
                    if (
                        len(a) - len(b) == degree
                        and len(a) + len(b) <= max_len
                    ):
                        m = Monomial(a, b)
                        if not self._reducible(m):
                            out.append(m)
        out.sort(key=lambda m: m.sort_key())
        return out

    def _no_exit_cycle_rotation(self, u: str) -> Optional[GPath]:
        """The rotation c_u of a no-exit cycle through u, if one exists."""
        edges = []
        at = u
        while True:
            out = self.graph.out_edges(at)
            if len(out) != 1:
                return None
            edges.append(out[0].id)
            at = out[0].dst
            if at == u:
                return GPath(u, tuple(edges))
            if len(edges) > len(self.graph.vertices):
                return None

    def laurent_support(self, x: AlgebraElement):
        """(base vertex, rotation) if x lives in the Laurent corner of a
        no-exit cycle: every monomial a power of c_u or of c_u*."""
        if not x.terms:
            return None
        sources = {m.alpha.source for m in x.terms} | {m.beta.source for m in x.terms}
        if len(sources) != 1:
            return None
        u = sources.pop()
        rot = self._no_exit_cycle_rotation(u)
        if rot is None:
            return None
        n = len(rot.edges)

        def is_power(p: GPath) -> bool:
            if len(p.edges) % n != 0:
                return False
            return all(
                p.edges[i] == rot.edges[i % n] for i in range(len(p.edges))
            )

        for m in x.terms:
            if m.alpha.edges and m.beta.edges:
                return None
            if not (is_power(m.alpha) and is_power(m.beta)):
                return None
        return u, rot

    def reduce_to_corner(self, x: AlgebraElement, max_len: int) -> CornerReduction:
        """Search alpha* x beta for a scalar-vertex or Laurent corner form."""
        if not x.terms:
            raise EngineError("reduce_to_corner requires a nonzero element")
        paths = self.enumerate_paths(max_len)
        for alpha in paths:
            left = self.normal_form(
                [(Monomial(self.trivial_path(self.path_range(alpha)), alpha), self.field.one)]
            )
            lx = left * x
            if not lx:
                continue
            for beta in paths:
                y = lx * self.path_element(beta)
                if not y:
                    continue
                if len(y.terms) == 1:
                    (m, k), = y.terms.items()
                    if not m.alpha.edges and not m.beta.edges:
                        return CornerReduction(
                            kind="vertex",
                            alpha=alpha,
                            beta=beta,
                            element=y,
                            scalar=k,
                            vertex=m.alpha.source,
                        )
                support = self.laurent_support(y)
                if support is not None:
                    u, _rot = support
                    return CornerReduction(
                        kind="laurent",
                        alpha=alpha,
                        beta=beta,
                        element=y,
                        cycle_base=u,
                    )
        return CornerReduction(kind="inconclusive")

    # -- rendering --------------------------------------------------------------

    def render(self, x: AlgebraElement) -> str:
        if not x.terms:
            return "0"
        parts = []
        for m, k in x.sorted_terms():
            ks = self.field.render(k)
            if ks.startswith("-"):
                ks = f"({ks})"
            alpha_str = " ".join(m.alpha.edges) if m.alpha.edges else m.alpha.source
            term = f"{ks}·{alpha_str}"
            if m.beta.edges:
                term += f" ({' '.join(m.beta.edges)})*"
            parts.append(term)
        return " + ".join(parts)

    _TERM_RE = re.compile(r"^\(?(-?[0-9][0-9/]*)\)?·(.*?)(?:\s*\(([^)]*)\)\*)?$")

    def _parse_path_tokens(self, tokens: list[str]) -> GPath:
        if len(tokens) == 1 and self.graph.has_vertex(tokens[0]) and not self.graph.has_edge(tokens[0]):
            return self.trivial_path(tokens[0])
        return self.path_from_edges(tokens)

    def parse_element(self, text: str) -> AlgebraElement:
        text = text.strip()
        if text == "0":
            return self.zero()
        raw = []
        for chunk in text.split(" + "):
            match = self._TERM_RE.match(chunk.strip())
            if not match:
                raise EngineError(f"cannot parse term: {chunk!r}")
            coef_s, alpha_s, beta_s = match.groups()
            k = self.field.parse(coef_s)
            alpha = self._parse_path_tokens(alpha_s.split())
            if beta_s:
                beta = self.path_from_edges(beta_s.split())
            else:
                beta = self.trivial_path(self.path_range(alpha))
            raw.append((self.monomial(alpha, beta), k))
        return self.normal_form(raw)

