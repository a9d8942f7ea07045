"""Center basis construction (B0 and Bn), isomorphism type, extended
centroid summary, and an independent brute-force commutant oracle."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .classify import ClassificationReport, XClass
from .engine import AlgebraElement, LeavittAlgebra
from .graphs import Graph
from .hereditary import HereditarySet, entry_paths


class CenterError(ValueError):
    pass


class OracleBoundError(CenterError):
    """The oracle length bound cannot contain the emitted basis."""


class CentralBasisElement(NamedTuple):
    degree: int
    element: AlgebraElement
    class_id: str  # representative vertex of the originating class
    cycle_base: Optional[str] = None  # base vertex of the cycle, degree != 0
    power: int = 0

    @property
    def label(self) -> str:
        if self.degree == 0:
            return f"a[{self.class_id}]"
        return f"b[{self.class_id};{self.cycle_base}^{self.power}]"


class ExtendedCentroidReport(NamedTuple):
    sinks: int
    no_exit_cycles: int
    extreme_classes: int

    @property
    def formula(self) -> str:
        return (
            f"K^{self.sinks} (+) K[x,x^-1]^{self.no_exit_cycles}"
            f" (+) K^{self.extreme_classes}"
        )

    note = "closed formula reported as published, not independently verified"


class CenterReport(NamedTuple):
    basis_zero: tuple[CentralBasisElement, ...]
    basis_nonzero: dict  # degree -> tuple[CentralBasisElement, ...], degrees ascending
    iso_type: dict  # {"K": count, "Laurent": count}
    centroid: ExtendedCentroidReport
    divergence_flags: tuple[str, ...]
    degree_window: int


def a_class(alg: LeavittAlgebra, xclass: XClass) -> CentralBasisElement:
    """The degree-0 idempotent of a finite class: closure vertices plus
    alpha alpha* over the entry paths of the closure, built by `_dressed`
    with every loop trivial."""
    if not xclass.is_finite:
        raise CenterError(f"class [{xclass.rep}] has infinitely many entry paths")
    loops = dict.fromkeys(alg.graph.names_of(xclass.closure), ())
    return CentralBasisElement(
        degree=0, element=_dressed(alg, loops, xclass.entry.paths), class_id=xclass.rep
    )


def _dressed(alg: LeavittAlgebra, loops: dict, paths) -> AlgebraElement:
    """sum_u u loops[u] + sum_{p in paths} p loops[r(p)] p*, over the
    vertices u that key `loops` and paths p that each end at one of them.
    Every center basis element has this shape: a[X] with every loop
    trivial, over the closure of X and its entry paths, and b[c; m] with
    loops[u] the cycle c read from u, m times, over c^0 and F_E(c^0).

    A vertex term (u, loops[u], u, ()) has for alpha a closed path of the
    graph at u, so its range is that of its trivial beta, and with beta
    trivial no rewrite applies: it goes into the term dict as it is, with
    coefficient 1, unchecked.
    Only the entry terms (s(p), p loops[r(p)], s(p), p) are built as plain
    tuples, with each source read from the graph's edge table, and go
    through `normal_form`, which checks their ranges.  Its terms are added
    into the vertex terms, and a sum that is 0 in the field is dropped.

    When the loops are not trivial (b[c; m], m >= 1), an entry term's
    alpha ends in an edge of c.  Its beta ends in p's last edge, whose
    source is outside c^0, so that edge is not on c: the two sides end in
    different edges, and `normal_form` rewrites nothing.  Its range
    rewrite fires only on alpha = beta = p ending in a special edge, which
    needs a trivial loop: a[X]'s case, where it can give vertex terms."""
    coerce = alg.field.coerce
    terms = dict.fromkeys([(u, loop, u, ()) for u, loop in loops.items()], coerce(1))
    if paths:
        edge_by_id = alg.graph._edge_by_id
        raw = []
        for p in paths:
            s = edge_by_id[p[0]].src
            raw.append(((s, p + loops[edge_by_id[p[-1]].dst], s, p), 1))
        for m, k in alg.normal_form(raw).terms.items():
            if c := coerce(terms.get(m, 0) + k):
                terms[m] = c
            else:
                terms.pop(m, None)
    return AlgebraElement(alg, terms)


def basis_zero(alg: LeavittAlgebra, report: ClassificationReport) -> list[CentralBasisElement]:
    return [a_class(alg, xc) for xc in report.x_f]


def _s_cycles(report: ClassificationReport):
    return [ci.cycle for ci in report.cycles if ci.in_S]


def _laurent_basis(
    alg: LeavittAlgebra, report: ClassificationReport, degree_window: int
) -> dict[int, tuple[CentralBasisElement, ...]]:
    """The nonzero-degree basis: for each no-exit cycle c in S and each
    m >= 1 with m|c| in the window, one element at degree m|c|, the m-th
    power of c dressed with the entry paths F_E(c^0) by `_dressed`, and its
    involution at degree -m|c|.  Within a degree the elements follow the
    order of S."""
    g = alg.graph
    by_degree: dict[int, list[CentralBasisElement]] = {}
    for c in _s_cycles(report):
        # an S cycle has no exits, so its component is the cycle: K = c^0
        k = g.component_bits(c.base)
        paths = entry_paths(g, HereditarySet.from_bits(g, k)).paths
        # c's vertices are in P and, by rule (ii), inside one ~ class, so
        # the X-class that meets K is the one that holds c
        class_id = next(xc.rep for xc in report.x_classes if xc.members & k)
        # c read from each of its vertices, in declared order
        rotations = {u: c.rotation_at(u) for u in g.names_of(k)}
        for m in range(1, degree_window // len(c.edges) + 1):
            elem = _dressed(alg, {u: rot * m for u, rot in rotations.items()}, paths)
            n = m * len(c.edges)
            for degree, x, power in ((n, elem, m), (-n, alg.involution(elem), -m)):
                by_degree.setdefault(degree, []).append(
                    CentralBasisElement(
                        degree=degree,
                        element=x,
                        class_id=class_id,
                        cycle_base=c.base,
                        power=power,
                    )
                )
    return {n: tuple(by_degree[n]) for n in sorted(by_degree)}


def default_degree_window(report: ClassificationReport) -> int:
    cycles = _s_cycles(report)
    if not cycles:
        return 0
    return 2 * max(len(c.edges) for c in cycles)


def center_report(
    alg: LeavittAlgebra,
    report: ClassificationReport,
    degree_window: Optional[int] = None,
) -> CenterReport:
    if degree_window is None:
        degree_window = default_degree_window(report)
    laurent = sum(1 for xc in report.x_f if xc.class_type == "cycle_laurent")
    iso = {"K": len(report.x_f) - laurent, "Laurent": laurent}
    flags = tuple(
        f"class [{xc.rep}] contains cycle vertices but no finite-entry no-exit "
        f"cycle; the literal class count would predict a Laurent factor, the "
        f"emitted center contributes K only"
        for xc in report.x_f
        if xc.class_type == "cycle_degenerate"
    )
    return CenterReport(
        basis_zero=tuple(basis_zero(alg, report)),
        basis_nonzero=_laurent_basis(alg, report, degree_window),
        iso_type=iso,
        centroid=extended_centroid_report(alg.graph, report),
        divergence_flags=flags,
        degree_window=degree_window,
    )


def extended_centroid_report(g: Graph, report: ClassificationReport) -> ExtendedCentroidReport:
    return ExtendedCentroidReport(
        sinks=g.sink_bits().bit_count(),
        no_exit_cycles=sum(1 for ci in report.cycles if not ci.has_exits),
        extreme_classes=len(report.x_ec),
    )


def verify_basis(alg: LeavittAlgebra, elements) -> list[tuple[str, object]]:
    """(label, CentralityResult) for every emitted basis element."""
    return [(b.label, alg.is_central(b.element)) for b in elements]


# -- exact linear algebra ----------------------------------------------------


def _rref(rows: list[dict], field) -> list[dict]:
    """Reduced row echelon form of sparse rows (col index -> scalar), in
    three steps, with every stored entry put into the field by
    `field.coerce`; the rows may hold ints, Fractions or residues that are
    not yet reduced, and each test for zero is a test of a coerced value.

    1. Unit rows.  A row whose one entry at column j is nonzero in the
    field puts e_j in the row space R.  Every vector of R is the sum of the
    RREF rows weighted by its own entries at the pivot columns, so e_j
    makes j a pivot column, and the RREF row r with pivot j is e_j: r - e_j
    lies in R and is zero at every pivot column, so it is 0.  Each unit
    column j therefore gives the RREF row {j: 1}, the other RREF rows are
    zero at j, and they are the RREF of the remaining rows with the unit
    columns deleted.  A one-entry row that is zero in the field (a
    multiple of p over F_p) is the zero row and is dropped.

    2. Echelon.  The rows of two or more entries, their unit columns
    deleted, are put into the field, and each in turn is reduced by the
    stored row whose lead is its least column, until that column is the
    lead of no stored row or the row is zero.  A row is stored monic at
    its lead: each entry is multiplied by coerce(Fraction(1, piv)), over Q
    the int -1 for a pivot of -1 and the Fraction 1/piv otherwise, over
    F_p the residue of piv^-1, so no `/` is needed.  The stored rows have
    distinct leads, each is zero left of its lead, and they span what the
    rows span, since each step subtracts a multiple of a stored row.

    3. Back-substitution, from the last lead to the first.  A stored row
    is zero at every lead left of its own, and when its turn comes the
    rows of the later leads are already final, zero at every lead but
    their own, so subtracting them at its other lead columns leaves it
    zero at every lead but its own, with no new entry at a lead.  The rows
    then have one 1 at each pivot column and 0 at the others, and span R:
    they are the RREF, which is unique, so they are the rows of any
    elimination, with entries in the one form of `fields`.

    On a chain such as the vertex rows k_s(e) - k_r(e) of a line, each row
    is reduced a few times and substituted once, so the work is linear."""
    coerce = field.coerce
    units = {c for row in rows if len(row) == 1 for c, k in row.items() if coerce(k)}
    rest = [
        {c: v for c, k in row.items() if c not in units and (v := coerce(k))}
        for row in rows
        if len(row) > 1
    ]
    pivots: dict[int, dict] = {}
    for row in rest:
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                piv = row[lead]
                if piv != 1:
                    inv = coerce(Fraction(1, piv))
                    row = {c: coerce(k * inv) for c, k in row.items()}
                pivots[lead] = row
                break
            _subtract(row, lead, prow, coerce)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _subtract(row, c, pivots[c], coerce)
    pivots.update({c: {c: 1} for c in units})
    return [pivots[lead] for lead in sorted(pivots)]


def _subtract(row: dict, c: int, prow: dict, coerce) -> None:
    """row -= row[c] * prow, in place; prow is monic at c."""
    a = row[c]
    for j, k in prow.items():
        s = coerce(row.get(j, 0) - a * k)
        if s:
            row[j] = s
        else:
            del row[j]


def kernel_basis(rows: list[dict], ncols: int, field) -> list[dict]:
    """Basis of the null space of the sparse constraint matrix: one vector
    per free column f, with 1 at f and -k, put into the field, at each
    pivot whose RREF row has k at f.  Every entry is nonzero."""
    pivot_cols = set()
    at_free: dict[int, list] = {}  # free column -> [(pivot col, entry)]
    for r in _rref(rows, field):
        lead = min(r)
        pivot_cols.add(lead)
        for c, k in r.items():
            if c != lead:
                at_free.setdefault(c, []).append((lead, k))
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = {f: 1}
        for lead, k in at_free.get(f, ()):
            vec[lead] = field.coerce(-k)
        basis.append(vec)
    return basis


def oracle_commutant(
    alg: LeavittAlgebra, degree: int, max_len: int
) -> list[AlgebraElement]:
    """Brute-force commutant: solve exactly for combinations of all
    normal-form monomials of the degree (bounded length) that commute
    with every generator.

    Candidates alpha beta* with s(alpha) != s(beta) are dropped before the
    matrix is built; the kernel is the same.  For such a candidate m,
    [m, s(alpha)] = -m, and no other candidate's commutator with a vertex
    contains m (a vertex commutator is a multiple of the candidate
    itself).  So the row of (s(alpha), m) is a unit row on m's column,
    which forces that coordinate to 0 in every kernel vector, and deleting
    the column together with that row leaves the other coordinates'
    solutions unchanged.

    Candidates that the length bound L forces to 0 are dropped as well.
    Take m = alpha beta* with s(alpha) = s(beta) = v, not both sides
    trivial, and |alpha| + |beta| + 2 > L, and an edge e with r(e) = v.

    - beta nonempty: e m is (e alpha) beta*, unless alpha is trivial, beta
      ends in e and e is special at s(e), when it is the range-relation
      rewrite.  Outside that case no other candidate m' = alpha' beta'*
      gives the term (e alpha) beta* in [m', e].  e m' gives it only for
      m' = m, and a rewrite gives terms whose alpha is trivial or starts
      with an edge other than e.  m' e with beta' trivial has trivial beta,
      which beta is not.  m' e with beta' = e beta'' is alpha' beta''*, so
      m' = (e alpha)(e beta)*, of length |m| + 2 > L: not a candidate.  So
      the row of (edge e, (e alpha) beta*) is {m: -1}, a unit row in every
      field, and m is 0 in every kernel vector.
    - beta trivial: then alpha is not, and the involution, which sends
      [x, e*] to -([x*, e])*, gives the mirror: the row of (ghost e,
      alpha (e beta)*) is {m: 1} unless alpha ends in e and e is special
      at s(e).

    When both sides are nonempty, any edge into v forces m.  When one side
    is trivial, the other is a cycle at v, so v has an in-edge, and the
    exception can hold only for the cycle's last edge.  Then m is forced
    unless that edge is v's only in-edge and is special at its source.  As
    above, deleting the forced columns with their unit rows leaves the
    other coordinates' solutions unchanged.  A row is the sum of the
    candidates' contributions to it, so the rows built from the kept
    candidates alone are the full rows restricted to the kept columns, less
    the rows that this leaves empty.

    Both drops happen in `_oracle_candidates`, which never makes the
    dropped candidates: it pairs only paths with a common source, and at
    the top lengths it skips every alpha whose source forces its
    candidates.  Neither `normal_monomials` nor `enumerate_paths` runs.
    """
    cands, rows = _oracle_matrix(alg, degree, max_len)
    if not cands:
        return []
    return [
        AlgebraElement(alg, {cands[j]: k for j, k in vec.items()})
        for vec in kernel_basis(rows, len(cands), alg.field)
    ]


def _oracle_matrix(alg: LeavittAlgebra, degree: int, max_len: int):
    """The oracle's candidates and its sparse rows: one row per (generator,
    monomial) pair, holding that monomial's coefficient in [m, generator]
    for every candidate m.  The candidates come from `_oracle_candidates`,
    the one place where the s(alpha) != s(beta) and forced-zero drops of
    `oracle_commutant` are applied.  They are already in `sort_key` order,
    the order of `normal_monomials`, without a sort: that order is total
    length first, and within one length the sides have fixed lengths, so
    it is the order of alpha in its layer and then of beta in its bucket.
    Each candidate is taken with coefficient 1, so the generator action is
    integral and the rows hold Python ints; the field enters only in the
    elimination.

    `generator_action` acts with one candidate at a time, into a fresh
    dict, so each nonzero entry of that dict is the candidate's whole
    coefficient in its row and is moved into the row as it is."""
    cands = _oracle_candidates(alg, degree, max_len)
    rows: dict[tuple, dict] = {}  # generator key + term -> {candidate: int}
    action = alg.generator_action
    for j, m in enumerate(cands):
        acc: dict[tuple, int] = {}
        action(((m, 1),), acc)
        for key, c in acc.items():
            if c:
                row = rows.get(key)
                if row is None:
                    rows[key] = {j: c}
                else:
                    row[j] = c
    return cands, list(rows.values())


class _OracleTables:
    """What `_oracle_candidates` reads of an algebra, kept on the algebra
    (`LeavittAlgebra._oracle_tables`) from its first oracle solve on, so
    that every degree and bound solved on one algebra shares it:

    - `sole_special`, the vertices whose only in-edge is special at its
      source;
    - `layers`: layer i holds the paths of length i as (source, edges,
      range), vertices in sorted order and each path of a layer extended
      by its range's out-edges in id order (`succ`), so every layer is
      sorted by (source, edges);
    - `buckets`: (length, source, range) -> [edges], in layer order.

    `reach(n)` extends the layers on demand.  An algebra's graph and its
    special edges are fixed when it is made, so no entry goes stale; a
    table lives and dies with its algebra and is never shared between
    two."""

    def __init__(self, alg: LeavittAlgebra):
        into, specials, g = alg._in, alg._specials, alg.graph
        self.sole_special = frozenset(
            v for v, es in into.items() if len(es) == 1 and es[0].id in specials
        )
        self.succ = {v: sorted((e.id, e.dst) for e in g.out_edges(v)) for v in g.vertices}
        layer = [(v, (), v) for v in sorted(g.vertices)]
        self.layers: list[list[tuple]] = [layer]
        self.buckets: dict[tuple, list] = {(0, v, v): [()] for v in g.vertices}
        self.exhausted = False  # some layer came out empty

    def reach(self, n: int) -> list[list[tuple]]:
        """The layers, extended through length n unless a shorter layer is
        empty: extension stops at the first empty layer, which is not
        kept, so a bound beyond the longest path costs nothing."""
        layers, succ, buckets = self.layers, self.succ, self.buckets
        while len(layers) <= n and not self.exhausted:
            i = len(layers)
            layer = []
            for s, p, r in layers[-1]:
                for e, r1 in succ[r]:
                    q = p + (e,)
                    layer.append((s, q, r1))
                    buckets.setdefault((i, s, r1), []).append(q)
            if layer:
                layers.append(layer)
            else:
                self.exhausted = True
        return layers


def _oracle_candidates(alg: LeavittAlgebra, degree: int, max_len: int) -> list[tuple]:
    """The normal monomials alpha beta* of the degree with |alpha| + |beta|
    <= max_len and s(alpha) = s(beta) that the length bound does not force
    to 0 (see `oracle_commutant`), in `sort_key` order.

    The paths come from the algebra's `_OracleTables`, layer by layer and
    in buckets keyed by (length, source, range).  A candidate of total
    length n = |alpha| + |beta| and degree d has sides of lengths
    i = (n + d)/2 and j = (n - d)/2.  So walking n upward in steps of 2
    from |d|, and pairing every alpha of layer i with every beta of its
    bucket (j, s(alpha), r(alpha)), emits each pair with a common source
    and range exactly once, in the order (n, s(alpha), alpha edges, beta
    edges): `sort_key`, since s(beta) = s(alpha).  The reducible pairs,
    where both sides end in the same special edge, are skipped.

    At the top lengths, n + 2 > max_len and n > 0, the forced-zero rule
    depends on n and the source v alone: when both sides are nonempty, v is
    forced when it has an in-edge; when one side is trivial, unless v's only
    in-edge is special at its source.  A forced v's alphas are skipped
    whole, and a tuple is built only for a kept candidate.
    """
    if abs(degree) > max_len:
        return []
    tables = alg._oracle_tables
    if tables is None:
        tables = alg._oracle_tables = _OracleTables(alg)
    layers = tables.reach((max_len + abs(degree)) // 2)
    buckets, sole_special, specials = tables.buckets, tables.sole_special, alg._specials
    into = alg._in
    out = []
    for n in range(abs(degree), max_len + 1, 2):
        i, j = (n + degree) // 2, (n - degree) // 2
        if max(i, j) >= len(layers):
            break
        top = n > 0 and n + 2 > max_len
        both = i > 0 and j > 0
        for s, p, r in layers[i]:
            if top and (into[s] if both else s not in sole_special):
                continue
            bs = buckets.get((j, s, r))
            if not bs:
                continue
            last = p[-1] if p and p[-1] in specials else None
            for q in bs:
                if last is None or not q or q[-1] != last:
                    out.append((s, p, s, q))
    return out


def check_oracle_bound(elements, max_len: int) -> None:
    """Fail fast when the bound is below `required_oracle_bound`."""
    required = required_oracle_bound(elements)
    if max_len < required:
        raise OracleBoundError(
            f"oracle bound {max_len} is too small; the emitted basis "
            f"requires at least {required}"
        )


def required_oracle_bound(elements) -> int:
    """The least length bound that trusts the oracle on `elements`: the
    largest |alpha| + |beta| among their monomials, and never below 2.
    Below 2 the degree-0 candidates are the vertices alone, so the oracle
    could not see the alpha alpha* terms that degree-0 centrality hinges
    on."""
    return max(
        [2] + [len(p) + len(q) for b in elements for _, p, _, q in b.element.terms]
    )


def same_span(
    alg: LeavittAlgebra, xs: list[AlgebraElement], ys: list[AlgebraElement]
) -> bool:
    """Exact subspace equality of two spans of algebra elements.

    The monomials are numbered in the order they are first met, xs before
    ys, and both sides are written in that one numbering.  For any fixed
    order of the columns a subspace has exactly one RREF, so the spans are
    equal exactly when their RREFs are, whatever the order: no sort is
    needed.  RREF rows are dicts, which compare without regard to the
    order of their items."""
    index: dict[tuple, int] = {}  # monomial -> column

    def rref(elems):
        rows = []
        for e in elems:
            if e.terms:
                rows.append({index.setdefault(m, len(index)): k for m, k in e.terms.items()})
        return _rref(rows, alg.field)

    return rref(xs) == rref(ys)
