"""Center basis construction (B0 and Bn), isomorphism type, extended
centroid summary, and an independent brute-force commutant oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classify import ClassificationReport, XClass, x_decomposition
from .engine import AlgebraElement, GPath, LeavittAlgebra, Monomial
from .graphs import Graph
from .hereditary import HereditarySet, entry_paths


class CenterError(ValueError):
    pass


class OracleBoundError(CenterError):
    """The oracle length bound cannot contain the emitted basis."""


@dataclass(frozen=True)
class CentralBasisElement:
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


@dataclass(frozen=True)
class ExtendedCentroidReport:
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


@dataclass(frozen=True)
class CenterReport:
    graph: Graph
    basis_zero: tuple[CentralBasisElement, ...]
    basis_nonzero: dict  # degree -> tuple[CentralBasisElement, ...]
    iso_type: dict  # {"K": count, "Laurent": count}
    centroid: ExtendedCentroidReport
    divergence_flags: tuple[str, ...]
    degree_window: int


def a_class(alg: LeavittAlgebra, xclass: XClass) -> CentralBasisElement:
    """The degree-0 idempotent of a finite class: closure vertices plus
    alpha alpha* over the entry paths of the closure."""
    if not xclass.is_finite:
        raise CenterError(f"class [{xclass.rep}] has infinitely many entry paths")
    raw = []
    one = alg.field.one
    for u in alg.graph.sorted_vertices(xclass.closure):
        t = alg.trivial_path(u)
        raw.append((Monomial(t, t), one))
    for p in xclass.entry.paths:
        path = alg.path_from_edges(p)
        raw.append((Monomial(path, path), one))
    return CentralBasisElement(
        degree=0, element=alg.normal_form(raw), class_id=xclass.rep
    )


def basis_zero(
    alg: LeavittAlgebra, report: Optional[ClassificationReport] = None
) -> list[CentralBasisElement]:
    if report is None:
        report = x_decomposition(alg.graph)
    return [a_class(alg, xc) for xc in report.x_f]


def _s_cycles(report: ClassificationReport):
    return [ci.cycle for ci in report.cycles if ci.in_S]


def basis_n(
    alg: LeavittAlgebra, n: int, report: Optional[ClassificationReport] = None
) -> list[CentralBasisElement]:
    """One element per no-exit cycle in S whose length divides n."""
    if n == 0:
        raise CenterError("basis_n is for nonzero degrees; use basis_zero")
    if report is None:
        report = x_decomposition(alg.graph)
    g = alg.graph
    out = []
    for c in _s_cycles(report):
        if abs(n) % len(c) != 0:
            continue
        m = abs(n) // len(c)
        raw = []
        one = alg.field.one
        for u in g.sorted_vertices(c.vertex_set):
            rot = c.rotation_at(u)
            raw.append((Monomial(GPath(u, rot * m), alg.trivial_path(u)), one))
        eps = entry_paths(g, HereditarySet(g, c.vertex_set))
        for p in eps.paths:
            u = g.edge(p[-1]).dst
            rot = c.rotation_at(u)
            alpha = GPath(g.edge(p[0]).src, p + rot * m)
            beta = alg.path_from_edges(p)
            raw.append((Monomial(alpha, beta), one))
        elem = alg.normal_form(raw)
        if n < 0:
            elem = alg.involution(elem)
        class_id = min(
            (xc.rep for xc in report.x_classes if c.vertex_set <= xc.members),
            default=c.base,
        )
        out.append(
            CentralBasisElement(
                degree=n,
                element=elem,
                class_id=class_id,
                cycle_base=c.base,
                power=m if n > 0 else -m,
            )
        )
    return out


def default_degree_window(report: ClassificationReport) -> int:
    cycles = _s_cycles(report)
    if not cycles:
        return 0
    return 2 * max(len(c) for c in cycles)


def center_report(
    alg: LeavittAlgebra,
    report: Optional[ClassificationReport] = None,
    degree_window: Optional[int] = None,
) -> CenterReport:
    if report is None:
        report = x_decomposition(alg.graph)
    if degree_window is None:
        degree_window = default_degree_window(report)
    b0 = tuple(basis_zero(alg, report))
    bn: dict[int, tuple[CentralBasisElement, ...]] = {}
    for n in range(-degree_window, degree_window + 1):
        if n == 0:
            continue
        elems = basis_n(alg, n, report)
        if elems:
            bn[n] = tuple(elems)
    laurent = sum(1 for xc in report.x_f if xc.class_type == "cycle_laurent")
    iso = {"K": len(report.x_f) - laurent, "Laurent": laurent}
    flags = tuple(
        f"class [{xc.rep}] contains cycle vertices but no finite-entry no-exit "
        f"cycle; the literal class count would predict a Laurent factor, the "
        f"emitted center contributes K only"
        for xc in report.x_f
        if xc.class_type == "cycle_degenerate"
    )
    centroid = ExtendedCentroidReport(
        sinks=len(alg.graph.sinks()),
        no_exit_cycles=sum(1 for ci in report.cycles if not ci.has_exits),
        extreme_classes=len(report.x_ec),
    )
    return CenterReport(
        graph=alg.graph,
        basis_zero=b0,
        basis_nonzero=bn,
        iso_type=iso,
        centroid=centroid,
        divergence_flags=flags,
        degree_window=degree_window,
    )


def extended_centroid_report(
    g: Graph, report: Optional[ClassificationReport] = None
) -> ExtendedCentroidReport:
    if report is None:
        report = x_decomposition(g)
    return ExtendedCentroidReport(
        sinks=len(g.sinks()),
        no_exit_cycles=sum(1 for ci in report.cycles if not ci.has_exits),
        extreme_classes=len(report.x_ec),
    )


def verify_basis(alg: LeavittAlgebra, elements) -> list[tuple[str, object]]:
    """(label, CentralityResult) for every emitted basis element."""
    return [(b.label, alg.is_central(b.element)) for b in elements]


# -- exact linear algebra ----------------------------------------------------


def _rref(rows: list[dict], field) -> list[dict]:
    """Reduced row echelon form of sparse rows (col index -> scalar)."""
    zero = field.zero
    pivots: dict[int, dict] = {}  # pivot col -> normalized row
    for row in rows:
        row = {c: k for c, k in row.items() if k != zero}
        while row:
            lead = min(row)
            if lead in pivots:
                factor = row[lead]
                prow = pivots[lead]
                for c, k in prow.items():
                    s = row.get(c, zero) - factor * k
                    if s == zero:
                        row.pop(c, None)
                    else:
                        row[c] = s
            else:
                inv = row[lead]
                pivots[lead] = {c: k / inv for c, k in row.items()}
                break
    # back-substitute for full reduction
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other_lead, orow in pivots.items():
            if other_lead == lead:
                continue
            factor = orow.get(lead, zero)
            if factor != zero:
                for c, k in prow.items():
                    s = orow.get(c, zero) - factor * k
                    if s == zero:
                        orow.pop(c, None)
                    else:
                        orow[c] = s
    return [pivots[lead] for lead in sorted(pivots)]


def kernel_basis(rows: list[dict], ncols: int, field) -> list[dict]:
    """Basis of the null space of the sparse constraint matrix."""
    rref_rows = _rref(rows, field)
    pivot_cols = {min(r) for r in rref_rows}
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = {f: field.one}
        for r in rref_rows:
            lead = min(r)
            k = r.get(f, field.zero)
            if k != field.zero:
                vec[lead] = -k
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
    """
    cands = [
        m
        for m in alg.normal_monomials(degree, max_len)
        if m.alpha.source == m.beta.source
    ]
    if not cands:
        return []
    elems = [AlgebraElement(alg, {m: alg.field.one}) for m in cands]
    rows: dict[tuple, dict] = {}
    for _label, kind, gid in alg.generator_labels():
        for j, elem in enumerate(elems):
            com = alg.generator_commutator(elem, kind, gid)
            for mm, k in com.sorted_terms():
                rows.setdefault((kind, gid, mm), {})[j] = k
    vecs = kernel_basis(list(rows.values()), len(cands), alg.field)
    out = []
    for vec in vecs:
        terms = {cands[j]: k for j, k in vec.items() if k != alg.field.zero}
        out.append(AlgebraElement(alg, terms))
    return out


def check_oracle_bound(elements, max_len: int) -> None:
    """Fail fast when the bound is too small to be trustworthy.

    The oracle needs to contain every emitted basis monomial and, at
    minimum, candidates of size 2 (the alpha-alpha* terms degree-0
    centrality hinges on).
    """
    required = required_oracle_bound(elements)
    if max_len < required:
        raise OracleBoundError(
            f"oracle bound {max_len} is too small; the emitted basis "
            f"requires at least {required}"
        )


def required_oracle_bound(elements, minimum: int = 2) -> int:
    sizes = [
        len(m.alpha) + len(m.beta)
        for b in elements
        for m in b.element.monomials()
    ]
    return max([minimum] + sizes)


def same_span(
    alg: LeavittAlgebra, xs: list[AlgebraElement], ys: list[AlgebraElement]
) -> bool:
    """Exact subspace equality of two spans of algebra elements."""
    monomials = sorted(
        {m for x in xs for m in x.terms} | {m for y in ys for m in y.terms},
        key=lambda m: m.sort_key(),
    )
    index = {m: i for i, m in enumerate(monomials)}

    def to_rows(elems):
        return [{index[m]: k for m, k in e.terms.items()} for e in elems if e.terms]

    def canon(rows):
        reduced = _rref(rows, alg.field)
        return [tuple(sorted(r.items())) for r in reduced]

    return canon(to_rows(xs)) == canon(to_rows(ys))
