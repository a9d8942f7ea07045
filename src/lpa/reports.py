"""Machine-readable report envelopes; JSON-first, text is a rendering."""

from __future__ import annotations

import json
from operator import add
from typing import Optional

from . import __version__
from .center import (
    CenterReport,
    center_report,
    verify_basis,
)
from .classify import (
    ClassificationReport,
    ExtremeClass,
    IdealStructureReport,
    PrimeTrichotomy,
    ideal_structure,
    prime_trichotomy,
    x_decomposition,
)
from .engine import LeavittAlgebra
from .graphs import INFINITE, Cycle, Graph
from .fields import QQ


def count_json(n):
    return "INFINITE" if n is INFINITE else n


def _classification_json(g: Graph, rep: ClassificationReport) -> dict:
    sv = g.sorted_vertices
    return {
        "p_l": sv(rep.p_l),
        "p_c": sv(rep.p_c),
        "p_c_plus": sv(rep.p_c_plus),
        "p_c_minus": sv(rep.p_c_minus),
        "p_e": sv(rep.p_e),
        "p_ec": sv(rep.p_ec),
        "p_binf": sv(rep.p_binf),
        "cycles": [
            {
                "edges": list(ci.cycle.edges),
                "base": ci.cycle.base,
                "has_exits": ci.has_exits,
                "is_extreme": ci.is_extreme,
                "in_S": ci.in_S,
                "entry_count": count_json(ci.entry_count),
                "wrap_count": count_json(ci.wrap_count),
            }
            for ci in rep.cycles
        ],
        "x_ec": [
            {
                "class_id": xc.class_id,
                "cycles": [list(c.edges) for c in xc.cycles],
                "vertices": sv(xc.vertices),
            }
            for xc in rep.x_ec
        ],
        "sim_classes": [sv(c) for c in rep.sim_classes],
        "x_classes": [
            {
                "rep": xc.rep,
                "members": sv(xc.members),
                "closure": sv(xc.closure),
                "entry_paths": "INFINITE"
                if xc.entry.is_infinite
                else [list(p) for p in xc.entry.paths],
                "in_x_f": xc.is_finite,
                "class_type": xc.class_type,
            }
            for xc in rep.x_classes
        ],
        "h_f": sv(rep.h_f),
        "h_inf": sv(rep.h_inf),
    }


def _ideal_json(rep: IdealStructureReport) -> dict:
    return {
        "sinks": [
            {"sink": s.sink, "matrix_size": count_json(s.matrix_size)}
            for s in rep.sinks
        ],
        "no_exit_cycles": [
            {"cycle": list(c.cycle.edges), "matrix_size": count_json(c.matrix_size)}
            for c in rep.no_exit_cycles
        ],
        "extreme": [
            {
                "class_id": x.extreme_class.class_id,
                "vertices": rep.graph.sorted_vertices(x.extreme_class.vertices),
                "certificate": None
                if x.certificate is None
                else {
                    "purely_infinite_simple": x.certificate.purely_infinite_simple,
                    "failing_condition": x.certificate.failing_condition,
                    "witness": x.certificate.witness,
                },
                "note": x.note,
            }
            for x in rep.extreme
        ],
        "dense": rep.dense,
    }


def _center_json(alg: LeavittAlgebra, rep: CenterReport) -> dict:
    def basis_json(elems):
        return [
            {
                "label": b.label,
                "degree": b.degree,
                "class_id": b.class_id,
                "cycle_base": b.cycle_base,
                "power": b.power,
                "element": alg.render(b.element),
            }
            for b in elems
        ]

    return {
        "iso_type": dict(rep.iso_type),
        "basis_zero": basis_json(rep.basis_zero),
        "basis_nonzero": {
            str(n): basis_json(elems) for n, elems in sorted(rep.basis_nonzero.items())
        },
        "degree_window": rep.degree_window,
        "divergence_flags": list(rep.divergence_flags),
        "extended_centroid": {
            "sinks": rep.centroid.sinks,
            "no_exit_cycles": rep.centroid.no_exit_cycles,
            "extreme_classes": rep.centroid.extreme_classes,
            "formula": rep.centroid.formula,
            "note": rep.centroid.note,
        },
    }


def _prime_json(pt: PrimeTrichotomy) -> dict:
    witness = pt.witness
    if isinstance(witness, Cycle):
        witness = list(witness.edges)
    elif isinstance(witness, ExtremeClass):
        witness = witness.class_id
    elif isinstance(witness, tuple):
        witness = list(witness)
    return {
        "kind": pt.kind,
        "witness": witness,
        "matrix_size": count_json(pt.matrix_size),
        "note": pt.note,
    }


# -- the indent-2 JSON text, written straight from the records --------------

_string = json.encoder.encode_basestring_ascii
_int = int.__repr__
# a newline and the indent of each depth of a report
_NL = tuple("\n" + "  " * d for d in range(8))


def _keys(*names: str) -> tuple[str, ...]:
    """The written keys of a record, each followed by its separator."""
    return tuple(f'"{name}": ' for name in names)


def _record(keys, values, d: int) -> str:
    """The JSON object at depth d of the written keys and values."""
    if not keys:
        return "{}"
    i = _NL[d + 1]
    return "{" + i + ("," + i).join(map(add, keys, values)) + _NL[d] + "}"


def _list(items: list[str], d: int) -> str:
    """The JSON list at depth d of the written items."""
    if not items:
        return "[]"
    i = _NL[d + 1]
    return "[" + i + ("," + i).join(items) + _NL[d] + "]"


def _strings(items, d: int) -> str:
    """The JSON list at depth d of the strings."""
    if not items:
        return "[]"
    i = _NL[d + 1]
    return "[" + i + ("," + i).join(map(_string, items)) + _NL[d] + "]"


def _vertices(names: list[str], at, vs, d: int) -> str:
    """A vertex set at depth d, in declared order: `at` maps a vertex to
    its declared index, and `names` holds the written vertex names in
    declared order, so the indices are sorted as ints and no name is
    escaped again."""
    return _list([names[j] for j in sorted(map(at, vs))], d)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _optional(s: Optional[str]) -> str:
    return "null" if s is None else _string(s)


def _count(n) -> str:
    return '"INFINITE"' if n is INFINITE else _int(n)


_GRAPH = _keys("vertices", "edges")
_EDGE = _keys("id", "src", "dst")
# an edge record with its three written strings put in by one `%`
_EDGE_TEXT = _record(_EDGE, ("%s",) * 3, 3)
_CLASSIFICATION = _keys(
    "p_l", "p_c", "p_c_plus", "p_c_minus", "p_e", "p_ec", "p_binf",
    "cycles", "x_ec", "sim_classes", "x_classes", "h_f", "h_inf",
)
_CYCLE = _keys("edges", "base", "has_exits", "is_extreme", "in_S", "entry_count", "wrap_count")
_EXTREME_CLASS = _keys("class_id", "cycles", "vertices")
_X_CLASS = _keys("rep", "members", "closure", "entry_paths", "in_x_f", "class_type")
_IDEAL = _keys("sinks", "no_exit_cycles", "extreme", "dense")
_SINK = _keys("sink", "matrix_size")
_NO_EXIT = _keys("cycle", "matrix_size")
_EXTREME = _keys("class_id", "vertices", "certificate", "note")
_CERTIFICATE = _keys("purely_infinite_simple", "failing_condition", "witness")
_PRIME = _keys("kind", "witness", "matrix_size", "note")
_CENTER = _keys(
    "iso_type", "basis_zero", "basis_nonzero", "degree_window", "divergence_flags",
    "extended_centroid",
)
_BASIS = _keys("label", "degree", "class_id", "cycle_base", "power", "element")
_CENTROID = _keys("sinks", "no_exit_cycles", "extreme_classes", "formula", "note")
_VERIFICATION = _keys("element", "central", "witness", "commutator")
_ORACLE = _keys("degree", "max_len", "agrees")


# Each section is a value of the top-level object, so it sits at depth 1.


def _graph_text(names: list[str], g: Graph) -> str:
    edges = [_EDGE_TEXT % (_string(e), _string(a), _string(b)) for e, a, b in g.edges]
    return _record(_GRAPH, (_list(names, 2), _list(edges, 2)), 1)


def _classification_text(names: list[str], at, rep: ClassificationReport) -> str:
    cycles = [
        _record(_CYCLE, (
            _strings(ci.cycle.edges, 4),
            _string(ci.cycle.sources[0]),
            _bool(ci.has_exits),
            _bool(ci.is_extreme),
            _bool(ci.in_S),
            _count(ci.entry_count),
            _count(ci.wrap_count),
        ), 3)
        for ci in rep.cycles
    ]
    x_ec = [
        _record(_EXTREME_CLASS, (
            _string(xc.class_id),
            _list([_strings(c.edges, 5) for c in xc.cycles], 4),
            _vertices(names, at, xc.vertices, 4),
        ), 3)
        for xc in rep.x_ec
    ]
    x_classes = [
        _record(_X_CLASS, (
            _string(xc.rep),
            _vertices(names, at, xc.members, 4),
            _vertices(names, at, xc.closure, 4),
            '"INFINITE"' if xc.entry.is_infinite
            else _list([_strings(p, 5) for p in xc.entry.paths], 4),
            _bool(xc.is_finite),
            _optional(xc.class_type),
        ), 3)
        for xc in rep.x_classes
    ]
    return _record(_CLASSIFICATION, (
        _vertices(names, at, rep.p_l, 2),
        _vertices(names, at, rep.p_c, 2),
        _vertices(names, at, rep.p_c_plus, 2),
        _vertices(names, at, rep.p_c_minus, 2),
        _vertices(names, at, rep.p_e, 2),
        _vertices(names, at, rep.p_ec, 2),
        _vertices(names, at, rep.p_binf, 2),
        _list(cycles, 2),
        _list(x_ec, 2),
        _list([_vertices(names, at, c, 3) for c in rep.sim_classes], 2),
        _list(x_classes, 2),
        _vertices(names, at, rep.h_f, 2),
        _vertices(names, at, rep.h_inf, 2),
    ), 1)


def _ideal_text(names: list[str], at, rep: IdealStructureReport) -> str:
    sinks = [_record(_SINK, (_string(s.sink), _count(s.matrix_size)), 3) for s in rep.sinks]
    no_exit = [
        _record(_NO_EXIT, (_strings(c.cycle.edges, 4), _count(c.matrix_size)), 3)
        for c in rep.no_exit_cycles
    ]
    extreme = []
    for x in rep.extreme:
        cert = x.certificate
        extreme.append(_record(_EXTREME, (
            _string(x.extreme_class.class_id),
            _vertices(names, at, x.extreme_class.vertices, 4),
            "null" if cert is None else _record(_CERTIFICATE, (
                _bool(cert.purely_infinite_simple),
                _optional(cert.failing_condition),
                _optional(cert.witness),
            ), 4),
            _optional(x.note),
        ), 3))
    return _record(
        _IDEAL, (_list(sinks, 2), _list(no_exit, 2), _list(extreme, 2), _bool(rep.dense)), 1
    )


def _prime_text(pt: PrimeTrichotomy) -> str:
    witness = pt.witness
    if isinstance(witness, Cycle):
        witness = _strings(witness.edges, 2)
    elif isinstance(witness, ExtremeClass):
        witness = _string(witness.class_id)
    elif isinstance(witness, tuple):
        witness = _strings(witness, 2)
    else:
        witness = _optional(witness)
    size = pt.matrix_size
    return _record(_PRIME, (
        _string(pt.kind), witness, "null" if size is None else _count(size), _string(pt.note)
    ), 1)


def _center_text(alg: LeavittAlgebra, rep: CenterReport) -> str:
    render = alg.render

    def basis(elems, d):
        return _list([
            _record(_BASIS, (
                _string(b.label),
                _int(b.degree),
                _string(b.class_id),
                _optional(b.cycle_base),
                _int(b.power),
                _string(render(b.element)),
            ), d + 1)
            for b in elems
        ], d)

    degrees = sorted(rep.basis_nonzero)
    c = rep.centroid
    return _record(_CENTER, (
        _record([_string(k) + ": " for k in rep.iso_type], map(_int, rep.iso_type.values()), 2),
        basis(rep.basis_zero, 2),
        _record(
            [_string(str(n)) + ": " for n in degrees],
            [basis(rep.basis_nonzero[n], 3) for n in degrees],
            2,
        ),
        _int(rep.degree_window),
        _strings(rep.divergence_flags, 2),
        _record(_CENTROID, (
            _int(c.sinks),
            _int(c.no_exit_cycles),
            _int(c.extreme_classes),
            _string(c.formula),
            _string(c.note),
        ), 2),
    ), 1)


class Envelope:
    """Everything one pipeline run produced, ready for serialization.  The
    center, its algebra, the verification and the oracle checks are filled
    in as the run reaches them."""

    __slots__ = (
        "graph", "classification", "ideal", "prime",
        "center", "algebra", "verification", "oracle_checks",
    )

    def __init__(
        self,
        graph: Graph,
        classification: ClassificationReport,
        ideal: IdealStructureReport,
        prime: PrimeTrichotomy,
    ):
        self.graph = graph
        self.classification = classification
        self.ideal = ideal
        self.prime = prime
        self.center: Optional[CenterReport] = None
        self.algebra: Optional[LeavittAlgebra] = None
        self.verification: Optional[list] = None
        self.oracle_checks: Optional[list] = None

    def to_json(self) -> dict:
        doc = {
            "tool_version": __version__,
            "graph": self.graph.to_document(),
            "classification": _classification_json(self.graph, self.classification),
            "ideal_structure": _ideal_json(self.ideal),
            "prime_trichotomy": _prime_json(self.prime),
        }
        if self.center is not None:
            doc["center"] = _center_json(self.algebra, self.center)
        if self.verification is not None:
            doc["verification"] = [
                {
                    "element": label,
                    "central": bool(res.central),
                    "witness": res.witness,
                    "commutator": None
                    if res.commutator is None
                    else self.algebra.render(res.commutator),
                }
                for label, res in self.verification
            ]
        if self.oracle_checks is not None:
            doc["oracle"] = [
                {"degree": n, "max_len": L, "agrees": ok}
                for n, L, ok in self.oracle_checks
            ]
        return doc

    def dumps(self, index: Optional[int] = None) -> str:
        """`json.dumps(self.to_json(), indent=2)`, byte for byte, written
        straight from the records without building the dict; with an
        `index`, the document `lpa random` prints, whose last key is
        "index".

        The layout of a report lives here and in `to_json`, the dict that
        `render_text` and library callers read, and the tests hold the two
        together by comparing this text with `json.dumps` of the dict.  So a
        schema change, such as naming the field or adding a block of run
        counters, edits both.  Strings go through json's C escaper, ints
        through `int.__repr__`, and true, false, null and "INFINITE" are
        literals.  Each vertex name is escaped once per report, into a list
        in declared order that the graph's vertex list and every vertex set
        are written from; a set is sorted as the ints of the graph's vertex
        index.  Edge records are filled into one template."""
        g, alg = self.graph, self.algebra
        names = list(map(_string, g.vertices))
        at = g._vertex_index.__getitem__
        keys = ["tool_version", "graph", "classification", "ideal_structure", "prime_trichotomy"]
        values = [
            _string(__version__),
            _graph_text(names, g),
            _classification_text(names, at, self.classification),
            _ideal_text(names, at, self.ideal),
            _prime_text(self.prime),
        ]
        if self.center is not None:
            keys.append("center")
            values.append(_center_text(alg, self.center))
        if self.verification is not None:
            keys.append("verification")
            values.append(_list([
                _record(_VERIFICATION, (
                    _string(label),
                    _bool(res.central),
                    _optional(res.witness),
                    "null" if res.commutator is None else _string(alg.render(res.commutator)),
                ), 2)
                for label, res in self.verification
            ], 1))
        if self.oracle_checks is not None:
            keys.append("oracle")
            values.append(_list([
                _record(_ORACLE, (_int(n), _int(L), _bool(ok)), 2)
                for n, L, ok in self.oracle_checks
            ], 1))
        if index is not None:
            keys.append("index")
            values.append(_int(index))
        return _record(_keys(*keys), values, 0)


def build_envelope(
    g: Graph,
    field=QQ,
    with_center: bool = True,
    degree_window: Optional[int] = None,
    verify: bool = False,
) -> Envelope:
    classification = x_decomposition(g)
    ideal = ideal_structure(g, classification)
    prime = prime_trichotomy(g, classification, ideal)
    env = Envelope(
        graph=g, classification=classification, ideal=ideal, prime=prime
    )
    if with_center:
        alg = LeavittAlgebra(g, field)
        env.algebra = alg
        env.center = center_report(alg, classification, degree_window)
        if verify:
            elems = list(env.center.basis_zero)
            for _, es in sorted(env.center.basis_nonzero.items()):
                elems.extend(es)
            env.verification = verify_basis(alg, elems)
    return env


def render_text(env: Envelope) -> str:
    """Human rendering of the same envelope data."""
    doc = env.to_json()
    lines = [f"graph: {len(doc['graph']['vertices'])} vertices, "
             f"{len(doc['graph']['edges'])} edges"]
    cl = doc["classification"]
    lines.append(f"P_l = {cl['p_l']}  P_c = {cl['p_c']}  P_ec = {cl['p_ec']}")
    lines.append(f"P_c+ = {cl['p_c_plus']}  P_c- = {cl['p_c_minus']}  P_e = {cl['p_e']}")
    lines.append(f"sim classes: {cl['sim_classes']}")
    for xc in cl["x_classes"]:
        lines.append(
            f"class [{xc['rep']}]: members={xc['members']} type={xc['class_type']} "
            f"in_X_f={xc['in_x_f']}"
        )
    ideal = doc["ideal_structure"]
    lines.append(f"I_lce dense: {ideal['dense']}")
    for s in ideal["sinks"]:
        lines.append(f"sink {s['sink']}: M_{s['matrix_size']}(K)")
    for c in ideal["no_exit_cycles"]:
        lines.append(f"no-exit cycle {c['cycle']}: M_{c['matrix_size']}(K[x,x^-1])")
    for x in ideal["extreme"]:
        lines.append(f"extreme class {x['class_id']}: vertices {x['vertices']}")
    pt = doc["prime_trichotomy"]
    lines.append(f"prime trichotomy: {pt['kind']} (witness {pt['witness']})")
    if "center" in doc:
        ct = doc["center"]
        lines.append(
            f"center: K^{ct['iso_type']['K']} (+) K[x,x^-1]^{ct['iso_type']['Laurent']}"
        )
        for b in ct["basis_zero"]:
            lines.append(f"  B0 {b['label']} = {b['element']}")
        for n, elems in ct["basis_nonzero"].items():
            for b in elems:
                lines.append(f"  B{n} {b['label']} = {b['element']}")
        for flag in ct["divergence_flags"]:
            lines.append(f"  divergence: {flag}")
        ec = ct["extended_centroid"]
        lines.append(f"extended centroid: {ec['formula']} ({ec['note']})")
    if "verification" in doc:
        for v in doc["verification"]:
            status = "PASS" if v["central"] else f"FAIL at {v['witness']}"
            lines.append(f"verify {v['element']}: {status}")
    if "oracle" in doc:
        for o in doc["oracle"]:
            lines.append(
                f"oracle degree {o['degree']} (max_len {o['max_len']}): "
                f"{'agrees' if o['agrees'] else 'MISMATCH'}"
            )
    return "\n".join(lines) + "\n"


def load_schema() -> dict:
    # imported here, since only a run that validates its output needs it
    from importlib import resources

    text = resources.files("lpa").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)
