"""Machine-readable report envelopes; JSON-first, text is a rendering."""

from __future__ import annotations

import json
from operator import add
from typing import Callable, NamedTuple, Optional

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


# -- one layout, written as indent-2 JSON text or as a dict -------------------
#
# Each section of a report is one function of a writer and the records, and
# `Envelope._document` lays out the top level.  `dumps` passes the text
# writer, `to_json` the dict writer; a schema change edits one function.

_string = json.encoder.encode_basestring_ascii
_int = int.__repr__
# a newline and the indent of each depth of a report
_NL = tuple("\n" + "  " * d for d in range(8))


def _keys(names) -> tuple:
    """The keys of a record: its names, and each name written with its
    separator."""
    return names, tuple(_string(name) + ": " for name in names)


def _record(keys, values, d: int) -> str:
    """The JSON object at depth d of a record's keys, as `_keys` makes
    them, and its written values."""
    written = keys[1]
    if not written:
        return "{}"
    i = _NL[d + 1]
    return "{" + i + ("," + i).join(map(add, written, values)) + _NL[d] + "}"


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


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _optional(s: Optional[str]) -> str:
    return "null" if s is None else _string(s)


def _count(n) -> str:
    return '"INFINITE"' if n is INFINITE else _int(n)


class _Writer(NamedTuple):
    """How each value of a report is written.  A record takes keys made by
    `_keys` (or by `keys`, when its keys are data), its values and its
    depth; a list takes its written items and its depth.  Only the text
    writer reads the depths."""

    record: Callable
    keys: Callable
    list: Callable
    strings: Callable
    string: Callable
    int: Callable
    bool: Callable
    optional: Callable
    count: Callable
    null: object
    vertices: Callable  # (bitset, depth) -> the vertex set, in declared order
    graph: object  # the written graph document


_GRAPH = _keys(("vertices", "edges"))
_EDGE = _keys(("id", "src", "dst"))
# an edge record with its three written strings put in by one `%`
_EDGE_TEXT = _record(_EDGE, ("%s",) * 3, 3)
_TEXT = (_record, _keys, _list, _strings, _string, _int, _bool, _optional, _count, "null")
_DICT = (
    lambda keys, values, d: dict(zip(keys[0], values)),
    lambda names: (names, None),
    lambda items, d: items,
    lambda items, d: list(items),
    str, int, bool,
    lambda s: s,
    count_json,
    None,
)


def _text_writer(g: Graph) -> _Writer:
    """The writer of `dumps`.  Each vertex name is escaped once, into a
    list in declared order that the graph's vertex list and every vertex set
    are written from, and each edge record is one fill of `_EDGE_TEXT`."""
    names = list(map(_string, g.vertices))
    names_of = g.names_of

    def vertices(bits: int, d: int) -> str:
        return _list(names_of(bits, names), d)

    edges = [_EDGE_TEXT % (_string(e), _string(a), _string(b)) for e, a, b in g.edges]
    graph = _record(_GRAPH, (_list(names, 2), _list(edges, 2)), 1)
    return _Writer(*_TEXT, vertices, graph)


def _dict_writer(g: Graph) -> _Writer:
    """The writer of `to_json`: plain names and values, and the graph's own
    document."""
    names_of = g.names_of
    return _Writer(*_DICT, lambda bits, d: names_of(bits), g.to_document())


_CLASSIFICATION = _keys((
    "p_l", "p_c", "p_c_plus", "p_c_minus", "p_e", "p_ec", "p_binf",
    "cycles", "x_ec", "sim_classes", "x_classes", "h_f", "h_inf",
))
_CYCLE = _keys(("edges", "base", "has_exits", "is_extreme", "in_S", "entry_count", "wrap_count"))
_EXTREME_CLASS = _keys(("class_id", "cycles", "vertices"))
_X_CLASS = _keys(("rep", "members", "closure", "entry_paths", "in_x_f", "class_type"))
_IDEAL = _keys(("sinks", "no_exit_cycles", "extreme", "dense"))
_SINK = _keys(("sink", "matrix_size"))
_NO_EXIT = _keys(("cycle", "matrix_size"))
_EXTREME = _keys(("class_id", "vertices", "certificate", "note"))
_CERTIFICATE = _keys(("purely_infinite_simple", "failing_condition", "witness"))
_PRIME = _keys(("kind", "witness", "matrix_size", "note"))
_CENTER = _keys((
    "iso_type", "basis_zero", "basis_nonzero", "degree_window", "divergence_flags",
    "extended_centroid",
))
_BASIS = _keys(("label", "degree", "class_id", "cycle_base", "power", "element"))
_CENTROID = _keys(("sinks", "no_exit_cycles", "extreme_classes", "formula", "note"))
_VERIFICATION = _keys(("element", "central", "witness", "commutator"))
_ORACLE = _keys(("degree", "max_len", "agrees"))


# Each section is a value of the top-level object, so it sits at depth 1.


def _classification(w: _Writer, rep: ClassificationReport):
    vertices, strings, string, bool_, count = w.vertices, w.strings, w.string, w.bool, w.count
    cycles = [
        w.record(_CYCLE, (
            strings(ci.cycle.edges, 4),
            string(ci.cycle.sources[0]),
            bool_(ci.has_exits),
            bool_(ci.is_extreme),
            bool_(ci.in_S),
            count(ci.entry_count),
            count(ci.wrap_count),
        ), 3)
        for ci in rep.cycles
    ]
    x_ec = [
        w.record(_EXTREME_CLASS, (
            string(xc.class_id),
            w.list([strings(c.edges, 5) for c in xc.cycles], 4),
            vertices(xc.vertices, 4),
        ), 3)
        for xc in rep.x_ec
    ]
    x_classes = [
        w.record(_X_CLASS, (
            string(xc.rep),
            vertices(xc.members, 4),
            vertices(xc.closure, 4),
            count(INFINITE) if xc.entry.is_infinite
            else w.list([strings(p, 5) for p in xc.entry.paths], 4),
            bool_(xc.is_finite),
            w.optional(xc.class_type),
        ), 3)
        for xc in rep.x_classes
    ]
    return w.record(_CLASSIFICATION, (
        vertices(rep.p_l, 2),
        vertices(rep.p_c, 2),
        vertices(rep.p_c_plus, 2),
        vertices(rep.p_c_minus, 2),
        vertices(rep.p_e, 2),
        vertices(rep.p_ec, 2),
        vertices(rep.p_binf, 2),
        w.list(cycles, 2),
        w.list(x_ec, 2),
        w.list([vertices(c, 3) for c in rep.sim_classes], 2),
        w.list(x_classes, 2),
        vertices(rep.h_f, 2),
        vertices(rep.h_inf, 2),
    ), 1)


def _ideal(w: _Writer, rep: IdealStructureReport):
    record, optional = w.record, w.optional
    sinks = [record(_SINK, (w.string(s.sink), w.count(s.matrix_size)), 3) for s in rep.sinks]
    no_exit = [
        record(_NO_EXIT, (w.strings(c.cycle.edges, 4), w.count(c.matrix_size)), 3)
        for c in rep.no_exit_cycles
    ]
    extreme = []
    for x in rep.extreme:
        cert = x.certificate
        extreme.append(record(_EXTREME, (
            w.string(x.extreme_class.class_id),
            w.vertices(x.extreme_class.vertices, 4),
            w.null if cert is None else record(_CERTIFICATE, (
                w.bool(cert.purely_infinite_simple),
                optional(cert.failing_condition),
                optional(cert.witness),
            ), 4),
            optional(x.note),
        ), 3))
    return record(
        _IDEAL, (w.list(sinks, 2), w.list(no_exit, 2), w.list(extreme, 2), w.bool(rep.dense)), 1
    )


def _prime(w: _Writer, pt: PrimeTrichotomy):
    witness = pt.witness
    if isinstance(witness, Cycle):
        witness = w.strings(witness.edges, 2)
    elif isinstance(witness, ExtremeClass):
        witness = w.string(witness.class_id)
    elif isinstance(witness, tuple):
        witness = w.strings(witness, 2)
    else:
        witness = w.optional(witness)
    size = pt.matrix_size
    return w.record(_PRIME, (
        w.string(pt.kind), witness, w.null if size is None else w.count(size), w.string(pt.note)
    ), 1)


def _center(w: _Writer, alg: LeavittAlgebra, rep: CenterReport):
    record, string, int_, render = w.record, w.string, w.int, alg.render

    def basis(elems, d):
        return w.list([
            record(_BASIS, (
                string(b.label),
                int_(b.degree),
                string(b.class_id),
                w.optional(b.cycle_base),
                int_(b.power),
                string(render(b.element)),
            ), d + 1)
            for b in elems
        ], d)

    c = rep.centroid
    nonzero = rep.basis_nonzero
    return record(_CENTER, (
        record(w.keys(rep.iso_type), [int_(n) for n in rep.iso_type.values()], 2),
        basis(rep.basis_zero, 2),
        record(w.keys([str(n) for n in nonzero]), [basis(es, 3) for es in nonzero.values()], 2),
        int_(rep.degree_window),
        w.strings(rep.divergence_flags, 2),
        record(_CENTROID, (
            int_(c.sinks),
            int_(c.no_exit_cycles),
            int_(c.extreme_classes),
            string(c.formula),
            string(c.note),
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
        """The report as a dict: what `dumps` writes, built by the same
        section functions through the dict writer."""
        return self._document(_dict_writer(self.graph))

    def dumps(self, index: Optional[int] = None) -> str:
        """`json.dumps(self.to_json(), indent=2)`, byte for byte, written
        straight from the records without building the dict; with an
        `index`, the document `lpa random` prints, whose last key is
        "index".

        `to_json` and this method lay the report out with the same section
        functions, each passing its own writer; the tests compare this text
        with `json.dumps` of the dict, which checks the text writer's
        encoding against `json`'s.  Strings go through json's C escaper,
        ints through `int.__repr__`, and true, false, null and "INFINITE"
        are literals.  `Graph.names_of` lists a vertex set's bitset as the
        once-escaped names, in declared order, with no sort."""
        return self._document(_text_writer(self.graph), index)

    def _document(self, w: _Writer, index: Optional[int] = None):
        """The top level of the report, and its verification, oracle and
        index entries."""
        alg = self.algebra
        names = ["tool_version", "graph", "classification", "ideal_structure", "prime_trichotomy"]
        values = [
            w.string(__version__),
            w.graph,
            _classification(w, self.classification),
            _ideal(w, self.ideal),
            _prime(w, self.prime),
        ]
        if self.center is not None:
            names.append("center")
            values.append(_center(w, alg, self.center))
        if self.verification is not None:
            names.append("verification")
            values.append(w.list([
                w.record(_VERIFICATION, (
                    w.string(label),
                    w.bool(res.central),
                    w.optional(res.witness),
                    w.optional(None if res.commutator is None else alg.render(res.commutator)),
                ), 2)
                for label, res in self.verification
            ], 1))
        if self.oracle_checks is not None:
            names.append("oracle")
            values.append(w.list([
                w.record(_ORACLE, (w.int(n), w.int(L), w.bool(ok)), 2)
                for n, L, ok in self.oracle_checks
            ], 1))
        if index is not None:
            names.append("index")
            values.append(w.int(index))
        return w.record(w.keys(names), values, 0)


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
            for es in env.center.basis_nonzero.values():
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
