"""Machine-readable report envelopes; JSON-first, text is a rendering."""

from __future__ import annotations

import json
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


_string = json.encoder.encode_basestring_ascii
# the JSON text of each scalar type a report holds, by exact type
_SCALARS = {
    str: _string,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for documents built from
    str, int, bool, None, lists and dicts with str keys; any other value
    (a float, a tuple, a non-str key) raises TypeError.  Strings go through
    json's own C escaper; the indent-2 layout, for which json falls back to
    its pure-Python encoder, is joined here."""
    return _json_value(doc, "\n")


def _json_value(v, nl: str) -> str:
    """The indent-2 text of v, whose first line is indented by nl."""
    t = type(v)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        return scalar(v)
    if t is not dict and t is not list:
        raise TypeError(f"{t.__name__} is not a report value")
    if not v:
        return "{}" if t is dict else "[]"
    inner = nl + "  "
    parts = []
    if t is dict:
        for k, x in v.items():
            scalar = _SCALARS.get(type(x))
            parts.append(_string(k) + ": " + (scalar(x) if scalar else _json_value(x, inner)))
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    for x in v:
        scalar = _SCALARS.get(type(x))
        parts.append(scalar(x) if scalar else _json_value(x, inner))
    return "[" + inner + ("," + inner).join(parts) + nl + "]"


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

    def dumps(self) -> str:
        return json_text(self.to_json())


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
