"""Every small graph, not a sample: each multigraph with at most 4
vertices and 5 edges, once per isomorphism class, is run through both of
the center's checks and the CLI, and each with at most 3 vertices through
the generator action against the defining relations."""

import contextlib
import io
import json

import jsonschema
import pytest

from lpa.center import (
    center_report,
    oracle_commutant,
    required_oracle_bound,
    same_span,
    verify_basis,
)
from lpa.classify import x_decomposition
from lpa.cli import main
from lpa.engine import AlgebraElement, LeavittAlgebra
from lpa.fields import QQ
from lpa.reports import load_schema
from references import generators, small_multigraphs

WINDOW = 4  # the degrees |d| <= WINDOW are emitted and checked
MAX_EDGES = 5
KERNEL_LEN = 3  # the monomials of |alpha| + |beta| <= KERNEL_LEN, |d| <= KERNEL_LEN


@pytest.mark.parametrize(
    "n, max_edges, simple, count",
    [
        # digraphs with loops (binary relations), OEIS A000595
        (1, 1, True, 2),
        (2, 4, True, 10),
        (3, 9, True, 104),
        (3, 5, False, 356),
        (4, 5, False, 972),
    ],
)
def test_small_multigraphs_counts(n, max_edges, simple, count):
    graphs = small_multigraphs(n, max_edges, simple)
    assert len(graphs) == count
    assert all(len(g.vertices) == n and len(g.edges) <= max_edges for g in graphs)


def _check(g, path, validator):
    """What fails on g, as (check, detail) pairs."""
    failures = []
    alg = LeavittAlgebra(g)
    cr = center_report(alg, x_decomposition(g), WINDOW)
    by_degree = {0: list(cr.basis_zero)}
    for d, es in cr.basis_nonzero.items():
        by_degree.setdefault(d, []).extend(es)
    for d in range(-WINDOW, WINDOW + 1):
        elems = by_degree.get(d, [])
        for label, res in verify_basis(alg, elems):
            if not res.central:
                failures.append(("central", (label, res.witness)))
        bound = max(required_oracle_bound(elems), abs(d))
        for max_len in (bound, bound + 2):
            comm = oracle_commutant(alg, d, max_len)
            if not same_span(alg, [b.element for b in elems], comm):
                failures.append(("oracle", (d, max_len)))
    path.write_text(json.dumps(g.to_document()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["center", str(path), "--verify"])
    if code != 0:
        failures.append(("exit", code))
    else:
        for error in validator.iter_errors(json.loads(out.getvalue())):
            failures.append(("schema", error.message))
    return failures


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_small_multigraph(n, tmp_path):
    """On every graph: each basis element is central; at every degree
    |d| <= 4 the oracle's commutant has the span of the emitted basis, at
    L = max(the basis's required bound, |d|) and again at L + 2; and
    `lpa center --verify` exits 0 with a document the schema accepts."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    validator = cls(schema)  # built once: `jsonschema.validate` rebuilds it per call
    path = tmp_path / "g.json"
    failed = []
    for g in small_multigraphs(n, MAX_EDGES):
        failures = _check(g, path, validator)
        if failures:
            failed.append((g.to_document(), failures))
    assert failed == []


def kernel_mismatches(g, field=QQ):
    """(monomial, generator label) for every normal monomial m with
    |alpha| + |beta| <= KERNEL_LEN and |deg m| <= KERNEL_LEN, and every
    generator g, where the entries of `generator_action` on the term (m, 1)
    under g, put into the field, are not ``commutator(m, g)``.  That route
    runs `mono_mul_raw` and `normal_form` on the raw products, the
    defining relations, and not the generator action."""
    alg = LeavittAlgebra(g, field)
    gens = [
        (label, kind, gid, gen)
        for (label, gen), (_, kind, gid) in zip(generators(alg), alg.generator_labels())
    ]
    coerce = field.coerce
    failed = []
    for d in range(-KERNEL_LEN, KERNEL_LEN + 1):
        for m in alg.normal_monomials(d, KERNEL_LEN):
            acc = {}
            alg.generator_action([(m, 1)], acc)
            grouped = {}
            for key, c in acc.items():
                if c := coerce(c):
                    grouped.setdefault(key[:2], {})[key[2:]] = c
            x = alg.normal_form([(m, 1)])
            for label, kind, gid, gen in gens:
                got = AlgebraElement(alg, grouped.get((kind, gid), {}))
                if got != alg.commutator(x, gen):
                    failed.append((m, label))
    return failed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_action_obeys_the_relations(n):
    """On every graph with at most 3 vertices and 5 edges, the generator
    action on each normal monomial of length and degree at most 3 gives
    the commutator with every generator that the relations give."""
    failed = []
    for g in small_multigraphs(n, MAX_EDGES):
        if bad := kernel_mismatches(g):
            failed.append((g.to_document(), bad[:5]))
    assert failed == []
