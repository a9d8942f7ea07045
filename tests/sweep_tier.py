"""The sweep's next tier, run by hand: every multigraph with exactly 4
vertices and at most 6 edges, once per isomorphism class (3,395 graphs),
through the same checks as `test_sweep.py`: each basis element central,
the oracle's commutant with the emitted span at every degree |d| <= 4 at
L = max(the basis's bound, |d|) and at L + 2, and `lpa center --verify`
exiting 0 with a schema-valid document.  Each graph also goes through
`test_count_paths.py`'s comparison of `count_paths_into` with its
Kahn-sort reference; through `test_condensation_ends.py`'s comparison of
the reachability index with `RefReachIndex` (every table, the ends and
starts, both unions, the line points and the ~ classes); through
`test_reports.py`'s comparison of every vertex set of the report with the
frozenset route, `ref_x_decomposition`; through `test_reachability.py`'s
comparison of Condition (L) with `ref_is_purely_infinite_simple`, on the
graph and on the restriction graph of each of its extreme classes with
finite entry paths; and, over Q and F_2, through `test_sweep.py`'s
comparison of the generator action with the defining relations and
`test_vertex_terms.py`'s comparison of every basis element with its
reference on the general route.

The name has no ``test_`` prefix, so Tier-1 does not collect it.  Run from
the repository root:

    PYTHONPATH=src python tests/sweep_tier.py [VERTICES [MAX_EDGES]]

It prints the graph count, each failing graph with what failed, and the
wall time, and exits 1 when any graph fails."""

import json
import sys
import tempfile
import time
from pathlib import Path

import jsonschema

from lpa.fields import QQ, PrimeField
from lpa.reports import load_schema
from references import small_multigraphs
from test_condensation_ends import check as index_mismatches
from test_count_paths import mismatches
from test_reachability import condition_l_mismatches, extreme_restriction_graphs
from test_reports import check_sets_against_frozensets
from test_sweep import _check, kernel_mismatches
from test_vertex_terms import basis_mismatches


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 4
    max_edges = int(argv[1]) if len(argv) > 1 else 6
    start = time.perf_counter()
    graphs = small_multigraphs(n, max_edges)
    schema = load_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        for i, g in enumerate(graphs):
            failures = _check(g, path, validator)
            failures += [("count_paths_into", d) for d in mismatches(g, seed=i)]
            failures += [("reach_index", d) for d in index_mismatches(g)]
            try:
                check_sets_against_frozensets(g)
            except AssertionError as exc:
                failures.append(("vertex_sets", str(exc)))
            checked = [g, *extreme_restriction_graphs(g)]
            failures += [("condition_l", d) for d in condition_l_mismatches(checked)]
            for name, field in (("Q", QQ), ("F_2", PrimeField(2))):
                failures += [("generator_action", name, d) for d in kernel_mismatches(g, field)]
                failures += [("basis_reference", name, d) for d in basis_mismatches(g, field)]
            if failures:
                failed += 1
                print(json.dumps(g.to_document()), failures)
    print(
        f"{len(graphs)} graphs with {n} vertices and at most {max_edges} edges: "
        f"{failed} failed, {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
