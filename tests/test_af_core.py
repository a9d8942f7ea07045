"""The degree-0 center counted from the AF core of L_K(E), the blocks of
L_{0,n} and their identifications (`references.ref_af_center_zero`),
against the brute-force commutant oracle at L = 2n, and against the
number of degree-0 basis elements the center emits."""

import pytest

from corpus import FIXTURE_NAMES, graph
from lpa.center import basis_zero, oracle_commutant
from lpa.classify import x_decomposition
from lpa.engine import LeavittAlgebra
from references import (
    complete_digraph,
    cycle_with_tail,
    line,
    ref_af_center_zero,
    rose,
    small_multigraphs,
    sparse,
)

LEVELS = range(4)  # n: the oracle at L = 2n


@pytest.mark.parametrize("vertices", [1, 2, 3, 4])
def test_af_count_matches_the_oracle_on_every_small_multigraph(vertices):
    mismatches = []
    for g in small_multigraphs(vertices, 5):
        alg = LeavittAlgebra(g)
        for n in LEVELS:
            count = ref_af_center_zero(g, n)
            if count != len(oracle_commutant(alg, 0, 2 * n)):
                mismatches.append((g.to_document(), n, count))
    assert mismatches == []


@pytest.mark.parametrize(
    "g",
    [line(2000), line(2000, reverse=True), cycle_with_tail(2000)],
    ids=["L2000", "L2000-reversed", "C2000"],
)
def test_af_count_matches_the_oracle_on_chains(g):
    assert ref_af_center_zero(g, 1) == len(oracle_commutant(LeavittAlgebra(g), 0, 2))


def emitted_zero_mismatches(graphs):
    """Where the count differs from len(basis_zero), at n = L and n = L + 2,
    L the longest α among the emitted degree-0 terms αβ*: every emitted
    element lies in L_{0,L}, so the count there is at least len(basis_zero),
    and a count that grows from L to L + 2 is a central element the basis
    lacks."""
    mismatches = []
    for g in graphs:
        basis = basis_zero(LeavittAlgebra(g), x_decomposition(g))
        longest = max((len(p) for b in basis for _, p, _, _ in b.element.terms), default=0)
        for n in (longest, longest + 2):
            count = ref_af_center_zero(g, n)
            if count != len(basis):
                mismatches.append((g.vertices[:4], len(g.edges), n, count, len(basis)))
    return mismatches


FAMILIES = {
    "L2000": lambda: [line(2000)],
    "L2000-reversed": lambda: [line(2000, reverse=True)],
    "C2000": lambda: [cycle_with_tail(2000)],
    "R10-K6": lambda: [rose(10), complete_digraph(6)],
    "sparse": lambda: [sparse(seed) for seed in range(10)],
}


@pytest.mark.parametrize("corpus", ["fixtures", "campaign500", "sweep", *FAMILIES])
def test_af_count_matches_the_emitted_degree_zero_basis(corpus, request):
    """On the fixtures, campaign500, the 1,400 graphs of the Tier-1 sweep,
    `sparse(0..9)`, L_2000 declared both ways, C_2000, R_10 and K_6."""
    if corpus == "fixtures":
        graphs = [graph(name) for name in FIXTURE_NAMES]
    elif corpus == "campaign500":
        graphs = request.getfixturevalue("campaign500")
    elif corpus == "sweep":
        graphs = [g for n in range(1, 5) for g in small_multigraphs(n, 5)]
    else:
        graphs = FAMILIES[corpus]()
    assert emitted_zero_mismatches(graphs) == []
