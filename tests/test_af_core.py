"""The degree-0 center counted from the AF core of L_K(E), the blocks of
L_{0,n} and their identifications (`references.ref_af_center_zero`),
against the brute-force commutant oracle at L = 2n."""

import pytest

from lpa.center import oracle_commutant
from lpa.engine import LeavittAlgebra
from references import cycle_with_tail, line, ref_af_center_zero, small_multigraphs

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
