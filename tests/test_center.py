import pytest

from lpa.center import (
    CenterError,
    OracleBoundError,
    a_class,
    basis_n,
    basis_zero,
    center_report,
    check_oracle_bound,
    extended_centroid_report,
    kernel_basis,
    oracle_commutant,
    required_oracle_bound,
    same_span,
    verify_basis,
)
from lpa.classify import x_decomposition
from lpa.engine import AlgebraElement, LeavittAlgebra
from lpa.fields import QQ, PrimeField
from lpa.fixtures import DOCUMENTS, graph
from lpa.graphs import Edge, Graph, disjoint_union


def alg_of(name):
    return LeavittAlgebra(graph(name))


# -- a_class ------------------------------------------------------------------


def test_a_class_toeplitz_is_unit():
    alg = alg_of("g_toeplitz")
    rep = x_decomposition(alg.graph)
    (xc,) = rep.x_f
    b = a_class(alg, xc)
    assert b.element == alg.vertex("u") + alg.vertex("v") == alg.one()
    assert alg.is_central(b.element).central


def test_a_class_loop():
    alg = alg_of("g_loop")
    (xc,) = x_decomposition(alg.graph).x_f
    assert a_class(alg, xc).element == alg.vertex("v")


def test_a_class_line3():
    alg = alg_of("g_line3")
    (xc,) = x_decomposition(alg.graph).x_f
    assert a_class(alg, xc).element == alg.one()


# -- basis_zero ----------------------------------------------------------------


def test_basis_zero_loop():
    alg = alg_of("g_loop")
    (b,) = basis_zero(alg)
    assert b.element == alg.vertex("v")


def test_basis_zero_cwe():
    alg = alg_of("g_cwe")
    (b,) = basis_zero(alg)
    assert b.element == alg.vertex("w") + alg.vertex("z")


def test_basis_zero_disjoint_loops():
    g = disjoint_union(graph("g_loop"), graph("g_loop"))
    alg = LeavittAlgebra(g)
    bs = basis_zero(alg)
    assert len(bs) == 2
    assert {b.element for b in bs} == {alg.vertex("v"), alg.vertex("v'")}


def test_basis_zero_orthogonal_idempotents():
    g = disjoint_union(graph("g_loop"), graph("g_toeplitz"))
    alg = LeavittAlgebra(g)
    bs = basis_zero(alg)
    for i, a in enumerate(bs):
        assert a.element * a.element == a.element
        for b in bs[i + 1:]:
            assert (a.element * b.element).is_zero()


# -- basis_n -------------------------------------------------------------------


def test_basis_n_loop_powers():
    alg = alg_of("g_loop")
    c = alg.edge("c")
    (b2,) = basis_n(alg, 2)
    assert b2.element == c * c
    (bm1,) = basis_n(alg, -1)
    assert bm1.element == alg.ghost("c")


def test_basis_n_cwe_empty():
    assert basis_n(alg_of("g_cwe"), 1) == []


def test_basis_n_rejects_zero():
    with pytest.raises(CenterError):
        basis_n(alg_of("g_loop"), 0)


def test_basis_n_negative_is_involution():
    alg = alg_of("g_toeplitz")
    # S is empty here (loop e has an exit): no nonzero-degree basis at all
    for n in (1, -1, 2, -2):
        assert basis_n(alg, n) == []


def test_basis_n_homogeneous_and_central():
    g = disjoint_union(graph("g_loop"), graph("g_line3"))
    alg = LeavittAlgebra(g)
    for n in (-2, -1, 1, 2):
        for b in basis_n(alg, n):
            for m in b.element.monomials():
                assert m.degree == n
            assert alg.is_central(b.element).central


# -- center report ----------------------------------------------------------------


def test_center_report_fixture_iso_types():
    expected = {
        "g_loop": {"K": 0, "Laurent": 1},
        "g_line3": {"K": 1, "Laurent": 0},
        "g_toeplitz": {"K": 1, "Laurent": 0},
        "g_r2": {"K": 1, "Laurent": 0},
        "g_ext2": {"K": 1, "Laurent": 0},
        "g_cwe": {"K": 1, "Laurent": 0},
    }
    for name, iso in expected.items():
        rep = center_report(alg_of(name))
        assert rep.iso_type == iso, name


def test_center_report_cwe_divergence_flag():
    rep = center_report(alg_of("g_cwe"))
    assert len(rep.divergence_flags) == 1
    assert not center_report(alg_of("g_loop")).divergence_flags


def test_center_report_disjoint_loops_is_laurent_squared():
    g = disjoint_union(graph("g_loop"), graph("g_loop"))
    rep = center_report(LeavittAlgebra(g))
    assert rep.iso_type == {"K": 0, "Laurent": 2}


def test_verify_basis_all_pass():
    alg = alg_of("g_loop")
    rep = center_report(alg)
    elems = list(rep.basis_zero)
    for es in rep.basis_nonzero.values():
        elems.extend(es)
    assert elems
    for _label, res in verify_basis(alg, elems):
        assert res.central


# -- extended centroid -------------------------------------------------------------


def test_extended_centroid_examples():
    r = extended_centroid_report(graph("g_line3"))
    assert (r.sinks, r.no_exit_cycles, r.extreme_classes) == (1, 0, 0)
    r = extended_centroid_report(graph("g_loop"))
    assert (r.sinks, r.no_exit_cycles, r.extreme_classes) == (0, 1, 0)
    r = extended_centroid_report(graph("g_ext2"))
    assert (r.sinks, r.no_exit_cycles, r.extreme_classes) == (0, 0, 1)
    assert "not independently verified" in r.note


# -- commutant oracle ---------------------------------------------------------------


def test_oracle_line3_degree_zero():
    alg = alg_of("g_line3")
    basis = oracle_commutant(alg, 0, 4)
    assert len(basis) == 1
    assert same_span(alg, basis, [alg.one()])


def test_oracle_loop_degree_one():
    alg = alg_of("g_loop")
    basis = oracle_commutant(alg, 1, 3)
    assert same_span(alg, basis, [alg.edge("c")])


def test_oracle_cwe_degree_one_is_zero_space():
    alg = alg_of("g_cwe")
    assert oracle_commutant(alg, 1, 4) == []


def test_oracle_agrees_with_basis_on_fixtures():
    for name in ("g_loop", "g_line3", "g_toeplitz", "g_r2", "g_ext2", "g_cwe"):
        alg = alg_of(name)
        rep = center_report(alg)
        by_degree = {0: list(rep.basis_zero)}
        for n, es in rep.basis_nonzero.items():
            by_degree.setdefault(n, []).extend(es)
        for n in sorted(set(by_degree) | {0, 1, -1}):
            elems = by_degree.get(n, [])
            bound = required_oracle_bound(elems)
            comm = oracle_commutant(alg, n, bound)
            assert same_span(alg, [b.element for b in elems], comm), (name, n)


def unpruned_commutant(alg, degree, max_len):
    """Kernel over every normal monomial, rows from the reference commutator."""
    cands = alg.normal_monomials(degree, max_len)
    rows: dict[tuple, dict] = {}
    for j, m in enumerate(cands):
        elem = AlgebraElement(alg, {m: alg.field.one})
        for i, (_label, gen) in enumerate(alg.generators()):
            for mm, k in alg.commutator(elem, gen).terms.items():
                rows.setdefault((i, mm), {})[j] = k
    vecs = kernel_basis(list(rows.values()), len(cands), alg.field)
    return [AlgebraElement(alg, {cands[j]: k for j, k in v.items()}) for v in vecs]


R3 = Graph(["v"], [Edge(f"e{i}", "v", "v") for i in (1, 2, 3)])


@pytest.mark.parametrize(
    "g, field",
    [(graph(name), QQ) for name in DOCUMENTS] + [(R3, QQ), (R3, PrimeField(7))],
    ids=list(DOCUMENTS) + ["R3-q", "R3-p7"],
)
def test_oracle_pruning_keeps_kernel(g, field):
    alg = LeavittAlgebra(g, field)
    for n in range(-2, 3):
        assert oracle_commutant(alg, n, 4) == unpruned_commutant(alg, n, 4), n


def test_oracle_bound_check():
    alg = alg_of("g_line3")
    elems = basis_zero(alg)
    with pytest.raises(OracleBoundError):
        check_oracle_bound(elems, 1)
    check_oracle_bound(elems, 2)  # no error


def test_same_span_detects_difference():
    alg = alg_of("g_line3")
    assert not same_span(alg, [alg.vertex("v1")], [alg.vertex("v2")])
    assert same_span(alg, [alg.vertex("v1").scale(3)], [alg.vertex("v1")])
