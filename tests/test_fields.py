import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpa.center import _rref, kernel_basis, oracle_commutant
from lpa.engine import LeavittAlgebra
from lpa.fields import QQ, PrimeField
from lpa.graphs import Graph
from lpa.randomgen import random_graph
from references import renamed

F7 = PrimeField(7)


def test_prime_field_coerces_rationals_by_inverse():
    # 1/2 is 4 mod 7 (2 * 4 = 8 = 1), not the truncation int(1/2) = 0
    assert F7.coerce(Fraction(1, 2)) == 4
    assert F7.coerce(Fraction(-3, 5)) == 5  # 5 * 5 = 25 = 4 = -3
    assert F7.coerce(Fraction(14, 2)) == 0
    alg = LeavittAlgebra(Graph(["v"], []), F7)
    assert alg.render(alg.vertex("v").scale(Fraction(1, 2))) == "4·v"


@given(st.integers(-50, 50), st.integers(1, 50).filter(lambda b: b % 7))
def test_prime_field_coerce_inverts_the_denominator(a, b):
    assert F7.coerce(F7.coerce(Fraction(a, b)) * b) == F7.coerce(a)


def test_prime_field_rejects_denominators_divisible_by_p():
    with pytest.raises(ValueError):
        F7.coerce(Fraction(1, 7))
    with pytest.raises(ValueError):
        F7.coerce(Fraction(3, 14))


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "p7"])
@pytest.mark.parametrize("value", [2.5, 0.1, 2.0])
def test_fields_reject_floats(field, value):
    with pytest.raises(TypeError):
        field.coerce(value)
    alg = LeavittAlgebra(Graph(["v"], []), field)
    with pytest.raises(TypeError):
        alg.vertex("v").scale(value)


def test_ints_and_mod_ints_still_coerce():
    # an F_p value is the int residue in [0, p)
    assert F7.coerce(-1) == 6 and F7.coerce(13) == 6 and F7.coerce(3) == 3
    assert {type(F7.coerce(k)) for k in (-1, 3, Fraction(1, 2), True)} == {int}
    assert QQ.coerce(Fraction(6, 3)) == 2 and QQ.coerce(-4) == -4


# -- one representation: every stored coefficient in canonical form -------------

F2 = PrimeField(2)


def canonical(k, field) -> bool:
    """k is a nonzero field value in the one form of `lpa.fields`: an int in
    [0, p) over F_p, and over Q an int exactly when it is integral."""
    if field is QQ:
        return k != 0 and type(k) is (int if Fraction(k).denominator == 1 else Fraction)
    return type(k) is int and 0 < k < field.p


def raw_terms(alg, rng, paths):
    """Random terms alpha beta* with a common range, normal or not, with
    ints and Fractions whose denominators are units in Q, F_2 and F_7."""
    out = []
    for _ in range(rng.randint(1, 5)):
        a = rng.choice(paths)
        b = rng.choice([p for p in paths if alg.graph.path_range(*p) == alg.graph.path_range(*a)])
        k = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 3, 5]))
        out.append((a + b, k if k.denominator > 1 else int(k)))
    return out


@pytest.mark.parametrize("field", [QQ, F2, F7], ids=["q", "p2", "p7"])
@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_stored_coefficients_are_canonical(field, seed):
    rng = random.Random(seed)
    alg = LeavittAlgebra(renamed(random_graph(rng, 4, 6), rng), field)
    paths = alg.enumerate_paths(2)
    x = alg.normal_form(raw_terms(alg, rng, paths))
    y = alg.normal_form(raw_terms(alg, rng, paths))
    elems = [x, y, x + y, x - y, y - x, -x, x + x, x.scale(Fraction(2, 3)),
             y.scale(-4), alg.involution(x), alg.involution(x - y)]
    # the commutators of non-central elements, whose entries need not cancel
    coms = [c for e in elems for c in alg.commutators(e).values()]
    commutants = [e for d in range(-2, 3) for e in oracle_commutant(alg, d, 3)]
    for e in elems + coms + commutants:
        assert all(canonical(k, field) for k in e.terms.values()), e.terms
    # int rows, as the oracle builds them, and rows of element terms, as
    # same_span builds them
    rows = [{rng.randrange(6): rng.randint(-9, 9) for _ in range(rng.randint(1, 3))}
            for _ in range(rng.randint(0, 6))]
    index: dict = {}
    rows += [{index.setdefault(m, len(index)): k for m, k in e.terms.items()} for e in elems]
    width = max((c + 1 for row in rows for c in row), default=0)
    reduced = _rref(rows, field)
    kernel = kernel_basis(rows, width, field)
    assert all(canonical(k, field) for row in reduced + kernel for k in row.values())


def test_negation_renders_the_residue():
    alg = LeavittAlgebra(Graph(["v"], []), F7)
    assert alg.render(-alg.vertex("v")) == "6·v"
