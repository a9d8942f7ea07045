from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpa.engine import LeavittAlgebra
from lpa.fields import QQ, ModInt, PrimeField
from lpa.graphs import Graph

F7 = PrimeField(7)


def test_prime_field_coerces_rationals_by_inverse():
    # 1/2 is 4 mod 7 (2 * 4 = 8 = 1), not the truncation int(1/2) = 0
    assert F7.coerce(Fraction(1, 2)) == ModInt(4, 7)
    assert F7.coerce(Fraction(-3, 5)) == ModInt(5, 7)  # 5 * 5 = 25 = 4 = -3
    assert F7.coerce(Fraction(14, 2)) == F7.zero
    alg = LeavittAlgebra(Graph(["v"], []), F7)
    assert alg.render(alg.vertex("v").scale(Fraction(1, 2))) == "4·v"


@given(st.integers(-50, 50), st.integers(1, 50).filter(lambda b: b % 7))
def test_prime_field_coerce_inverts_the_denominator(a, b):
    assert F7.coerce(Fraction(a, b)) * F7.coerce(b) == F7.coerce(a)


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
    assert F7.coerce(-1) == ModInt(6, 7)
    assert F7.coerce(ModInt(3, 7)) == ModInt(3, 7)
    with pytest.raises(ValueError):
        F7.coerce(ModInt(3, 5))
    assert QQ.coerce(Fraction(6, 3)) == 2 and QQ.coerce(-4) == -4
