"""Exact coefficient fields: rationals (default) and prime fields.

A coefficient is a plain Python number in both fields, and `coerce` is the
one place that puts a value into its field's canonical form: over F_p an
int in [0, p), over Q an int when it is integral and a `Fraction`
otherwise.  Coefficients add, subtract and multiply as Python numbers; the
engine and the elimination call `coerce` wherever they store a value or
test it for zero.  Nothing divides two values with `/`, and `coerce`
rejects floats, so no float ever appears.
"""

from __future__ import annotations

from fractions import Fraction


class Rationals:
    """Arbitrary-precision rational field.

    A value is a Python int when it is integral and a fractions.Fraction
    otherwise; `coerce` and `parse` apply this rule.  An int and a Fraction
    of equal value compare equal, hash equal and print the same, so the
    rule changes no term dict and no output, while the usual coefficients
    (the center's basis is built from 1 and -1) get machine-int arithmetic.
    The sum or product of two values can be an integral Fraction; `coerce`
    turns it back into an int.
    """

    name = "Q"

    @staticmethod
    def coerce(n) -> int | Fraction:
        if type(n) is int:
            return n
        _reject_float(n)
        q = Fraction(n)
        return q.numerator if q.denominator == 1 else q

    @staticmethod
    def parse(text: str) -> int | Fraction:
        return Rationals.coerce(Fraction(text))

    def __repr__(self):
        return "Rationals()"


QQ = Rationals()


def _reject_float(n) -> None:
    if isinstance(n, float):
        raise TypeError(f"{n!r} is a float; coefficients are exact: pass an int or a Fraction")


# Miller-Rabin over the primes up to 41 is exact below PRIME_LIMIT
# (Sorenson and Webster, 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        xs = [pow(a, d << i, p) for i in range(s)]  # a^d, a^2d, ..., a^((p-1)/2)
        if xs[0] != 1 and p - 1 not in xs:
            return False
    return True


class PrimeField:
    """Integers modulo a prime p, for p below PRIME_LIMIT.

    A value is a Python int in [0, p), the residue that `coerce` gives.
    Sums, differences and products of residues are ints outside that range
    until `coerce` reduces them; a value is zero in the field exactly when
    its residue is 0.
    """

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise ValueError(f"{p} is too large: primes must be below {PRIME_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, n) -> int:
        """An int as its residue, or a rational a/b as a * b^-1 mod p; a/b
        with p dividing b has no value mod p (ValueError)."""
        if type(n) is int:
            return n % self.p
        _reject_float(n)
        q = Fraction(n)
        if q.denominator % self.p == 0:
            raise ValueError(f"{q} has no value mod {self.p}: {self.p} divides its denominator")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def parse(self, text: str) -> int:
        return self.coerce(int(text))

    def __repr__(self):
        return f"PrimeField({self.p})"
