"""Exact coefficient fields: rationals (default) and prime fields."""

from __future__ import annotations

from fractions import Fraction


class Rationals:
    """Arbitrary-precision rational field.

    A value is a Python int when it is integral and a fractions.Fraction
    otherwise; `coerce` and `parse` apply this rule.  An int and a Fraction
    of equal value compare equal, hash equal and render the same, so the
    rule changes no term dict and no output, while the usual coefficients
    (the center's basis is built from 1 and -1) get machine-int arithmetic.
    Nothing divides two values with `/`, and `coerce` rejects floats, so no
    float ever appears.
    """

    name = "Q"

    zero = 0
    one = 1

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

    @staticmethod
    def render(x) -> str:
        return str(x)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


QQ = Rationals()


def _reject_float(n) -> None:
    if isinstance(n, float):
        raise TypeError(f"{n!r} is a float; coefficients are exact: pass an int or a Fraction")


class ModInt:
    """value mod p.  Two are equal when both their values and their moduli
    are; a ModInt never equals an int."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value
        self.p = p

    def __eq__(self, other):
        if other.__class__ is not ModInt:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def _check(self, other):
        if not isinstance(other, ModInt):
            raise TypeError(f"cannot mix ModInt with {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed moduli")

    def __add__(self, other):
        self._check(other)
        return ModInt((self.value + other.value) % self.p, self.p)

    def __sub__(self, other):
        self._check(other)
        return ModInt((self.value - other.value) % self.p, self.p)

    def __neg__(self):
        return ModInt(-self.value % self.p, self.p)

    def __mul__(self, other):
        self._check(other)
        return ModInt(self.value * other.value % self.p, self.p)

    def __truediv__(self, other):
        self._check(other)
        if other.value % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return self * ModInt(pow(other.value, -1, self.p), self.p)

    def __bool__(self):
        return self.value % self.p != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


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
    """Integers modulo a prime p, for p below PRIME_LIMIT."""

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise ValueError(f"{p} is too large: primes must be below {PRIME_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)

    def coerce(self, n) -> ModInt:
        """An int, a ModInt of the same p, or a rational a/b as a * b^-1 mod
        p; a/b with p dividing b has no value mod p (ValueError)."""
        if isinstance(n, ModInt):
            if n.p != self.p:
                raise ValueError("mixed moduli")
            return n
        if isinstance(n, int):
            return ModInt(n % self.p, self.p)
        _reject_float(n)
        q = Fraction(n)
        if q.denominator % self.p == 0:
            raise ValueError(f"{q} has no value mod {self.p}: {self.p} divides its denominator")
        return ModInt(q.numerator * pow(q.denominator, -1, self.p) % self.p, self.p)

    def parse(self, text: str) -> ModInt:
        return self.coerce(int(text))

    def render(self, x: ModInt) -> str:
        return str(x.value)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))
