"""Canonical exact radicals: positive reals of the form m**(1/k).

An :class:`ExactRoot` stores a positive rational radicand and a positive
integer index, always reduced so the index is minimal: one builder divides
the index and the radicand's integer prime exponents by their gcd.  That
makes structural equality coincide with equality of real values, and lets
comparisons and products stay bit-exact via big-integer cross-raising.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce

from .factorization import _Value, _as_int, factorize


def _reduced_parts(exponents: dict[int, int], index: int) -> tuple[Fraction, int]:
    """prod p**(e/index) as (prod p**(e/s), index/s), s = gcd of index and every e."""
    shrink = reduce(math.gcd, exponents.values(), index)
    up = math.prod(p ** (e // shrink) for p, e in exponents.items() if e > 0)
    down = math.prod(p ** (-e // shrink) for p, e in exponents.items() if e < 0)
    return Fraction(up, down), index // shrink


def _largest_root(terms: Sequence[tuple[int, int]]) -> int:
    """Index of the first largest c**(1/q) over (c, q) pairs, with no root built.

    Each term is cross-raised against the largest so far: with
    L = lcm(q, q_best), c**(1/q) > c_best**(1/q_best) iff
    c**(L/q) > c_best**(L/q_best), a comparison of integers.
    """
    best = 0
    for i in range(1, len(terms)):
        (c, q), (cb, qb) = terms[i], terms[best]
        common = math.lcm(q, qb)
        if c ** (common // q) > cb ** (common // qb):
            best = i
    return best


def _canonical_parts(radicand: Fraction, index: int) -> tuple[Fraction, int]:
    if radicand <= 0:
        raise ValueError(f"radicand must be positive, got {radicand}")
    if index < 1:
        raise ValueError(f"root index must be >= 1, got {index}")
    if radicand == 1:
        return Fraction(1), 1
    if index == 1:
        return radicand, 1
    return _reduced_parts(factorize(radicand).factors, index)


class ExactRoot(_Value):
    """The positive real radicand**(1/index), kept in canonical form.

    Construction canonicalizes, so ExactRoot(8, 6) == ExactRoot(2, 2) and
    the value 1 is always ExactRoot(1, 1).
    """

    __slots__ = ("radicand", "index")
    radicand: Fraction
    index: int

    def __init__(self, radicand: Fraction | int, index: int = 1) -> None:
        radicand, index = _canonical_parts(Fraction(radicand), _as_int(index))
        object.__setattr__(self, "radicand", radicand)
        object.__setattr__(self, "index", index)

    @classmethod
    def _from_exponents(cls, exponents: dict[int, int], index: int) -> "ExactRoot":
        """Build prod(p**(e/index)) for integer exponents e, with no factoring.

        No exponents means the value 1, awgcd's usual answer; every such call
        returns the one shared instance, which is safe since roots never change.
        """
        if not exponents:
            return _ONE
        root = object.__new__(cls)
        radicand, index = _reduced_parts(exponents, index)
        object.__setattr__(root, "radicand", radicand)
        object.__setattr__(root, "index", index)
        return root

    def _compare(self, other: "ExactRoot") -> int:
        common = math.lcm(self.index, other.index)
        left = self.radicand ** (common // self.index)
        right = other.radicand ** (common // other.index)
        return (left > right) - (left < right)

    @staticmethod
    def _coerce(value: "ExactRoot | int | Fraction") -> "ExactRoot | None":
        if isinstance(value, ExactRoot):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactRoot(Fraction(value))
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactRoot):
            return self.radicand == other.radicand and self.index == other.index
        if isinstance(other, (int, Fraction)):
            # Canonical form: the value is rational exactly when the index is 1.
            return self.index == 1 and self.radicand == other
        return NotImplemented

    def __hash__(self) -> int:
        # A rational value hashes as the equal int or Fraction does.
        return hash(self.radicand) if self.index == 1 else hash((self.radicand, self.index))

    def _ordered(self, other: "ExactRoot | int | Fraction", holds) -> bool:
        """holds(sign, 0) for the sign of self - other, as _compare gives it."""
        if isinstance(other, (int, Fraction)) and other <= 0:
            return holds(1, 0)  # a positive real exceeds every rational <= 0
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return holds(self._compare(coerced), 0)

    def __lt__(self, other: "ExactRoot | int | Fraction") -> bool:
        return self._ordered(other, operator.lt)

    def __le__(self, other: "ExactRoot | int | Fraction") -> bool:
        return self._ordered(other, operator.le)

    def __gt__(self, other: "ExactRoot | int | Fraction") -> bool:
        return self._ordered(other, operator.gt)

    def __ge__(self, other: "ExactRoot | int | Fraction") -> bool:
        return self._ordered(other, operator.ge)

    def __mul__(self, other: "ExactRoot | int | Fraction") -> "ExactRoot":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        common = math.lcm(self.index, coerced.index)
        radicand = self.radicand ** (common // self.index) * coerced.radicand ** (
            common // coerced.index
        )
        return ExactRoot(radicand, common)

    __rmul__ = __mul__

    def log(self) -> float:
        """Natural log, accurate to double precision (>= 12 significant digits)."""
        return (
            math.log(self.radicand.numerator) - math.log(self.radicand.denominator)
        ) / self.index

    def __str__(self) -> str:
        if self.index == 1:
            return str(self.radicand)
        return f"root({self.radicand},{self.index})"


_ONE = ExactRoot(1)  # see ExactRoot._from_exponents
