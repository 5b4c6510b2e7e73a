"""Weighted greatest common divisors of integer and rational tuples.

A weight system (q_0, ..., q_n) grades each coordinate of a tuple.  The
weighted gcd is the largest integer d with d**q_i dividing x_i for every i;
the absolute variant allows any positive real d whose powers d**q_i are
integers, and always comes out as a root of an integer with index dividing
gcd(q_0, ..., q_n).  Both read one exponent kernel, per prime p the min of
floor(v_p(x_i) / u_i) over the nonzero x_i, that factors only gcd(x) (and
the denominators of rational input); projective.py divides by it too.  The
tests hold both to exact agreement with a route that factors every coordinate.

Zero coordinates never constrain the divisor (d**q divides 0 for every d);
the all-zero tuple is rejected.  Signs are ignored: divisors are positive.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .factorization import _Value, _as_int, _extract, factorize
from .radicals import ExactRoot


class WeightSystem(_Value):
    """Positive integer weights with their derived gcd, product, and reduction."""

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int]) -> None:
        # From a list: a tuple built from a generator left the collector's
        # allocation count about one higher per call (README, design notes).
        ws = tuple([_as_int(q) for q in weights])
        if not ws:
            raise ValueError("a weight system needs at least one weight")
        if any(q < 1 for q in ws):
            raise ValueError(f"weights must be positive integers, got {ws}")
        object.__setattr__(self, "weights", ws)

    @property
    def weight_gcd(self) -> int:
        return math.gcd(*self.weights)

    @property
    def weight_product(self) -> int:
        return math.prod(self.weights)

    @property
    def reduced_weights(self) -> tuple[int, ...]:
        g = self.weight_gcd
        return tuple([q // g for q in self.weights])

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i: int) -> int:
        return self.weights[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(q) for q in self.weights) + ")"


def as_weight_system(weights: WeightSystem | Iterable[int]) -> WeightSystem:
    if isinstance(weights, WeightSystem):
        return weights
    return WeightSystem(weights)


class WeightedTuple(_Value):
    """Integer coordinates bound to a weight system; not all zero."""

    __slots__ = ("coords", "weights")
    coords: tuple[int, ...]
    weights: WeightSystem

    def __init__(self, coords: Iterable[int], weights: WeightSystem | Iterable[int]) -> None:
        cs = tuple([_as_int(c) for c in coords])
        ws = as_weight_system(weights)
        if len(cs) != len(ws):
            raise ValueError(f"{len(cs)} coordinates but {len(ws)} weights")
        if not any(cs):
            raise ValueError("all coordinates are zero")
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "weights", ws)


def _content(coords: Sequence[int | Fraction], units: Sequence[int]) -> dict[int, int]:
    """Per prime p, the nonzero e_p = min over nonzero x_i of floor(v_p(x_i) / units[i]).

    c = prod p**e_p is the content: every x_i / c**units[i] is an integer
    with no prime left to divide out.  A reduced fraction shares no prime
    between numerator and denominator, so only the denominators and the gcd
    of the numerators are factored; a numerator's valuation at a prime of
    that gcd comes from repeated division, when v_p(gcd) >= min(units).
    """
    exponents: dict[int, int] = {}
    for c, u in zip(coords, units):
        if c.denominator > 1:
            for ell, k in factorize(c.denominator).factors.items():
                exponents[ell] = min(exponents.get(ell, 0), -k // u)
    g = math.gcd(*[c.numerator for c in coords])  # a zero coordinate leaves it alone
    if g > 1:
        nonzero = [(abs(c.numerator), u) for c, u in zip(coords, units) if c]
        unit_min = min(u for _, u in nonzero)
        for p, s in factorize(g).factors.items():
            if s >= unit_min:
                e = min(_extract(a, p)[1] // u for a, u in nonzero)
                if e:
                    exponents[p] = e
    return exponents


def _divide(
    coords: Sequence[int | Fraction], units: Sequence[int], exponents: dict[int, int]
) -> list[int]:
    """The integers coords[i] / c**units[i] for c = prod p**e over exponents."""
    up = math.prod(p**e for p, e in exponents.items() if e > 0)
    down = math.prod(p**-e for p, e in exponents.items() if e < 0)
    return [c.numerator * down**u // (c.denominator * up**u) for c, u in zip(coords, units)]


def wgcd(x: WeightedTuple) -> int:
    """Largest integer d with d**q_i dividing x_i for every i.

    Only gcd(x) is factored: a prime outside it cannot divide d.
    """
    return math.prod(p**e for p, e in _content(x.coords, x.weights.weights).items())


def awgcd(x: WeightedTuple) -> ExactRoot:
    """Largest real d with every d**q_i an integer dividing x_i.

    The result is the weight_gcd-th root of an integer, returned canonical;
    per prime the exponent is the minimum of floor(v_p(x_i) / qbar_i) over
    the reduced weights qbar_i = q_i / weight_gcd.  The root is built from
    those exponents, so gcd(x) is the only number factored.
    """
    exponents = _content(x.coords, x.weights.reduced_weights)
    return ExactRoot._from_exponents(exponents, x.weights.weight_gcd)


def generalized_wgcd(
    coords: Sequence[int | Fraction], weights: WeightSystem | Iterable[int]
) -> int:
    """Weighted gcd of a rational tuple through truncated plus-valuations.

    Zero coordinates are treated as divisible by every prime power.  For a
    reduced a/b the plus-valuation max(v_p(a/b), 0) is v_p(a), so this is
    :func:`wgcd` of the numerators, and on integer tuples it is wgcd itself.
    """
    return wgcd(_numerators(coords, weights))


def generalized_awgcd(
    coords: Sequence[int | Fraction], weights: WeightSystem | Iterable[int]
) -> ExactRoot:
    """Absolute weighted gcd of a rational tuple, as a weight_gcd-indexed root.

    As for :func:`generalized_wgcd`, this is :func:`awgcd` of the numerators.
    """
    return awgcd(_numerators(coords, weights))


def _numerators(
    coords: Sequence[int | Fraction], weights: WeightSystem | Iterable[int]
) -> WeightedTuple:
    return WeightedTuple((Fraction(c).numerator for c in coords), weights)
