"""Exact weighted heights over the rationals and bounded-height enumeration.

The weighted height of a point with weights (q_0, ..., q_n) is the product
over all places of max_i |x_i|_v**(1/q_i).  Over the rationals it equals the
q-th root of the Weil height of the powered image under

    phi: [x_0 : ... : x_n] -> [x_0**(q/q_0) : ... : x_n**(q/q_n)],

with q the product of the weights.  Both routes are implemented exactly: the
phi reduction (the primary definition here) and the place-by-place product
(the independent cross-check).  Through lcm(w) the reduction also gives a
complete enumerator of the points of height at most a bound: scan projective
points below the powered bound and pull each back, prime by prime with no
roots, through phi_preimage's kernel on a per-call factor table and cache.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .factorization import _effort, _factor_positive, factorize, iroot, nth_root_rational
from .radicals import ONE, ExactRoot
from .projective import WeightedPoint, _integral, _unchecked_point
from .wgcd import WeightSystem, as_weight_system


@dataclass(frozen=True)
class ProjectivePoint:
    """Integer projective coordinates with gcd 1, first nonzero positive.

    Construction normalizes: rational input is scaled to integers, divided
    by the gcd, and sign-flipped so the first nonzero coordinate is positive.
    """

    coords: tuple[int, ...]

    def __init__(self, coords: Iterable[int | Fraction]) -> None:
        cs = [Fraction(c) for c in coords]
        if not any(cs):
            raise ValueError("all coordinates are zero")
        common = math.lcm(*(c.denominator for c in cs))
        zs = [int(c * common) for c in cs]
        g = math.gcd(*zs)
        zs = [z // g for z in zs]
        if next(z for z in zs if z != 0) < 0:
            zs = [-z for z in zs]
        object.__setattr__(self, "coords", tuple(zs))

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def phi(p: WeightedPoint) -> ProjectivePoint:
    """Raise coordinate i to weight_product/q_i and reduce projectively.

    Scaling-class invariant: equivalent weighted points map to the same
    ordinary projective point.
    """
    product = p.weights.weight_product
    return ProjectivePoint(c ** (product // q) for c, q in zip(p.coords, p.weights))


def weil_height(y: ProjectivePoint) -> int:
    """Multiplicative Weil height over the rationals: max |y_i| on gcd-reduced coords."""
    return max(abs(c) for c in y.coords)


def weighted_height(p: WeightedPoint) -> ExactRoot:
    """Exact weighted height: the weight_product-th root of the Weil height of phi(p)."""
    return ExactRoot(Fraction(weil_height(phi(p))), p.weights.weight_product)


def _root_argmax(values: list[tuple[int, int]]) -> int:
    """Index maximizing c**(1/q) over (c, q) pairs, exact on near ties."""
    logs = [math.log(c) / q for c, q in values]
    best = max(range(len(values)), key=logs.__getitem__)
    for i, (c, q) in enumerate(values):
        if i == best or logs[i] < logs[best] - 1e-9:
            continue
        cb, qb = values[best]
        common = math.lcm(q, qb)
        if c ** (common // q) > cb ** (common // qb):
            best, cb, qb = i, c, q
    return best


def weighted_height_direct(p: WeightedPoint) -> ExactRoot:
    """Place-by-place evaluation of the weighted height; equals weighted_height.

    On an integer representative each prime ell contributes
    ell**(-min_i v_ell(x_i)/q_i) over the nonzero coordinates (a zero
    coordinate has absolute value 0 and never attains the max), and the
    archimedean place contributes max_i |x_i|**(1/q_i).
    """
    nonzero = [(abs(c), q) for c, q in zip(_integral(p), p.weights) if c != 0]
    exponents: dict[int, Fraction] = {}
    profiles = [(factorize(c).factors if c > 1 else {}, q) for c, q in nonzero]
    support = {ell for profile, _ in profiles for ell in profile}
    for ell in support:
        drop = min(Fraction(profile.get(ell, 0), q) for profile, q in profiles)
        if drop:
            exponents[ell] = -drop
    largest = _root_argmax(nonzero)
    profile, q = profiles[largest]
    for ell, e in profile.items():
        exponents[ell] = exponents.get(ell, Fraction(0)) + Fraction(e, q)
    return ExactRoot._from_exponents(exponents)


def log_weighted_height(p: WeightedPoint) -> float:
    """Natural log of the weighted height, to at least 12 significant digits."""
    return weighted_height(p).log()


@dataclass(frozen=True)
class KroneckerResult:
    """Outcome of the height-one test.

    height_is_one is the exact statement wh(p) == 1; ratio_condition reports
    the sufficient condition: some nonzero x_i has a rational q_i-th root xi
    (up to sign) with every ratio x_j / xi**q_j in {0, 1, -1}.
    """

    height_is_one: bool
    ratio_condition: bool

    def __bool__(self) -> bool:
        return self.height_is_one


def kronecker_check(p: WeightedPoint) -> KroneckerResult:
    """Exact height-one test plus the rational root-of-unity ratio condition."""
    height_is_one = weighted_height(p) == ONE
    condition = False
    for i, (x, q) in enumerate(zip(p.coords, p.weights)):
        if x == 0:
            continue
        xi = nth_root_rational(abs(x), q)
        if xi is None:
            continue
        ratios_ok = True
        for j, (y, qj) in enumerate(zip(p.coords, p.weights)):
            if j == i or y == 0:
                continue
            if abs(y / xi**qj) != 1:
                ratios_ok = False
                break
        if ratios_ok:
            condition = True
            break
    return KroneckerResult(height_is_one, condition)


def _crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> tuple[int, int] | None:
    """Combine two congruences; None when they are inconsistent."""
    g = math.gcd(mod_a, mod_b)
    if (res_b - res_a) % g != 0:
        return None
    lcm = mod_a // g * mod_b
    step = (res_b - res_a) // g * pow(mod_a // g, -1, mod_b // g) if mod_b != g else 0
    combined = (res_a + mod_a * step) % lcm
    return combined, lcm


def _root_exponents(pattern: tuple[int | None, ...], powering: list[int]) -> tuple[int, ...] | None:
    """Exponents of the prime ell in the preimage's coordinates; None on a clash.

    pattern holds v_ell(y_i), None for y_i = 0.  v_ell(mu) is the least r >= 0
    with every k_i | r + v_i (CRT), and coordinate i gets (r + v_i) / k_i.
    """
    residue, modulus = 0, 1
    for v, k in zip(pattern, powering):
        if v is not None:
            combined = _crt(residue, modulus, -v % k, k)
            if combined is None:
                return None
            residue, modulus = combined
    live = [(v, k) for v, k in zip(pattern, powering) if v is not None]
    assert all((residue + v) % k == 0 for v, k in live)  # the congruences guarantee it
    return tuple(0 if v is None else (residue + v) // k for v, k in zip(pattern, powering))


def _pullback(
    coords: tuple[int, ...], valuations: list[dict[int, int]], powering: list[int], patterns: dict
) -> tuple[int, ...] | None:
    """Integer coordinates of the phi preimage of coords, or None when none exists.

    Reads only the signs of coords; valuations[i] factors |coords[i]| (empty
    for 0), phi raises coordinate i to powering[i], and patterns caches
    _root_exponents for one powering.  mu = +|mu| unless that makes an
    even-exponent coordinate negative, then -|mu| unless one turns positive.
    """
    magnitudes = [1 if c else 0 for c in coords]
    for ell in set().union(*valuations):
        pattern = tuple([v.get(ell, 0) if c else None for c, v in zip(coords, valuations)])
        try:
            exponents = patterns[pattern]
        except KeyError:
            exponents = patterns[pattern] = _root_exponents(pattern, powering)
        if exponents is None:
            return None
        for i, e in enumerate(exponents):
            if e:
                magnitudes[i] *= ell**e
    even_signs = {c > 0 for c, k in zip(coords, powering) if c and k % 2 == 0}
    if len(even_signs) == 2:
        return None
    flip = even_signs == {False}
    return tuple([-m if (c < 0) != flip else m for c, m in zip(coords, magnitudes)])


def phi_preimage(y: ProjectivePoint, weights: WeightSystem | Iterable[int]) -> WeightedPoint | None:
    """A weighted point mapping to y under phi, or None when no rational one exists.

    Searches for a rational mu making every mu * y_i a perfect
    (weight_product/q_i)-th rational power: per prime in the support of y the
    valuation of mu must satisfy one congruence per nonzero coordinate
    (combined by the Chinese remainder theorem), primes outside the support
    take exponent zero, and both signs of mu are tried subject to the parity
    of the powering exponents.  The smallest such mu is a positive integer,
    so the search and the coordinates, built prime by prime with no roots
    taken, stay integral; bounded_points runs the same kernel on a table.

    For a normalized y (gcd 1, first nonzero coordinate positive, as every
    ProjectivePoint is) the result is canonical_rep of its class:

    - Magnitudes: each prime ell leaves some nonzero y_i prime to ell, so
      every integral preimage has v_ell(mu) >= 0, and the least CRT residue
      per prime gives the least magnitude of every coordinate at once.  The
      absolute weighted gcd of the nonzero coordinates is therefore 1.
    - Signs: with mu > 0, coordinates with an even powering exponent come
      out positive and those with an odd one keep the sign of y, whose first
      nonzero coordinate is positive.  mu < 0 is reached only when some
      coordinate with an even exponent is nonzero, so the all-odd sign flip
      of canonical_rep never applies.
    """
    ws = as_weight_system(weights)
    if len(y.coords) != len(ws):
        raise ValueError(f"{len(y.coords)} coordinates but {len(ws)} weights")
    valuations = [_factor_positive(abs(c), _effort.get()) if c else {} for c in y.coords]
    powering = [ws.weight_product // q for q in ws]
    coords = _pullback(y.coords, valuations, powering, {})
    return None if coords is None else _unchecked_point(tuple(map(Fraction, coords)), ws)


def _floor_power(bound: ExactRoot, exponent: int) -> int:
    """Exact floor of bound**exponent for a positive exact root."""
    a = bound.radicand.numerator
    b = bound.radicand.denominator
    k = bound.index
    numerator = a**exponent
    denominator = b**exponent
    n = iroot(numerator // denominator, k)
    while (n + 1) ** k * denominator <= numerator:
        n += 1
    while n > 0 and n**k * denominator > numerator:
        n -= 1
    return n


def _projective_grid(length: int, box: int) -> Iterator[tuple[int, ...]]:
    """All gcd-reduced, sign-normalized integer tuples with max |coord| <= box.

    Generated in normal form: the position of the first nonzero coordinate,
    its value in 1..box, then every tail in the box; only the gcd test
    filters.
    """
    tails = range(-box, box + 1)
    for lead in range(length):
        zeros = (0,) * lead
        for first in range(1, box + 1):
            for tail in itertools.product(tails, repeat=length - lead - 1):
                if math.gcd(first, *tail) == 1:
                    yield (*zeros, first, *tail)


def _factor_table(limit: int, power: int) -> list[dict[int, int]]:
    """Factorizations of m**power for 0 <= m <= limit (0 and 1: empty), by a prime-power sieve."""
    table: list[dict[int, int]] = [{} for _ in range(limit + 1)]
    for p in range(2, limit + 1):
        if not table[p]:  # no smaller prime divides p
            q = p
            while q <= limit:
                for m in range(q, limit + 1, q):
                    table[m][p] = table[m].get(p, 0) + power
                q *= p
    return table


def bounded_points(
    weights: WeightSystem | Iterable[int], bound: ExactRoot | Fraction | int
) -> list[tuple[WeightedPoint, ExactRoot]]:
    """Canonical representatives with weighted height <= bound, with their heights.

    Complete by the powered-image reduction through phi_L, with L the lcm of
    the weights: wh(p)**L is the Weil height of phi_L(p), so every class of
    height at most B maps to an ordinary projective point y of Weil height at
    most X = floor(B**L), and all of those are enumerated.  Since
    phi = (.)**s o phi_L with s = weight_product / L, the classes over y are
    the phi preimages of y**s, and for a gcd-reduced, sign-normalized y
    phi_preimage's integer pullback returns the canonical representative.
    Here it reads y**s factored from a table of 1..X and one cache of
    valuation patterns, both built per call, so no grid coordinate is
    factored.  Two grid points reach one class only when their powered images
    agree, so they share max |y|.  Sorted by (height, coordinates); a bound
    below 1 lists nothing, since every weighted height is at least 1.
    """
    ws = as_weight_system(weights)
    if bound < 1:
        return []
    if not isinstance(bound, ExactRoot):
        bound = ExactRoot(Fraction(bound))
    lcm = math.lcm(*ws)
    power = ws.weight_product // lcm
    box = _floor_power(bound, lcm)
    table = _factor_table(box, power)
    powering = [ws.weight_product // q for q in ws]
    patterns: dict = {}
    classes: dict[tuple[int, ...], int] = {}
    for y in _projective_grid(len(ws), box):
        signs = y if power % 2 else tuple(map(abs, y))  # the signs of y**power
        rep = _pullback(signs, [table[abs(c)] for c in y], powering, patterns)
        if rep is not None:
            classes[rep] = max(map(abs, y))
    heights = {h: ExactRoot(Fraction(h), lcm) for h in set(classes.values())}
    fractions = {c: Fraction(c) for c in set(itertools.chain.from_iterable(classes))}
    return [
        (_unchecked_point(tuple(map(fractions.__getitem__, rep)), ws), heights[h])
        for rep, h in sorted(classes.items(), key=lambda item: (item[1], item[0]))
    ]


def enumerate_bounded(
    weights: WeightSystem | Iterable[int], bound: ExactRoot | Fraction | int
) -> list[WeightedPoint]:
    """All points of weighted height <= bound, as sorted canonical representatives."""
    return [point for point, _ in bounded_points(weights, bound)]


def counting_function(
    weights: WeightSystem | Iterable[int], bound: ExactRoot | Fraction | int
) -> int:
    """Number of points of weighted height at most the bound."""
    return len(bounded_points(weights, bound))
