"""Exact weighted heights over the rationals and bounded-height enumeration.

The weighted height of a point with weights (q_0, ..., q_n) is the product
over all places of max_i |x_i|_v**(1/q_i).  Over the rationals it equals the
q-th root of the Weil height of the powered image under

    phi: [x_0 : ... : x_n] -> [x_0**(q/q_0) : ... : x_n**(q/q_n)],

with q the product of the weights.  Both routes are implemented exactly: the
phi reduction (the primary definition here) and the place-by-place product
(the independent cross-check).  The same reduction, taken through the lcm of
the weights, powers a provably complete enumerator of all points of height at
most a bound: enumerate the ordinary projective points below the powered
bound, keep the ones with a rational preimage, and pull each back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .factorization import _effort, _factor_positive, factorize, iroot, nth_root_rational
from .radicals import ONE, ExactRoot
from .projective import WeightedPoint, clear_denominators
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
    integral = clear_denominators(p)
    nonzero = [(abs(c.numerator), q) for c, q in zip(integral.coords, integral.weights) if c != 0]
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


def phi_preimage(y: ProjectivePoint, weights: WeightSystem | Iterable[int]) -> WeightedPoint | None:
    """A weighted point mapping to y under phi, or None when no rational one exists.

    Searches for a rational mu making every mu * y_i a perfect
    (weight_product/q_i)-th rational power: per prime in the support of y the
    valuation of mu must satisfy one congruence per nonzero coordinate
    (combined by the Chinese remainder theorem), primes outside the support
    take exponent zero, and both signs of mu are tried subject to the parity
    of the powering exponents.  The smallest such mu is a positive integer,
    so the search runs on integers throughout.

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
    product = ws.weight_product
    powering = [product // q for q in ws]
    nonzero = [(i, c) for i, c in enumerate(y.coords) if c != 0]

    config = _effort.get()
    profiles = [(_factor_positive(abs(c), config), powering[i]) for i, c in nonzero]
    support = {ell for profile, _ in profiles for ell in profile}
    magnitude = 1
    for ell in sorted(support):
        residue, modulus = 0, 1
        for profile, exponent in profiles:
            combined = _crt(residue, modulus, -profile.get(ell, 0) % exponent, exponent)
            if combined is None:
                return None
            residue, modulus = combined
        magnitude *= ell**residue

    for mu in (magnitude, -magnitude):
        coords = [0] * len(y.coords)
        for i, c in nonzero:
            powered = mu * c
            if powered < 0 and powering[i] % 2 == 0:
                break
            root = iroot(abs(powered), powering[i])
            assert root ** powering[i] == abs(powered)  # the congruences guarantee it
            coords[i] = root if powered > 0 else -root
        else:
            return WeightedPoint(coords, ws)
    return None


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


def _normalized_point(coords: tuple[int, ...]) -> ProjectivePoint:
    """Wrap coordinates already in normal form, skipping the constructor's reduction."""
    point = object.__new__(ProjectivePoint)
    object.__setattr__(point, "coords", coords)
    return point


def bounded_points(
    weights: WeightSystem | Iterable[int], bound: ExactRoot | Fraction | int
) -> list[tuple[WeightedPoint, ExactRoot]]:
    """Canonical representatives with weighted height <= bound, with their heights.

    Complete by the powered-image reduction through phi_L, with L the lcm of
    the weights: wh(p)**L is the Weil height of phi_L(p), so every class of
    height at most B maps to an ordinary projective point y of Weil height at
    most B**L, and all of those are enumerated.  Since phi = (.)**s o phi_L
    with s = weight_product / L, the classes over y are exactly the phi
    preimages of y**s; a gcd-reduced, sign-normalized y stays so under
    powering, and for such input phi_preimage returns the canonical
    representative itself.  Classes are therefore keyed on the preimage's
    coordinates, with no further canonicalization; two grid points reach the
    same class only when their powered images agree, so they share max |y|.
    Sorted by (height, coordinates); deterministic.
    """
    ws = as_weight_system(weights)
    if not isinstance(bound, ExactRoot):
        bound = ExactRoot(Fraction(bound))
    if bound < ONE:
        return []
    lcm = math.lcm(*ws)
    power = ws.weight_product // lcm
    classes: dict[tuple[int, ...], tuple[int, WeightedPoint]] = {}
    for y in _projective_grid(len(ws), _floor_power(bound, lcm)):
        rep = phi_preimage(_normalized_point(tuple(c**power for c in y)), ws)
        if rep is not None:
            classes[tuple(c.numerator for c in rep.coords)] = (max(map(abs, y)), rep)

    heights: dict[int, ExactRoot] = {}
    listing = []
    for key in sorted(classes, key=lambda key: (classes[key][0], key)):
        h, rep = classes[key]
        if h not in heights:
            heights[h] = ExactRoot(Fraction(h), lcm)
        listing.append((rep, heights[h]))
    return listing


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
