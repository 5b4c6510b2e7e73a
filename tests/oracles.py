"""Brute-force reference implementations the library is tested against.

Everything here is deliberately naive: divisor sweeps and box scans whose
correctness is obvious from the definitions, plus the wgcd/awgcd routes that
factor every coordinate (integer and rational), used as independent oracles
for the production routes (which factor only gcd(x)), the point operations
on Fraction points (denominators cleared through one valuation per prime and
coordinate, gcds divided out through the factoring wgcd/awgcd; the library
reads one signed content per prime from the denominators and the gcd of
the numerators, and divides once), the equivalence test that
factors every coordinate ratio (the library takes one exact root of the
ratio at the least weight of the support instead), phi on Fraction powers
(the library raises integers), the pullback that takes integer roots of
the scaled coordinates (the library builds them prime by prime from the
valuations), the enumerator that canonicalizes every pullback, and
the lcm-image scan that pulls every projective point of Weil height at most
floor(B**L) back through the library's kernel on a factor table (the
library walks the gcd of the powered coordinates instead).  Two helpers only
the tests need live here too: :func:`valuation` with :func:`plus_valuation`,
and :func:`factorization_value`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from wpheights import (
    ExactRoot,
    Factorization,
    ProjectivePoint,
    WeightedPoint,
    WeightedTuple,
    as_weight_system,
    canonical_rep,
    factorize,
    iroot,
    is_prime,
    scale,
)
from wpheights.factorization import _extract
from wpheights.heights import _floor_power, _pullback
from wpheights.projective import _unchecked_point


def wgcd_brute(coords, weights) -> int:
    """Largest d >= 1 with d**q_i dividing x_i, by descending divisor sweep."""
    live = [(abs(c), q) for c, q in zip(coords, weights) if c != 0]
    cap = min(iroot(c, q) for c, q in live)
    for d in range(cap, 0, -1):
        if all(c % d**q == 0 for c, q in live):
            return d
    raise AssertionError("unreachable: d = 1 always divides")


def awgcd_brute(coords, weights) -> ExactRoot:
    """Largest real d with all d**q_i integral divisors of x_i.

    Such a d satisfies d**r in Z for r = gcd(weights), so sweep integer
    candidates m for d**r and keep the largest with m**(q_i/r) | x_i.
    """
    ws = as_weight_system(weights)
    r = ws.weight_gcd
    live = [(abs(c), q // r) for c, q in zip(coords, ws) if c != 0]
    cap = min(iroot(c, qr) for c, qr in live)
    best = 1
    for m in range(cap, 0, -1):
        if all(c % m**qr == 0 for c, qr in live):
            best = m
            break
    return ExactRoot(Fraction(best), r)


def _exponent_profile(x: WeightedTuple, divisors) -> dict[int, int]:
    """Per-prime min over nonzero coordinates of floor(v_p(x_i) / divisors[i])."""
    profile: dict[int, int] | None = None
    for coord, unit in zip(x.coords, divisors):
        if coord == 0:
            continue
        exponents = factorize(abs(coord)).factors
        local = {p: e // unit for p, e in exponents.items()}
        if profile is None:
            profile = local
        else:
            profile = {
                p: min(a, local.get(p, 0)) for p, a in profile.items() if local.get(p, 0) > 0
            }
    assert profile is not None  # not-all-zero is a type invariant
    return {p: a for p, a in profile.items() if a > 0}


def wgcd_factoring(x: WeightedTuple) -> int:
    """wgcd from the factorization of every nonzero coordinate."""
    profile = _exponent_profile(x, x.weights.weights)
    return math.prod(p**a for p, a in profile.items())


def awgcd_factoring(x: WeightedTuple) -> ExactRoot:
    """awgcd from the factorization of every nonzero coordinate."""
    profile = _exponent_profile(x, x.weights.reduced_weights)
    radicand = math.prod(p**a for p, a in profile.items())
    return ExactRoot(Fraction(radicand), x.weights.weight_gcd)


def _plus_profile(coords, divisors) -> dict[int, int]:
    """Per-prime min over nonzero coords of floor(max(v_p, 0) / divisors[i])."""
    support: set[int] = set()
    factored: list[tuple[dict[int, int], int]] = []
    for coord, unit in zip(coords, divisors):
        if coord == 0:
            continue
        exponents = factorize(Fraction(coord)).factors
        factored.append((exponents, unit))
        support.update(p for p, e in exponents.items() if e > 0)
    profile: dict[int, int] = {}
    for p in support:
        best = min(max(exponents.get(p, 0), 0) // unit for exponents, unit in factored)
        if best:
            profile[p] = best
    return profile


def generalized_wgcd_factoring(coords, weights) -> int:
    """generalized_wgcd from the factorization of every nonzero rational coordinate."""
    ws = as_weight_system(weights)
    profile = _plus_profile(coords, ws.weights)
    return math.prod(p**a for p, a in profile.items())


def generalized_awgcd_factoring(coords, weights) -> ExactRoot:
    """generalized_awgcd from the factorization of every nonzero rational coordinate."""
    ws = as_weight_system(weights)
    profile = _plus_profile(coords, ws.reduced_weights)
    radicand = math.prod(p**a for p, a in profile.items())
    return ExactRoot(Fraction(radicand), ws.weight_gcd)


def valuation(value: int | Fraction, p: int) -> int:
    """Exponent of the prime p in the nonzero rational value (may be negative)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    value = Fraction(value)
    if value == 0:
        raise ValueError("valuation of zero is undefined here; handle zeros at the call site")
    # Fractions are reduced, so p divides at most one of numerator/denominator.
    if value.denominator % p == 0:
        return -_extract(value.denominator, p)[1]
    return _extract(abs(value.numerator), p)[1]


def plus_valuation(value, p: int) -> int:
    """max(valuation(value, p), 0)."""
    return max(valuation(value, p), 0)


def factorization_value(f: Factorization) -> Fraction:
    """The exact rational a factorization encodes: sign * prod(p**e)."""
    result = Fraction(f.sign)
    for p, e in f.factors.items():
        result *= Fraction(p) ** e
    return result


def clear_denominators_valuation(p: WeightedPoint) -> WeightedPoint:
    """clear_denominators through one valuation per (prime, coordinate) pair."""
    if p.is_integral:
        return p
    primes: set[int] = set()
    for c in p.coords:
        if c != 0 and c.denominator > 1:
            primes.update(factorize(c.denominator).factors)
    scale_factor = 1
    for ell in primes:
        needed = 0
        for c, q in zip(p.coords, p.weights):
            if c == 0:
                continue
            deficit = -valuation(c, ell)
            if deficit > 0:
                needed = max(needed, -(-deficit // q))
        scale_factor *= ell**needed
    return scale(p, scale_factor)


def _divide_by_root(p: WeightedPoint, root: ExactRoot) -> WeightedPoint:
    """Coordinate i divided by root**q_i, which is an integer when root.index | q_i."""
    return WeightedPoint(
        (c / root.radicand ** (q // root.index) for c, q in zip(p.coords, p.weights)), p.weights
    )


def normalize_fraction(p: WeightedPoint) -> WeightedPoint:
    """normalize on Fractions: divide by wgcd_factoring**q_i."""
    return _divide_by_root(p, ExactRoot(wgcd_factoring(p.as_weighted_tuple())))


def absolutely_normalize_fraction(p: WeightedPoint) -> WeightedPoint:
    """absolutely_normalize on Fractions: divide by awgcd_factoring**q_i."""
    return _divide_by_root(p, awgcd_factoring(p.as_weighted_tuple()))


def canonical_rep_fraction(p: WeightedPoint) -> WeightedPoint:
    """canonical_rep on Fractions: clear, divide by the nonzero sub-tuple's awgcd, fix signs."""
    integral = clear_denominators_valuation(p)
    live = [(c.numerator, q) for c, q in zip(integral.coords, integral.weights) if c != 0]
    root = awgcd_factoring(WeightedTuple((c for c, _ in live), (q for _, q in live)))
    coords = list(_divide_by_root(integral, root).coords)
    product = p.weights.weight_product
    powering = [product // q for q in p.weights]
    odd_positions = [i for i, c in enumerate(coords) if c != 0 and powering[i] % 2 == 1]
    nonzero_count = sum(1 for c in coords if c != 0)
    coords = [abs(c) if powering[i] % 2 == 0 else c for i, c in enumerate(coords)]
    if odd_positions and len(odd_positions) == nonzero_count:
        if coords[odd_positions[0]] < 0:
            coords = [-c for c in coords]
    return WeightedPoint(coords, p.weights)


def naive_size_fraction(p: WeightedPoint) -> ExactRoot:
    """naive_size on Fractions: the largest |x_i|**(1/q_i) after clearing and normalizing."""
    reduced = normalize_fraction(clear_denominators_valuation(p))
    return max(ExactRoot(abs(c), q) for c, q in zip(reduced.coords, reduced.weights) if c != 0)


def equivalent_factoring(p: WeightedPoint, r: WeightedPoint) -> Fraction | None:
    """equivalent from the factorization of every coordinate ratio.

    Per prime the valuation of each ratio must be the same multiple of the
    corresponding weight; that multiple is the valuation of the witness,
    whose two signs are then tried.
    """
    if p.weights != r.weights:
        raise ValueError(f"weight systems differ: {p.weights} vs {r.weights}")
    if any((a == 0) != (b == 0) for a, b in zip(p.coords, r.coords)):
        return None
    exponents: dict[int, int] = {}
    for a, b, q in zip(p.coords, r.coords, p.weights):
        if a == 0:
            continue
        for ell, e in factorize(b / a).factors.items():
            if e % q != 0:
                return None
            if exponents.setdefault(ell, e // q) != e // q:
                return None
    magnitude = math.prod((Fraction(ell) ** t for ell, t in exponents.items()), start=Fraction(1))
    for lam in (magnitude, -magnitude):
        if scale(p, lam).coords == r.coords:
            return lam
    return None


def phi_fraction(p: WeightedPoint) -> ProjectivePoint:
    """phi by raising the Fraction coordinates themselves.

    ProjectivePoint clears the denominators of the powers; the library
    raises numerators and denominators apart, as integers.
    """
    product = p.weights.weight_product
    return ProjectivePoint(c ** (product // q) for c, q in zip(p.coords, p.weights))


def weil_height_of_raw(coords, weights) -> int:
    """H(phi(x)) for an integer tuple, with plain integer arithmetic."""
    ws = as_weight_system(weights)
    q = ws.weight_product
    powered = [abs(c) ** (q // w) for c, w in zip(coords, ws)]
    g = math.gcd(*powered)
    return max(powered) // g


def bounded_classes_brute(weights, bound: ExactRoot, box: int) -> set[tuple[Fraction, ...]]:
    """Canonical representatives of every box tuple of weighted height <= bound.

    The height test is the exact integer comparison H(phi(x)) <= floor(B**q),
    so no radical arithmetic is involved until a survivor is canonicalized.
    """
    ws = as_weight_system(weights)
    cap = _floor_power(bound, ws.weight_product)
    reps: set[tuple[Fraction, ...]] = set()
    for raw in itertools.product(range(-box, box + 1), repeat=len(ws)):
        if not any(raw):
            continue
        if weil_height_of_raw(raw, ws) > cap:
            continue
        reps.add(canonical_rep(WeightedPoint(raw, ws)).coords)
    return reps


def phi_preimage_iroot(y: ProjectivePoint, weights) -> WeightedPoint | None:
    """phi_preimage from the factorization of y, a magnitude for mu and integer roots.

    Per prime ell of y, v_ell(mu) is the least r >= 0 making every r + v_ell(y_i)
    (nonzero y_i) a multiple of the powering exponent k_i, found by scanning
    one period of the congruences.  Then mu * y_i must be an exact k_i-th power
    for each i, taking +mu first and -mu second.
    """
    ws = as_weight_system(weights)
    powering = [ws.weight_product // q for q in ws]
    nonzero = [(i, c) for i, c in enumerate(y.coords) if c != 0]
    profiles = [(factorize(c).factors, powering[i]) for i, c in nonzero]
    period = math.lcm(*powering)
    magnitude = 1
    for ell in sorted({ell for profile, _ in profiles for ell in profile}):
        solutions = (
            r for r in range(period)
            if all((r + profile.get(ell, 0)) % k == 0 for profile, k in profiles)
        )
        residue = next(solutions, None)
        if residue is None:
            return None
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


def bounded_points_canonicalizing(weights, bound: ExactRoot) -> list[tuple[WeightedPoint, ExactRoot]]:
    """bounded_points with every pullback passed through canonical_rep.

    Scans the whole box of Weil height <= floor(B**L), L = lcm(w), filters it
    to gcd-1, sign-normalized tuples, and keys classes on canonical_rep of
    each phi preimage of y**(q/L), taken by phi_preimage_iroot.  It shares
    neither the library's walk nor the pullback kernel of
    bounded_points_scan.
    """
    ws = as_weight_system(weights)
    if bound < 1:
        return []
    lcm = math.lcm(*ws)
    power = ws.weight_product // lcm
    box = _floor_power(bound, lcm)
    classes: dict[tuple[Fraction, ...], tuple[int, WeightedPoint]] = {}
    for y in itertools.product(range(-box, box + 1), repeat=len(ws)):
        if not any(y) or math.gcd(*y) != 1 or next(c for c in y if c != 0) < 0:
            continue
        preimage = phi_preimage_iroot(ProjectivePoint(c**power for c in y), ws)
        if preimage is None:
            continue
        rep = canonical_rep(preimage)
        classes[rep.coords] = (max(map(abs, y)), rep)
    ordered = sorted(classes.values(), key=lambda entry: (entry[0], entry[1].coords))
    return [(rep, ExactRoot(Fraction(h), lcm)) for h, rep in ordered]


def projective_grid(length: int, box: int):
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


def factor_table(limit: int, power: int) -> list[dict[int, int]]:
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


def bounded_points_scan(weights, bound) -> list[tuple[WeightedPoint, ExactRoot]]:
    """bounded_points by scanning the lcm image, with L = lcm(w).

    Every class of height at most B maps under phi_L to an ordinary
    projective point y of Weil height at most X = floor(B**L); the classes
    over y are the phi preimages of y**s, s = weight_product / L, and for a
    normalized y the library's pullback kernel returns the canonical
    representative.  Scans every such y, reading y**s from a factor table of
    1..X.  Same output as the library, whose cost follows the classes
    instead of the (2X + 1)**n grid.
    """
    ws = as_weight_system(weights)
    if bound < 1:
        return []
    if not isinstance(bound, ExactRoot):
        bound = ExactRoot(Fraction(bound))
    lcm = math.lcm(*ws)
    power = ws.weight_product // lcm
    box = _floor_power(bound, lcm)
    table = factor_table(box, power)
    powering = [ws.weight_product // q for q in ws]
    classes: dict[tuple[int, ...], int] = {}
    for y in projective_grid(len(ws), box):
        signs = y if power % 2 else tuple(map(abs, y))  # the signs of y**power
        rep = _pullback(signs, [table[abs(c)] for c in y], powering)
        if rep is not None:
            classes[rep] = max(map(abs, y))
    heights = {h: ExactRoot(Fraction(h), lcm) for h in set(classes.values())}
    return [
        (_unchecked_point(tuple(map(Fraction, rep)), ws), heights[h])
        for rep, h in sorted(classes.items(), key=lambda item: (item[1], item[0]))
    ]
