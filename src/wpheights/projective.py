"""Points of weighted projective space over the rationals.

A point is a rational coordinate tuple (not all zero) bound to a weight
system, up to the scaling x_i -> lambda**q_i * x_i.  This module provides
the scaling action, wgcd- and awgcd-normalization of integer representatives,
a decision procedure for rational equivalence with an explicit witness (one
exact root of one coordinate ratio, nothing factored), a canonical
representative suitable for exact deduplication, the naive size, and the
weight well-forming algorithm.

clear_denominators, normalize, absolutely_normalize, canonical_rep and
naive_size each make one call to the wgcd module's exponent kernel and one
division: per prime p the content exponent is the min over the nonzero x_i
of floor(v_p(x_i) / u_i), read from the denominators and the gcd of the
numerators, and coordinate i is divided by the content to the u_i.  The
result is built as one point, or is the input when nothing changed; for
naive_size it is one exact root, of the largest term alone.

The canonical representative is chosen so that two rational tuples receive
the same representative exactly when the ordinary projective points obtained
by raising coordinates to weight_product/q_i coincide.  That identification
is what the bounded-height enumeration needs; it can merge sign patterns
(such as (0,1,0,0) and (0,-1,0,0) for weights (1,2,3,5)) that admit no
rational scaling witness, so :func:`equivalent` is the strictly finer test.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .factorization import _Value, nth_root_rational
from .radicals import ExactRoot, _largest_root
from .wgcd import WeightSystem, WeightedTuple, _content, _divide, as_weight_system


class WeightedPoint(_Value):
    """Rational coordinates bound to a weight system; not all zero."""

    __slots__ = ("coords", "weights")
    coords: tuple[Fraction, ...]
    weights: WeightSystem

    def __init__(
        self,
        coords: Iterable[int | Fraction | str],
        weights: WeightSystem | Iterable[int],
    ) -> None:
        # From a list: a tuple built from a generator left the collector's
        # allocation count about one higher per call (README, design notes).
        cs = tuple([Fraction(c) for c in coords])
        ws = as_weight_system(weights)
        if len(cs) != len(ws):
            raise ValueError(f"{len(cs)} coordinates but {len(ws)} weights")
        if not any(cs):
            raise ValueError("all coordinates are zero")
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "weights", ws)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def as_weighted_tuple(self) -> WeightedTuple:
        if not self.is_integral:
            raise ValueError(f"point {self} has non-integer coordinates")
        return WeightedTuple((c.numerator for c in self.coords), self.weights)

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def scale(p: WeightedPoint, lam: int | Fraction) -> WeightedPoint:
    """Apply the scaling action: coordinate i is multiplied by lam**q_i."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("scaling factor must be nonzero")
    coords = tuple([c * lam**q for c, q in zip(p.coords, p.weights)])
    return WeightedPoint(coords, p.weights)


def _unchecked_point(coords: tuple[Fraction, ...], ws: WeightSystem) -> WeightedPoint:
    """Wrap valid coordinates for ws, skipping the constructor's checks."""
    point = object.__new__(WeightedPoint)
    object.__setattr__(point, "coords", coords)
    object.__setattr__(point, "weights", ws)
    return point


def _result(p: WeightedPoint, coords: list[int]) -> WeightedPoint:
    """p itself when coords are its coordinates, else the point on coords."""
    if all(a == b for a, b in zip(coords, p.coords)):
        return p
    return _unchecked_point(tuple([Fraction(c) for c in coords]), p.weights)


def _integer_coords(p: WeightedPoint) -> list[int]:
    if not p.is_integral:
        raise ValueError("normalize needs integer coordinates")
    return [c.numerator for c in p.coords]


def clear_denominators(p: WeightedPoint) -> WeightedPoint:
    """Scale by the least positive integer N making every N**q_i * x_i integral.

    1/N is the content of the reciprocal denominators 1/d_i, so only the
    denominators are factored.
    """
    units = p.weights.weights
    # The int 1 stands for 1/1, so an integral point builds no Fraction.
    reciprocals = [Fraction(1, c.denominator) if c.denominator > 1 else 1 for c in p.coords]
    return _result(p, _divide(p.coords, units, _content(reciprocals, units)))


def normalize(p: WeightedPoint) -> WeightedPoint:
    """Divide an integral point by wgcd**q_i per coordinate; idempotent."""
    coords, units = _integer_coords(p), p.weights.weights
    return _result(p, _divide(coords, units, _content(coords, units)))


def absolutely_normalize(p: WeightedPoint) -> WeightedPoint:
    """Divide an integral point by awgcd**q_i per coordinate; result has awgcd 1.

    With awgcd = m**(1/g), g = weight_gcd, that divides x_i by the integer
    m**(q_i/g).
    """
    coords, units = _integer_coords(p), p.weights.reduced_weights
    return _result(p, _divide(coords, units, _content(coords, units)))


def equivalent(p: WeightedPoint, r: WeightedPoint) -> Fraction | None:
    """Rational witness lam with scale(p, lam) == r, or None.

    Zero patterns must match.  On the support each ratio r_i / p_i must be
    lam**q_i, so the exact rational q_j-th root of |r_j / p_j|, for the
    least weight q_j there, is the only candidate for |lam|; +|lam| and then
    -|lam| are checked against r.  Nothing is factored.
    """
    if p.weights != r.weights:
        raise ValueError(f"weight systems differ: {p.weights} vs {r.weights}")
    if any((a == 0) != (b == 0) for a, b in zip(p.coords, r.coords)):
        return None
    a, b, q = min(
        ((a, b, q) for a, b, q in zip(p.coords, r.coords, p.weights) if a != 0),
        key=lambda term: term[2],
    )
    magnitude = nth_root_rational(abs(b / a), q)
    if magnitude is None:
        return None
    for lam in (magnitude, -magnitude):
        # scale(p, lam).coords == r.coords, without building the point.
        if all(a * lam**q == b for a, b, q in zip(p.coords, r.coords, p.weights)):
            return lam
    return None


def canonical_rep(p: WeightedPoint) -> WeightedPoint:
    """Deterministic representative identifying points with equal powered images.

    Divides out the content of the nonzero coordinates for the units
    q_i / g, g the gcd of their weights, which clears denominators and
    removes the absolute weighted gcd in one pass (pinning the magnitudes of
    the class), then fixes signs:
    coordinates whose powering exponent weight_product/q_i is even lose their
    sign entirely, and when every nonzero coordinate has an odd exponent the
    whole tuple may flip, so the first nonzero coordinate is made positive.
    Idempotent and invariant under scaling.

    Zero coordinates impose no constraint on the divisor here (unlike
    :func:`absolutely_normalize`, where its powers must still be integers at
    zero positions), so the resulting magnitudes are the unique smallest ones
    among tuples sharing the powered projective image.
    """
    live_gcd = math.gcd(*[q for c, q in zip(p.coords, p.weights) if c != 0])
    # A zero coordinate stays zero whatever its unit, so it constrains nothing.
    units = [q // live_gcd for q in p.weights]
    coords = _divide(p.coords, units, _content(p.coords, units))
    product = p.weights.weight_product
    even = [(product // q) % 2 == 0 for q in p.weights]
    coords = [abs(c) if e else c for c, e in zip(coords, even)]
    # Every nonzero coordinate has an odd exponent: the whole tuple may flip.
    if not any(c != 0 and e for c, e in zip(coords, even)):
        if next(c for c in coords if c != 0) < 0:
            coords = [-c for c in coords]
    return _result(p, coords)


def naive_size(p: WeightedPoint) -> ExactRoot:
    """Largest |x_i|**(1/q_i) over the wgcd-normalized integer representative.

    This is the archimedean-only magnitude; it dominates the weighted height
    and agrees with it exactly when the powered tuple of the normalized
    representative has gcd 1.  The largest term is picked by cross-raising
    integers, so only its root is built: a losing coordinate is never factored.
    """
    units = p.weights.weights
    coords = _divide(p.coords, units, _content(p.coords, units))
    terms = [(abs(c), q) for c, q in zip(coords, units) if c != 0]
    return ExactRoot(*terms[_largest_root(terms)])


def is_well_formed(weights: WeightSystem | Iterable[int]) -> bool:
    """True when dropping any single weight leaves the rest with gcd 1.

    A single-weight system is well-formed exactly when its weight is 1.
    """
    ws = as_weight_system(weights).weights
    if len(ws) == 1:
        return ws[0] == 1
    return all(math.gcd(*ws[:i], *ws[i + 1 :]) == 1 for i in range(len(ws)))


class WellFormingStep(_Value):
    """One truncation: divide the weights by divisor, except a kept pivot.

    pivot None means the all-weights step (every weight divided).
    """

    __slots__ = ("divisor", "pivot")
    divisor: int
    pivot: int | None


class WellFormingResult(_Value):
    __slots__ = ("new_weights", "steps")
    new_weights: WeightSystem
    steps: tuple[WellFormingStep, ...]


def well_form(weights: WeightSystem | Iterable[int]) -> WellFormingResult:
    """Reduce a weight system to a well-formed one, recording each truncation.

    The all-weights common-divisor step runs first, then pivot steps in
    increasing pivot order; the weight product strictly decreases, so this
    terminates.
    """
    ws = list(as_weight_system(weights).weights)
    steps: list[WellFormingStep] = []
    while True:
        g = math.gcd(*ws)
        if g > 1:
            ws = [q // g for q in ws]
            steps.append(WellFormingStep(g, None))
            continue
        for j in range(len(ws)):
            d = math.gcd(*ws[:j], *ws[j + 1 :])
            if d > 1:
                ws = [q if i == j else q // d for i, q in enumerate(ws)]
                steps.append(WellFormingStep(d, j))
                break
        else:
            break  # every leave-one-out gcd is 1 (0 for a single weight): well-formed
    return WellFormingResult(WeightSystem(ws), tuple(steps))


def replay_well_forming(
    weights: WeightSystem | Iterable[int], steps: Sequence[WellFormingStep]
) -> WeightSystem:
    """Apply recorded truncation steps; a step that does not fit the weights raises ValueError."""
    ws = list(as_weight_system(weights).weights)
    for step in steps:
        if step.divisor < 1 or (step.pivot is not None and not 0 <= step.pivot < len(ws)):
            raise ValueError(f"step {step} does not fit weights {ws}")
        for i in range(len(ws)):
            if step.pivot is not None and i == step.pivot:
                continue
            if ws[i] % step.divisor:
                raise ValueError(f"step {step} does not divide weights {ws}")
            ws[i] //= step.divisor
    return WeightSystem(ws)


def apply_well_forming(p: WeightedPoint, result: WellFormingResult) -> WeightedPoint:
    """Carry a point along the well-forming truncations.

    The weights follow replay_well_forming, so steps that do not divide them
    raise ValueError.  The all-weights step leaves coordinates alone; a pivot
    step raises the pivot coordinate to the divisor-th power.  Either way
    every |x_i|_v**(1/q_i) is raised to the divisor, so with h the weighted
    height of p and D the product of the divisors, the result has height
    h**D, that is ExactRoot(h.radicand**D, h.index).
    """
    if replay_well_forming(p.weights, result.steps) != result.new_weights:
        raise ValueError("well-forming steps do not reproduce the recorded weights")
    coords = list(p.coords)
    for step in result.steps:
        if step.pivot is not None:
            coords[step.pivot] **= step.divisor
    return WeightedPoint(coords, result.new_weights)
