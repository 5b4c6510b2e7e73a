"""Exact weighted heights over the rationals and bounded-height enumeration.

The weighted height of a point with weights (q_0, ..., q_n) is the product
over all places of max_i |x_i|_v**(1/q_i).  Over the rationals it equals the
q-th root of the Weil height of the powered image under

    phi: [x_0 : ... : x_n] -> [x_0**(q/q_0) : ... : x_n**(q/q_n)],

with q the product of the weights.  Both routes are implemented exactly: the
phi reduction (the primary definition here) and the place-by-place product
(the independent cross-check).  kronecker_check decides height one by
cross-raising the nonzero |x_i|**(1/q_i) against each other, with no phi
and no factoring.  Through lcm(w) the reduction also gives a complete
enumerator of the points of height at most a bound: a depth-first walk, per
support, over the gcd of the powered coordinates, which factors nothing and
visits a few candidates per class.
phi_preimage pulls a projective point back prime by prime with no roots.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .factorization import _Value, factorize, iroot, nth_root_rational, primes_up_to
from .radicals import ExactRoot, _largest_root
from .projective import WeightedPoint, _unchecked_point, clear_denominators
from .wgcd import WeightSystem, as_weight_system


class ProjectivePoint(_Value):
    """Integer projective coordinates with gcd 1, first nonzero positive.

    Construction normalizes: rational input is scaled to integers, divided
    by the gcd, and sign-flipped so the first nonzero coordinate is positive.
    """

    __slots__ = ("coords",)
    coords: tuple[int, ...]

    def __init__(self, coords: Iterable[int | Fraction]) -> None:
        cs = [c if isinstance(c, int) else Fraction(c) for c in coords]
        if not any(cs):
            raise ValueError("all coordinates are zero")
        # From a list: a tuple built from a generator left the collector's
        # allocation count about one higher per call (README, design notes).
        common = math.lcm(*[c.denominator for c in cs])
        zs = [c.numerator * (common // c.denominator) for c in cs]
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
    ordinary projective point.  Numerators and denominators are raised apart,
    as integers, and the powers are put over their least common denominator.
    """
    exponents = [p.weights.weight_product // q for q in p.weights]
    powers = [(c.numerator**e, c.denominator**e) for c, e in zip(p.coords, exponents)]
    common = math.lcm(*[d for _, d in powers])
    return ProjectivePoint(a * (common // d) for a, d in powers)


def weil_height(y: ProjectivePoint) -> int:
    """Multiplicative Weil height over the rationals: max |y_i| on gcd-reduced coords."""
    return max(abs(c) for c in y.coords)


def weighted_height(p: WeightedPoint) -> ExactRoot:
    """Exact weighted height: the weight_product-th root of the Weil height of phi(p)."""
    return ExactRoot(weil_height(phi(p)), p.weights.weight_product)


def weighted_height_direct(p: WeightedPoint) -> ExactRoot:
    """Place-by-place evaluation of the weighted height; equals weighted_height.

    On an integer representative each prime ell contributes
    ell**(-min_i v_ell(x_i)/q_i) over the nonzero coordinates (a zero
    coordinate has absolute value 0 and never attains the max), and the
    archimedean place contributes max_i |x_i|**(1/q_i).  The exponents are
    kept times L = lcm of the nonzero coordinates' weights, as integers.
    """
    cleared = clear_denominators(p).coords
    nonzero = [(abs(c.numerator), q) for c, q in zip(cleared, p.weights) if c != 0]
    lcm = math.lcm(*[q for _, q in nonzero])
    profiles = [(factorize(c).factors if c > 1 else {}, lcm // q) for c, q in nonzero]
    support = {ell for profile, _ in profiles for ell in profile}
    exponents = {ell: -min(profile.get(ell, 0) * s for profile, s in profiles) for ell in support}
    profile, s = profiles[_largest_root(nonzero)]
    for ell, e in profile.items():
        exponents[ell] += e * s
    return ExactRoot._from_exponents(exponents, lcm)


def log_weighted_height(p: WeightedPoint) -> float:
    """Natural log of the weighted height, to at least 12 significant digits."""
    return weighted_height(p).log()


class KroneckerResult(_Value):
    """Outcome of the height-one test.

    height_is_one is the exact statement wh(p) == 1; ratio_condition reports
    the sufficient condition: some nonzero x_i has a rational q_i-th root xi
    (up to sign) with every ratio x_j / xi**q_j in {0, 1, -1}.
    """

    __slots__ = ("height_is_one", "ratio_condition")
    height_is_one: bool
    ratio_condition: bool

    def __bool__(self) -> bool:
        return self.height_is_one


def kronecker_check(p: WeightedPoint) -> KroneckerResult:
    """Exact height-one test plus the rational root-of-unity ratio condition.

    wh(p) is 1 exactly when the Weil height of phi(p) is, that is when every
    nonzero |x_i|**(1/q_i) is the same number.  Each term is cross-raised
    against the first, |x_i|**q_0 == |x_0|**q_i, so neither phi nor any
    factoring is needed.
    """
    terms = [(x, q) for x, q in zip(p.coords, p.weights) if x != 0]
    x0, q0 = terms[0]
    roots = (nth_root_rational(abs(x), q) for x, q in terms)
    # A term always meets its own ratio, so every nonzero term is checked.
    condition = any(
        xi is not None and all(abs(y) == xi**qj for y, qj in terms) for xi in roots
    )
    return KroneckerResult(all(abs(x) ** q0 == abs(x0) ** q for x, q in terms), condition)


def _pullback(
    coords: tuple[int, ...], valuations: list[dict[int, int]], powering: list[int]
) -> tuple[int, ...] | None:
    """Integer coordinates of the phi preimage of coords, or None when none exists.

    Reads only the signs of coords; valuations[i] factors |coords[i]| (empty
    for 0) and phi raises coordinate i to powering[i].  Per prime ell,
    v_ell(mu) is the least r >= 0 with k_i | r + v_ell(y_i) on every nonzero
    coordinate (CRT, None on a clash), and coordinate i gets
    (r + v_ell(y_i)) / k_i.  mu = +|mu| unless that makes an even-exponent
    coordinate negative, then -|mu| unless one turns positive.
    """
    live = [(i, k) for i, (c, k) in enumerate(zip(coords, powering)) if c]
    magnitudes = [1 if c else 0 for c in coords]
    for ell in set().union(*valuations):
        r, modulus = 0, 1  # r is the least solution modulo the lcm so far
        for i, k in live:
            gap = -valuations[i].get(ell, 0) - r
            g = math.gcd(modulus, k)
            if gap % g:
                return None
            r += modulus * (gap // g * pow(modulus // g, -1, k // g) % (k // g))
            modulus = modulus // g * k
        for i, k in live:
            magnitudes[i] *= ell ** ((r + valuations[i].get(ell, 0)) // k)
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
    taken, stay integral.  Only this function runs the kernel: bounded_points
    builds its classes without pulling anything back.

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
    valuations = [factorize(c).factors if c else {} for c in y.coords]
    powering = [ws.weight_product // q for q in ws]
    coords = _pullback(y.coords, valuations, powering)
    return None if coords is None else _unchecked_point(tuple(map(Fraction, coords)), ws)


def _floor_power(bound: ExactRoot, exponent: int) -> int:
    """Exact floor of bound**exponent for a positive exact root."""
    a = bound.radicand.numerator
    b = bound.radicand.denominator
    k = bound.index
    # n**k <= x iff n**k <= floor(x) for an integer n, so one iroot is exact.
    return iroot(a**exponent // b**exponent, k)


def _walk(
    exponents: list[int], cap: int, box: int, primes: list[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """(h, magnitudes) of every normalized tuple on one support with h <= box.

    exponents holds e_k = L / q_k over the support S and cap = L / g_S.  A
    node is G = prod p**g_p, reached by adding primes in increasing order;
    it carries c_k = prod p**ceil(g_p / e_k) and D_k = c_k**e_k / G =
    prod p**d_k with d_k = e_k * ceil(g_p / e_k) - g_p.  Its candidates are
    x_k = c_k * t_k, 1 <= t_k <= iroot(box // D_k, e_k), and one is kept iff
    the reduced powers r_k = |x_k|**e_k / G = D_k * t_k**e_k have gcd 1,
    which says G is exactly gcd_k |x_k|**e_k; then h = max r_k <= box.
    """
    steps = []
    for g in range(1, cap):
        # G is exact at p only if some e_k * v_p(x_k) equals g, so e_k | g.
        if any(g % e == 0 for e in exponents):
            ceilings = [-(-g // e) for e in exponents]
            deficits = [e * a - g for e, a in zip(exponents, ceilings)]
            raised = [(k, f) for k, f in enumerate(deficits) if f]
            steps.append((ceilings, deficits, raised))
    found: list[tuple[int, tuple[int, ...]]] = []
    nodes = [([1] * len(exponents), [1] * len(exponents), 0)]  # (c, D, index of the next prime)
    while nodes:
        c, d, start = nodes.pop()
        combos: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
        room = [box // dk for dk in d]
        for ck, dk, e, s in zip(c, d, exponents, room):
            column = [(dk * t**e, ck * t) for t in range(1, iroot(s, e) + 1)]
            combos = [
                (math.gcd(g, r), r if r > h else h, (*xs, x))
                for g, h, xs in combos
                for r, x in column
            ]
        found.extend((h, xs) for g, h, xs in combos if g == 1)
        if start == len(primes) or primes[start] > max(room):
            continue  # every step raises some D_k by a factor p or more
        live = steps
        for i in range(start, len(primes)):
            p = primes[i]
            # p**d_k only grows with p: a step dead at p stays dead.
            live = [step for step in live if all(p**f <= room[k] for k, f in step[2])]
            if not live:
                break
            for ceilings, deficits, _ in live:
                child_c = [ck * p**a for ck, a in zip(c, ceilings)]
                child_d = [dk * p**f for dk, f in zip(d, deficits)]
                nodes.append((child_c, child_d, i + 1))
    return found


def bounded_points(
    weights: WeightSystem | Iterable[int], bound: ExactRoot | Fraction | int
) -> list[tuple[WeightedPoint, ExactRoot]]:
    """Canonical representatives with weighted height <= bound, with their heights.

    Complete by the powered-image reduction through phi_L, with L the lcm of
    the weights and e_i = L / q_i: for the canonical representative x of a
    class, with support S, g_S = gcd(q_i : i in S) and
    G = gcd_{i in S} |x_i|**e_i, wh(x)**L is the Weil height of phi_L(x),
    h = max_{i in S} |x_i|**e_i / G, and the bound reads h <= X =
    floor(B**L).  canonical_rep divides out every prime p with
    v_p(x_i) >= q_i / g_S on all of S, that is with e_i * v_p(x_i) >= L / g_S
    there, so x has normalized magnitudes exactly when every
    g_p = v_p(G) = min_{i in S} e_i * v_p(x_i) is below L / g_S.  Each
    support is walked depth first over G (see _walk), which needs only the
    primes up to X, iroot and gcd, and reaches each class once, from its
    own (S, G).  Four facts make the walk complete and finite:

    (i) Every prime p of G is at most X.  Were all e_i * v_p(x_i) equal to
        g_p on S, t = g_p / L would make every t * q_i an integer, hence
        t * g_S one, so g_p >= L / g_S, against (ii).  So some
        |x_j|**e_j / G, an integer at most h <= X, is divisible by p.
    (ii) v_p(G) < L / g_S, the normalization above; G is exact at p only
        if some e_k divides g_p, so the walk tries only those g_p.  On a
        one-coordinate support L / g_S = e_i divides g_p = e_i * v_p(x_i),
        so G = |x_i|**e_i = 1: the class is the unit vector with h = 1,
        emitted without a walk, and a single weight needs no primes.
    (iii) x_i = c_i * t_i with c_i = prod p**ceil(g_p / e_i), since
        e_i * v_p(x_i) >= g_p; and c_i**e_i >= G with
        |x_i|**e_i <= h * G <= X * G, so |t_i|**e_i <= X, |t_i| <= B**q_i.
    (iv) The walk terminates.  lcm(e_i : i in S) = L / g_S, so every
        g_p < L / g_S leaves some d_k = e_k * ceil(g_p / e_k) - g_p >= 1,
        and a child (p, g_p) is live iff every box stays nonempty, that is
        D_k * p**d_k <= X for each k in S.  That fails for p > X and only
        gets harder as p grows, so each node's prime loop stops at the
        first prime with no live g_p, and the primes along a path increase.
        A class's own path passes only live nodes, since the partial
        products of its D_k divide D_k <= X, and no smaller prime ends a
        loop before its next one, where its own g_p is live already.

    Signs follow canonical_rep: a coordinate whose exponent
    weight_product / q_i is even is positive, and when every exponent on S
    is odd the first coordinate of S is.  Sorted by (height, coordinates);
    a bound below 1 lists nothing, since every weighted height is at least 1.
    """
    ws = as_weight_system(weights)
    if bound < 1:
        return []
    if not isinstance(bound, ExactRoot):
        bound = ExactRoot(bound)
    lcm = math.lcm(*ws)
    box = _floor_power(bound, lcm)
    primes = primes_up_to(box) if len(ws) > 1 else []  # only a longer support takes a prime
    product = ws.weight_product
    classes: list[tuple[int, tuple[int, ...]]] = []
    for size in range(1, len(ws) + 1):
        for support in itertools.combinations(range(len(ws)), size):
            weights_s = [ws[i] for i in support]
            odd = [(product // q) % 2 == 1 for q in weights_s]
            options = [(0,)] * len(ws)
            for i, o in zip(support, odd):
                options[i] = (1, -1) if o else (1,)
            if all(odd):
                options[support[0]] = (1,)  # an all-odd support starts positive
            # Coordinate i of a class is twist[i] * magnitudes[take[i]], 0 off the support.
            twists = list(itertools.product(*options))
            take = [support.index(i) if i in support else 0 for i in range(len(ws))]
            if size == 1:
                found = [(1, (1,))]  # the unit vector, see (ii)
            else:
                found = _walk([lcm // q for q in weights_s], lcm // math.gcd(*weights_s), box, primes)
            for twist in twists:
                classes.extend(
                    (h, tuple(map(operator.mul, twist, map(magnitudes.__getitem__, take))))
                    for h, magnitudes in found
                )
    classes.sort()
    heights = {h: ExactRoot(h, lcm) for h in {h for h, _ in classes}}
    coordinates = set(itertools.chain.from_iterable(rep for _, rep in classes))
    fractions = {c: Fraction(c) for c in coordinates}
    return [
        (_unchecked_point(tuple(map(fractions.__getitem__, rep)), ws), heights[h])
        for h, rep in classes
    ]


def counting_function(
    weights: WeightSystem | Iterable[int], bound: ExactRoot | Fraction | int
) -> int:
    """Number of points of weighted height at most the bound."""
    return len(bounded_points(weights, bound))
