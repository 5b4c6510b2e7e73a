import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    bounded_classes_brute,
    bounded_points_canonicalizing,
    bounded_points_scan,
    factor_table,
    phi_fraction,
    phi_preimage_iroot,
    projective_grid,
    weil_height_of_raw,
)
from wpheights import (
    ExactRoot,
    ProjectivePoint,
    WeightedPoint,
    apply_well_forming,
    bounded_points,
    canonical_rep,
    counting_function,
    iroot,
    kronecker_check,
    log_weighted_height,
    naive_size,
    phi,
    phi_preimage,
    scale,
    weighted_height,
    weighted_height_direct,
    weil_height,
    well_form,
)
import wpheights.heights
from wpheights import factorize


def test_projective_point_reduces_and_fixes_sign():
    assert ProjectivePoint((50625, 30625)).coords == (81, 49)
    assert ProjectivePoint((-2, 4)).coords == (1, -2)
    assert ProjectivePoint((0, Fraction(-1, 3))).coords == (0, 1)
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0))


def test_phi_examples():
    assert phi(WeightedPoint((15, 175), (2, 4))).coords == (81, 49)
    assert phi(WeightedPoint((7, 0, 0), (2, 3, 5))).coords == (1, 0, 0)
    assert phi(WeightedPoint((3, 5), (1, 1))).coords == (3, 5)


def test_phi_is_class_invariant():
    p = WeightedPoint((15, 175), (2, 4))
    assert phi(scale(p, Fraction(2, 3))) == phi(p)
    assert phi(scale(p, -5)) == phi(p)


def test_phi_matches_the_fraction_route():
    # Rational points with zeros and signs, on weights that share factors.
    rng = random.Random(1919)
    systems = [(1, 1), (2, 4), (2, 3), (4, 6), (1, 2, 3), (2, 4, 6), (3, 6, 9, 12), (1, 12, 10)]
    for _ in range(2000):
        ws = rng.choice(systems)
        coords = [
            0 if rng.random() < 0.2 else Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            for _ in ws
        ]
        if not any(coords):
            coords[rng.randrange(len(ws))] = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        p = WeightedPoint(coords, ws)
        assert phi(p) == phi_fraction(p)


def test_weil_height_examples():
    assert weil_height(ProjectivePoint((81, 49))) == 81
    assert weil_height(ProjectivePoint((1, 0, 0))) == 1
    assert weil_height(ProjectivePoint((1, 2))) == 2


def test_weighted_height_sqrt3():
    p = WeightedPoint((15, 175), (2, 4))
    assert weighted_height(p) == ExactRoot(3, 2)
    assert weighted_height_direct(p) == ExactRoot(3, 2)


def test_weighted_height_trivial_point():
    p = WeightedPoint((1, 1), (2, 3))
    assert weighted_height(p) == 1


def test_height_of_7_0_0_is_one_both_routes_not_sqrt7():
    # The naive size of [7:0:0] with weights (2,3,5) is sqrt(7); the height is
    # not: the 7-adic factor 7**(-1/2) cancels the archimedean sqrt(7), and the
    # powered image reduces to [1:0:0].  Both routes agree on exactly 1.
    p = WeightedPoint((7, 0, 0), (2, 3, 5))
    assert weighted_height(p) == 1
    assert weighted_height_direct(p) == 1
    assert naive_size(p) == ExactRoot(7, 2)


def test_weighted_height_accepts_rational_coordinates():
    p = WeightedPoint((Fraction(1, 2), Fraction(1, 8)), (2, 3))
    assert weighted_height(p) == weighted_height_direct(p) == ExactRoot(2, 2)


def test_height_routes_agree_on_cli_examples():
    for coords, weights in [
        ((15, 175), (2, 4)),
        ((7, 0, 0), (2, 3, 5)),
        ((Fraction(1, 2), Fraction(1, 8)), (2, 3)),
    ]:
        p = WeightedPoint(coords, weights)
        assert weighted_height(p) == weighted_height_direct(p)


def test_log_weighted_height():
    assert log_weighted_height(WeightedPoint((1, 1), (2, 3))) == 0.0
    assert math.isclose(
        log_weighted_height(WeightedPoint((15, 175), (2, 4))),
        math.log(3) / 2,
        rel_tol=1e-14,
    )
    assert math.isclose(
        log_weighted_height(WeightedPoint((1, 2), (1, 1))), math.log(2), rel_tol=1e-14
    )


def test_height_properties_seeded():
    rng = random.Random(424)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(60):
        length = rng.randint(2, 4)
        weights = [rng.randint(1, 6) for _ in range(length)]
        coords = []
        for _ in range(length):
            value = math.prod(p ** rng.randint(0, 3) for p in rng.sample(primes, 2))
            coords.append(rng.choice((1, -1)) * value if rng.random() < 0.9 else 0)
        if not any(coords):
            coords[0] = 6
        p = WeightedPoint(coords, weights)
        h = weighted_height(p)
        assert h == weighted_height_direct(p)
        assert h >= 1
        q = p.weights.weight_product
        assert q % h.index == 0 and h.radicand ** (q // h.index) == weil_height(phi(p))
        assert h <= naive_size(p)
        for _ in range(5):
            lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 6))
            assert weighted_height_direct(scale(p, lam)) == h


def test_height_under_well_forming_seeded():
    # Each truncation step raises every |x_i|_v**(1/q_i) to its divisor, at
    # every place, so the carried point has height h**D, D the product of
    # the divisors.
    rng = random.Random(4177)
    checked = 0
    while checked < 4000:
        length = rng.randint(2, 4)
        weights = [rng.randint(1, 12) for _ in range(length)]
        result = well_form(weights)
        if not result.steps:
            continue
        coords = [
            Fraction(rng.randint(-40, 40), rng.randint(1, 40)) if rng.random() < 0.8 else 0
            for _ in range(length)
        ]
        if not any(coords):
            coords[0] = Fraction(1)
        p = WeightedPoint(coords, weights)
        h = weighted_height(p)
        d = math.prod(step.divisor for step in result.steps)
        moved = apply_well_forming(p, result)
        assert weighted_height(moved) == ExactRoot(h.radicand**d, h.index), (p, result)
        checked += 1


def test_kronecker_examples():
    ok = kronecker_check(WeightedPoint((1, -1, 0), (1, 2, 3)))
    assert ok.height_is_one and ok.ratio_condition and bool(ok)

    no = kronecker_check(WeightedPoint((15, 175), (2, 4)))
    assert not no.height_is_one and not bool(no)

    eq = kronecker_check(WeightedPoint((4, 8), (2, 3)))
    assert eq.height_is_one


def test_kronecker_ratio_condition_implies_height_one_seeded():
    rng = random.Random(3434)
    for _ in range(200):
        length = rng.randint(2, 4)
        weights = [rng.randint(1, 5) for _ in range(length)]
        xi = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        coords = [
            rng.choice((0, 1, -1)) * xi**q if i else xi**weights[0]
            for i, q in enumerate(weights)
        ]
        point = WeightedPoint(coords, weights)
        result = kronecker_check(point)
        assert result.ratio_condition
        assert result.height_is_one


def test_kronecker_height_one_matches_the_weil_height_of_phi_seeded():
    # Scaled points whose |x_i|**(1/q_i) all equal m**(1/g), g the weight
    # gcd, so that the common value is often irrational; half of them get one
    # coordinate multiplied by a small factor.
    rng = random.Random(1818)
    ones = 0
    for _ in range(2000):
        length = rng.randint(1, 4)
        g = rng.randint(1, 3)
        weights = [g * rng.randint(1, 3) for _ in range(length)]
        m = rng.randint(1, 6)
        coords = [rng.choice((0, 1, -1)) * m ** (q // g) for q in weights]
        i = rng.randrange(length)
        coords[i] = m ** (weights[i] // g)
        if rng.random() < 0.5:
            coords[rng.randrange(length)] *= rng.choice((2, 3, 4, Fraction(1, 2)))
        lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 12))
        point = scale(WeightedPoint(coords, weights), lam)
        expected = weil_height(phi(point)) == 1
        assert kronecker_check(point).height_is_one == expected, point
        ones += expected
    assert 500 < ones < 1800


def test_phi_preimage_examples():
    found = phi_preimage(ProjectivePoint((1, 2)), (2, 3))
    assert found is not None and found.coords == (2, 4)
    assert phi(found) == ProjectivePoint((1, 2))

    trivial = phi_preimage(ProjectivePoint((1, 1)), (2, 3))
    assert trivial is not None and trivial.coords == (1, 1)

    # mu*2 a fourth power needs v_2(mu) = 3 mod 4; mu a square needs it even.
    assert phi_preimage(ProjectivePoint((2, 1)), (2, 4)) is None


def test_phi_preimage_consistency_seeded():
    rng = random.Random(77)
    for _ in range(200):
        length = rng.randint(2, 3)
        weights = [rng.randint(1, 5) for _ in range(length)]
        coords = [rng.randint(-12, 12) for _ in range(length)]
        if not any(coords):
            coords[0] = 2
        p = WeightedPoint(coords, weights)
        back = phi_preimage(phi(p), p.weights)
        assert back is not None
        assert canonical_rep(back) == canonical_rep(p)


def test_floor_power_is_the_exact_floor_seeded():
    # floor(B**e) for B = (a/b)**(1/k) is the n with n**k * b**e <= a**e < (n+1)**k * b**e.
    rng = random.Random(2026)
    for _ in range(2000):
        radicand = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        k, e = rng.randint(1, 12), rng.randint(1, 60)
        bound = ExactRoot(radicand ** rng.choice((1, 1, 1, k)), k)  # some perfect powers
        a, b = bound.radicand.numerator, bound.radicand.denominator
        k = bound.index
        n = wpheights.heights._floor_power(bound, e)
        assert n**k * b**e <= a**e < (n + 1) ** k * b**e


def test_enumerate_unit_weights_bound_two():
    points = [p for p, _ in bounded_points((1, 1), 2)]
    coords = [tuple(int(c) for c in p.coords) for p in points]
    assert coords == [
        (0, 1), (1, -1), (1, 0), (1, 1),
        (1, -2), (1, 2), (2, -1), (2, 1),
    ]


def test_enumerate_weights_2_3_sixth_root_of_two():
    listing = bounded_points((2, 3), ExactRoot(2, 6))
    coords = [tuple(int(c) for c in p.coords) for p, _ in listing]
    assert coords == [
        (-1, 1), (0, 1), (1, 0), (1, 1),
        (-2, 2), (-2, 4), (2, 2), (2, 4),
    ]
    heights = [h for _, h in listing]
    assert heights[:4] == [ExactRoot(1)] * 4
    assert heights[4:] == [ExactRoot(2, 6)] * 4


def test_enumerate_height_one_weights_2_3_has_four_classes():
    # [0:1], [1:0], [1:1] and [-1:1]: the last is a genuine fourth class
    # (its powered image is [1:-1]) even though informal listings of the
    # height-one points sometimes fold it into the [1:1] sign class.
    points = [p for p, _ in bounded_points((2, 3), 1)]
    coords = [tuple(int(c) for c in p.coords) for p in points]
    assert coords == [(-1, 1), (0, 1), (1, 0), (1, 1)]
    assert counting_function((2, 3), 1) == 4


def test_enumerate_below_one_is_empty():
    assert bounded_points((2, 3), Fraction(9, 10)) == []
    assert counting_function((1, 1), Fraction(1, 2)) == 0
    # Every weighted height is at least 1, so a bound <= 0 admits no point either.
    for bound in (0, Fraction(0), Fraction(-1, 2), -1):
        assert bounded_points((2, 3), bound) == []
        assert bounded_points((1, 2, 3), bound) == []
        assert counting_function((2, 3), bound) == 0


def test_counting_function_matches_enumeration():
    assert counting_function((1, 1), 2) == 8
    assert counting_function((2, 3), ExactRoot(2, 6)) == 8


def test_enumerate_matches_box_oracle_three_coordinates():
    bound = ExactRoot(2, 6)
    enum = {p.coords for p, _ in bounded_points((1, 2, 3), bound)}
    assert enum == bounded_classes_brute((1, 2, 3), bound, 8)
    assert enum == bounded_classes_brute((1, 2, 3), bound, 12)


@pytest.mark.parametrize(
    "weights, bound, classes, boxes",
    [
        ((2, 4, 6), ExactRoot(3, 12), 13, (18, 22)),
        ((2, 4, 6, 10), ExactRoot(2, 60), 15, (2, 4)),
    ],
)
def test_enumerate_shared_factor_weights_matches_box_oracle(weights, bound, classes, boxes):
    # The weight product far exceeds lcm(w) here, so a scan of the phi image
    # up to B**product (about 6.9e10 grid points for (2,4,6,10)) is infeasible.
    enum = {p.coords for p, _ in bounded_points(weights, bound)}
    assert len(enum) == classes
    for box in boxes:
        assert enum == bounded_classes_brute(weights, bound, box)


def test_enumeration_heights_are_within_bound():
    bound = ExactRoot(4, 6)
    for point, height in bounded_points((2, 3), bound):
        assert height <= bound
        assert weighted_height(point) == height
        assert canonical_rep(point) == point


def test_phi_preimage_of_phi_is_canonical_rep_seeded():
    # For a normalized y the preimage is already canonical: least magnitudes
    # from the CRT residues, signs from y (first nonzero positive).
    rng = random.Random(2718)
    primes = (2, 3, 5, 7)
    for _ in range(2000):
        length = rng.randint(1, 4)
        weights = [rng.randint(1, 6) for _ in range(length)]
        coords = []
        for _ in range(length):
            if rng.random() < 0.25:
                coords.append(Fraction(0))
                continue
            numerator = math.prod(p ** rng.randint(0, 2) for p in rng.sample(primes, 2))
            denominator = math.prod(p ** rng.randint(0, 1) for p in rng.sample(primes, 2))
            coords.append(Fraction(rng.choice((1, -1)) * numerator, denominator))
        if not any(coords):
            coords[rng.randrange(length)] = Fraction(-6, 5)
        p = WeightedPoint(coords, weights)
        assert phi_preimage(phi(p), p.weights) == canonical_rep(p)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
@pytest.mark.parametrize("box", [0, 1, 2, 3, 4])
def test_projective_grid_is_the_filtered_box(length, box):
    grid = list(projective_grid(length, box))
    assert len(grid) == len(set(grid))
    filtered = {
        raw
        for raw in itertools.product(range(-box, box + 1), repeat=length)
        if any(raw) and math.gcd(*raw) == 1 and next(c for c in raw if c != 0) > 0
    }
    assert set(grid) == filtered


@pytest.mark.parametrize(
    "weights, bound",
    [
        ((1,), ExactRoot(7)),
        ((1, 1), ExactRoot(5)),
        ((2, 3), ExactRoot(3, 6)),
        ((1, 2), ExactRoot(3)),
        ((2, 4), ExactRoot(7, 4)),
        ((4, 6), ExactRoot(5, 12)),
        ((1, 2, 3), ExactRoot(3, 6)),
        ((2, 2, 4), ExactRoot(3, 4)),
        ((3, 3, 6), ExactRoot(4, 6)),
        ((2, 4, 6), ExactRoot(3, 12)),
        ((6, 10, 15), ExactRoot(3, 30)),
        ((2, 4, 6, 10), ExactRoot(2, 60)),
    ],
)
def test_enumeration_matches_canonicalizing_reference(weights, bound):
    assert bounded_points(weights, bound) == bounded_points_canonicalizing(weights, bound)


def test_phi_preimage_matches_iroot_oracle_seeded():
    # Against the route that takes integer roots of mu * y_i: images of phi
    # (hits, many with coordinates above 2**40; every 100th built on primes
    # that only rho finds), random 45-bit tuples (mostly non-images), and
    # small tuples with zeros.
    rng = random.Random(4141)
    hits = misses = wide = 0
    for trial in range(2400):
        length = rng.randint(1, 4)
        weights = [rng.randint(1, 6) for _ in range(length)]
        if trial % 100 == 0:
            weights = [rng.randint(1, 2), rng.randint(1, 2)]
            coords = [rng.choice((1, -1)) * rng.choice((1, 65537, 1000003, 2**31 - 1)) for _ in weights]
            y = phi(WeightedPoint(coords, weights))
        elif trial % 3 == 0:
            coords = [
                rng.choice((1, -1)) * math.prod(rng.choices((2, 3, 5, 7, 11, 13, 4093), k=rng.randint(0, 2)))
                if rng.random() > 0.2 else 0
                for _ in range(length)
            ]
            if not any(coords):
                coords[0] = 4093
            y = phi(WeightedPoint(coords, weights))
        elif trial % 3 == 1:
            y = ProjectivePoint(rng.randint(-(2**45), 2**45) or 1 for _ in range(length))
        else:
            y = ProjectivePoint([rng.randint(-12, 12) for _ in range(length - 1)] + [rng.randint(1, 12)])
        got = phi_preimage(y, weights)
        assert got == phi_preimage_iroot(y, weights)
        hits += got is not None
        misses += got is None
        wide += max(map(abs, y.coords)) > 2**40
    assert hits > 1000 and misses > 500 and wide > 800
    assert phi_preimage(ProjectivePoint((2, 1)), (2, 4)) is None
    assert phi_preimage_iroot(ProjectivePoint((2, 1)), (2, 4)) is None


def test_factor_table_matches_factorize():
    table = factor_table(5000, 1)
    assert len(table) == 5001
    assert table[0] == {} and table[1] == {}
    for m in range(2, 5001):
        assert table[m] == factorize(m).factors
    cubed = factor_table(60, 3)
    assert all(cubed[m] == {p: 3 * e for p, e in table[m].items()} for m in range(61))


@pytest.mark.parametrize(
    "weights, bound, classes, digest",
    [
        ((2, 3), ExactRoot(2), 5040, "387e4e009f6558a05addbf83d424e8ff4a9cb86b58e9a16f48ad9ee6c608da76"),
        ((1, 2, 3), ExactRoot(10, 6), 166, "efbcdfdc872b00d90d130ab33347a5a6b90f45a4f1a53dc4f804399fd2d2b4b5"),
        ((1, 2, 3), ExactRoot(2), 5348, "ee7d926563ff0c02050095d329faf56b8de4e583f3d412925abf34c777ca4441"),
        ((2, 4, 6, 10), ExactRoot(10, 60), 23, "06f78dbdff2c72428d3cd675c8a25cd37c6b178cbfbbf268706fdded85c7992f"),
    ],
    ids=["w2,3-B2", "w1,2,3-B10^(1/6)", "w1,2,3-B2", "w2,4,6,10-B10^(1/60)"],
)
def test_enumeration_factors_no_grid_coordinate(monkeypatch, weights, bound, classes, digest):
    # The walk factors no coordinate; only the heights and the bound go
    # through ExactRoot's own factoring.  The last two cases were pinned from
    # the lcm-image scan, which takes seconds on them (its grid holds about
    # 10**6 and 9 * 10**4 points); the walk stays far inside the budget.
    def refuse(n, config=None):
        raise AssertionError(f"factored grid coordinate {n}")

    monkeypatch.setattr(wpheights.heights, "factorize", refuse)
    start = time.process_time()
    listing = bounded_points(weights, bound)
    assert time.process_time() - start < 2.0
    text = "".join(f"{point} h={height}\n" for point, height in listing)
    assert len(listing) == classes
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("weights, bound", [((1,), 10**5), ((3,), 1000)])
def test_single_weight_lists_the_unit_vector_without_a_walk(monkeypatch, weights, bound):
    # X = 10**5 and 10**9: a walk would test X candidates, a sieve to X
    # would hold every prime below it.
    def refuse(*args):
        raise AssertionError("a one-coordinate support was walked or sieved")

    monkeypatch.setattr(wpheights.heights, "_walk", refuse)
    monkeypatch.setattr(wpheights.heights, "primes_up_to", refuse)
    start = time.process_time()
    listing = bounded_points(weights, bound)
    assert time.process_time() - start < 1.0
    assert listing == [(WeightedPoint((1,), weights), ExactRoot(1))]


def _random_bound(rng: random.Random, lcm: int, cap: int):
    """A bound B with floor(B**lcm) <= cap, in one of the forms callers pass."""
    x = rng.randint(1, cap)
    kind = rng.randrange(5)
    if kind == 0:
        return ExactRoot(x, lcm)  # B**L = x
    if kind == 1:
        return ExactRoot(Fraction(10 * x + rng.randint(1, 9), 10), lcm)  # B**L not integral
    if kind == 2:
        return ExactRoot(rng.randint(1, x * x), 2 * lcm)  # B**L = sqrt(r), mostly irrational
    if kind == 3:
        return ExactRoot(Fraction(rng.randint(1, x**3), rng.randint(1, 3)), 3 * lcm)
    quarters = rng.randint(4, 4 * iroot(cap, lcm))  # a plain rational with B**L <= cap
    return Fraction(quarters, 4) if quarters % 4 else quarters // 4


def test_walk_matches_lcm_scan_seeded():
    # The walk against the scan it replaced, on the listing text (coordinates,
    # exact heights, order).  Caps keep the scan's (2X + 1)**n grid small.
    rng = random.Random(8080)
    shared = [(2, 4), (4, 6), (6, 8), (2, 6), (2, 2, 4), (3, 3, 6), (2, 4, 6), (6, 10, 15), (2, 4, 6, 10)]
    caps = {1: 300, 2: 100, 3: 12, 4: 4}
    lengths = classes = 0
    for trial in range(200):
        if trial % 4 == 0:
            weights = rng.choice(shared)
        else:
            weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        lcm = math.lcm(*weights)
        bound = 1 if trial % 16 == 1 else _random_bound(rng, lcm, caps[len(weights)])
        listing = bounded_points(weights, bound)
        expected = bounded_points_scan(weights, bound)
        assert listing == expected, (weights, bound)
        assert [(str(p), str(h)) for p, h in listing] == [(str(p), str(h)) for p, h in expected]
        lengths |= 1 << len(weights)
        classes += len(listing)
    assert lengths == 0b11110 and classes > 100000


def _totients(limit: int) -> list[int]:
    """phi(k) for 0 <= k <= limit, by a sieve."""
    phi_k = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi_k[p] == p:  # p is prime
            for m in range(p, limit + 1, p):
                phi_k[m] -= phi_k[m] // p
    return phi_k


@pytest.mark.parametrize(
    "weights, sizes",
    [
        ((1, 1), (1, 2, 30)),
        ((1, 2), (1, 7, 40)),
        ((2, 3), (1, 16, 64, 256)),
        ((3, 4), (1, 108)),
        ((5, 7), (1, 200)),
    ],
)
def test_counting_function_coprime_pairs_is_the_totient_sum(weights, sizes):
    # For n = 1 and coprime weights phi_L is a bijection onto P^1(Q), so the
    # classes of height <= B match the projective points of Weil height <= X =
    # floor(B**L).  Height 1 holds four ([0:1], [1:0], [1:1], [1:-1]) and each
    # height k >= 2 holds 4 * phi(k) ([k:b] and [b:k] with 0 < |b| < k prime
    # to k), so there are 4 * sum_{k <= X} phi(k) classes.
    lcm = math.lcm(*weights)
    totients = _totients(max(sizes))
    pinned = {30: 1112, 40: 1960, 64: 5040, 108: 14272, 200: 48928, 256: 79792}
    for x in sizes:
        expected = 4 * sum(totients[1 : x + 1])
        assert pinned.get(x, expected) == expected
        assert counting_function(weights, ExactRoot(x, lcm)) == expected
