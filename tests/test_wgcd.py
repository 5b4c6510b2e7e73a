import math
import random
from fractions import Fraction

import pytest

from oracles import (
    awgcd_brute,
    awgcd_factoring,
    generalized_awgcd_factoring,
    generalized_wgcd_factoring,
    wgcd_brute,
    wgcd_factoring,
)
from wpheights import (
    ExactRoot,
    WeightSystem,
    WeightedTuple,
    awgcd,
    generalized_awgcd,
    generalized_wgcd,
    wgcd,
)


def test_weight_system_derived_fields():
    ws = WeightSystem((6, 8))
    assert ws.weight_gcd == 2
    assert ws.weight_product == 48
    assert ws.reduced_weights == (3, 4)


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem(())
    with pytest.raises(ValueError):
        WeightSystem((2, 0))


def test_weighted_tuple_validation():
    with pytest.raises(ValueError):
        WeightedTuple((0, 0), (2, 3))
    with pytest.raises(ValueError):
        WeightedTuple((1, 2, 3), (2, 3))
    with pytest.raises(ValueError):
        WeightedTuple((Fraction(1, 2), 1), (2, 3))


def test_wgcd_toy_example():
    t = WeightedTuple((1440, 700), (3, 2))
    assert wgcd(t) == 2
    assert wgcd_factoring(t) == 2


def test_wgcd_and_awgcd_weights_6_8():
    t = WeightedTuple((2**15 * 5**12, 2**26 * 5**13), (6, 8))
    assert wgcd(t) == 20
    assert awgcd(t) == ExactRoot(4000, 2)
    assert awgcd_factoring(t) == ExactRoot(4000, 2)


def test_wgcd_and_awgcd_weights_2_4_6_10():
    t = WeightedTuple((3 * 5**2, 3**2 * 5**4, 3**3 * 5**6, 3**5 * 5**10), (2, 4, 6, 10))
    assert wgcd(t) == 5
    assert wgcd_factoring(t) == 5
    assert awgcd(t) == ExactRoot(75, 2)  # 5 * sqrt(3)
    assert awgcd_factoring(t) == ExactRoot(75, 2)


def test_wgcd_awgcd_2_3_7_point():
    t = WeightedTuple(
        (2**3 * 3**2 * 7**3, 2**5 * 3**7 * 7, 2**7 * 3**7 * 7**3, 2**11 * 3**13 * 7**5),
        (2, 4, 6, 10),
    )
    assert wgcd(t) == 6
    assert awgcd(t) == 6
    assert awgcd(t).index == 1


def test_wgcd_with_unit_coordinate():
    assert wgcd(WeightedTuple((1, 360), (2, 3))) == 1


def test_wgcd_single_coordinate():
    assert wgcd(WeightedTuple((32,), (5,))) == 2
    assert wgcd_factoring(WeightedTuple((32,), (5,))) == 2


def test_zero_coordinates_impose_no_constraint():
    # d**5 divides 0 for every d, so only the second coordinate matters.
    t = WeightedTuple((0, 32), (5, 1))
    assert wgcd(t) == 32
    assert wgcd_factoring(t) == 32
    assert awgcd(t) == 32


def test_recombining_cap_needs_min_weight_not_min_quotient():
    # gcd((p**3, p**10)) = p**3, yet the exponent is min(3 // 1, 10 // 5) = 2:
    # dividing v_p(gcd) by the largest weight (floor(3/5) = 0) would miss it.
    t = WeightedTuple((7**3, 7**10), (1, 5))
    assert wgcd(t) == 49
    assert wgcd_factoring(t) == 49
    assert wgcd_brute((7**3, 7**10), (1, 5)) == 49


def test_recombining_descent_below_cap():
    # v_p(gcd) over the smallest weight is 3, but the second coordinate
    # allows only 10 // 5 = 2.
    t = WeightedTuple((3**3, 3**10), (1, 5))
    assert wgcd_factoring(t) == wgcd(t) == 9


def test_exponent_far_below_gcd_valuation():
    # v_2(gcd) = 4000 over the smallest weight allows 4000, the heavy
    # coordinate only 1: the exponent is found without stepping down to it.
    t = WeightedTuple((2**4000, 2**4000), (1, 4000))
    assert wgcd(t) == wgcd_factoring(t) == 2
    assert awgcd(t) == awgcd_factoring(t) == 2


def test_awgcd_12_18_weights_2_2_is_sqrt_six():
    # The largest real d with d**2 an integer dividing both 12 and 18 is
    # sqrt(6); a brute-force sweep over integer values of d**2 agrees.
    t = WeightedTuple((12, 18), (2, 2))
    assert awgcd(t) == ExactRoot(6, 2)
    assert awgcd_factoring(t) == ExactRoot(6, 2)
    assert awgcd_brute((12, 18), (2, 2)) == ExactRoot(6, 2)


def test_awgcd_equals_gcd_for_unit_weights():
    t = WeightedTuple((6, 4), (1, 1))
    assert awgcd(t) == 2
    assert awgcd(t).index == 1


def test_negative_coordinates_use_absolute_values():
    assert wgcd(WeightedTuple((-1440, 700), (3, 2))) == 2
    assert awgcd(WeightedTuple((-12, -18), (2, 2))) == ExactRoot(6, 2)


def test_generalized_wgcd_rational_example():
    assert generalized_wgcd((Fraction(4, 7), Fraction(8, 5)), (2, 3)) == 2


def test_generalized_reduces_to_integer_versions():
    coords = (1440, 700)
    assert generalized_wgcd(coords, (3, 2)) == wgcd(WeightedTuple(coords, (3, 2)))
    big = (2**15 * 5**12, 2**26 * 5**13)
    assert generalized_awgcd(big, (6, 8)) == awgcd(WeightedTuple(big, (6, 8)))


def test_generalized_wgcd_denominator_only():
    assert generalized_wgcd((Fraction(1, 9),), (2,)) == 1


def test_generalized_awgcd_examples():
    assert generalized_awgcd((Fraction(1, 3), Fraction(1, 5)), (2, 2)) == 1
    assert generalized_awgcd((Fraction(9, 2), Fraction(81, 5)), (2, 4)) == 3


def test_generalized_rejects_all_zero():
    with pytest.raises(ValueError):
        generalized_wgcd((0, 0), (2, 3))


def _random_tuple(rng: random.Random, max_len=4, prime_pool=(2, 3, 5, 7, 11, 13), max_exp=12):
    length = rng.randint(1, max_len)
    weights = [rng.randint(1, 8) for _ in range(length)]
    coords = []
    for _ in range(length):
        if length > 1 and rng.random() < 0.12:
            coords.append(0)
            continue
        value = 1
        for p in rng.sample(prime_pool, rng.randint(1, 3)):
            value *= p ** rng.randint(0, max_exp)
        coords.append(value if rng.random() < 0.8 else -value)
    if not any(coords):
        coords[0] = rng.choice(prime_pool)
    return WeightedTuple(coords, weights)


def test_routes_agree_and_invariants_hold_seeded():
    rng = random.Random(2024)
    for _ in range(500):
        t = _random_tuple(rng)
        d = wgcd(t)
        assert d == wgcd_factoring(t)
        root = awgcd(t)
        assert root == awgcd_factoring(t)
        live = [(abs(c), q) for c, q in zip(t.coords, t.weights) if c != 0]
        # divisibility and maximality
        assert all(c % d**q == 0 for c, q in live)
        for bump in (2, 3, 5, 7, 11, 13):
            assert not all(c % (bump * d) ** q == 0 for c, q in live)
        # wgcd divides gcd
        assert math.gcd(*(c for c, _ in live)) % d == 0
        # awgcd**weight_gcd is an integer (the index divides weight_gcd and the
        # radicand is integral), and wgcd <= awgcd
        assert t.weights.weight_gcd % root.index == 0 and root.radicand.denominator == 1
        assert ExactRoot(d) <= root
        if t.weights.weight_gcd == 1:
            assert root == d
        # generalized variants coincide on integer tuples
        assert generalized_wgcd(t.coords, t.weights) == d
        assert generalized_awgcd(t.coords, t.weights) == root


def test_against_brute_force_oracle_seeded():
    rng = random.Random(99)
    for _ in range(200):
        length = rng.randint(1, 3)
        weights = [rng.randint(1, 5) for _ in range(length)]
        coords = [rng.randint(1, 4000) * rng.choice((1, -1)) for _ in range(length)]
        t = WeightedTuple(coords, weights)
        assert wgcd(t) == wgcd_brute(coords, weights)
        assert awgcd(t) == awgcd_brute(coords, weights)


def test_generalized_matches_factoring_oracle_on_rational_tuples_seeded():
    # Zeros, signs, and primes that occur only in a denominator: the
    # plus-valuation ignores those, so the numerators decide.
    rng = random.Random(5150)
    primes = (2, 3, 5, 7, 11)
    for _ in range(2000):
        length = rng.randint(1, 4)
        weights = [rng.randint(1, 6) for _ in range(length)]
        coords = []
        for _ in range(length):
            if rng.random() < 0.2:
                coords.append(Fraction(0))
                continue
            numerator = math.prod(p ** rng.randint(0, 7) for p in primes[:3])
            denominator = math.prod(p ** rng.randint(0, 3) for p in rng.sample(primes, 2))
            coords.append(Fraction(rng.choice((1, -1)) * numerator, denominator))
        if not any(coords):
            coords[0] = Fraction(64, 11)
        assert generalized_wgcd(coords, weights) == generalized_wgcd_factoring(coords, weights)
        assert generalized_awgcd(coords, weights) == generalized_awgcd_factoring(coords, weights)
