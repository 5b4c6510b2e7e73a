"""Acceptance suite: every shipped guarantee, one printed verdict per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
All randomness is seeded; all comparisons are exact unless a tolerance is
stated inline.
"""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

from oracles import awgcd_factoring, bounded_classes_brute, wgcd_factoring
from wpheights import (
    ExactRoot,
    WeightedPoint,
    WeightedTuple,
    awgcd,
    bounded_points,
    canonical_rep,
    clear_denominators,
    counting_function,
    is_well_formed,
    kronecker_check,
    log_weighted_height,
    naive_size,
    normalize,
    phi,
    replay_well_forming,
    scale,
    weighted_height,
    weighted_height_direct,
    weil_height,
    well_form,
    wgcd,
)
from wpheights.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
PRIMES_TO_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PRIMES_TO_20 = (2, 3, 5, 7, 11, 13, 17, 19)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {description}")


def test_criterion_1_golden_values_exact():
    failures = []

    if wgcd(WeightedTuple((1440, 700), (3, 2))) != 2:
        failures.append("wgcd (1440,700)")

    big = WeightedTuple((2**15 * 5**12, 2**26 * 5**13), (6, 8))
    if wgcd(big) != 20:
        failures.append("wgcd weights (6,8)")
    if awgcd(big) != ExactRoot(4000, 2):
        failures.append("awgcd weights (6,8)")

    sextic = WeightedTuple((3 * 5**2, 3**2 * 5**4, 3**3 * 5**6, 3**5 * 5**10), (2, 4, 6, 10))
    if wgcd(sextic) != 5:
        failures.append("wgcd weights (2,4,6,10)")
    if awgcd(sextic) != ExactRoot(75, 2):
        failures.append("awgcd weights (2,4,6,10)")

    coords = (2**3 * 3**2 * 7**3, 2**5 * 3**7 * 7, 2**7 * 3**7 * 7**3, 2**11 * 3**13 * 7**5)
    point = WeightedTuple(coords, (2, 4, 6, 10))
    if wgcd(point) != 6 or awgcd(point) != 6:
        failures.append("wgcd/awgcd of the 2-3-7 point")
    reduced = normalize(WeightedPoint(coords, (2, 4, 6, 10)))
    expected = (2 * 7**3, 2 * 3**3 * 7, 2 * 3 * 7**3, 2 * 3**3 * 7**5)
    if tuple(int(c) for c in reduced.coords) != expected:
        failures.append("normalized 2-3-7 tuple")

    if weighted_height(WeightedPoint((15, 175), (2, 4))) != ExactRoot(3, 2):
        failures.append("height (15,175)")

    _report(1, "golden values, exact equality", not failures)
    assert not failures, failures


def test_criterion_2_height_of_7_0_0_is_one_not_the_quoted_sqrt7():
    # Documented deviation: the worked example value sqrt(7) for this point
    # is its naive size, not its height; the height definition gives 1 by
    # both independent routes (the 7-adic place cancels the archimedean max).
    point = WeightedPoint((7, 0, 0), (2, 3, 5))
    ok = (
        weighted_height(point) == 1
        and weighted_height_direct(point) == 1
        and naive_size(point) == ExactRoot(7, 2)
    )
    _report(2, "height([7:0:0]) = 1 by both routes; sqrt(7) is the naive size", ok)
    assert ok


def _random_weighted_tuple(rng: random.Random) -> WeightedTuple:
    length = rng.randint(1, 5)
    weights = [rng.randint(1, 10) for _ in range(length)]
    coords = []
    for _ in range(length):
        if length > 1 and rng.random() < 0.1:
            coords.append(0)
            continue
        value = 1
        for p in rng.sample(PRIMES_TO_50, rng.randint(1, 4)):
            value *= p ** rng.randint(0, 30)
        coords.append(value if rng.random() < 0.8 else -value)
    if not any(coords):
        coords[0] = 7
    return WeightedTuple(coords, weights)


def test_criterion_3_oracle_equivalence_on_10000_tuples():
    rng = random.Random(50301)
    failures = 0
    for _ in range(10_000):
        t = _random_weighted_tuple(rng)
        live = [(abs(c), q) for c, q in zip(t.coords, t.weights) if c != 0]
        d = wgcd(t)
        root = awgcd(t)
        g = t.weights.weight_gcd
        ok = (
            d == wgcd_factoring(t)
            and root == awgcd_factoring(t)
            and all(c % d**q == 0 for c, q in live)
            and all(
                not all(c % (bump * d) ** q == 0 for c, q in live)
                for bump in PRIMES_TO_50
            )
            and math.gcd(*(c for c, _ in live)) % d == 0
            # root**g is an integer: the index divides g and the radicand is integral.
            and g % root.index == 0
            and root.radicand.denominator == 1
            and ExactRoot(d) <= root
        )
        if not ok:
            failures += 1
    _report(3, "10^4 tuples: route equivalence, divisibility, maximality", failures == 0)
    assert failures == 0


def _random_weighted_point(rng: random.Random) -> WeightedPoint:
    length = rng.randint(2, 4)
    weights = [rng.randint(1, 10) for _ in range(length)]
    coords = []
    for _ in range(length):
        if rng.random() < 0.1:
            coords.append(0)
            continue
        value = math.prod(p ** rng.randint(0, 4) for p in rng.sample(PRIMES_TO_20, 2))
        coords.append(value if rng.random() < 0.8 else -value)
    if not any(coords):
        coords[0] = 6
    return WeightedPoint(coords, weights)


def test_criterion_4_height_properties_on_1000_points():
    rng = random.Random(50401)
    failures = 0
    for index in range(1_000):
        p = _random_weighted_point(rng)
        q = p.weights.weight_product
        h = weighted_height(p)
        size = naive_size(p)
        reduced = normalize(clear_denominators(p))
        powered_gcd = math.gcd(
            *(abs(c.numerator) ** (q // w) for c, w in zip(reduced.coords, reduced.weights))
        )
        ok = (
            h == weighted_height_direct(p)
            and h >= 1
            and q % h.index == 0
            and h.radicand ** (q // h.index) == weil_height(phi(p))
            and h <= size
            and (h == size) == (powered_gcd == 1)
            and size == ExactRoot(h.radicand ** (q // h.index) * powered_gcd, q)
            and math.isclose(
                q * log_weighted_height(p),
                math.log(weil_height(phi(p))),
                rel_tol=1e-12,
                abs_tol=1e-12,
            )
        )
        if not ok:
            failures += 1
            continue
        for turn in range(200):
            lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 12))
            scaled = scale(p, lam)
            if weighted_height_direct(scaled) != h:
                failures += 1
                break
            if turn < 2 and weighted_height(scaled) != h:
                failures += 1
                break
    _report(4, "10^3 points: route equality, 200-fold scaling invariance, bounds", failures == 0)
    assert failures == 0


# (weights, bound, covering box, stability sweep box); the boxes are frozen
# from offline runs and rechecked here: equality inside the box, no new
# classes up to the sweep, and every enumerated representative in the box.
NORTHCOTT_CASES = [
    ((1, 1), ExactRoot(2), 2, 8),
    ((2, 3), ExactRoot(2, 6), 4, 12),
    ((1, 2), ExactRoot(3, 2), 6, 16),
    ((2, 4), ExactRoot(6, 8), 2, 8),
    ((3, 4), ExactRoot(4, 12), 108, 116),
    ((2, 3), ExactRoot(8, 6), 294, 302),
]


def test_criterion_5_bounded_enumeration_matches_box_oracle():
    failures = []
    if counting_function((1, 1), 2) != 8:
        failures.append("count (1,1) B=2")
    if counting_function((2, 3), ExactRoot(2, 6)) != 8:
        failures.append("count (2,3) B=2^(1/6)")
    for weights, bound, box, sweep in NORTHCOTT_CASES:
        enum = {p.coords for p, _ in bounded_points(weights, bound)}
        inside = all(abs(c) <= box for coords in enum for c in coords)
        if not inside:
            failures.append(f"{weights}: representative escapes box {box}")
            continue
        if enum != bounded_classes_brute(weights, bound, box):
            failures.append(f"{weights}: box oracle mismatch at {box}")
        if enum != bounded_classes_brute(weights, bound, sweep):
            failures.append(f"{weights}: new classes appear by sweep {sweep}")
    _report(5, "six (w,B) cases equal the brute-force box oracle", not failures)
    assert not failures, failures


def test_criterion_6_kronecker_height_one():
    failures = []
    for weights in [(1, 1), (2, 3), (2, 4), (1, 2, 3)]:
        for point, _ in bounded_points(weights, 1):
            if not kronecker_check(point).height_is_one:
                failures.append(f"B=1 point {point} of {weights} fails the height-one check")

    rng = random.Random(50601)
    for _ in range(300):
        length = rng.randint(2, 4)
        weights = [rng.randint(1, 5) for _ in range(length)]
        xi = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        coords = [
            rng.choice((0, 1, -1)) * xi**q if i else xi ** weights[0]
            for i, q in enumerate(weights)
        ]
        point = WeightedPoint(coords, weights)
        result = kronecker_check(point)
        if not (result.ratio_condition and result.height_is_one):
            failures.append(f"ratio-condition point {point} of {weights} has height != 1")
    _report(6, "height-one points and root-of-unity ratio condition", not failures)
    assert not failures, failures


def test_criterion_7_well_forming_exhaustive_to_12():
    failures = 0
    for length in range(1, 6):
        for ws in itertools.product(range(1, 13), repeat=length):
            result = well_form(ws)
            if not is_well_formed(result.new_weights):
                failures += 1
            elif replay_well_forming(ws, result.steps) != result.new_weights:
                failures += 1
    named = well_form((2, 4, 6, 10)).new_weights.weights == (1, 2, 3, 5)
    _report(7, "well_form exhaustive over entries <= 12, n <= 4", failures == 0 and named)
    assert failures == 0 and named


CLI_GOLDEN = [
    (("wgcd", "-w", "3,2", "1440,700"), "wgcd_text.txt"),
    (("wgcd", "-w", "3,2", "--records", "1440,700"), "wgcd_records.txt"),
    (("height", "-w", "2,4", "15,175"), "height_text.txt"),
    (("height", "-w", "2,4", "--records", "15,175"), "height_records.txt"),
    (("count", "-w", "1,1", "-B", "2"), "count_text.txt"),
    (("count", "-w", "1,1", "-B", "2", "--records"), "count_records.txt"),
]


def test_criterion_8_cli_golden_files(capsys):
    failures = []
    for argv, golden in CLI_GOLDEN:
        status = cli_main(list(argv))
        captured = capsys.readouterr()
        expected = (GOLDEN / golden).read_text()
        if status != 0 or captured.out != expected or captured.err != "":
            failures.append(golden)
    with capsys.disabled():
        _report(8, "CLI text and records outputs byte-match the recordings", not failures)
    assert not failures, failures
