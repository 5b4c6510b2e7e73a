"""Hard inputs for the answers that need no factoring.

kronecker_check, phi and equivalent decide height one, compute the powered
image and find a scaling witness without factoring anything; naive_size
factors only its largest term's radicand, and nothing when that term's
weight is 1.  Here every
wpheights module has factorize and _factor_positive replaced by a function
that fails the test, and the inputs are built on seeded 31-digit primes: the
primes themselves, products of two of them, and the squares of both, under
weights up to (7,8,9,10).  Factoring such values would exhaust the default
effort and raise IncompleteFactorizationError after tens of seconds.

Time budget: every call must return within BUDGET_S seconds.  On a 2-vCPU
x86-64 machine with Python 3.11 the slowest calls here, phi under weights
(7,8,9,10), take up to about 0.2 s (the gcd of the powered coordinates);
kronecker_check, which cross-raises instead of calling phi, and equivalent
take under 1 ms, also on the points scaled by lam.
"""

import importlib
import pkgutil
import random
import time
from fractions import Fraction

import pytest

import wpheights
from wpheights import (
    WeightedPoint,
    equivalent,
    is_prime,
    kronecker_check,
    naive_size,
    phi,
    scale,
    weighted_height,
)
from wpheights.cli import main

BUDGET_S = 2.0
WEIGHTS = [(2, 3), (1, 2, 3), (5, 7), (2, 4, 6), (7, 8, 9, 10)]


def _primes_31(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    found: list[int] = []
    while len(found) < count:
        n = rng.randrange(10**30, 10**31) | 1
        if is_prime(n) and n not in found:
            found.append(n)
    return found


PRIMES = _primes_31(48, 13)


def _hard_points(weights: tuple[int, ...], seed: int) -> list[tuple[WeightedPoint, Fraction]]:
    """(point, lam) pairs; the coordinates are pairwise coprime, so no point has height one.

    Each coordinate is a signed 31-digit prime, a product of two, or the
    square of either, drawn from primes no other coordinate uses; lam is
    +-c/d, c*d or -c for two other primes c and d.
    """
    rng = random.Random(f"{weights}:{seed}")
    cases = []
    for _ in range(6):
        pool = rng.sample(PRIMES, 2 * len(weights) + 2)
        coords = []
        for i in range(len(weights)):
            a, b = pool[2 * i], pool[2 * i + 1]
            value = rng.choice((a, a * b, a * a, (a * b) ** 2))
            coords.append(rng.choice((1, -1)) * value)
        c, d = pool[-2:]
        lam = rng.choice((Fraction(c, d), Fraction(-c, d), Fraction(c * d), Fraction(-c)))
        cases.append((WeightedPoint(coords, weights), lam))
    return cases


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{call.__name__} took {elapsed:.2f} s"
    return result


@pytest.fixture
def no_factoring(monkeypatch):
    """Replace factorize and _factor_positive in every wpheights module."""

    def refuse(*args, **kwargs):
        raise AssertionError("factoring was called")

    names = [f"wpheights.{info.name}" for info in pkgutil.iter_modules(wpheights.__path__)]
    modules = [wpheights] + [importlib.import_module(name) for name in names]
    for module in modules:
        for attribute in ("factorize", "_factor_positive"):
            if hasattr(module, attribute):
                monkeypatch.setattr(module, attribute, refuse)


def test_the_patch_reaches_the_factoring_routes(no_factoring):
    # weighted_height factors its radicand, so it must hit the patch.
    with pytest.raises(AssertionError, match="factoring was called"):
        weighted_height(WeightedPoint((PRIMES[0], 3), (2, 3)))


@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: ",".join(map(str, w)))
def test_hard_points_factor_nothing(no_factoring, weights):
    for p, lam in _hard_points(weights, 1):
        y = _timed(phi, p).coords
        product = p.weights.weight_product
        powered = [x.numerator ** (product // q) for x, q in zip(p.coords, p.weights)]
        # y is proportional to the powered coordinates, first one positive.
        assert all(a * powered[0] == b * y[0] for a, b in zip(y, powered))
        assert y[0] > 0
        result = _timed(kronecker_check, p)
        assert (result.height_is_one, result.ratio_condition) == (False, False)

        target = scale(p, lam)
        assert _timed(kronecker_check, target) == result
        witness = _timed(equivalent, p, target)
        assert witness is not None and abs(witness) == abs(lam)
        assert scale(p, witness) == target
        assert _timed(equivalent, target, p) == 1 / witness

        perturbed = list(target.coords)
        perturbed[-1] += 1
        assert _timed(equivalent, p, WeightedPoint(perturbed, weights)) is None
        perturbed = list(target.coords)
        perturbed[0] *= PRIMES[-1]
        assert _timed(equivalent, p, WeightedPoint(perturbed, weights)) is None


@pytest.mark.parametrize(
    "lam",
    [PRIMES[0], Fraction(PRIMES[1], PRIMES[2] * PRIMES[3]), PRIMES[4] ** 2],
    ids=["prime", "ratio", "square"],
)
def test_scaled_unit_point_reads_height_one(no_factoring, lam):
    unit = WeightedPoint((1, -1, 0, 1), (7, 8, 9, 10))
    p = scale(unit, lam)
    result = _timed(kronecker_check, p)
    assert (result.height_is_one, result.ratio_condition) == (True, True)
    assert _timed(equivalent, unit, p) == lam
    assert _timed(equivalent, p, unit) == 1 / Fraction(lam)


def test_prime_coordinate_without_factoring(no_factoring, capsys):
    # 10**30 + 57 is prime, so the height's radicand is a 31-digit prime cubed.
    p = WeightedPoint((10**30 + 57, 3), (2, 3))
    result = _timed(kronecker_check, p)
    assert (result.height_is_one, result.ratio_condition) == (False, False)
    assert _timed(main, ["kronecker", "-w", "2,3", f"{10**30 + 57},3"]) == 0
    assert capsys.readouterr().out == "false (ratio condition: false)\n"


def test_naive_size_never_factors_a_losing_term(no_factoring):
    # 2**110 beats (P*Q)**(1/2) for two 16-digit primes, and a weight-1
    # root is rational: the semiprime, beyond the default effort, is skipped.
    semiprime = 1000000000000037 * 1000000000000091
    assert _timed(naive_size, WeightedPoint((2**110, semiprime), (1, 2))) == 2**110
