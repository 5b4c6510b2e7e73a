import itertools
import random
import sys
from fractions import Fraction

import pytest

import wpheights.factorization
from oracles import (
    absolutely_normalize_fraction,
    awgcd_factoring,
    canonical_rep_fraction,
    clear_denominators_valuation,
    equivalent_factoring,
    naive_size_fraction,
    normalize_fraction,
    wgcd_factoring,
)
from wpheights import (
    ExactRoot,
    FactorConfig,
    WeightSystem,
    WeightedPoint,
    WeightedTuple,
    WellFormingResult,
    WellFormingStep,
    absolutely_normalize,
    apply_well_forming,
    awgcd,
    canonical_rep,
    clear_denominators,
    equivalent,
    factor_config,
    is_well_formed,
    naive_size,
    normalize,
    replay_well_forming,
    scale,
    well_form,
    wgcd,
)


def test_point_validation():
    with pytest.raises(ValueError):
        WeightedPoint((0, 0), (2, 3))
    with pytest.raises(ValueError):
        WeightedPoint((1,), (2, 3))


def test_scale_examples():
    p = WeightedPoint((1, 1), (2, 3))
    assert scale(p, 2).coords == (Fraction(4), Fraction(8))
    q = WeightedPoint((3, 5), (1, 1))
    assert scale(q, Fraction(1, 3)).coords == (Fraction(1), Fraction(5, 3))
    r = WeightedPoint((2, 4, 6, 10), (2, 4, 6, 10))
    assert scale(r, 1).coords == r.coords
    with pytest.raises(ValueError):
        scale(p, 0)


def test_normalize_2_3_7_point():
    p = WeightedPoint(
        (2**3 * 3**2 * 7**3, 2**5 * 3**7 * 7, 2**7 * 3**7 * 7**3, 2**11 * 3**13 * 7**5),
        (2, 4, 6, 10),
    )
    reduced = normalize(p)
    assert reduced.coords == (
        Fraction(2 * 7**3),
        Fraction(2 * 3**3 * 7),
        Fraction(2 * 3 * 7**3),
        Fraction(2 * 3**3 * 7**5),
    )
    assert normalize(reduced) == reduced
    assert absolutely_normalize(p) == reduced  # awgcd = wgcd = 6 here


def test_normalize_1440_700():
    p = WeightedPoint((1440, 700), (3, 2))
    assert normalize(p).coords == (Fraction(180), Fraction(175))


def test_normalize_rejects_rationals():
    with pytest.raises(ValueError):
        normalize(WeightedPoint((Fraction(1, 2), 1), (2, 3)))


def test_normalize_leaves_wgcd_one():
    p = WeightedPoint((1440, 700), (3, 2))
    assert wgcd(normalize(p).as_weighted_tuple()) == 1


def test_absolutely_normalize_weights_6_8():
    p = WeightedPoint((2**15 * 5**12, 2**26 * 5**13), (6, 8))
    reduced = absolutely_normalize(p)
    assert reduced.coords == (Fraction(125), Fraction(320))
    assert awgcd(reduced.as_weighted_tuple()) == 1
    assert absolutely_normalize(reduced) == reduced


def test_clear_denominators_minimal():
    p = WeightedPoint((Fraction(1, 2), Fraction(1, 8)), (2, 3))
    cleared = clear_denominators(p)
    assert cleared.coords == (Fraction(2), Fraction(1))


def test_equivalent_witness_examples():
    p = WeightedPoint((1, 1), (2, 3))
    assert equivalent(p, WeightedPoint((4, 8), (2, 3))) == 2
    assert equivalent(p, WeightedPoint((4, -8), (2, 3))) == -2
    assert equivalent(p, WeightedPoint((4, 9), (2, 3))) is None


def test_equivalent_zero_patterns_must_match():
    p = WeightedPoint((1, 0), (2, 3))
    assert equivalent(p, WeightedPoint((1, 1), (2, 3))) is None
    assert equivalent(p, WeightedPoint((4, 0), (2, 3))) == 2


def test_equivalent_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        equivalent(WeightedPoint((1, 1), (2, 3)), WeightedPoint((1, 1), (2, 5)))


def test_equivalent_round_trip_seeded():
    rng = random.Random(5)
    for _ in range(200):
        length = rng.randint(2, 4)
        weights = [rng.randint(1, 6) for _ in range(length)]
        coords = [rng.randint(-30, 30) for _ in range(length)]
        if not any(coords):
            coords[0] = 1
        p = WeightedPoint(coords, weights)
        lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        scaled = scale(p, lam)
        witness = equivalent(p, scaled)
        assert witness is not None
        assert scale(p, witness).coords == scaled.coords


def test_equivalent_matches_factoring_oracle_seeded():
    # Half the targets are scalings of p; the rest perturb one coordinate of
    # a scaling, or flip its sign, so most of those have no witness.
    rng = random.Random(2024)
    found = 0
    for _ in range(2500):
        length = rng.randint(1, 4)
        weights = [rng.randint(1, 8) for _ in range(length)]
        coords = [0 if rng.random() < 0.15 else rng.randint(-60, 60) for _ in range(length)]
        if not any(coords):
            coords[0] = rng.choice((1, -1)) * rng.randint(1, 60)
        p = WeightedPoint(coords, weights)
        lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 12))
        target = list(scale(p, lam).coords)
        if rng.random() < 0.5:
            i = rng.randrange(length)
            if target[i] != 0 and rng.random() < 0.3:
                target[i] = -target[i]
            else:
                target[i] = target[i] * rng.choice((2, 3, 4, 8, 9, Fraction(1, 4))) or 1
        r = WeightedPoint(target, weights)
        witness = equivalent(p, r)
        assert witness == equivalent_factoring(p, r)
        if witness is not None:
            found += 1
            assert scale(p, witness).coords == r.coords
    assert 1000 < found < 2400


def test_equivalent_needs_no_factoring():
    # 10403 = 101 * 103 resists this effort, and equivalent must not care.
    starved = FactorConfig(trial_bound=10, rho_iterations=2, rho_attempts=0)
    with factor_config(starved):
        assert equivalent(WeightedPoint((10403, 1), (1, 1)), WeightedPoint((1, 1), (1, 1))) is None


def _seeded_magnitude(rng: random.Random) -> int:
    n = 1
    for ell in (2, 3, 5, 7, 11, 4093):
        if rng.random() < 0.4:
            n *= ell ** rng.randint(1, 5 if ell < 10 else 2)
    return n


def test_point_operations_match_fraction_route_seeded():
    # Half the points use weights with shared factors, 15% of coordinates are
    # zero, and half the points are scaled by a rational, so denominators,
    # wgcd > 1 and awgcd > 1 are all common.
    rng = random.Random(707)
    shared = [(2, 4, 6), (6, 10, 15), (6, 8)]
    rational = wgcd_above_one = awgcd_above_one = 0
    for i in range(2000):
        if i % 2 == 0:
            weights = rng.choice(shared)
        else:
            weights = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 4)))
        coords = [
            0
            if rng.random() < 0.15
            else Fraction(rng.choice((1, -1)) * _seeded_magnitude(rng), _seeded_magnitude(rng))
            for _ in weights
        ]
        if not any(coords):
            coords[0] = Fraction(6)
        p = WeightedPoint(coords, weights)
        if rng.random() < 0.5:
            p = scale(p, Fraction(_seeded_magnitude(rng), _seeded_magnitude(rng)))
        rational += not p.is_integral
        integral = clear_denominators(p)
        assert integral == clear_denominators_valuation(p)
        assert normalize(integral) == normalize_fraction(integral)
        assert absolutely_normalize(integral) == absolutely_normalize_fraction(integral)
        assert canonical_rep(p) == canonical_rep_fraction(p)
        assert naive_size(p) == naive_size_fraction(p)
        t = integral.as_weighted_tuple()
        d, root = wgcd(t), awgcd(t)
        assert d == wgcd_factoring(t)
        assert root == awgcd_factoring(t)
        wgcd_above_one += d > 1
        awgcd_above_one += root > 1
    assert rational > 1000 and wgcd_above_one > 500 and awgcd_above_one > 1000


def test_unchanged_points_come_back_as_is():
    p = WeightedPoint((180, 175), (3, 2))
    assert clear_denominators(p) is p
    assert normalize(p) is p
    assert absolutely_normalize(p) is p
    rep = canonical_rep(WeightedPoint((1440, 700), (3, 2)))
    assert canonical_rep(rep) is rep


@pytest.fixture
def factorize_calls(monkeypatch):
    """The values passed to factorize from any wpheights module, in call order."""
    calls = []
    original = wpheights.factorization.factorize

    def counting(value, config=None):
        calls.append(value)
        return original(value, config)

    for name, module in list(sys.modules.items()):
        if name.startswith("wpheights.") and getattr(module, "factorize", None) is original:
            monkeypatch.setattr(module, "factorize", counting)
    return calls


def test_awgcd_and_canonical_rep_factor_only_gcd(factorize_calls):
    # awgcd = (2**4 * 3**3 * 1000003**2)**(1/2): the root is built from the
    # exponents found in gcd(x), not by factoring its radicand again.
    big = 1000003
    t = WeightedTuple((2**6 * 3**4 * big**2, 2**8 * 3**6 * big**4), (2, 4))
    root = awgcd(t)
    assert len(factorize_calls) == 1
    assert (root.radicand, root.index) == (2**4 * 3**3 * big**2, 2)
    factorize_calls.clear()
    assert canonical_rep(WeightedPoint(t.coords, t.weights)).coords == (12, 1)
    assert len(factorize_calls) == 1


def test_canonical_rep_factors_a_denominator_prime_once(factorize_calls):
    # One pass over the denominators and the gcd of the numerators (here 1):
    # the 2 cleared from 1/2 is not factored again as part of gcd(x).
    assert canonical_rep(WeightedPoint((Fraction(1, 2), 1), (2, 2))).coords == (1, 2)
    assert factorize_calls == [2]


def test_clear_denominators_factors_only_denominators(factorize_calls):
    big = 10**30 + 57  # prime; gcd of the numerators, never factored here
    cleared = clear_denominators(WeightedPoint((Fraction(big, 2), 3 * big), (2, 3)))
    assert cleared.coords == (2 * big, 24 * big)
    assert factorize_calls == [2]


def test_canonical_rep_sign_classes_all_even_powering():
    x = (2 * 7**3, 2 * 3**3 * 7, 2 * 3 * 7**3, 2 * 3**3 * 7**5)
    flipped = (-x[0], x[1], -x[2], -x[3])
    w = (2, 4, 6, 10)
    assert canonical_rep(WeightedPoint(x, w)) == canonical_rep(WeightedPoint(flipped, w))


def test_canonical_rep_identifies_zero_padded_sign_classes():
    w = (1, 2, 3, 5)
    a = canonical_rep(WeightedPoint((0, 1, 0, 0), w))
    b = canonical_rep(WeightedPoint((0, -1, 0, 0), w))
    assert a == b
    assert a.coords == (0, 1, 0, 0)


def test_canonical_rep_clears_denominators():
    p = WeightedPoint((Fraction(1, 2), Fraction(1, 8)), (2, 3))
    assert canonical_rep(p).coords == (Fraction(2), Fraction(1))


def test_canonical_rep_keeps_pinned_signs_distinct():
    # phi((-1, 1)) = [-1:1] and phi((1, 1)) = [1:1] differ, so the
    # representatives must stay apart.
    w = (2, 3)
    assert canonical_rep(WeightedPoint((-1, 1), w)).coords == (Fraction(-1), Fraction(1))
    assert canonical_rep(WeightedPoint((1, -1), w)).coords == (Fraction(1), Fraction(1))


def test_canonical_rep_reduces_zero_padded_magnitudes():
    # (0, 5) and (0, 1) share the powered image [0:1] for weights (2, 4).
    w = (2, 4)
    assert canonical_rep(WeightedPoint((0, 5), w)) == canonical_rep(WeightedPoint((0, 1), w))


def test_canonical_rep_scaling_invariance_seeded():
    rng = random.Random(31)
    for _ in range(150):
        length = rng.randint(2, 3)
        weights = [rng.randint(1, 6) for _ in range(length)]
        coords = [rng.randint(-20, 20) for _ in range(length)]
        if not any(coords):
            coords[-1] = 3
        p = WeightedPoint(coords, weights)
        rep = canonical_rep(p)
        assert canonical_rep(rep) == rep
        for _ in range(8):
            lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 8), rng.randint(1, 8))
            assert canonical_rep(scale(p, lam)) == rep


def test_well_formed_weights_give_unique_normalization():
    # With gcd-one weights and no zero coordinates the canonical
    # representative has exactly the magnitudes of the (unique up to sign)
    # normalized form, and shares its powered image.
    from wpheights import phi

    rng = random.Random(8)
    for _ in range(100):
        weights = rng.choice([(1, 2, 3), (1, 1, 2), (1, 2, 2, 3), (1, 1)])
        assert is_well_formed(weights)
        coords = [rng.choice((1, -1)) * rng.randint(1, 40) for _ in weights]
        p = WeightedPoint(coords, weights)
        rep = canonical_rep(p)
        reduced = normalize(p)
        assert tuple(abs(c) for c in rep.coords) == tuple(abs(c) for c in reduced.coords)
        assert phi(rep) == phi(reduced)
        assert canonical_rep(scale(p, -1)) == rep


def test_naive_size_examples():
    assert naive_size(WeightedPoint((7, 0, 0), (2, 3, 5))) == ExactRoot(7, 2)
    assert naive_size(WeightedPoint((15, 175), (2, 4))) == ExactRoot(15, 2)
    assert naive_size(WeightedPoint((3, -5, 2), (1, 1, 1))) == 5


def test_naive_size_uses_normalized_representative():
    # (1440, 700) normalizes to (180, 175); 180**(1/3) > 175**(1/2) is false,
    # so the size is sqrt(175).
    assert naive_size(WeightedPoint((1440, 700), (3, 2))) == ExactRoot(175, 2)


def test_naive_size_builds_only_the_largest_root(factorize_calls):
    # 10**(1/2) beats 7**(1/3), found by comparing 10**3 with 7**2: only the
    # winning radicand is factored, to put its root in canonical form.
    root = naive_size(WeightedPoint((10, 7), (2, 3)))
    assert factorize_calls == [10]
    assert (root.radicand, root.index) == (10, 2)


def test_is_well_formed_examples():
    assert is_well_formed((1, 2, 3, 5))
    assert not is_well_formed((2, 4, 6, 10))
    assert is_well_formed((2, 3, 5))
    assert is_well_formed((1,))
    assert not is_well_formed((2,))
    assert not is_well_formed((2, 3))  # dropping 2 leaves gcd 3


def test_well_form_examples():
    result = well_form((2, 4, 6, 10))
    assert result.new_weights == WeightSystem((1, 2, 3, 5))
    assert [(s.divisor, s.pivot) for s in result.steps] == [(2, None)]

    result = well_form((1, 2, 2))
    assert result.new_weights == WeightSystem((1, 1, 1))
    assert [(s.divisor, s.pivot) for s in result.steps] == [(2, 0)]

    result = well_form((2, 3, 5))
    assert result.new_weights == WeightSystem((2, 3, 5))
    assert result.steps == ()


def test_well_form_exhaustive_small():
    for length in (1, 2, 3):
        for ws in itertools.product(range(1, 7), repeat=length):
            result = well_form(ws)
            assert is_well_formed(result.new_weights)
            assert replay_well_forming(ws, result.steps) == result.new_weights


def test_apply_well_forming_transforms_pivot_coordinates():
    result = well_form((1, 2, 2))
    p = WeightedPoint((3, 4, 5), (1, 2, 2))
    moved = apply_well_forming(p, result)
    assert moved.weights == WeightSystem((1, 1, 1))
    assert moved.coords == (Fraction(9), Fraction(4), Fraction(5))

    global_only = well_form((2, 4, 6, 10))
    q = WeightedPoint((1, 2, 3, 4), (2, 4, 6, 10))
    assert apply_well_forming(q, global_only).coords == q.coords


def test_apply_well_forming_rejects_steps_that_do_not_divide_the_weights():
    steps = (WellFormingStep(2, None),)
    bogus = WellFormingResult(WeightSystem((1, 2)), steps)
    p = WeightedPoint((5, 7), (3, 4))
    with pytest.raises(ValueError):
        replay_well_forming(p.weights, steps)
    with pytest.raises(ValueError):
        apply_well_forming(p, bogus)


@pytest.mark.parametrize(
    "step",
    [WellFormingStep(2, -1), WellFormingStep(2, 2), WellFormingStep(2, 5), WellFormingStep(0, None),
     WellFormingStep(0, 1), WellFormingStep(-2, None)],
)
def test_well_forming_steps_outside_the_weights_are_rejected(step):
    # Replay once read a pivot outside 0..n-1 as the all-weights step, while
    # apply powered coordinates[pivot]: (2,4) with pivot -1 replayed to (1,2)
    # and applied to [3:25].
    p = WeightedPoint((3, 5), (2, 4))
    with pytest.raises(ValueError):
        replay_well_forming(p.weights, (step,))
    for new_weights in ((1, 2), (2, 4), (1, 1)):
        with pytest.raises(ValueError):
            apply_well_forming(p, WellFormingResult(WeightSystem(new_weights), (step,)))
