import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpheights import ExactRoot


def test_canonicalization_examples():
    assert ExactRoot(8, 6) == ExactRoot(2, 2)
    root = ExactRoot(4000, 2)
    assert (root.radicand, root.index) == (Fraction(4000), 2)
    assert ExactRoot(1, 5) == ExactRoot(1, 1)
    assert ExactRoot(Fraction(1, 4), 4) == ExactRoot(Fraction(1, 2), 2)


def test_construction_canonicalizes_directly():
    root = ExactRoot(Fraction(64), 4)
    assert (root.radicand, root.index) == (Fraction(8), 2)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        ExactRoot(0, 2)
    with pytest.raises(ValueError):
        ExactRoot(-4, 2)
    with pytest.raises(ValueError):
        ExactRoot(4, 0)


@given(
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_canonical_uniqueness(m, k, j, d):
    r = Fraction(m, d)
    assert ExactRoot(r**k, k * j) == ExactRoot(r, j)


def test_from_exponents_matches_the_factoring_constructor():
    # Signed exponents (zero included) over an index: the builder that takes
    # them as given and the constructor that factors their product agree.
    rng = random.Random(19)
    for _ in range(2000):
        primes = rng.sample([2, 3, 5, 7, 11, 13, 1009, 65537], rng.randint(0, 4))
        exponents = {p: rng.randint(-12, 12) for p in primes}
        index = rng.randint(1, 24)
        value = math.prod((Fraction(p) ** e for p, e in exponents.items()), start=Fraction(1))
        assert ExactRoot._from_exponents(exponents, index) == ExactRoot(value, index)


def test_compare_examples():
    assert ExactRoot(3, 2) < ExactRoot(2, 1)
    assert not ExactRoot(75, 2) < ExactRoot(75, 2) and not ExactRoot(75, 2) > ExactRoot(75, 2)
    # 15**2 = 225 > 175, so sqrt(15) > 175**(1/4)
    assert ExactRoot(15, 2) > ExactRoot(175, 4)


def test_rich_comparisons_and_mixed_operands():
    assert ExactRoot(3, 2) < 2
    assert ExactRoot(3, 2) > Fraction(3, 2)
    assert ExactRoot(9, 2) == 3
    assert ExactRoot(4000, 2) >= ExactRoot(4000, 2)


def test_comparisons_with_nonpositive_rationals():
    # A positive real never equals a rational <= 0 and always exceeds it.
    assert not ExactRoot(1) == 0 and ExactRoot(1) != 0
    assert ExactRoot(2) > 0 and ExactRoot(2) >= 0
    assert not ExactRoot(2, 2) == -1
    assert not ExactRoot(2) < Fraction(-1, 2) and not ExactRoot(2) <= Fraction(-1, 2)
    with pytest.raises(ValueError):
        ExactRoot(3, 2) * 0


def test_hash_agrees_with_equal_rationals():
    assert hash(ExactRoot(2)) == hash(2)
    assert hash(ExactRoot(9, 2)) == hash(3)
    assert hash(ExactRoot(Fraction(1, 4), 2)) == hash(Fraction(1, 2))
    assert len({ExactRoot(2), 2}) == 1
    assert {2: "x"}.get(ExactRoot(2)) == "x"
    assert len({ExactRoot(2, 2), ExactRoot(4, 4), ExactRoot(2)}) == 2


def test_compare_agrees_with_floats_seeded():
    rng = random.Random(77)
    for _ in range(10_000):
        a = ExactRoot(Fraction(rng.randrange(1, 10**6), rng.randrange(1, 100)), rng.randrange(1, 12))
        b = ExactRoot(Fraction(rng.randrange(1, 10**6), rng.randrange(1, 100)), rng.randrange(1, 12))
        gap = a.log() - b.log()
        if abs(gap) > 1e-9:
            assert (a > b, a < b) == ((True, False) if gap > 0 else (False, True))
        elif gap == 0.0 and a == b:
            assert a <= b and a >= b and not a < b and not a > b


def test_mul_and_pow_examples():
    assert ExactRoot(2, 2) * ExactRoot(2, 2) == 2


def test_mul_cross_indexes():
    assert ExactRoot(2, 2) * ExactRoot(2, 3) == ExactRoot(2**5, 6)
    assert ExactRoot(8, 2) * ExactRoot(Fraction(1, 2), 2) == 2


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_mul_matches_logs(m1, k1, m2, k2):
    a, b = ExactRoot(Fraction(m1), k1), ExactRoot(Fraction(m2), k2)
    assert math.isclose((a * b).log(), a.log() + b.log(), rel_tol=1e-12, abs_tol=1e-12)


def test_log_value():
    assert ExactRoot(1).log() == 0.0
    assert math.isclose(ExactRoot(4000, 2).log(), math.log(4000) / 2, rel_tol=1e-15)
    assert math.isclose(ExactRoot(2).log(), math.log(2), rel_tol=1e-15)
    assert math.isclose(ExactRoot(Fraction(1, 3)).log(), -math.log(3), rel_tol=1e-15)


def test_log_handles_huge_radicands():
    value = ExactRoot(Fraction(2) ** 5001, 2)
    assert math.isclose(value.log(), 5001 * math.log(2) / 2, rel_tol=1e-13)


def test_rendering():
    assert str(ExactRoot(3, 2)) == "root(3,2)"
    assert str(ExactRoot(1, 7)) == "1"
    assert str(ExactRoot(6, 1)) == "6"
    assert str(ExactRoot(Fraction(7, 2), 3)) == "root(7/2,3)"
