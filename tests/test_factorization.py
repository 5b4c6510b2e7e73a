import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpheights.factorization
from oracles import factorization_value, plus_valuation, valuation
from wpheights import (
    FactorConfig,
    Factorization,
    IncompleteFactorizationError,
    factorize,
    iroot,
    is_prime,
    nth_root_rational,
    primes_up_to,
)


def test_factorize_1440():
    result = factorize(1440)
    assert result.sign == 1
    assert result.factors == {2: 5, 3: 2, 5: 1}


def test_factorize_one_is_empty_product():
    result = factorize(1)
    assert result.sign == 1
    assert result.factors == {}
    assert factorization_value(result) == 1


def test_factorize_rational():
    result = factorize(Fraction(7, 12))
    assert result.sign == 1
    assert result.factors == {7: 1, 2: -2, 3: -1}


def test_factorize_negative():
    result = factorize(-18)
    assert result.sign == -1
    assert result.factors == {2: 1, 3: 2}
    assert factorization_value(result) == -18


def test_factorize_zero_rejected():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reads_ints_fractions_and_strings_alike():
    for n in range(-3000, 3001):
        if n:
            assert factorize(n) == factorize(Fraction(n)) == factorize(str(n))
    rng = random.Random(2411)
    for _ in range(500):
        value = Fraction(rng.randrange(-(10**9), 10**9) or 1, rng.randrange(1, 10**9))
        assert factorize(value) == factorize(str(value))
    assert factorize(True) == factorize(1) == Factorization(1)
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError):
            factorize(zero)


def test_factorize_large_semiprime():
    n = 1_000_003 * 1_000_033
    assert factorize(n).factors == {1_000_003: 1, 1_000_033: 1}


def test_factorize_huge_smooth_exponents():
    n = 2**4001 * 3**977
    assert factorize(n).factors == {2: 4001, 3: 977}


def test_factorization_type_rejects_bad_input():
    with pytest.raises(ValueError):
        Factorization(1, {4: 1})
    with pytest.raises(ValueError):
        Factorization(1, {3: 0})
    with pytest.raises(ValueError):
        Factorization(2, {})


def test_factorize_does_not_reprove_its_primes(monkeypatch):
    # The pipeline proves each prime it finds; only outside callers of the
    # constructor pay for the check again.
    calls = []
    proven = wpheights.factorization.is_prime
    monkeypatch.setattr(wpheights.factorization, "is_prime", lambda n: calls.append(n) or proven(n))
    assert factorize(2**10 * 3**5) == Factorization(1, {2: 10, 3: 5})
    assert calls == [2, 3]  # both from the constructor on the right


@pytest.mark.parametrize("bound", [-10, -4, -1, 0, 1])
def test_factorize_below_the_smallest_prime_bound_is_still_exact(bound):
    # A bound under 2 sweeps no primes, so no cofactor is prime by the
    # square-of-the-sweep rule; every key must still come out prime.
    config = FactorConfig(trial_bound=bound)
    for n in (4, 8, 9, 25, 49, 80, 97, 1440):
        assert factorize(n, config).factors == factorize(n).factors


def test_incomplete_factorization_is_an_error_not_a_wrong_answer():
    starved = FactorConfig(trial_bound=10, rho_iterations=2, rho_attempts=0)
    with pytest.raises(IncompleteFactorizationError):
        factorize(1_000_003 * 1_000_033, starved)


def test_trial_sweep_finishes_what_rho_leaves():
    # With rho off every composite cofactor is stubborn; the sweep past the
    # fixed 4096 table, up to trial_bound, must still split it.
    no_rho = FactorConfig(rho_attempts=0)
    assert factorize(10007 * 10009, no_rho).factors == {10007: 1, 10009: 1}
    assert factorize(4099 * 10007 * 999983, no_rho).factors == {4099: 1, 10007: 1, 999983: 1}


def test_trial_sweep_ends_at_one_or_names_what_it_leaves():
    # The sweep can take a cofactor down to 1, finish it with a prime rest,
    # or divide out part of it and raise on the composite rest.
    assert factorize(4099**2, FactorConfig(rho_attempts=0)).factors == {4099: 2}
    capped = FactorConfig(trial_bound=10**4, rho_attempts=0)
    assert factorize(4099 * 1_000_003, capped).factors == {4099: 1, 1_000_003: 1}
    with pytest.raises(IncompleteFactorizationError, match=r"cofactor 1000036000099 exceeded"):
        factorize(4099 * 1_000_003 * 1_000_033, capped)


@pytest.mark.parametrize(
    "n, rho_runs",
    [
        ((2**31 - 1) ** 6, 1),
        (1_000_003**12, 1),
        (12 * 999_999_937**6, 1),
        (999_983**3 * 1_000_003**2, 2),
    ],
    ids=["(2**31-1)**6", "1000003**12", "12*999999937**6", "999983**3*1000003**2"],
)
def test_rho_runs_once_per_large_prime(monkeypatch, n, rho_runs):
    # A prime that rho finds is divided out completely, so a power of a prime
    # above the trial table is not split by rho once per factor of its power.
    calls = []
    rho = wpheights.factorization._pollard_rho
    monkeypatch.setattr(
        wpheights.factorization, "_pollard_rho", lambda m, config: calls.append(m) or rho(m, config)
    )
    result = factorize(n)
    assert factorization_value(result) == n
    assert len(calls) == rho_runs


def _prime_power_corpus(size: int = 300, seed: int = 20261020) -> list[dict[int, int]]:
    """Seeded factorizations: 1-3 powers of 5-9 digit primes, times a smooth part."""
    rng = random.Random(seed)
    small = primes_up_to(71)
    corpus = []
    for _ in range(size):
        factors: dict[int, int] = {}
        for _ in range(rng.randint(1, 3)):
            digits = rng.randint(5, 9)
            p = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            while not is_prime(p):
                p += 2
            factors[p] = factors.get(p, 0) + rng.randint(1, 6)
        for p in rng.sample(small, rng.randint(0, 3)):
            factors[p] = rng.randint(1, 4)
        corpus.append(factors)
    return corpus


def test_factorize_prime_power_corpus():
    for expected in _prime_power_corpus():
        n = math.prod(p**e for p, e in expected.items())
        result = factorize(n)
        assert factorization_value(result) == n
        assert all(is_prime(p) for p in result.factors)
        assert result.factors == expected


def test_prime_power_corpus_against_sympy():
    # An independent check that the corpus's primes are prime, and so that
    # the expected factorizations above are the true ones.
    sympy = pytest.importorskip("sympy")
    for expected in _prime_power_corpus():
        assert sympy.factorint(math.prod(p**e for p, e in expected.items())) == expected


def test_factorize_deterministic_across_calls():
    n = 10**15 + 37
    assert factorize(n) == factorize(n)


@given(
    st.integers(min_value=-(10**12), max_value=10**12).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=200, deadline=None)
def test_factorize_round_trip(numerator, denominator):
    value = Fraction(numerator, denominator)
    assert factorization_value(factorize(value)) == value


def test_factorize_round_trip_bulk_seeded():
    rng = random.Random(1201)
    for _ in range(10_000):
        value = Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**12))
        if rng.random() < 0.5:
            value = -value
        assert factorization_value(factorize(value)) == value


def test_valuation_examples():
    assert valuation(700, 5) == 2
    assert valuation(Fraction(7, 12), 2) == -2
    assert valuation(7, 5) == 0


def test_valuation_rejects_zero_and_composites():
    with pytest.raises(ValueError):
        valuation(0, 5)
    with pytest.raises(ValueError):
        valuation(10, 6)


def test_plus_valuation_examples():
    assert plus_valuation(Fraction(1, 7), 7) == 0
    assert plus_valuation(49, 7) == 2
    assert plus_valuation(Fraction(3, 2), 3) == 1


@given(
    st.fractions(min_value=Fraction(-999), max_value=Fraction(999)).filter(lambda r: r != 0),
    st.fractions(min_value=Fraction(-999), max_value=Fraction(999)).filter(lambda r: r != 0),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
@settings(max_examples=300, deadline=None)
def test_valuation_additivity(r, s, p):
    assert valuation(r * s, p) == valuation(r, p) + valuation(s, p)


def test_is_prime_small_and_boundary():
    small = {p for p in range(100) if is_prime(p)}
    assert small == set(primes_up_to(99))
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    # Strong pseudoprime to several bases, composite.
    assert not is_prime(3215031751)


def test_large_primality_tests_leave_module_state_alone():
    # Above ~3.3e24 is_prime sweeps every prime base up to 2 ln(n)**2 (about
    # 66,000 here); the sweep must not be kept, or every later call that
    # cuts the small-prime table pays for its size.
    import wpheights.factorization as module

    def snapshot():
        return {
            name: (value, len(value) if hasattr(value, "__len__") else None)
            for name, value in vars(module).items()
        }

    before = snapshot()
    assert is_prime(10**79 + 49)
    # 1000000000000000000000000000000000000003 * 30000000000000000000000000000000000000011
    assert not is_prime(
        30000000000000000000000000000000000000101000000000000000000000000000000000000033
    )
    after = snapshot()
    assert after.keys() == before.keys()
    for name, (value, size) in before.items():
        assert after[name][0] is value and after[name][1] == size, name
    # 4095-4097 straddle the fixed table's limit; 69169 = 263**2 ends on a strike.
    for n in (1, 2, 4095, 4096, 4097, 69169, 70000):
        assert primes_up_to(n) == module._sieve(n)


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(63, 2) == 7
    assert iroot(64, 3) == 4
    assert iroot(2**90 - 1, 3) == 2**30 - 1
    assert iroot(2**90, 3) == 2**30


@given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=9))
@settings(max_examples=300, deadline=None)
def test_iroot_bracketing(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_nth_root_rational():
    assert nth_root_rational(Fraction(27, 8), 3) == Fraction(3, 2)
    assert nth_root_rational(Fraction(10), 2) is None
    with pytest.raises(ValueError):
        nth_root_rational(Fraction(-8), 3)
