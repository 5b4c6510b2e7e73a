"""Exact factorization of integers and rationals, with deterministic primality.

Everything here is exact: a result is either a prime decomposition or an
explicit :class:`IncompleteFactorizationError`, never a silently wrong answer.
The factoring pipeline is one loop: trial division by the fixed table of
small primes, then for each cofactor a deterministic strong-pseudoprime
certificate, a seeded Brent/Pollard rho stage if it is composite, and, where
rho gives up, a last trial-division sweep up to the configured bound that
finishes the cofactor or raises.  Every stage divides a prime it finds out of
its cofactor completely, so a power of a prime above the trial table costs one
rho run.  Rho still needs about sqrt(p) steps to find a prime p, so a
composite cofactor whose smallest prime has 14 or more digits, such as the
cube of a 31-digit prime, outlasts the default effort.  Primality of a factor
below ~3.3e24 is proven; above that it rests on Bach's GRH-conditional base
bound (see :func:`is_prime`).  All stages are deterministic functions of the
input and the configuration seed, so results are reproducible and safe to
share between threads.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction


class IncompleteFactorizationError(RuntimeError):
    """A composite cofactor survived the configured factoring effort."""


class _Value:
    """Base of the immutable value classes: fields are the subclass's __slots__.

    The default constructor takes one argument per field, in slot order, by
    position or by name.  Equality and hashing go through the tuple of
    fields, equality only between objects of the same class; the repr is
    ClassName(field=value, ...).  Assignment and deletion raise
    AttributeError, so constructors set their fields with object.__setattr__;
    copy, deepcopy and pickle move the field tuple through __getstate__ and
    __setstate__.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        get = operator.attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        cls.__match_args__ = names

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} arguments, got {len(args)}")
        values = list(args)
        for name in names[len(args) :]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing the argument {name!r}")
            values.append(kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected arguments {sorted(kwargs)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._fields(self)

    def __setstate__(self, state: tuple | dict) -> None:
        if isinstance(state, dict) and state.keys() == set(self.__slots__):
            # Pickled by earlier versions, whose state was the instance __dict__.
            state = tuple(state[name] for name in self.__slots__)
        if not isinstance(state, tuple) or len(state) != len(self.__slots__):
            raise TypeError(f"cannot restore {type(self).__name__} from {state!r}")
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def _as_int(value) -> int:
    """The int equal to value; a value with a fractional part raises ValueError."""
    if type(value) is int:
        return value
    as_fraction = Fraction(value)
    if as_fraction.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return as_fraction.numerator


# Largest n for which the fixed Miller-Rabin base set below is a proven
# deterministic primality certificate.
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_PROVEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Primes up to this bound are always tried before anything clever happens.
_BASE_TRIAL_LIMIT = 1 << 12


class FactorConfig(_Value):
    """Effort knobs for :func:`factorize`.

    trial_bound caps the trial-division sweep, rho_iterations the cycle
    length per rho attempt, rho_attempts the number of re-seeded attempts
    per stubborn cofactor.  seed feeds the per-cofactor rho RNG, keeping
    runs deterministic while still randomizing the polynomial constants.
    Each field is stored as an int; a value with a fractional part raises
    ValueError.
    """

    __slots__ = ("trial_bound", "rho_iterations", "rho_attempts", "seed")
    trial_bound: int
    rho_iterations: int
    rho_attempts: int
    seed: int

    def __init__(
        self,
        trial_bound: int = 10**6,
        rho_iterations: int = 1 << 18,
        rho_attempts: int = 32,
        seed: int = 0,
    ) -> None:
        object.__setattr__(self, "trial_bound", _as_int(trial_bound))
        object.__setattr__(self, "rho_iterations", _as_int(rho_iterations))
        object.__setattr__(self, "rho_attempts", _as_int(rho_attempts))
        object.__setattr__(self, "seed", _as_int(seed))


_effort: ContextVar[FactorConfig] = ContextVar("factor_config", default=FactorConfig())


@contextmanager
def factor_config(config: FactorConfig) -> Iterator[None]:
    """Run the block with config as the factoring effort of this context.

    Every factoring step inside the block that is not given a config reads
    this one; the enclosing effort comes back when the block exits, also on
    an exception.  Threads and asyncio tasks each see their own context.
    """
    token = _effort.set(config)
    try:
        yield
    finally:
        _effort.reset(token)


def _sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((limit - p * p) // p + 1)
    return [i for i, f in enumerate(flags) if f]


# Every prime up to _BASE_TRIAL_LIMIT, fixed at import; longer sweeps sieve
# afresh, so no call changes what a later one costs.
_SMALL_PRIMES = tuple(_sieve(_BASE_TRIAL_LIMIT))


def _small_primes(limit: int) -> tuple[int, ...]:
    """The primes <= min(limit, _BASE_TRIAL_LIMIT), cut from the fixed table."""
    if limit >= _BASE_TRIAL_LIMIT:
        return _SMALL_PRIMES  # the default effort's case: no search, no copy
    return _SMALL_PRIMES[: bisect_right(_SMALL_PRIMES, limit)]


def primes_up_to(limit: int) -> list[int]:
    """Ascending primes <= limit."""
    if limit <= _BASE_TRIAL_LIMIT:
        return list(_small_primes(limit))
    return _sieve(limit)


def _is_strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Below ~3.3e24 (_MR_PROVEN_LIMIT) this is the proven twelve-base
    strong-pseudoprime certificate.  Above it every prime base up to
    2*ln(n)^2 is tested; that sweep is a correct certificate only under the
    generalized Riemann hypothesis (Bach, Explicit bounds for primality
    testing and related problems, Math. Comp. 1990), so a "prime" answer
    there is GRH-conditional.
    """
    if n < 2:
        return False
    for p in _MR_PROVEN_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if not all(_is_strong_probable_prime(n, a) for a in _MR_PROVEN_BASES):
        return False
    if n < _MR_PROVEN_LIMIT:
        return True
    # Only a survivor of the fixed bases pays for the rest of Bach's sweep.
    bases = primes_up_to(int(2 * math.log(n) ** 2) + 1)
    return all(_is_strong_probable_prime(n, a) for a in bases[len(_MR_PROVEN_BASES) :])


def _pollard_rho(n: int, config: FactorConfig) -> int | None:
    """Brent-style rho; returns a nontrivial factor of odd composite n."""
    for attempt in range(config.rho_attempts):
        rng = random.Random(f"{n}:{attempt}:{config.seed}")
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1 and count < config.rho_iterations:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            count += r
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def _extract(n: int, p: int) -> tuple[int, int]:
    """Divide out p from n, doubling the divisor to cope with huge exponents."""
    exponent = 0
    power = p
    step = 1
    while True:
        quotient, remainder = divmod(n, power)
        if remainder:
            if step == 1:
                return n, exponent
            power = p
            step = 1
        else:
            n = quotient
            exponent += step
            if power <= n:
                power *= power
                step *= 2


def _divide_out(n: int, primes: Iterable[int], factors: dict[int, int]) -> int:
    """Divide each listed prime up to sqrt(n) out of n into factors; return the rest."""
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            n, e = _extract(n, p)
            factors[p] = factors.get(p, 0) + e
    return n


def _factor_positive(n: int, config: FactorConfig) -> dict[int, int]:
    factors: dict[int, int] = {}
    if n == 1:  # every integer's denominator: skip the set-up below
        return factors
    limit = max(0, min(config.trial_bound, _BASE_TRIAL_LIMIT))
    pending = [_divide_out(n, _small_primes(limit), factors)]
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        # No pending cofactor has a prime up to limit, so one below its square is prime.
        if m < (limit + 1) ** 2 or is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, config)
        if d is None:
            # Last resort, in place: trial division up to the configured bound.
            m = _divide_out(m, primes_up_to(min(config.trial_bound, math.isqrt(m))), factors)
            if m > 1 and not is_prime(m):
                raise IncompleteFactorizationError(
                    f"factorization incomplete: composite cofactor {m} exceeded the "
                    f"configured effort (trial_bound={config.trial_bound}, "
                    f"rho_attempts={config.rho_attempts})"
                )
            pending.append(m)  # 1 or a prime, recorded at the loop head
        elif is_prime(d):
            # Divide the prime out completely, so no later run finds it again.
            m, e = _extract(m, d)
            factors[d] = factors.get(d, 0) + e
            pending.append(m)
        else:
            pending += d, m // d
    return factors


class Factorization(_Value):
    """Signed prime-power decomposition of a nonzero rational.

    sign is +1 or -1; factors maps each prime to its nonzero exponent
    (negative exponents carry the denominator).  The represented value is
    sign * prod(p**e).
    """

    __slots__ = ("sign", "factors")
    sign: int
    factors: dict[int, int]

    def __init__(self, sign: int, factors: dict[int, int] | None = None) -> None:
        factors = {} if factors is None else factors
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        for p, e in factors.items():
            if e == 0:
                raise ValueError(f"exponent of {p} is zero")
            if not is_prime(p):
                raise ValueError(f"factor key {p} is not prime")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "factors", factors)


def factorize(value: int | Fraction, config: FactorConfig | None = None) -> Factorization:
    """Exact prime decomposition of a nonzero integer or rational.

    An int or Fraction is read through its numerator and denominator as it
    is; any other value (a str, a float) is turned into a Fraction first.
    config defaults to the effort in scope (see :func:`factor_config`).
    Raises ValueError on zero and IncompleteFactorizationError when a
    cofactor resists the configured effort.
    """
    if config is None:
        config = _effort.get()
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    if value == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if value > 0 else -1
    factors = _factor_positive(abs(value.numerator), config)
    for p, e in _factor_positive(value.denominator, config).items():
        factors[p] = factors.get(p, 0) - e
    # Every key is a prime the pipeline has just proven: skip the constructor's checks.
    result = object.__new__(Factorization)
    object.__setattr__(result, "sign", sign)
    object.__setattr__(result, "factors", {p: e for p, e in factors.items() if e != 0})
    return result


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise ValueError("iroot of a negative number")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def nth_root_rational(value: Fraction, k: int) -> Fraction | None:
    """Exact positive rational k-th root of a positive rational, if one exists."""
    if value <= 0:
        raise ValueError("root of a nonpositive rational")
    num = iroot(value.numerator, k)
    if num**k != value.numerator:
        return None
    den = iroot(value.denominator, k)
    if den**k != value.denominator:
        return None
    return Fraction(num, den)
