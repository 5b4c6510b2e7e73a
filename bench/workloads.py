"""The benchmark's four workloads: seeded inputs, one operation, its output check.

Each workload splits its inputs into passes. The measuring loop always runs
whole passes, so every run sees the same mix of input kinds however long it
lasts. Operations reach the library only through module attributes looked up
at call time (``wp.weighted_height``), so the traced run can swap in its
recording wrappers. Checks run outside the timed region and use independent
routes where the library has one (``weighted_height_direct``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import wpheights as wp
import wpheights.cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def load_expected() -> dict:
    """Pinned outputs: enumeration counts and digests, CLI stdout."""
    return json.loads((BENCH_DIR / "expected.json").read_text())


class Workload:
    """Inputs as an endless stream of passes, a timed operation and its check."""

    name = ""
    # Passes making up one traced measurement (fixed work per seed).
    trace_passes = 1
    # Times one ``run``. In-process operations use the calling thread's CPU
    # time, so time the machine spends running something else is not charged
    # to the operation; traced runs, always in-process, use it too.
    clock = staticmethod(time.thread_time_ns)

    def __init__(self, expected: dict, small: bool = False) -> None:
        self.expected = expected
        self.small = small

    def passes(self, seed: int) -> Iterator[list]:
        """The seeded input stream; the same seed gives the same passes."""
        raise NotImplementedError

    def warm_up(self, first_pass: list) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def traced_run(self, item):
        """The operation as the traced run executes it, in this process."""
        return self.run(item)

    def check(self, item, output) -> bool:
        raise NotImplementedError


# --- enumerate -------------------------------------------------------------

# (label, weights, bound radicand, bound index). The first four have pairwise
# coprime weights; in the last four the weight product exceeds the lcm, so few
# grid points yield a class.
ENUMERATE_CASES = (
    ("1,1 B=30", (1, 1), 30, 1),
    ("2,3 B=2", (2, 3), 2, 1),
    ("1,2 B=root(40,2)", (1, 2), 40, 2),
    ("1,2,3 B=root(10,6)", (1, 2, 3), 10, 6),
    ("2,4 B=root(3,2)", (2, 4), 3, 2),
    ("2,6 B=root(2,2)", (2, 6), 2, 2),
    ("4,6 B=root(3,6)", (4, 6), 3, 6),
    ("2,2,4 B=root(2,4)", (2, 2, 4), 2, 4),
)
SMALL_ENUMERATE_CASES = ("1,2,3 B=root(10,6)", "2,6 B=root(2,2)", "2,4 B=root(3,2)")
WARM_UP_CASE = "1,2,3 B=root(10,6)"


@dataclass(frozen=True)
class EnumerateCase:
    label: str
    weights: tuple[int, ...]
    radicand: int
    index: int


def _root_le(a: Fraction, k: int, b: Fraction, m: int) -> bool:
    """a**(1/k) <= b**(1/m) for positive rationals, by integer cross-raising."""
    common = math.lcm(k, m)
    left, right = a ** (common // k), b ** (common // m)
    return left <= right


def listing_text(listing) -> str:
    """The listing as the CLI prints it: one "[x0:...:xn] h=height" line per point."""
    return "".join(
        "[" + ":".join(str(c) for c in point.coords) + f"] h={height}\n"
        for point, height in listing
    )


def listing_digest(listing) -> str:
    return hashlib.sha256(listing_text(listing).encode()).hexdigest()


class EnumerateWorkload(Workload):
    name = "enumerate"

    def cases(self) -> list[EnumerateCase]:
        chosen = [c for c in ENUMERATE_CASES if not self.small or c[0] in SMALL_ENUMERATE_CASES]
        return [EnumerateCase(*c) for c in chosen]

    def passes(self, seed: int) -> Iterator[list]:
        rng = random.Random(f"enumerate:{seed}")
        cases = self.cases()
        while True:
            yield rng.sample(cases, len(cases))

    def warm_up(self, first_pass: list) -> None:
        self.run(next(c for c in first_pass if c.label == WARM_UP_CASE))

    def run(self, case: EnumerateCase):
        return wp.bounded_points(case.weights, wp.ExactRoot(case.radicand, case.index))

    def check(self, case: EnumerateCase, listing) -> bool:
        pinned = self.expected["enumerate"][case.label]
        if len(listing) != pinned["classes"] or listing_digest(listing) != pinned["sha256"]:
            return False
        bound = Fraction(case.radicand)
        keys = []
        for point, height in listing:
            if not _root_le(height.radicand, height.index, bound, case.index):
                return False
            keys.append((height, point.coords))
        return all(
            _root_le(h1.radicand, h1.index, h2.radicand, h2.index)
            and (not _root_le(h2.radicand, h2.index, h1.radicand, h1.index) or c1 < c2)
            for (h1, c1), (h2, c2) in zip(keys, keys[1:])
        )


# --- points-smooth and points-hard -------------------------------------------

PRIMES_TO_20 = (2, 3, 5, 7, 11, 13, 17, 19)


@dataclass(frozen=True)
class PointInput:
    point: wp.WeightedPoint
    target: wp.WeightedPoint  # scale(point, lam) for a seeded lam


@dataclass(frozen=True)
class PointReport:
    height: wp.ExactRoot
    size: wp.ExactRoot
    rep: wp.WeightedPoint
    normalized: wp.WeightedPoint
    wgcd: int
    awgcd: wp.ExactRoot
    witness: Fraction | None


def _smooth_value(rng: random.Random) -> int:
    """A product of two primes <= 19 with exponents <= 4, negative 20% of the time."""
    value = math.prod(p ** rng.randint(0, 4) for p in rng.sample(PRIMES_TO_20, 2))
    return value if rng.random() < 0.8 else -value


def _point_input(coords: list[int], weights, rng: random.Random) -> PointInput:
    point = wp.WeightedPoint(coords, weights)
    lam = Fraction(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 12))
    return PointInput(point, wp.scale(point, lam))


class PointsWorkload(Workload):
    """One "point report" per operation; the generator is the subclass's."""

    def warm_up(self, first_pass: list) -> None:
        for item in self.warm_up_items(first_pass):
            self.run(item)

    def warm_up_items(self, first_pass: list) -> list:
        raise NotImplementedError

    def run(self, item: PointInput) -> PointReport:
        p = item.point
        normalized = wp.normalize(wp.clear_denominators(p))
        t = normalized.as_weighted_tuple()
        return PointReport(
            height=wp.weighted_height(p),
            size=wp.naive_size(p),
            rep=wp.canonical_rep(p),
            normalized=normalized,
            wgcd=wp.wgcd(t),
            awgcd=wp.awgcd(t),
            witness=wp.equivalent(p, item.target),
        )

    def check(self, item: PointInput, report: PointReport) -> bool:
        p = item.point
        return (
            report.height == wp.weighted_height_direct(p)
            and wp.canonical_rep(item.target) == report.rep
            and report.witness is not None
            and wp.scale(p, report.witness) == item.target
            and report.height <= report.size
            and report.wgcd == 1
            and report.awgcd >= 1
        )


class PointsSmoothWorkload(PointsWorkload):
    """The generator of acceptance criterion 4: smooth coordinates, weights 1-10."""

    name = "points-smooth"
    trace_passes = 4

    def passes(self, seed: int) -> Iterator[list]:
        rng = random.Random(f"points-smooth:{seed}")
        while True:
            yield [self._point(rng) for _ in range(16 if self.small else 256)]

    @staticmethod
    def _point(rng: random.Random) -> PointInput:
        length = rng.randint(2, 4)
        weights = [rng.randint(1, 10) for _ in range(length)]
        coords = [0 if rng.random() < 0.1 else _smooth_value(rng) for _ in range(length)]
        if not any(coords):
            coords[0] = 6
        return _point_input(coords, weights, rng)

    def warm_up_items(self, first_pass: list) -> list:
        return first_pass[:64]


# (weights, kind, digits): the hard coordinate sits at index 0, so its
# powering exponent under phi is fixed per slot. The slots fix the mix of
# cost classes; the seed draws the primes, multipliers, fillers and order.
HARD_SLOTS = (
    ((2, 3), "prime", 6),
    ((1, 2, 3), "prime", 6),
    ((3, 4), "prime", 7),
    ((5, 6), "prime", 7),
    ((1, 2), "prime", 8),
    ((2, 3), "prime", 8),
    ((1, 2), "prime", 9),
    ((2, 3), "prime", 9),
    ((2, 3), "semiprime", 12),
    ((1, 2, 4), "semiprime", 10),
    ((3, 5), "smooth", 0),
    ((2, 4, 6), "smooth", 0),
)


def _random_prime(rng: random.Random, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        if wp.is_prime(n):
            return n


def _hard_coordinate(rng: random.Random, kind: str, digits: int) -> int:
    if kind == "prime":
        return rng.randint(1, 12) * _random_prime(rng, digits)
    if kind == "semiprime":
        low = digits // 2
        return _random_prime(rng, low) * _random_prime(rng, digits - low)
    return abs(_smooth_value(rng))


class PointsHardWorkload(PointsWorkload):
    """Points with one coordinate built on a 6-9 digit prime or a semiprime."""

    name = "points-hard"
    trace_passes = 8

    def passes(self, seed: int) -> Iterator[list]:
        rng = random.Random(f"points-hard:{seed}")
        while True:
            items = []
            for weights, kind, digits in HARD_SLOTS:
                if self.small:
                    digits = min(digits, 6)
                coords = [_hard_coordinate(rng, kind, digits)]
                coords += [_smooth_value(rng) for _ in weights[1:]]
                if rng.random() < 0.2:
                    coords[0] = -coords[0]
                items.append(_point_input(coords, weights, rng))
            rng.shuffle(items)
            yield items

    def warm_up_items(self, first_pass: list) -> list:
        smooth = {w for w, kind, _ in HARD_SLOTS if kind == "smooth"}
        return [i for i in first_pass if i.point.weights.weights in smooth]


# --- cli -------------------------------------------------------------------

# The README table's commands; expected.json pins each one's stdout.
CLI_COMMANDS = (
    ("wgcd", "-w", "3,2", "1440,700"),
    ("awgcd", "-w", "6,8", "8000000000000,81920000000000000"),
    ("canon", "-w", "2,3", "1/2,1/8"),
    ("height", "-w", "2,4", "15,175"),
    ("enumerate", "-w", "2,3", "-B", "root(2,6)"),
    ("count", "-w", "1,1", "-B", "2"),
    ("wellform", "-w", "2,4,6,10"),
    ("kronecker", "-w", "1,2,3", "--", "1,-1,0"),
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that finds the checkout's library first."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=60)


@dataclass(frozen=True)
class CliOutput:
    status: int
    stdout: bytes


class CliWorkload(Workload):
    name = "cli"
    # The operation runs in a child process, which the caller's CPU clock does
    # not see: wall time, including process start, is what a scripted caller pays.
    clock = staticmethod(time.perf_counter_ns)

    def passes(self, seed: int) -> Iterator[list]:
        rng = random.Random(f"cli:{seed}")
        while True:
            yield rng.sample(CLI_COMMANDS, len(CLI_COMMANDS))

    def warm_up(self, first_pass: list) -> None:
        self.run(first_pass[0])

    def run(self, argv: tuple[str, ...]) -> CliOutput:
        done = run_python("-m", "wpheights.cli", *argv)
        return CliOutput(done.returncode, done.stdout)

    def traced_run(self, argv: tuple[str, ...]) -> CliOutput:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = wpheights.cli.main(list(argv))
        return CliOutput(status, out.getvalue().encode())

    def check(self, argv: tuple[str, ...], output: CliOutput) -> bool:
        expected = self.expected["cli"][" ".join(argv)]
        return output.status == 0 and output.stdout == expected.encode()


WORKLOADS = {
    w.name: w
    for w in (EnumerateWorkload, PointsSmoothWorkload, PointsHardWorkload, CliWorkload)
}
