"""Command-line front end with bit-exact, golden-file-stable output.

Every subcommand prints a pure function of its invocation: exact values
render canonically (radicals as root(m,k) with minimal k, rationals as a/b),
points as [x0:x1:...:xn].  --records switches to key=value line records for
scripting.  Exit status: 0 on success, 1 on a domain error (with a distinct
message prefix per failure category), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from fractions import Fraction

from .factorization import FactorConfig, IncompleteFactorizationError, factor_config
from .radicals import ExactRoot
from .wgcd import WeightSystem, generalized_awgcd, generalized_wgcd
from .projective import (
    WeightedPoint,
    canonical_rep,
    equivalent,
    naive_size,
    normalize,
    well_form,
)
from .heights import (
    ProjectivePoint,
    bounded_points,
    counting_function,
    kronecker_check,
    log_weighted_height,
    phi,
    phi_preimage,
    weighted_height,
)


class CommandError(Exception):
    """Domain-level failure with a categorized message prefix."""

    def __init__(self, prefix: str, message: str) -> None:
        super().__init__(f"{prefix}: {message}")


_ROOT_PATTERN = re.compile(r"^root\(\s*(-?\d+(?:/\d+)?)\s*,\s*(\d+)\s*\)$")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CommandError("parse error", f"malformed rational {text!r}") from exc


def _parse_tuple(text: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if not parts or any(not part.strip() for part in parts):
        raise CommandError("parse error", f"malformed coordinate tuple {text!r}")
    return tuple(_parse_rational(part.strip()) for part in parts)


def _parse_weights(text: str) -> WeightSystem:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdigit() or int(part) < 1:
            raise CommandError("parse error", f"malformed weight {part!r} in {text!r}")
        values.append(int(part))
    return WeightSystem(values)


def _parse_bound(text: str) -> ExactRoot:
    match = _ROOT_PATTERN.match(text.strip())
    if match:
        radicand = _parse_rational(match.group(1))
        index = int(match.group(2))
        if radicand <= 0 or index < 1:
            raise CommandError("parse error", f"malformed bound {text!r}")
        return ExactRoot(radicand, index)
    value = _parse_rational(text)
    if value <= 0:
        raise CommandError("domain error", f"bound must be positive, got {text!r}")
    return ExactRoot(value)


def _weighted_point(text: str, weights: WeightSystem) -> WeightedPoint:
    """Parse a coordinate tuple, one per weight and not all zero."""
    coords = _parse_tuple(text)
    if len(coords) != len(weights):
        raise CommandError(
            "length error", f"{len(coords)} coordinates but {len(weights)} weights"
        )
    if not any(coords):
        raise CommandError("domain error", "all coordinates are zero")
    return WeightedPoint(coords, weights)


def _fmt_point(coords) -> str:
    return "[" + ":".join(str(c) for c in coords) + "]"


def _emit(args, text_value: str, records: list[str]) -> None:
    if args.records:
        for line in records:
            print(line)
    else:
        print(text_value)


def _cmd_wgcd(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    value = generalized_wgcd(point.coords, point.weights)
    _emit(args, str(value), [f"wgcd={value}"])


def _cmd_awgcd(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    value = generalized_awgcd(point.coords, point.weights)
    _emit(args, str(value), [f"awgcd={value}"])


def _cmd_normalize(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    if not point.is_integral:
        raise CommandError("domain error", "normalize needs integer coordinates")
    reduced = normalize(point)
    _emit(args, _fmt_point(reduced.coords), [f"point={_fmt_point(reduced.coords)}"])


def _cmd_canon(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    rep = canonical_rep(point)
    _emit(args, _fmt_point(rep.coords), [f"point={_fmt_point(rep.coords)}"])


def _cmd_equiv(args) -> None:
    first = _weighted_point(args.coords, args.weights)
    second = _weighted_point(args.other, args.weights)
    witness = equivalent(first, second)
    if witness is None:
        _emit(args, "not equivalent", ["equivalent=false"])
    else:
        _emit(args, str(witness), ["equivalent=true", f"lambda={witness}"])


def _cmd_size(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    value = naive_size(point)
    _emit(args, str(value), [f"size={value}"])


def _cmd_height(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    value = weighted_height(point)
    _emit(args, str(value), [f"height={value}"])


def _cmd_logheight(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    value = log_weighted_height(point)
    _emit(args, f"{value:.15g}", [f"logheight={value:.15g}"])


def _cmd_phi(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    image = phi(point)
    _emit(args, _fmt_point(image.coords), [f"point={_fmt_point(image.coords)}"])


def _cmd_preimage(args) -> None:
    target = ProjectivePoint(_weighted_point(args.coords, args.weights).coords)
    point = phi_preimage(target, args.weights)
    if point is None:
        _emit(args, "none", ["found=false"])
    else:
        _emit(args, _fmt_point(point.coords), ["found=true", f"point={_fmt_point(point.coords)}"])


def _cmd_enumerate(args) -> None:
    listing = bounded_points(args.weights, args.bound)
    if args.records:
        for point, height in listing:
            print(f"point={_fmt_point(point.coords)} height={height}")
    else:
        for point, height in listing:
            print(f"{_fmt_point(point.coords)} h={height}")


def _cmd_count(args) -> None:
    value = counting_function(args.weights, args.bound)
    _emit(args, str(value), [f"count={value}"])


def _cmd_wellform(args) -> None:
    result = well_form(args.weights)
    new_weights = ",".join(str(q) for q in result.new_weights)
    if args.records:
        print(f"weights={new_weights}")
        for step in result.steps:
            pivot = "global" if step.pivot is None else str(step.pivot)
            print(f"step d={step.divisor} pivot={pivot}")
    else:
        print(new_weights)
        for step in result.steps:
            where = "all weights" if step.pivot is None else f"all but index {step.pivot}"
            print(f"step: divide {where} by {step.divisor}")


def _cmd_kronecker(args) -> None:
    point = _weighted_point(args.coords, args.weights)
    result = kronecker_check(point)
    height_one = "true" if result.height_is_one else "false"
    condition = "true" if result.ratio_condition else "false"
    _emit(
        args,
        f"{height_one} (ratio condition: {condition})",
        [f"height_one={height_one}", f"ratio_condition={condition}"],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpheights",
        description="Weighted gcds, normalization, and exact heights over the rationals.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, coords: int = 1, bound: bool = False):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("-w", "--weights", required=True, type=str, metavar="Q0,Q1,...")
        sub.add_argument("--records", action="store_true", help="key=value line records")
        sub.add_argument("--factor-bound", type=int, default=None, metavar="N",
                         help="trial-division cutoff, at least 2")
        sub.add_argument("--seed", type=int, default=None, metavar="N",
                         help="seed for the randomized factoring stage")
        if coords >= 1:
            sub.add_argument("coords", type=str, metavar="X0,X1,...")
        if coords == 2:
            sub.add_argument("other", type=str, metavar="Y0,Y1,...")
        if bound:
            sub.add_argument("-B", "--bound", required=True, type=str,
                             metavar="B", help="rational or root(m,k)")
        sub.set_defaults(handler=handler)

    add("wgcd", _cmd_wgcd, "weighted gcd of a tuple")
    add("awgcd", _cmd_awgcd, "absolute weighted gcd of a tuple")
    add("normalize", _cmd_normalize, "divide out the weighted gcd")
    add("canon", _cmd_canon, "canonical representative of a point")
    add("equiv", _cmd_equiv, "decide equivalence of two points", coords=2)
    add("size", _cmd_size, "naive size of a point")
    add("height", _cmd_height, "weighted height of a point")
    add("logheight", _cmd_logheight, "logarithmic weighted height")
    add("phi", _cmd_phi, "powered image in ordinary projective space")
    add("preimage", _cmd_preimage, "preimage of a projective point under the powering map")
    add("enumerate", _cmd_enumerate, "all points of height at most the bound",
        coords=0, bound=True)
    add("count", _cmd_count, "number of points of height at most the bound",
        coords=0, bound=True)
    add("wellform", _cmd_wellform, "reduce weights to a well-formed system", coords=0)
    add("kronecker", _cmd_kronecker, "test for weighted height exactly one")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.factor_bound is not None and args.factor_bound < 2:
        parser.error(f"argument --factor-bound: must be at least 2, got {args.factor_bound}")
    # The flags set the factoring effort of this call only; without them the
    # caller's effort stays in force.
    effort = contextlib.nullcontext()
    if args.factor_bound is not None or args.seed is not None:
        effort = factor_config(
            FactorConfig(
                trial_bound=args.factor_bound or FactorConfig().trial_bound,
                seed=args.seed or 0,
            )
        )
    try:
        args.weights = _parse_weights(args.weights)
        with effort:
            if getattr(args, "bound", None) is not None:
                args.bound = _parse_bound(args.bound)
            args.handler(args)
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return 1
    except IncompleteFactorizationError as exc:
        print(f"factoring error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
