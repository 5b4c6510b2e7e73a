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
import os
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
        if not part.isdecimal() or int(part) < 1:
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
    """Parse a coordinate tuple, one coordinate per weight."""
    coords = _parse_tuple(text)
    if len(coords) != len(weights):
        raise CommandError(
            "length error", f"{len(coords)} coordinates but {len(weights)} weights"
        )
    return WeightedPoint(coords, weights)


def _value(call, key: str, render=str):
    """A command printing one value: as itself, or as the record key=value."""

    def run(*operands):
        text = render(call(*operands))
        return [text], [f"{key}={text}"]

    return run


def _equiv(first: WeightedPoint, second: WeightedPoint):
    witness = equivalent(first, second)
    if witness is None:
        return ["not equivalent"], ["equivalent=false"]
    return [str(witness)], ["equivalent=true", f"lambda={witness}"]


def _preimage(point: WeightedPoint):
    found = phi_preimage(ProjectivePoint(point.coords), point.weights)
    if found is None:
        return ["none"], ["found=false"]
    return [str(found)], ["found=true", f"point={found}"]


def _enumerate(weights: WeightSystem, bound: ExactRoot):
    # Lazy lines: only the chosen form is rendered, one line at a time.
    listing = bounded_points(weights, bound)
    return (
        (f"{point} h={height}" for point, height in listing),
        (f"point={point} height={height}" for point, height in listing),
    )


def _wellform(weights: WeightSystem):
    result = well_form(weights)
    new_weights = ",".join(str(q) for q in result.new_weights)
    text, records = [new_weights], [f"weights={new_weights}"]
    for step in result.steps:
        where = "all weights" if step.pivot is None else f"all but index {step.pivot}"
        pivot = "global" if step.pivot is None else step.pivot
        text.append(f"step: divide {where} by {step.divisor}")
        records.append(f"step d={step.divisor} pivot={pivot}")
    return text, records


def _kronecker(point: WeightedPoint):
    result = kronecker_check(point)
    height_one = "true" if result.height_is_one else "false"
    condition = "true" if result.ratio_condition else "false"
    return (
        [f"{height_one} (ratio condition: {condition})"],
        [f"height_one={height_one}", f"ratio_condition={condition}"],
    )


_POINT = ("X0,X1,...",)
_BOUND = ("-B",)

# name: (help, operands, run).  The operands are coordinate tuples, given by
# their metavars, or the bound -B, or nothing; run takes them parsed (points,
# or the weights and the bound, or the weights) and returns the text lines
# and the key=value records.
_COMMANDS = {
    "wgcd": ("weighted gcd of a tuple", _POINT,
             _value(lambda p: generalized_wgcd(p.coords, p.weights), "wgcd")),
    "awgcd": ("absolute weighted gcd of a tuple", _POINT,
              _value(lambda p: generalized_awgcd(p.coords, p.weights), "awgcd")),
    "normalize": ("divide out the weighted gcd", _POINT, _value(normalize, "point")),
    "canon": ("canonical representative of a point", _POINT, _value(canonical_rep, "point")),
    "equiv": ("decide equivalence of two points", _POINT + ("Y0,Y1,...",), _equiv),
    "size": ("naive size of a point", _POINT, _value(naive_size, "size")),
    "height": ("weighted height of a point", _POINT, _value(weighted_height, "height")),
    "logheight": ("logarithmic weighted height", _POINT,
                  _value(log_weighted_height, "logheight", "{:.15g}".format)),
    "phi": ("powered image in ordinary projective space", _POINT, _value(phi, "point")),
    "preimage": ("preimage of a projective point under the powering map", _POINT, _preimage),
    "enumerate": ("all points of height at most the bound", _BOUND, _enumerate),
    "count": ("number of points of height at most the bound", _BOUND,
              _value(counting_function, "count")),
    "wellform": ("reduce weights to a well-formed system", (), _wellform),
    "kronecker": ("test for weighted height exactly one", _POINT, _kronecker),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpheights",
        description="Weighted gcds, normalization, and exact heights over the rationals.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, operands, _) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("-w", "--weights", required=True, type=str, metavar="Q0,Q1,...")
        sub.add_argument("--records", action="store_true", help="key=value line records")
        sub.add_argument("--factor-bound", type=int, default=None, metavar="N",
                         help="trial-division cutoff, at least 2")
        sub.add_argument("--seed", type=int, default=None, metavar="N",
                         help="seed for the randomized factoring stage")
        for operand in operands:
            if operand == "-B":
                sub.add_argument("-B", "--bound", required=True, type=str,
                                 metavar="B", help="rational or root(m,k)")
            else:
                sub.add_argument("tuples", action="append", type=str, metavar=operand)
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
        weights = _parse_weights(args.weights)
        with effort:
            if getattr(args, "bound", None) is not None:
                operands = [weights, _parse_bound(args.bound)]
            elif getattr(args, "tuples", None) is not None:
                operands = [_weighted_point(text, weights) for text in args.tuples]
            else:
                operands = [weights]
            text, records = _COMMANDS[args.command][2](*operands)
            # Lazy output is rendered here, inside the factoring scope.
            for line in records if args.records else text:
                print(line)
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
    # Exact answers can pass the default 4,300-digit limit on int <-> str
    # conversion (Python 3.10.7+).  Lift it here, not in main(), so that an
    # in-process caller keeps its own setting.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`... | head`), which is not an
        # error.  Point stdout at devnull so the interpreter's last flush
        # stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)


if __name__ == "__main__":
    console_main()
