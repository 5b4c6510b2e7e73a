"""Spans around the library's layer entry points, patched in from outside.

The library has no tracing of its own, so the traced run replaces each entry
point listed in ``ENTRY_POINTS`` with a recording wrapper in every
``wpheights`` module namespace that holds it (``wpheights.heights.factorize``,
``wpheights.projective.awgcd``, ...), and puts the originals back afterwards.
A span is (name, start, end, parent span, operation id) plus one integer note
whose meaning depends on the entry point; start and end are the thread's CPU
time in ns. Spans stay in memory in flat arrays and are written out once,
when the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import wpheights.factorization

OP = "op"


def _factorize_note(args, result) -> int:
    value = Fraction(args[0])
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _construct_note(args, result) -> int:
    """0: no factoring needed; 1: factored, index kept; 2: factored, index shrank."""
    radicand, index = Fraction(args[0]), int(args[1])
    if radicand == 1 or index == 1:
        return 0
    return 2 if result[1] < index else 1


def _hit_note(args, result) -> int:
    return int(result is not None)


def _length_note(args, result) -> int:
    return len(result)


# (span name, module, attribute, note). Module-level functions are replaced
# wherever a wpheights module imported them; the one method is replaced on
# its class. The ExactRoot constructor is traced through _canonical_parts,
# which every public construction runs.
ENTRY_POINTS = (
    ("factorization.factorize", "wpheights.factorization", "factorize", _factorize_note),
    ("factorization.is_prime", "wpheights.factorization", "is_prime", None),
    ("factorization.iroot", "wpheights.factorization", "iroot", None),
    ("radicals.construct", "wpheights.radicals", "_canonical_parts", _construct_note),
    ("radicals.compare", "wpheights.radicals", "ExactRoot._compare", None),
    ("wgcd.wgcd", "wpheights.wgcd", "wgcd", None),
    ("wgcd.awgcd", "wpheights.wgcd", "awgcd", None),
    ("projective.clear_denominators", "wpheights.projective", "clear_denominators", None),
    ("projective.normalize", "wpheights.projective", "normalize", None),
    ("projective.canonical_rep", "wpheights.projective", "canonical_rep", None),
    ("projective.equivalent", "wpheights.projective", "equivalent", None),
    ("projective.naive_size", "wpheights.projective", "naive_size", None),
    ("heights.weighted_height", "wpheights.heights", "weighted_height", None),
    ("heights.phi", "wpheights.heights", "phi", None),
    ("heights.phi_preimage", "wpheights.heights", "phi_preimage", _hit_note),
    ("heights.bounded_points", "wpheights.heights", "bounded_points", _length_note),
)

RAISED = 1
RAISED_INCOMPLETE = 2


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [OP] + [name for name, *_ in ENTRY_POINTS]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.note = array("q")
        self.raised = array("b")
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._op = self._record(0, lambda func, *args: func(*args), None)

    def __len__(self) -> int:
        return len(self.name)

    def _record(self, name_id: int, func, note):
        name, parent, op, start, end, notes, raised = (
            self.name, self.parent, self.op, self.start, self.end, self.note, self.raised,
        )
        stack = self._stack
        clock = time.thread_time_ns
        incomplete = wpheights.factorization.IncompleteFactorizationError
        tracer = self

        def traced(*args, **kwargs):
            index = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            notes.append(0)
            raised.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end[index] = clock()
                stack.pop()
                raised[index] = RAISED_INCOMPLETE if isinstance(exc, incomplete) else RAISED
                raise
            end[index] = clock()
            stack.pop()
            if note is not None:
                notes[index] = note(args, result)
            return result

        return traced

    def call_op(self, func, *args):
        """Run one benchmark operation under a root span with a fresh op id."""
        self.op_id += 1
        return self._op(func, *args)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wpheights" or n.startswith("wpheights.")]
        for span_name, module_name, attribute, note in ENTRY_POINTS:
            name_id = self.name_ids[span_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(sys.modules[module_name], class_name)
                self._patch(owner, method, self._record(name_id, vars(owner)[method], note))
                continue
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._record(name_id, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_times(self, first: int, last: int) -> list[int]:
        """Per span in [first, last): duration minus the duration of its children."""
        own = [self.end[i] - self.start[i] for i in range(first, last)]
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= self.end[i] - self.start[i]
        return own

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\top\tparent\tstart_ns\tend_ns\tnote\traised\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.note[i]}\t{self.raised[i]}\n"
                )


def layer_metrics(tracer: Tracer, first: int, last: int) -> tuple[dict, dict]:
    """Per-layer metrics of the spans in [first, last), and each layer's share of op time.

    A share is (self time, span time) over the time of the root op spans. No
    entry point reaches itself through another, so spans of one name never
    overlap and their durations add up.
    """
    own = tracer.self_times(first, last)
    calls = {name: 0 for name in tracer.names}
    self_ns = {name: 0 for name in tracer.names}
    total_ns = {name: 0 for name in tracer.names}
    bits_max = incomplete = factored = shrank = hits = grid_points = classes = 0
    bounded_id = tracer.name_ids["heights.bounded_points"]
    for i in range(first, last):
        name = tracer.names[tracer.name[i]]
        calls[name] += 1
        self_ns[name] += own[i - first]
        total_ns[name] += tracer.end[i] - tracer.start[i]
        note = tracer.note[i]
        if name == "factorization.factorize":
            bits_max = max(bits_max, note)
            incomplete += tracer.raised[i] == RAISED_INCOMPLETE
        elif name == "radicals.construct":
            factored += note > 0
            shrank += note == 2
        elif name == "heights.phi_preimage":
            hits += note
            p = tracer.parent[i]
            grid_points += p >= 0 and tracer.name[p] == bounded_id
        elif name == "heights.bounded_points":
            classes += note
    metrics: dict[str, float] = {}
    for name, _, _, _ in ENTRY_POINTS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
    metrics["factorization.factorize.bits_max"] = bits_max
    metrics["factorization.incomplete"] = incomplete
    metrics["radicals.construct.shrink_ratio"] = shrank / factored if factored else 0.0
    preimage_calls = calls["heights.phi_preimage"]
    metrics["heights.grid_points"] = grid_points
    metrics["heights.classes"] = classes
    metrics["heights.phi_preimage.hit_ratio"] = hits / preimage_calls if preimage_calls else 0.0
    metrics["heights.classes_per_grid_point"] = classes / grid_points if grid_points else 0.0
    op_ns = total_ns[OP]
    shares = {
        name: (self_ns[name] / op_ns, total_ns[name] / op_ns)
        for name, *_ in ENTRY_POINTS
        if calls[name]
    }
    return metrics, shares
