"""Benchmark of the wpheights library: one workload per run, every output checked.

Usage, from the repository root:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

One caller runs operations back to back (a closed loop with one client and
no think time) in whole passes over the workload's seeded inputs, until the
operations have taken ``--seconds`` in total. Each operation's output is
checked after its pass, outside the timed region. Times are reported at a
reference CPU speed (see ``REFERENCE_NS``). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the traced measurement instead and
reports the per-layer metrics. The metric names and units come from
``BENCHMARK.json``; the last line of stdout is the JSON result, and the full
result (metadata, tail percentile, layer shares) goes to ``.bench_out/``.
``--small`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Reported times are reference-speed times: a measured time multiplied by
# REFERENCE_NS over the CPU time of calibrate() measured around it, i.e. the
# time on a machine that runs calibrate() in exactly REFERENCE_NS. On shared
# virtual machines the CPU speed drifts by up to 1.7x over minutes, which
# moved measured figures of the same code by that much between runs.
REFERENCE_NS = 2_000_000
# Operation time between two calibrations.
SEGMENT_NS = 100_000_000
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wpheights; print(time.perf_counter() - t)"
)


def load_library() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 if it is missing."""
    if not (SRC / "wpheights" / "__init__.py").is_file():
        print(f"bench: no library at {SRC / 'wpheights'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import wpheights

    if Path(wpheights.__file__).resolve().parent != SRC / "wpheights":
        print(f"bench: imported wpheights from {wpheights.__file__}", file=sys.stderr)
        raise SystemExit(2)


def metadata(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    sources = hashlib.sha256()
    for path in sorted((SRC / "wpheights").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def child_import_seconds() -> float:
    """Time to import wpheights, measured inside a fresh interpreter."""
    from workloads import run_python

    done = run_python("-c", IMPORT_PROBE)
    done.check_returncode()
    return float(done.stdout)


_BIG = 3**1500
_MODULUS = 2**2203 - 1


def calibrate() -> int:
    """CPU ns of a fixed mix of small-int, big-int, Fraction and dict work.

    It uses no library code, so a change to the library cannot move it;
    only the speed the machine runs Python at can.
    """
    began = time.thread_time_ns()
    x = 0
    for i in range(3000):
        x = (x * 31 + i) % 1000003
    n = _BIG
    for i in range(60):
        n = (n * n + i) % _MODULUS
    f = Fraction(1)
    for i in range(1, 200):
        f = (f + Fraction(i, i + 1)) / 2
    table = {}
    for i in range(1000):
        table[(i, i % 7)] = i
    return time.thread_time_ns() - began


def speed_factor(before: int, after: int) -> float:
    """Scale from measured time to reference-speed time, from two calibrations."""
    return 2 * REFERENCE_NS / (before + after)


def set_up(workload, seed: int, repeats: int) -> float:
    """Median over repeats of import + first pass's input generation + warm-up."""
    samples = []
    for _ in range(repeats):
        before = calibrate()
        imported = child_import_seconds()
        began = time.perf_counter()
        workload.warm_up(next(workload.passes(seed)))
        spent = imported + time.perf_counter() - began
        samples.append(spent * speed_factor(before, calibrate()))
    return statistics.median(samples)


def run_pass(items: list, op, clock, tracer=None) -> tuple[list[float], list[int], list]:
    """Run each item once: reference-speed latencies, measured latencies (ns), outputs.

    A calibration brackets every stretch of about SEGMENT_NS of operations,
    and each latency is scaled by the speed factor of the two around it.
    An operation that raises has the exception as its output.
    """
    raw: list[int] = []
    scaled: list[float] = []
    outputs = []
    before = calibrate()
    segment_start = spent = 0
    for item in items:
        began = clock()
        try:
            output = op(item) if tracer is None else tracer.call_op(op, item)
        except Exception as exc:  # a raising operation is a failed operation
            output = exc
        raw.append(clock() - began)
        outputs.append(output)
        spent += raw[-1]
        if spent >= SEGMENT_NS or len(raw) == len(items):
            after = calibrate()
            factor = speed_factor(before, after)
            scaled += [t * factor for t in raw[segment_start:]]
            before, segment_start, spent = after, len(raw), 0
    return scaled, raw, outputs


def count_failed(workload, items: list, outputs: list) -> int:
    failed = 0
    for item, output in zip(items, outputs):
        try:
            ok = not isinstance(output, Exception) and workload.check(item, output)
        except Exception:  # a check that cannot run on the output fails it
            ok = False
        failed += not ok
    return failed


def tail(latencies: list) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def measure(workload, seed: int, seconds: float) -> dict:
    """Whole passes of the seeded input stream until op time reaches seconds.

    Reported times are reference-speed times (see ``REFERENCE_NS``); the
    measured figures go to the result file as ``measured``.
    """
    latencies: list[float] = []
    raw: list[int] = []
    failed = 0
    for items in workload.passes(seed):
        pass_scaled, pass_raw, outputs = run_pass(items, workload.run, workload.clock)
        failed += count_failed(workload, items, outputs)
        latencies += pass_scaled
        raw += pass_raw
        busy = sum(raw)
        if busy >= seconds * 1e9:
            break
    tail_ns, tail_percentile, beyond = tail(latencies)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
            "op_p50_ms": statistics.median(latencies) / 1e6,
            "op_tail_ms": tail_ns / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "tail": {"percentile": tail_percentile, "samples": len(latencies), "beyond": beyond},
        "measured": {
            "ops_per_s": len(raw) / (busy / 1e9),
            "op_p50_ms": statistics.median(raw) / 1e6,
            "op_tail_ms": tail(raw)[0] / 1e6,
        },
    }


def measure_traced(workload, seed: int, seconds: float, spans_path: Path) -> dict:
    """Pairs of one untraced and one traced run of the same fixed items.

    The items are the first ``trace_passes`` passes, so every pair does the
    same work: counts repeat exactly, times are medians over the pairs.
    Times are reference-speed times, like the end-to-end ones.
    """
    from tracing import Tracer, layer_metrics
    from workloads import run_python

    stream = workload.passes(seed)
    items = [item for _ in range(workload.trace_passes) for item in next(stream)]
    tracer = Tracer()
    is_cli = workload.name == "cli"
    rounds: list[dict] = []
    main_ns: list[float] = []
    interpreter_ns: list[float] = []
    import_ns: list[float] = []
    attempted = failed = 0
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        plain, _, outputs = run_pass(items, workload.traced_run, time.thread_time_ns)
        failed += count_failed(workload, items, outputs)
        first = len(tracer)
        tracer.install()
        try:
            traced, traced_raw, outputs = run_pass(
                items, workload.traced_run, time.thread_time_ns, tracer
            )
        finally:
            tracer.uninstall()
        failed += count_failed(workload, items, outputs)
        attempted += 2 * len(items)
        main_ns += plain
        layers, shares = layer_metrics(tracer, first, len(tracer))
        factor = sum(traced) / sum(traced_raw)
        for key in layers:
            if key.endswith(".self_s"):
                layers[key] *= factor
        layers["trace.overhead_ratio"] = sum(traced) / sum(plain)
        rounds.append(layers)
        if is_cli:
            before = calibrate()
            started = time.perf_counter_ns()
            run_python("-c", "pass").check_returncode()
            interpreter = time.perf_counter_ns() - started
            imported = child_import_seconds() * 1e9
            factor = speed_factor(before, calibrate())
            interpreter_ns.append(interpreter * factor)
            import_ns.append(imported * factor)
    tracer.write(spans_path)

    metrics = {}
    for key, first_value in rounds[0].items():
        values = [r[key] for r in rounds]
        exact = key.endswith((".calls", "bits_max", ".incomplete", ".grid_points", ".classes"))
        metrics[key] = first_value if exact else statistics.median(values)
        if exact and any(v != first_value for v in values):
            raise RuntimeError(f"count {key} differs between identical traced passes: {values}")
    metrics["cli.interpreter_ms"] = statistics.median(interpreter_ns) / 1e6 if is_cli else 0.0
    metrics["cli.import_ms"] = statistics.median(import_ns) / 1e6 if is_cli else 0.0
    metrics["cli.main_ms"] = statistics.median(main_ns) / 1e6 if is_cli else 0.0
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "pairs": len(rounds),
        "spans": len(tracer),
        "share_of_op_time": {name: {"self": a, "span": b} for name, (a, b) in shares.items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="wpheights benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for self-tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_library()
    from workloads import WORKLOADS, load_expected

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](load_expected(), small=args.small)
    setup_s = set_up(workload, args.seed, 1 if args.small else SETUP_REPEATS)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result = measure_traced(workload, args.seed, args.seconds, OUT / f"{tag}.spans.tsv.gz")
        listed = spec["per_layer"]
    else:
        result = measure(workload, args.seed, args.seconds)
        result["metrics"]["setup_s"] = setup_s
        listed = spec["end_to_end"]
    values = result.pop("metrics")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "small": args.small,
        "seconds": args.seconds,
        "metadata": metadata(args.seed),
        "failed_ratio": result["failed"] / result["attempted"],
        **result,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    meta = report["metadata"]
    print(" ".join(f"{k}={v}" for k, v in [("workload", args.workload), *meta.items()]))
    print(f"failed_ratio={report['failed_ratio']} ({result['failed']}/{result['attempted']})")
    if "tail" in result:
        t = result["tail"]
        print(f"op_tail_ms is p{t['percentile']:.2f} of {t['samples']} samples, {t['beyond']} beyond")
    for name, entry in metrics.items():
        print(f"{name}={entry['value']} {entry['unit']}")
    for name, value in result.get("measured", {}).items():
        print(f"measured, not speed-scaled: {name}={value}")
    for name, share in result.get("share_of_op_time", {}).items():
        print(f"share of op time {name}: self {share['self']:.4f} span {share['span']:.4f}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
