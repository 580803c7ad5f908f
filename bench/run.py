"""Layered benchmark of siegelmaps.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload runs in its own process as a single-caller closed loop: the
next op starts when the previous one has finished.  The timed section runs
whole passes over the workload's cycle of distinct ops.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` traces every other pass and
prints the per-layer metrics (see ``spans.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 on a finished run, 1 when set-up
fails, 2 when the package sources are missing.

The op-time metrics take each op of the cycle at its fastest: the sum,
over the pieces of the op between calls into ``numpy.linalg``, of each
piece's fastest pass (see ``Stopwatch``).  On a shared host, other tenants stretch
op times by up to about 1.5 times, in bursts lasting from milliseconds to
minutes; how much of a run they cover varies from run to run, and a
median or mean over all ops follows it.  A piece's fastest pass is its
time with the least interference, which repeats from run to run.  The
plain medians over all ops are printed beside them.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOAD_NAMES = ("sweep", "verify_g60", "ambient")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# At least one traced and one untraced pass.
MIN_PASSES = 2
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120

# ROADMAP baseline rows, set beside per-call means computed from the trace:
# (workload, span name, op label, baseline).
BASELINE_ROWS = (
    ("sweep", "embeddings.direct_sum_embed", "N=3,g=12", "82 us/point"),
    ("sweep", "retractions.retract_direct_sum", "N=3,g=12", "63 us/point"),
    ("ambient", "domains.kobayashi_distance", "g=12", "420-725 us/pair"),
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Layered benchmark of siegelmaps.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment(args: argparse.Namespace) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED,
    }


def _setup_times(args: argparse.Namespace, runs: int) -> list[float]:
    """Wall time of fresh processes that start, import, build the inputs
    and run the warm-up, then exit."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed with code {done.returncode}: {done.stderr.strip()}")
    return times


class Stopwatch:
    """Splits each op's wall time at every call into ``numpy.linalg`` and
    keeps, for each op of the cycle, every piece's fastest time over the
    passes.

    The pieces last from microseconds to a few milliseconds, shorter than
    most bursts of interference on a shared host, so each piece is seen
    without interference in some pass; a whole op of 100 ms rarely is.  The
    wrappers cost under a microsecond a call.
    """

    def __init__(self, cycle: int) -> None:
        self._stamps: list[float] = []
        self._best: list[np.ndarray | None] = [None] * cycle
        self._whole = np.full(cycle, np.inf)
        # False where an op's pieces differ between passes: it is taken whole.
        self._split = np.ones(cycle, dtype=bool)
        self._originals = {
            name: fn for name in np.linalg.__all__ if callable(fn := getattr(np.linalg, name)) and not isinstance(fn, type)
        }

    def _wrap(self, fn):
        stamp, clock = self._stamps.append, time.perf_counter

        def timed(*args, **kwargs):
            stamp(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                stamp(clock())

        return timed

    def install(self) -> None:
        for name, fn in self._originals.items():
            setattr(np.linalg, name, self._wrap(fn))

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(np.linalg, name, fn)

    def record(self, index: int, start: float, end: float) -> None:
        """Fold in the op of the cycle at ``index`` that ran from ``start`` to ``end``."""
        pieces = np.diff([start, *self._stamps, end])
        self._stamps.clear()
        self._whole[index] = min(self._whole[index], end - start)
        best = self._best[index]
        if best is None:
            self._best[index] = pieces
        elif len(best) == len(pieces):
            np.minimum(best, pieces, out=best)
        else:
            self._split[index] = False

    def best_times(self) -> tuple[np.ndarray, int]:
        """Each op's fastest time, and how many ops were taken whole."""
        split = np.array([best.sum() for best in self._best])
        return np.where(self._split, split, self._whole), int((~self._split).sum())


def _run_ops(workload, seconds: float, tracer) -> dict:
    """The timed section: whole passes over the workload's op cycle until
    ``seconds`` have passed and ``MIN_PASSES`` passes ran.  A traced run
    traces every other pass; an untraced run times the ops' pieces."""
    durations, traced, errors = [], [], []
    start_pass = getattr(workload, "start_pass", None)
    stopwatch = Stopwatch(workload.cycle) if tracer is None else None
    if stopwatch is not None:
        stopwatch.install()
    k = passes = 0
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and passes % 2 == 1
        if start_pass is not None:
            start_pass()
        for _ in range(workload.cycle):
            if trace_this:
                tracer.install()
                tracer.begin()
            t0 = time.perf_counter()
            try:
                workload.op(k)
                failed = False
            except Exception as exc:  # an op failure is counted, not fatal
                failed = True
                errors.append(f"op {k}: {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            if trace_this:
                tracer.end(k, t0, t1, failed)
                tracer.uninstall()
            if stopwatch is not None:
                stopwatch.record(k % workload.cycle, t0, t1)
            durations.append(t1 - t0)
            traced.append(trace_this)
            k += 1
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and passes >= MIN_PASSES:
            break
    if stopwatch is not None:
        stopwatch.uninstall()
    return {
        "durations": durations,
        "traced": traced,
        "errors": errors,
        "elapsed": elapsed,
        "passes": passes,
        "stopwatch": stopwatch,
    }


def _end_to_end(run: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """Set-up time, memory, and op times with each op of the cycle taken at
    its fastest: ``ops_per_s`` is the cycle's length over the sum of those
    times, and the percentiles are over them."""
    durations = np.array(run["durations"])
    best, whole = run["stopwatch"].best_times()
    cycle = len(best)
    p50, p90 = np.percentile(best, [50, 90]) * 1e3
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": cycle / float(best.sum()),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    completed = len(durations) - len(run["errors"])
    notes = [
        f"setup_s: median of {len(setup)} fresh processes {[round(t, 4) for t in setup]}",
        f"ops_per_s, op_p50_ms, op_p90_ms: over the {cycle} distinct ops of a pass, each the sum of its "
        f"pieces' fastest times in {run['passes']} passes ({whole} taken whole); "
        f"{int((best * 1e3 > p90).sum())} lie beyond the 90th percentile",
        f"over all ops as run: {completed} completed ops in {run['elapsed']:.3f} s "
        f"({completed / run['elapsed']:.6g} ops/s), median {np.median(durations) * 1e3:.6g} ms, "
        f"90th percentile {np.percentile(durations, 90) * 1e3:.6g} ms",
    ]
    return values, notes


def _per_call_rows(workload, tracer) -> list[str]:
    recorded = tracer.spans()
    rows = []
    for name, span, label, baseline in BASELINE_ROWS:
        if name != workload.name or span not in tracer.names:
            continue
        ops = np.unique(recorded["op"])
        chosen = ops[[workload.label(int(op)) == label for op in ops]]
        stats = spans.aggregate(recorded, tracer.names, np.isin(recorded["op"], chosen)).get(span)
        if not stats:
            continue
        calls = stats["calls"]
        rows.append(
            f"{span} at {label}: self {stats['self_s'] / calls * 1e6:.1f} us/call, "
            f"inclusive {stats['total_s'] / calls * 1e6:.1f} us/call over {calls} calls "
            f"(computed from the trace); ROADMAP baseline {baseline}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "siegelmaps" / "__init__.py").is_file():
        print(f"error: the siegelmaps sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make = workloads.WORKLOADS[args.workload]
        if args.setup_only:
            make(args.seed, args.tiny, workdir)
            return 0
        try:
            setup = [] if args.trace else _setup_times(args, 1 if args.tiny else SETUP_RUNS)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        workload = make(args.seed, args.tiny, workdir)
        tracer = spans.Tracer() if args.trace else None
        run = _run_ops(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(run["durations"]), len(run["errors"])
    print(json.dumps({"environment": _environment(args)}, sort_keys=True))
    for line in run["errors"][:5]:
        print(f"failed {line}", file=sys.stderr)
    if args.trace:
        untraced = [d for d, t in zip(run["durations"], run["traced"]) if not t]
        values = spans.layer_metrics(tracer.spans(), tracer.names, statistics.fmean(untraced))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        notes = [f"traced {sum(run['traced'])} of {attempted} ops (every other pass)"]
        notes += _per_call_rows(workload, tracer)
        tracer.write(RUN_DIR / f"spans-{args.workload}.npz")
    else:
        values, notes = _end_to_end(run, setup)
        units = dict(END_TO_END)
    notes.append(f"fail_ratio: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for line in notes:
        print(line)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
