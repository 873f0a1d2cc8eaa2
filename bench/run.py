"""gqc benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload fold-2d --seed 1 --seconds 30 --trace 0

The workload runs in this single process against the gqc sources in
``src/`` next to this directory. Inputs come only from ``--seed``. The
timed loop repeats whole iterations (the workload's set-up, then its
operations) until the next one would overrun ``--seconds``; module-level
operator caches are cleared before each operation so none reuses another's
work. Every result is verified after the loop, outside the timed region.
Calibration samples (``calibrate.py``) taken between operations scale
every measured time to seconds at a fixed reference host speed, so that
the shared host's swings in throughput cancel.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (process start
through ``import gqc.cli``, timed in nine fresh interpreters before the
loop, whose time counts against ``--seconds``, plus the median
per-iteration set-up: the workload's own and the config load, coefficient
parse and operator assembly inside its operations), ``run_s`` (median
time of one iteration's operations without that set-up), ``op_s.p50``
(median over operation kinds of each kind's median latency; the per-kind
medians are printed too) and ``peak_rss_mb`` (peak resident memory of the
timed loop). ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics of the traced ones, plus
``trace.overhead_s``, the traced minus the untraced median ``run_s``.
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"
# fix every thread pool before numpy loads; OpenBLAS would otherwise start one
# thread per core, and multi-start would read GQC_THREADS from the caller
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GQC_THREADS"):
    os.environ[_var] = BLAS_THREADS

# one CPU for the whole run: moving between the two vCPUs of this class of
# machine shifts timings by several percent from one run to the next
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# interpreter start-up falls in two modes about 25% apart; nine samples keep
# the median in one of them
IMPORT_SAMPLES = 9
# a calibration sample follows any operation that ends this long after the
# previous sample, and every iteration
SAMPLE_EVERY_S = 1.0
# CLOCK_MONOTONIC is shared by all processes, so the child's clock reading
# minus the parent's reading before the spawn is start-up plus imports
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "import gqc.cli; print(time.monotonic())")


def import_seconds(calib) -> float:
    """Median time from process start through the imports of a run, each
    probe scaled by the calibration samples on its two sides."""
    samples = []
    before = calib.sample()
    for _ in range(IMPORT_SAMPLES):
        t0 = time.monotonic()
        child = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=60)
        wall = float(child.stdout) - t0
        after = calib.sample()
        samples.append(wall * calib.scale(before, after))
        before = after
    return statistics.median(samples)


@dataclass
class Iteration:
    """Set-up and operations of one timed iteration."""

    traced: bool
    setup: float  # wall time of the workload's own set-up
    outcomes: list
    wall: float = 0.0  # the whole iteration, calibration included
    scale: float = 1.0  # of ``setup``, as ``Outcome.scale``

    @property
    def setup_s(self) -> float:
        return self.setup * self.scale + sum(o.setup * o.scale for o in self.outcomes)

    @property
    def body_s(self) -> float:
        return sum(o.seconds * o.scale for o in self.outcomes)


class Scaler:
    """Cuts timed calls into segments and scales each by calibration samples.

    A segment ends at every checkpoint: the end of a timed call and, unless
    the call is traced, every sparse LU factorization inside it (gqc looks
    ``scipy.sparse.linalg.splu`` up at each call). At a checkpoint at least
    ``SAMPLE_EVERY_S`` after the previous sample, and at ``flush``, a new
    sample is taken, and every segment since the previous sample gets the
    scale of those two samples. A long operation thus gets a sample about
    every second, short ones share one, and the sampling time lies outside
    every segment."""

    def __init__(self, calib):
        self.calib = calib
        self.before = calib.sample()
        self.since = time.perf_counter()
        self.pending: list[tuple[list[float], float]] = []

    def timed(self, fn, checkpoints: bool):
        """Call ``fn``; return its result and the call's span, ``[wall
        seconds, scaled seconds]``, complete after the next ``flush``."""
        import scipy.sparse.linalg as spla

        span = [0.0, 0.0]
        start = time.perf_counter()

        def checkpoint():
            nonlocal start
            now = time.perf_counter()
            span[0] += now - start
            self.pending.append((span, now - start))
            if now - self.since >= SAMPLE_EVERY_S:
                self.flush()
            start = time.perf_counter()

        splu = spla.splu
        if checkpoints:
            @functools.wraps(splu)
            def splu_checkpoint(*args, **kwargs):
                checkpoint()
                return splu(*args, **kwargs)

            spla.splu = splu_checkpoint
        try:
            return fn(), span
        finally:
            spla.splu = splu
            checkpoint()

    def flush(self) -> None:
        after = self.calib.sample()
        scale = self.calib.scale(self.before, after)
        for span, seconds in self.pending:
            span[1] += seconds * scale
        self.pending.clear()
        self.before = after
        self.since = time.perf_counter()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_cpu": CPU,
        "blas_threads": int(BLAS_THREADS),
        "gqc_threads": int(os.environ["GQC_THREADS"]),
    }


def kind_p50(iterations) -> dict[str, tuple[float, int]]:
    """Median latency and sample count of each operation kind."""
    by_kind: dict[str, list[float]] = {}
    for i in iterations:
        for o in i.outcomes:
            by_kind.setdefault(o.label, []).append(o.seconds * o.scale)
    return {k: (statistics.median(v), len(v)) for k, v in by_kind.items()}


def op_p50(per_kind: dict[str, tuple[float, int]]) -> float:
    """Median over operation kinds of each kind's median latency.

    A workload mixes kinds whose latencies differ by up to an order of
    magnitude (a demo branch trace and a demo eigen solve), so the pooled
    median falls in the gap between two kinds and moves with their extreme
    samples. Where a workload has two kinds this is the mean of their two
    medians."""
    return statistics.median(p50 for p50, _ in per_kind.values())


def run(args) -> int:
    if not (SRC / "gqc" / "__init__.py").is_file():
        print(f"error: gqc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gqc

    if Path(gqc.__file__).resolve().parent != (SRC / "gqc").resolve():
        print(f"error: imported gqc from {gqc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from calibrate import Calibration
    from spans import Tracer
    from workloads import WORKLOADS, clear_program_caches, Outcome, SetupClock

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, ROOT)
        wl.prepare()
        tracer = Tracer() if args.trace else None
        calib = Calibration()
        started = time.perf_counter()
        import_s = None if tracer else import_seconds(calib)
        scaler = Scaler(calib)

        def iteration(it: int, traced: bool) -> Iteration:
            """Set-up and operations of one iteration; its state, and with it
            the iteration's operators, is dropped on return. The program's
            set-up inside an operation counts as set-up, not as the
            operation's time."""
            if traced:
                tracer.op = f"{it}:setup"
                tracer.install()
            t0 = time.perf_counter()
            state, setup_span = scaler.timed(lambda: wl.setup(it), checkpoints=False)
            result = Iteration(traced, setup_span[0], [])
            spans = [(result, setup_span)]
            for label, fn in wl.operations(state):
                clear_program_caches()
                if traced:
                    tracer.op = f"{it}:{label}"

                def attempt():
                    try:
                        return Outcome(label, 0.0, fn())
                    except Exception as exc:  # a failed operation is counted, not fatal
                        return Outcome(label, 0.0, None, f"{type(exc).__name__}: {exc}")

                with SetupClock() as clock:
                    out, span = scaler.timed(attempt, checkpoints=not traced)
                out.seconds = span[0] - clock.seconds
                out.setup = clock.seconds
                result.outcomes.append(out)
                spans.append((out, span))
            if traced:
                tracer.uninstall()
            scaler.flush()
            for piece, (wall, scaled) in spans:
                piece.scale = scaled / wall
            result.wall = time.perf_counter() - t0
            return result

        iterations: list[Iteration] = []
        while True:
            traced = tracer is not None and len(iterations) % 2 == 1
            iterations.append(iteration(len(iterations), traced))
            typical = statistics.median(i.wall for i in iterations)
            if (time.perf_counter() - started + typical > args.seconds
                    and len(iterations) >= (2 if tracer else 1)):
                break
        spent = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        clear_program_caches()
        for it, i in enumerate(iterations):
            try:
                wl.verify(it, i.outcomes)
            except Exception as exc:  # unreadable or missing results fail the iteration
                for o in i.outcomes:
                    o.problems.append(f"verification raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [i for i in iterations if not i.traced]
    ops = [o for i in iterations for o in i.outcomes]
    failed = [o for o in ops if o.failed]
    op_times = sorted(o.seconds * o.scale for i in plain for o in i.outcomes)
    run_s = statistics.median(i.body_s for i in plain)

    machine = machine_record()
    print(f"# machine: {json.dumps(machine)}")
    print(f"# workload {wl.name} seed {args.seed}: {wl.describe()}")
    print(f"# {len(iterations)} iterations in {spent:.2f} s; calibration sample median "
          f"{statistics.median(calib.samples):.6f} s over {len(calib.samples)}, "
          f"quartiles {' '.join(f'{q:.6f}' for q in statistics.quantiles(calib.samples, n=4))}")
    for o in failed:
        print(f"# FAILED {o.label}: {o.error or '; '.join(o.problems)}")
    print(f"# failed_ratio = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}")

    if tracer is None:
        print(f"# imports {import_s:.4f} s (median of {IMPORT_SAMPLES} fresh interpreters)")
        per_kind = kind_p50(plain)
        metrics = {
            "setup_s": (import_s + statistics.median(i.setup_s for i in plain), "s"),
            "run_s": (run_s, "s"),
            "op_s.p50": (op_p50(per_kind), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        wall = statistics.median(sum(o.seconds for o in i.outcomes) for i in plain)
        print(f"# run_s unscaled (wall clock) {wall:.6f} s; scaled per iteration "
              + " ".join(f"{i.body_s:.4f}" for i in plain))
        for kind, (p50, count) in per_kind.items():
            print(f"# op_s[{kind}] p50 {p50:.6f} s over {count} samples")
        print(f"# op_s pooled over {len(op_times)} samples: "
              f"p50 {statistics.median(op_times):.6f} s")
        if len(op_times) >= 100:  # at least ten samples beyond p90
            print(f"# op_s.p90 = {statistics.quantiles(op_times, n=10)[-1]:.6f} s")
    else:
        traced_runs = [i.body_s for i in iterations if i.traced]
        metrics = tracer.layer_metrics(len(traced_runs))
        metrics["trace.overhead_s"] = (statistics.median(traced_runs) - run_s, "s")
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        dump = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(dump)
        print(f"# {len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
