"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload fcnet-desk --seed 20260808 --seconds 30 --trace 0

A closed loop: one caller, one operation at a time, no worker threads or
processes.  The BLAS thread count is pinned before numpy loads.  The program
under test is the `marketeq` package in `src/` of the checkout that holds
this file; without it the run exits with status 2 and prints no result.

--trace 0 times set-up and operations and reports the end-to-end metrics.
--trace 1 first runs untraced operations, then installs the span wrappers
of spans.py, sets up again and runs traced operations; it reports the
per-layer metrics, per operation, and trace.overhead_s, the traced minus the
untraced median operation time.

The last line of standard output is the result object; the lines before it
name every end-to-end figure with its unit, then the provenance.  The full
record, and the spans of a traced run, go to perfbench/out/.
"""

from __future__ import annotations

import os

BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import CHECK, SETUP, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_MIN_REPS, SETUP_SHARE = 3, 0.1
PERCENTILES = (99, 95, 90, 75, 50)


class Loop:
    """Runs operations of one workload and keeps what each one produced."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None  # set by a traced run once the wrappers are installed
        self.seconds: list[float] = []
        self.cpu_seconds: list[float] = []
        self.outcomes: list = []  # Outcome, or None for an operation that raised
        self.failures: list[list[str]] = []
        self._digests: dict[int, str] = {}

    def op(self, state, index: int) -> None:
        workdir = Path(tempfile.mkdtemp(prefix="op-", dir=OUT))
        try:
            if self.tracer is not None:
                self.tracer.op_id = f"op{index}"
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                raw, error = self.workload.run(state, index, workdir), None
            except Exception as err:  # a failed operation is counted, not fatal
                raw, error = None, f"raised {type(err).__name__}: {err}"
            self.seconds.append(time.perf_counter() - t0)
            self.cpu_seconds.append(time.process_time() - cpu0)
            if self.tracer is not None:
                self.tracer.op_id = CHECK
            outcome, failures = None, [error] if error else []
            if error is None:
                try:
                    outcome = self.workload.finish(state, index, raw, workdir)
                    failures = list(outcome.failures)
                    if self.tracer is not None:
                        self.tracer.measure_alloc(*outcome.pair())
                except Exception as err:
                    failures = [f"check raised {type(err).__name__}: {err}"]
            if outcome is not None:
                key = index % self.workload.inputs
                first = self._digests.setdefault(key, outcome.digest)
                if outcome.digest != first:
                    failures.append("output differs from an earlier operation on the same input")
            self.outcomes.append(outcome)
            self.failures.append(failures)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def run(self, state, budget_s: float, after_op=None) -> int:
        """Operations on inputs 0, 1, ... (cycling through the workload's
        inputs) until, at the mean pace so far, the next one would end past
        budget_s; at least one.  after_op(seconds of the operation) runs
        after each operation and counts towards the pace."""
        start = time.perf_counter()
        ran = 0
        while True:
            self.op(state, ran)
            ran += 1
            if after_op is not None:
                after_op(self.seconds[-1])
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / ran > budget_s:
                return ran


class Setups:
    """Times a workload's set-up across the whole run, so that its median
    sees the same drift of CPU speed as the operations do.

    `first` sets up SETUP_MIN_REPS times, each after releasing the previous
    state, and keeps the last state for the operations.  `between` runs after
    each operation and sets up again (discarding the result) until set-up has
    taken SETUP_SHARE of the time since the run began.  It does nothing when
    one set-up costs more than SETUP_SHARE of an operation: a second state
    alive next to the operations' would then be large enough to raise the
    peak resident set."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.times: list[float] = []
        self.start = time.perf_counter()

    def _timed(self):
        t0 = time.perf_counter()
        state = self.workload.setup(self.seed)
        self.times.append(time.perf_counter() - t0)
        return state

    def first(self):
        state = None
        while len(self.times) < SETUP_MIN_REPS:
            state = None  # released before the next set-up builds its own
            state = self._timed()
        return state

    def between(self, op_seconds: float) -> None:
        if statistics.median(self.times) > SETUP_SHARE * op_seconds:
            return
        while sum(self.times) < SETUP_SHARE * (time.perf_counter() - self.start):
            self._timed()


def tail_percentile(samples):
    """(p, value) for the highest listed percentile with >= 10 samples beyond it."""
    for p in PERCENTILES:
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None, None


def provenance(workload_name: str, seed: int, markets) -> dict:
    import marketeq
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "marketeq").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    from workloads import market_digest

    return {
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "marketeq": marketeq.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workload": workload_name,
        "seed": seed,
        "markets": [{"label": label, "n": mk.n, "m": mk.m, "regime": mk.ces.regime.value,
                     "sha256": market_digest(mk)} for label, mk in markets],
    }


def quality_medians(loop: Loop) -> dict:
    done = [o for o in loop.outcomes if o is not None]
    return {key: statistics.median(o.quality[key] for o in done) if done else float("nan")
            for key in ("ng", "voa", "vop", "kkt")}


def mean_fact(outcomes, key) -> float:
    values = [o.facts[key] for o in outcomes if o is not None and key in o.facts]
    return statistics.fmean(values) if values else 0.0


def run_untraced(workload, seed: int, seconds: float):
    setups = Setups(workload, seed)
    state = setups.first()
    loop = Loop(workload)
    # the first set-ups count towards the run's --seconds
    loop.run(state, seconds - (time.perf_counter() - setups.start), after_op=setups.between)
    markets = workload.markets(state)
    setup_times = setups.times
    run_s = statistics.median(loop.seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p, tail = tail_percentile(loop.seconds)
    failed = sum(1 for f in loop.failures if f)
    quality = quality_medians(loop)
    report = [
        ("setup_s", metrics["setup_s"], "s", f"median of {len(setup_times)} set-ups"),
        ("run_s", run_s, "s", f"median of {len(loop.seconds)} operations"),
        (f"run_s_p{p}" if p else "run_s_tail", tail if p else float("nan"), "s",
         f"{len(loop.seconds)} samples" + ("" if p else "; too few for a percentile with 10 beyond it")),
        ("ng", quality["ng"], "-", "certified Nash gap after projection, median over operations"),
        ("voa", quality["voa"], "-", "allocation violation of the raw pair"),
        ("vop", quality["vop"], "-", "price violation of the raw pair"),
        ("kkt", quality["kkt"], "-", "max relative KKT residual of the projected pair"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss of this process"),
        ("failed_ops", failed / len(loop.seconds), "fraction", f"{failed} of {len(loop.seconds)}"),
    ]
    extra = {"setup_seconds": setup_times, "report": [list(row) for row in report]}
    return loop, markets, metrics, report, extra


def run_traced(workload, seed: int, seconds: float):
    state = workload.setup(seed)
    loop = Loop(workload)
    untraced_ops = loop.run(state, seconds / 2.0)
    state = None
    tracer = Tracer()
    tracer.install()
    loop.tracer = tracer
    tracer.op_id = SETUP
    state = workload.setup(seed)
    traced_ops = loop.run(state, seconds / 2.0)
    markets = workload.markets(state)
    untraced = loop.seconds[:untraced_ops]
    traced = loop.seconds[untraced_ops:]
    metrics = tracer.layer_metrics(traced_ops=traced_ops, setups=1)
    traced_outcomes = loop.outcomes[untraced_ops:]
    metrics["baselines.epochs"] = mean_fact(traced_outcomes, "epochs_to_target")
    metrics["harness.artifact_bytes"] = mean_fact(traced_outcomes, "artifact_bytes")
    metrics["proc.cpu_s"] = statistics.fmean(loop.cpu_seconds[:untraced_ops])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{workload.name}-seed{seed}-spans.json.gz")
    report = [("trace.absent", len(tracer.absent), "count", ", ".join(tracer.absent) or "none")]
    extra = {"untraced_seconds": untraced, "traced_seconds": traced, "absent": tracer.absent}
    return loop, markets, metrics, report, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "marketeq" / "__init__.py").is_file():
        print(f"perfbench: no marketeq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import marketeq

    if Path(marketeq.__file__).resolve().parent != SRC / "marketeq":
        print(f"perfbench: imported marketeq from {marketeq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)

    runner = run_traced if args.trace else run_untraced
    loop, markets, measured, report, extra = runner(workload, args.seed, args.seconds)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    failed = sum(1 for f in loop.failures if f)
    result = {"correct": failed == 0, "attempted": len(loop.failures), "failed": failed,
              "metrics": metrics}
    prov = provenance(args.workload, args.seed, markets)
    record = {
        "result": result, "provenance": prov, **extra,
        "operations": [
            {"seconds": s, "cpu_seconds": c, "failures": f,
             "quality": o.quality if o else None, "facts": o.facts if o else None}
            for s, c, f, o in zip(loop.seconds, loop.cpu_seconds, loop.failures, loop.outcomes)
        ],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")

    for name, value, unit, note in report:
        print(f"{args.workload} {name} = {value!r} {unit} ({note})")
    for index, failures in enumerate(loop.failures):
        for failure in failures:
            print(f"{args.workload} op {index} FAILED: {failure}")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
