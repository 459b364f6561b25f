"""Run one workload in a fresh interpreter and print its result as JSON.

Started by ``run.py``, never by hand:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

``--setup-only`` imports ``ordercone``, builds the workload and prints
the time that took, measured and calibrated (see ``Calibration``).
Otherwise the worker repeats passes over the workload's operations for
the given number of seconds.  Each pass starts from cleared caches,
times every operation, and afterwards checks every output and digests
the emitted reports.  With ``--trace 1`` the first third of the time
runs untraced passes and the rest traced ones, which yields the
per-layer metrics and the tracing overhead.
"""

import time

# Nominal duration of one reference loop.  Calibrated times are measured
# times rescaled to the speed at which the loop takes exactly this long.
REFERENCE_S = 0.005


def reference_loop() -> int:
    """Fixed pure-Python work: integer arithmetic, then tuple and dict
    churn like the library's element and cache handling.  Arithmetic
    alone tracked the slowdowns of the allocation-heavy workloads less
    closely (their times varied 20% more after rescaling)."""
    total = 0
    for i in range(25_000):
        total += i * i % 7
    table = {}
    for i in range(4_000):
        key = (i % 97, -(i % 13), i & 7)
        chain = table.get(key, ())
        table[key] = chain + (i,) if len(chain) < 4 else (i,)
    return total + len(table)


def reference_time() -> float:
    """Median of three timed reference loops."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


REFERENCE_AT_START = reference_time()
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, install, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SUBMODULES = ("braids", "budgets", "certificates", "cli", "cones", "errors",
              "groups", "intlinalg", "lattices", "lospace", "quadratic")


def load_library():
    lib = types.SimpleNamespace(
        ordercone=importlib.import_module("ordercone"),
        MODULES=("ordercone",) + SUBMODULES)
    for name in SUBMODULES:
        setattr(lib, name, importlib.import_module("ordercone." + name))
    return lib


class Calibration:
    """How fast this CPU runs pure Python, sampled while operations run.

    On a shared host the same work can take 40% longer for tens of
    seconds at a time, which no amount of repetition within a run
    averages away.  While a pass runs, an interval timer interrupts it
    every ``interval`` seconds to time the reference loop; each
    operation's time is then rescaled by the loop times taken during it
    and just around it.  The pauses are subtracted from the operation
    and from any open trace span.  The loop is fixed and never touches
    the library, so a change to the library moves calibrated times as
    it moves measured ones.
    """

    def __init__(self, interval: float = 0.1, on_pause=None):
        self.interval = interval
        self.on_pause = on_pause
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0
        self.sampling = False

    def sample(self, *_signal_args) -> None:
        if self.sampling:
            return
        self.sampling = True
        t = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t
        self.samples.append((t + took / 2, took))
        self.paused += took
        if self.on_pause is not None:
            self.on_pause(took)
        self.sampling = False

    def __enter__(self):
        self.sample()
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def factors(self, spans):
        """REFERENCE_S over the mean loop time of the samples taken
        during each (start, end) span and the nearest one on each side."""
        out = []
        samples = self.samples
        i = 0
        for start, end in spans:
            while i + 1 < len(samples) and samples[i + 1][0] <= start:
                i += 1
            j = i
            while j < len(samples) - 1 and samples[j][0] < end:
                j += 1
            around = [v for _, v in samples[i:j + 1]]
            out.append(REFERENCE_S / statistics.fmean(around))
        return out


class PassResult:
    def __init__(self, latencies, calibrated, digest, failures, declines):
        self.latencies = latencies
        self.calibrated = calibrated
        self.wall_cal = sum(calibrated)
        self.digest = digest
        self.failures = failures
        self.declines = declines
        self.ops = len(latencies)


def quantile(sorted_values, q):
    """Nearest-rank quantile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_pass(workload, tracer=None) -> PassResult:
    ops = workload.ops()
    workload.reset()
    outputs = []
    spans = []
    latencies = []
    calibration = Calibration(on_pause=tracer.shift if tracer else None)
    with calibration:
        for op in ops:
            if tracer is not None:
                tracer.active = True
            if op.fresh:
                gc.collect()
            paused = calibration.paused
            t = time.perf_counter()
            try:
                if tracer is not None:
                    output = tracer.span("bench." + op.kind, op.run)
                else:
                    output = op.run()
                outputs.append((output, None))
            except Exception as exc:  # a raised operation is a failure
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            end = time.perf_counter()
            latencies.append(end - t - (calibration.paused - paused))
            spans.append((t, end))
            if tracer is not None:
                tracer.active = False
    calibrated = [lat * f for lat, f in
                  zip(latencies, calibration.factors(spans))]

    digest = hashlib.sha256()
    failures = []
    declines = 0
    for index, (op, (output, error)) in enumerate(zip(ops, outputs)):
        if error is not None:
            digest.update(f"error {error}\n".encode("utf-8"))
            failures.append((index, error))
            continue
        digest.update(op.emit(output))
        declines += op.declined(output)
        try:
            op.check(output, outputs)
        except CheckFailed as exc:
            failures.append((index, str(exc)))
        except Exception as exc:  # a check that cannot read the output
            failures.append((index, f"check raised {type(exc).__name__}: {exc}"))
    return PassResult(latencies, calibrated, digest.hexdigest(), failures,
                      declines)


def run_phase(workload, deadline, tracer=None, on_pass=None):
    """Passes until the next one would end after ``deadline``; at least one."""
    passes = []
    while True:
        t = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        result = run_pass(workload, tracer)
        passes.append(result)
        if on_pass is not None:
            on_pass(result)
        cost = time.perf_counter() - t
        if time.perf_counter() + cost > deadline:
            return passes


def summarize(passes):
    digests = {p.digest for p in passes}
    failures = [f for p in passes for f in p.failures]
    return {
        "attempted": sum(p.ops for p in passes),
        "failed": len(failures),
        "failures": failures[:10],
        "declines_per_pass": passes[0].declines,
        "ops_per_pass": passes[0].ops,
        "passes": len(passes),
        "digest": passes[0].digest,
        "deterministic": len(digests) == 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="file for the traced spans")
    args = parser.parse_args(argv)

    lib = load_library()
    workload = WORKLOADS[args.workload](lib, args.seed)
    if args.setup_only:
        elapsed = time.perf_counter() - T0
        speed = (REFERENCE_AT_START + reference_time()) / 2
        print(json.dumps({"setup_s": elapsed * REFERENCE_S / speed,
                          "measured_setup_s": elapsed}))
        return 0

    start = time.perf_counter()
    if not args.trace:
        passes = run_phase(workload, start + args.seconds)
        out = summarize(passes)
        out["correct"] = out["failed"] == 0 and out["deterministic"]
        out["metrics"] = {
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}
        out["measured"] = {}
        for into, suffix, attr in ((out["metrics"], "cal_", "calibrated"),
                                   (out["measured"], "", "latencies")):
            def median_of(q):
                return 1000 * statistics.median(
                    quantile(sorted(getattr(p, attr)), q) for p in passes)
            into.update({
                f"wall_{suffix}s": statistics.median(
                    sum(getattr(p, attr)) for p in passes),
                f"query_p50_{suffix}ms": median_of(0.50),
                f"query_p99_{suffix}ms": median_of(0.99)})
        print(json.dumps(out))
        return 0

    plain = run_phase(workload, start + args.seconds / 3)
    tracer = Tracer()
    install(tracer, lib)
    layer_runs = []
    dumps = []

    def collect(result):
        layer_runs.append(per_layer_metrics(tracer))
        if not dumps:
            dumps.append(tracer.dump())
            tracer.keep_spans = False

    traced = run_phase(workload, start + args.seconds, tracer, collect)
    out = summarize(plain + traced)
    metrics = {}
    for name, first in layer_runs[0].items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(r[name] for r in layer_runs)
        else:
            metrics[name] = first
    unstable = sorted(name for name in layer_runs[0]
                      if not name.endswith("_s")
                      and any(r[name] != layer_runs[0][name]
                              for r in layer_runs))
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_cal for p in traced)
        / statistics.median(p.wall_cal for p in plain))
    out["unstable_counts"] = unstable
    out["traced_digest_matches"] = traced[0].digest == plain[0].digest
    out["correct"] = (out["failed"] == 0 and out["deterministic"]
                      and out["traced_digest_matches"])
    out["metrics"] = metrics
    if args.trace_out:
        path = Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        dumps[0].update(workload=args.workload, seed=args.seed,
                        metrics=metrics)
        path.write_text(json.dumps(dumps[0]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
