"""Benchmark for ordercone: three workloads, end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload braid-experiments --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads are ``braid-experiments``, ``word-stream`` and
``lattice-pipeline`` (``all`` runs the three in turn).  With
``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, the run's provenance (commit,
Python, CPU count, seed) and a sha256 digest of the emitted reports.
The digest is a diagnostic for spotting changed output, not a gate.

The workload runs in a child interpreter with ``ORDERCONE_BUDGET``
unset and a fixed hash seed, so only the generated inputs reach the
library.  ``setup_s`` is the median over several fresh interpreters of
the time to import ``ordercone`` and build the workload.  A traced run
writes its spans to ``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("braid-experiments", "word-stream", "lattice-pipeline")
SETUP_PROBES = 9
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("ORDERCONE_BUDGET", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(argv, timeout: float) -> dict:
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=hermetic_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f}s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: "
                         + err.strip()[-2000:])
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD from the checkout's own .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ordercone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(name, seed, seconds, trace, spec, deadline) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    probes = []
    if not trace:
        call_worker(common + ["--setup-only"], deadline - time.monotonic())
        for _ in range(SETUP_PROBES):
            probes.append(call_worker(common + ["--setup-only"],
                                      deadline - time.monotonic()))
    argv = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        argv += ["--trace-out",
                 str(ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json")]
    result = call_worker(argv, deadline - time.monotonic())
    if probes:
        for key, into in (("setup_s", result["metrics"]),
                          ("measured_setup_s", result["measured"])):
            into[key.replace("measured_", "")] = statistics.median(
                p[key] for p in probes)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    return result


def report(name, seed, result, trace) -> None:
    print(f"== {name} (seed {seed}, {result['passes']} passes of "
          f"{result['ops_per_pass']} operations, "
          f"{result['declines_per_pass']} documented declines per pass)")
    print(f"digest {name} sha256:{result['digest']}")
    for metric, entry in result["metrics"].items():
        print(f"metric {metric} {entry['value']:.6g} {entry['unit']}")
    for metric, value in result.get("measured", {}).items():
        unit = metric.rsplit("_", 1)[1]
        print(f"measured {metric} {value:.6g} {unit} (not calibrated)")
    ratio = result["failed"] / result["attempted"]
    print(f"metric failed_ratio {ratio:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for index, reason in result["failures"]:
        print(f"failure op {index}: {reason}")
    if not result["deterministic"]:
        print("failure: passes emitted different reports")
    if trace:
        if not result["traced_digest_matches"]:
            print("failure: traced reports differ from untraced ones")
        for metric in result["unstable_counts"]:
            print(f"warning: count {metric} differs between traced passes")
        predictions = json.loads((HERE / "predictions.json").read_text())
        for metric in predictions["workloads"][name]["zero_in_trace"]:
            value = result["metrics"][metric]["value"]
            verdict = "holds" if value == 0 else "FAILS"
            print(f"prediction {metric} == 0 on {name}: {verdict} ({value})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S * (3 if args.workload == "all"
                                                  else 1)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ordercone" / "__init__.py").is_file():
        print("bench: no ordercone sources under src/ordercone", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("bench: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"commit": git_commit(), "src_sha256": source_digest(),
                      "python": sys.version.split()[0],
                      "nproc": os.cpu_count(), "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "workloads": list(names)}))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, spec, deadline)
            report(name, args.seed, results[name], args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, result in results.items()
                   for metric, entry in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
