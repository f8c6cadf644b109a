"""Benchmark runner for logitdemand.

    python3 bench/run.py --workload fe_10k --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One workload runs in one process. The runner imports the package from
`src/` of the checkout it sits in, times that import in fresh interpreters
and builds the workload's inputs from the seed, three times each (set-up),
runs whole rounds until `--seconds` have passed (timed phase), then checks
every round's outputs against values computed with numpy apart from the
program. Its last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer ones with `--trace 1`.
`--workload all` runs every workload, each in its own process, and prints
one such line per workload.

With `--trace 1`, untraced and traced rounds alternate; spans go to
`.bench_out/trace-<workload>-seed<seed>.json` and `trace.overhead_s` is the
median traced round minus the median untraced round.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# One BLAS thread: on a 2-core box, OpenBLAS's default threads doubled the
# CPU time of an fe_10k fit and made it slower and less steady.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import logitdemand, logitdemand.cli; print(time.perf_counter() - t)"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_specs(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"], [w["name"] for w in bench["workloads"]]


def _import_package():
    """Import logitdemand from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import logitdemand
    import logitdemand.cli  # noqa: F401  (the package does not import its CLI)

    if not Path(logitdemand.__file__).resolve().is_relative_to(src):
        raise ImportError(f"logitdemand was imported from {logitdemand.__file__}, not {src}")


def _import_seconds():
    """Median time to import the package in a fresh interpreter, as a CLI user pays it."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def _run_all(args, names):
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name} {lines[-1] if lines else '(no result)'}", flush=True)
        status = status or proc.returncode
    return status


def _measure(workload, seed, seconds, tracer, import_s, workdir):
    builds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        with tracer.phase("setup") if tracer else contextlib.nullcontext():
            inputs = workload.build(seed, workdir)
        builds.append(time.perf_counter() - start)

    attempted = failed = 0
    outputs = []
    round_s = {False: [], True: []}
    if tracer:
        # Traced mode first runs one round untimed, since a cold first round
        # is a few percent slower, then alternates untraced and traced rounds.
        attempted, failed, out = workload.run_round(inputs, 0)
        outputs.append(out)
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_s[False]) > len(round_s[True])
        start = time.perf_counter()
        with tracer.phase("round") if traced else contextlib.nullcontext():
            n, bad, out = workload.run_round(inputs, len(outputs))
        round_s[traced].append(time.perf_counter() - start)
        attempted += n
        failed += bad
        outputs.append(out)
        done = time.perf_counter() - began >= seconds
        if done and (tracer is None or len(round_s[True]) == len(round_s[False])):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check(inputs, outputs)
    mismatches = [label for label, ok in checks if not ok]
    for label in mismatches:
        print(f"check failed: {label}", file=sys.stderr)
    return {
        "correct": not mismatches,
        "attempted": attempted + len(checks),
        "failed": failed + len(mismatches),
        "setup_s": import_s + statistics.median(builds),
        "run_s": statistics.median(round_s[False]),
        "traced_run_s": statistics.median(round_s[True]) if round_s[True] else None,
        "peak_rss_mb": peak_rss_mb,
        "builds": builds,
        "round_s": round_s,
        "traced_rounds": len(round_s[True]),
    }


def _fmt(seconds):
    return " ".join(f"{s:.3f}" for s in seconds) or "-"


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    specs, names = _metric_specs(args.trace)
    if args.workload == "all":
        return _run_all(args, names)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import logitdemand from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer and tracer.missing:
        print(f"warning: no lookup site for {tracer.missing}; their metrics read 0", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        import_s = 0.0 if tracer else _import_seconds()
        measured = _measure(workload, args.seed, args.seconds, tracer, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        values = tracer.layer_metrics({"setup": SETUP_REPEATS, "round": measured["traced_rounds"]})
        values["trace.overhead_s"] = measured["traced_run_s"] - measured["run_s"]
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = measured
    result = {
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(
        f"{args.workload} seed {args.seed}: {measured['attempted']} operations, "
        f"{measured['failed']} failed; set-up builds (s) {_fmt(measured['builds'])}; "
        f"untraced rounds (s) {_fmt(measured['round_s'][False])}; "
        f"traced rounds (s) {_fmt(measured['round_s'][True])}",
        file=sys.stderr,
    )
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
