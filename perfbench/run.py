"""Benchmark of kahlerlab: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload closed-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from its
``src`` directory.  Set-up (imports, input generation, warm-up) is timed
once, cold, in this process and in fresh child interpreters that stop
after set-up; ``setup_s`` is the median.  The timed phase repeats whole
rounds of the workload's fixed operation list while another round still
fits in ``--seconds``.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` rounds alternate untraced and traced, the
layer wrappers are installed for the traced rounds only, and the result
holds the per-layer metrics of the traced rounds.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# One thread everywhere: the reference machine has 2 cores, and pools
# sized to the machine make timings depend on whatever else runs there.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["closed-scan", "numeric-geodesic", "psh-bisect"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and print its seconds (a set-up sample)")
    return ap.parse_args(argv)


def _setup_seconds_in_fresh_process(args) -> float:
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, env=os.environ.copy())
    return float(res.stdout.strip().splitlines()[-1])


def run_round(ops, tracer=None):
    """Run every op once; returns (op wall seconds, number of failed ops).

    An op fails when it raises or when its check reports a problem.  With
    a tracer, spans and counters are recorded during the ops only, not
    during their checks.
    """
    if tracer is not None:
        tracer.reset()
    seconds, failed = [], 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.enabled = True
            try:
                out = op.run()
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.enabled = False
            problems = op.check(out)
        except Exception as e:  # a crashing op is a failed op, not a crashed run
            problems = [f"{type(e).__name__}: {e}"]
        seconds.append(dt)
        if problems:
            failed += 1
            print(f"FAILED {op.kind}: {'; '.join(problems)}", file=sys.stderr)
    return seconds, failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "kahlerlab" / "__init__.py").is_file():
        print(f"no kahlerlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import kahlerlab  # after the thread settings
    import workloads
    if Path(kahlerlab.__file__).resolve().parent != SRC / "kahlerlab":
        print(f"imported kahlerlab from {kahlerlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    build, warm = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = build(args.seed, workdir)
        warm(workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(setup_s)
            return 0
        return _run(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, ops, first_setup_s) -> int:
    import spans

    # Imports and first calls run only once per interpreter, so every
    # set-up sample is a whole cold set-up in a process of its own.
    setup_samples = [first_setup_s] + [_setup_seconds_in_fresh_process(args)
                                       for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(setup_samples)

    tracer = spans.Tracer()
    attempted = failed = 0
    plain_rounds, traced_rounds, op_seconds, layer_rounds = [], [], [], []
    t_phase = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(plain_rounds) > len(traced_rounds)
        t_round = time.perf_counter()
        # untraced rounds run the unpatched program
        with spans.patched(tracer) if traced else contextlib.nullcontext():
            seconds, nfail = run_round(ops, tracer if traced else None)
        attempted += len(ops)
        failed += nfail
        if traced:
            traced_rounds.append(sum(seconds))
            layer_rounds.append((dict(tracer.counts), dict(tracer.self_s)))
        else:
            plain_rounds.append(sum(seconds))
            op_seconds += seconds
        longest = max(longest, time.perf_counter() - t_round)
        done = len(plain_rounds) + len(traced_rounds)
        if done >= (2 if args.trace else 1) and \
                time.perf_counter() - t_phase + longest > args.seconds:
            break

    correct = True          # failed ops are counted in "failed", not here
    if args.trace:
        counts = layer_rounds[0][0]
        if any(c != counts for c, _ in layer_rounds):
            correct = False
            print("per-round counts differ between identical rounds", file=sys.stderr)
        metrics = {}
        for name, unit in spans.LAYER_METRICS.items():
            if unit == "count":
                value = counts.get(name, 0)
            else:
                value = statistics.median(s.get(name[:-len(".self_s")], 0.0)
                                          for _, s in layer_rounds)
            metrics[name] = _metric(value, unit)
        metrics["trace.overhead_s"] = _metric(
            statistics.median(traced_rounds) - statistics.median(plain_rounds), "s")
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "run_s": _metric(statistics.median(plain_rounds), "s"),
            "op_p50_s": _metric(statistics.median(op_seconds), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
