"""One run of one workload in a fresh interpreter.

Sets up (imports the package from ``src/`` and makes the inputs), prints
``READY``, runs whole rounds for the given seconds, checks every operation
of every round and prints one JSON line.  ``run.py`` starts this script and
times set-up from the process start to the ``READY`` line.

An untraced run times every program call in reference seconds, with
calibration samples after each call and every 0.5 s inside it
(calibrate.py).  Its JSON line also holds ``scale``, reference
seconds per measured second, which ``run.py`` applies to the set-up time
and removes.  A ``--setup-only`` run prints just ``{"scale": ...}``.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "DEMONSCATTER_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Check failures printed to stderr, at most.
SHOWN_FAILURES = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_rounds(workload, seconds, run):
    """Whole rounds until another one would end past `seconds`; at least one.

    Returns the rounds and the seconds of each: the program calls of an
    untraced run in reference seconds, the whole round of a traced one.
    """
    rounds, times = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        m0 = run.meter.reference_s if run.meter else 0.0
        rounds.append(workload.round(run))
        times.append(run.meter.reference_s - m0 if run.meter
                     else time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if elapsed * (1.0 + 1.0 / len(times)) > seconds:
            return rounds, times


def check_rounds(workload, rounds):
    """(attempted, failed, failure messages) over every operation of every round."""
    attempted = failed = 0
    messages = []
    for r, ops in enumerate(rounds):
        for op in ops:
            attempted += 1
            if op["error"] is not None:
                fails = [op["error"]]
            else:
                try:
                    fails = workload.check(op)
                except Exception as exc:  # a malformed output fails its operation
                    fails = [f"check raised {type(exc).__name__}: {exc}"]
            if fails:
                failed += 1
                messages.append(f"round {r} {op['op']}: {'; '.join(fails)}")
    return attempted, failed, messages


def trace_metrics(tracer, workload, rounds):
    """Per-round calls and self time per traced function, plus the counters."""
    n = len(rounds)
    metrics = {}
    for name, (calls, self_s) in tracer.per_function().items():
        metrics[f"{name}.calls"] = {"value": calls / n, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s / n, "unit": "s"}
    counters = {"optimize.evaluations": 0, "optimize.repeat_evals": 0}
    for ops in rounds:
        for key, value in workload.counters(ops).items():
            counters[key] += value
    for key, value in counters.items():
        metrics[key] = {"value": value / n, "unit": "count"}
    solves = metrics["local_solver.solve_local.calls"]["value"] * n
    metrics["local_solver.solves_per_model"] = {
        "value": solves / tracer.models_seen if tracer.models_seen else 0.0,
        "unit": "count"}
    for name, peak in tracer.peak_bytes.items():
        metrics[f"{name}.peak_mb"] = {"value": peak / tracing.MB, "unit": "MB"}
    return metrics


def print_layer_table(metrics, absent):
    """Calls and self time per function and per layer, to stderr."""
    layers = {}
    rows = []
    for layer, _home, attr in tracing.TRACED:
        name = tracing.span_name(layer, attr)
        calls = metrics[f"{name}.calls"]["value"]
        self_s = metrics[f"{name}.self_s"]["value"]
        mark = "  (absent)" if name in absent else ""
        rows.append(f"  {name:<40} {calls:>10.1f} {self_s:>10.4f}{mark}")
        tot = layers.setdefault(layer, [0.0, 0.0])
        tot[0] += calls
        tot[1] += self_s
    print("per round:  function                        calls     self_s",
          file=sys.stderr)
    print("\n".join(rows), file=sys.stderr)
    for layer, (calls, self_s) in layers.items():
        print(f"  layer {layer:<34} {calls:>10.1f} {self_s:>10.4f}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    print("READY", flush=True)
    if args.setup_only:
        sample = calibrate.Calibration().sample()
        print(json.dumps({"scale": calibrate.REFERENCE_S / sample}), flush=True)
        return 0

    tracer = meter = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    else:
        meter = calibrate.Meter()
    run = workloads.Run(tracer=tracer, meter=meter)
    try:
        rounds, times = run_rounds(workload, args.seconds, run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, messages = check_rounds(workload, rounds)
    for line in messages[:SHOWN_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)

    extra = {}
    if tracer is None:
        solves = sum(op["solves"] for ops in rounds for op in ops)
        metrics = {
            "wall_s": {"value": sum(times) / len(times), "unit": "s"},
            "solves_per_s": {"value": solves / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        # set-up ended just before the meter's first sample
        extra["scale"] = calibrate.REFERENCE_S / meter.samples[0]
        print(f"{meter.seconds / len(times):.4f} measured s per round; calibration "
              f"samples {len(meter.samples)}, median "
              f"{statistics.median(meter.samples) * 1e3:.2f} ms", file=sys.stderr)
    else:
        metrics = trace_metrics(tracer, workload, rounds)
        print_layer_table(metrics, tracer.absent)
        if tracer.absent:
            print("absent: " + " ".join(tracer.absent), file=sys.stderr)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans written to {spans}", file=sys.stderr)
    print(f"{len(rounds)} rounds, round times "
          + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    print(json.dumps({"correct": len(rounds) > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics, **extra}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
