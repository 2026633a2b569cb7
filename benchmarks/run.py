"""Benchmark entry point.

    python3 benchmarks/run.py --workload design|sweep|nonlocal --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it first starts
SETUP_SAMPLES fresh interpreters that only set up, then the measured one,
and prints the end-to-end metrics; ``setup_s`` is the median of all their
set-up times, each in reference seconds (calibrate.py) by the scale its
own interpreter measured.  With ``--trace 1`` it starts the measured
interpreter alone, with wrappers around the layer functions, and prints the
per-layer metrics.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  Uses the standard library only; numpy is
imported by the child.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-up-only interpreters per untraced run, besides the measured one.
SETUP_SAMPLES = 4

#: Seconds a whole run may take before its children are stopped.
RUN_DEADLINE = 170.0

class ChildFailed(RuntimeError):
    pass


def run_child(cmd, deadline):
    """Start one child; return (seconds to its READY line, its last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = None
        last = ""
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line.strip()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise ChildFailed(f"child exited {code}"
                          + ("" if ready is not None else " before set-up ended"))
    return ready, last


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "demonscatter" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'demonscatter'}: run from the root "
              f"of a demonscatter checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through run_child's clean-up, which kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.perf_counter() + RUN_DEADLINE
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    try:
        setups = []          # (measured seconds, scale)
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            ready, last = run_child(cmd + ["--setup-only"], deadline)
            setups.append((ready, json.loads(last)["scale"]))
        ready, last = run_child(cmd, deadline)
        result = json.loads(last)
        if not args.trace:
            setups.append((ready, result.pop("scale")))
    except (ChildFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    if not args.trace:
        print("setup times " + " ".join(f"{t:.3f}x{k:.3f}" for t, k in setups),
              file=sys.stderr)
        setup_s = statistics.median(t * k for t, k in setups)
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
