"""Run each workload several times, one seed per run, and print the median,
quartiles and spread of each end-to-end metric against its bound.

    python3 benchmarks/repeat.py [--runs 10] [--first-seed 1]
        [--workloads design sweep nonlocal] [--save set1.json]
        [--against set0.json]

Spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  It must stay within the metric's bound
(setup_s excepted).  With --against, each median is also compared with the
median of an earlier saved set; "worse" is the change in the metric's bad
direction as a share of the earlier median, and must stay within the bound.
The last row per workload is the measured, unscaled seconds per round
(see "Host speed" in README.md), for comparison only.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    """The run's result, plus its measured seconds per round from stderr."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = re.search(r"^([0-9.]+) measured s per round", proc.stderr, re.M)
    result["measured_s"] = float(raw.group(1)) if raw else None
    return result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--save", help="write the raw results here")
    p.add_argument("--against", help="raw results of an earlier set to compare with")
    args = p.parse_args(argv)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    results = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            runs.append(one_run(workload, args.first_seed + i, spec["run_seconds"]))
            print(f"{workload} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        results[workload] = runs
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"\n{workload}: {len(runs)} runs, failed/attempted {', '.join(shares)}")
        print(f"  {'metric':<14} {'median':>10} {'Q1':>10} {'Q3':>10} "
              f"{'spread':>7} {'bound':>6}" + ("  worse vs earlier" if earlier else ""))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            line = (f"  {name:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                    f"{spread:>7.3f} {bound:>6.2f}")
            if name != "setup_s":
                ok &= spread <= bound
                line += "" if spread <= bound else "  SPREAD OVER BOUND"
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload])
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse = sign * (med - before) / before
                ok &= worse <= bound
                line += f"  {worse:+.3f}" + ("" if worse <= bound else " OVER BOUND")
            print(line)
        raw = [r["measured_s"] for r in runs if r.get("measured_s")]
        if len(raw) == len(runs):
            q1, med, q3 = statistics.quantiles(raw, n=4)
            print(f"  {'(measured s)':<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{(q3 - q1) / med:>7.3f}    per round, not scaled by the calibration")
    if args.save:
        Path(args.save).write_text(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
