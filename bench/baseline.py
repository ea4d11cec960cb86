"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --workloads classify sweep --seeds 1-10
    python3 bench/baseline.py --seeds 1-10 --trace 1 --write bench/baseline.json

Each run is a fresh ``bench/run.py`` process, one after the other.  For
each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median.  ``--write`` merges the summary into a JSON file
together with the machine and Python version, under ``--label`` (by
default ``untraced`` or ``traced``), and the tracing overhead: traced minus
untraced median pass time.  Besides the metrics of the JSON result it
summarizes ``wall_raw_s``, the plain wall time of a pass that run.py
prints on a line of its own.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    else:
        # the plain wall time of a pass, printed beside the JSON result
        for line in lines:
            if line.startswith("wall_raw_s "):
                result["metrics"]["wall_raw_s"] = {
                    "value": float(line.split()[1]), "unit": "s"}
    return result, elapsed, proc.returncode


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None,
            "values": values}


def tracing_overhead(data):
    """Traced minus untraced median pass time, per workload, both in
    plain wall time (``wall_s`` is in reference seconds)."""
    out = {}
    for workload, traced in data.get("traced", {}).items():
        plain = data.get("untraced", {}).get(workload)
        if (plain and "trace.wall_s" in traced["metrics"]
                and "wall_raw_s" in plain["metrics"]):
            out[workload] = (traced["metrics"]["trace.wall_s"]["median"]
                             - plain["metrics"]["wall_raw_s"]["median"])
    return out


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=["classify", "sweep", "verify-sets"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None)
    parser.add_argument("--label", default=None,
                        help="key of the summary in the --write file "
                             "(default: traced or untraced)")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        per_metric, runs, bad = {}, [], 0
        for seed in parse_seeds(args.seeds):
            result, elapsed, code = run_once(workload, seed, args.seconds,
                                             args.trace)
            runs.append({"seed": seed, "exit": code,
                         "run_s": round(elapsed, 2)})
            if result is None:
                bad += 1
                continue
            bad += result["failed"] > 0
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: exit {code} in {elapsed:.1f} s "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        summary[workload] = {
            "runs": runs, "runs_with_failures": bad,
            "metrics": {n: summarize(v) for n, v in per_metric.items()
                        if len(v) >= 2}}
        for name, s in summary[workload]["metrics"].items():
            share = s["iqr_share"]
            print(f"  {name}: median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} iqr/median "
                  f"{'n/a' if share is None else f'{share:.3f}'}", flush=True)

    if args.write:
        path = Path(args.write)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["machine"] = machine()
        key = args.label or ("traced" if args.trace else "untraced")
        data.setdefault(key, {}).update(summary)
        data.setdefault("settings", {})[key] = {
            "seeds": args.seeds, "seconds": args.seconds}
        data["tracing_overhead_s"] = tracing_overhead(data)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
