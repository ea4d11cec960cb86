"""Benchmark of groupoid-lab: time to verdict on four workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload classify --seed 0 --seconds 25 --trace 0

Workloads: classify, sweep, verify-sets, decode (see workloads.py).  The
run sets up several times (fresh import of the library, input generation
from the seed, one warm-up verdict) and reports the median as ``setup_s``.
It then runs passes over the workload's verdict set, one verdict after the
other, for about ``--seconds`` (always at least one pass; the last pass may
run over by up to half a pass), and checks every verdict.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``,
``wall_s`` (median time of one pass, i.e. the time to all verdicts),
``verdict_ms.p50``, ``peak_rss_mb`` (``ru_maxrss`` of this process) and,
on decode, ``verdict_ms.p90``.  Its times are read from the speed clock
of speed.py: seconds of a reference CPU, so that a slow phase of a shared
host does not read as a slow program.  The plain wall time of a pass is
printed as ``wall_raw_s``.  With ``--trace 1`` it wraps the library's
public functions (tracer.py) and reports per-layer metrics per pass
instead, all in plain wall time; the spans go to
``bench/out/trace-<workload>-<seed>.json``.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``failed_frac`` is failed / attempted.  The exit code is 0 when
every verdict was correct, 1 when some were not, 2 when the benchmark
could not run (for instance without the library source next to it).
"""

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from speed import CLOCK
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
LIBRARY_MODULES = ("base", "groupoid", "holim", "classify", "arrow",
                   "harness", "serialize", "cli")


def load_library():
    """Import groupoid_lab afresh from the checkout's source tree."""
    for name in [m for m in sys.modules
                 if m == "groupoid_lab" or m.startswith("groupoid_lab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("groupoid_lab")
    return SimpleNamespace(**{m: importlib.import_module(f"groupoid_lab.{m}")
                              for m in LIBRARY_MODULES})


def set_up(workload, seed, workdir):
    """Import, generate inputs and warm up; return (lib, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK.now()
        lib = load_library()
        workload.setup(lib, seed, workdir)
        workload.warm_up(lib)
        times.append(CLOCK.now() - t0)
    return lib, statistics.median(times)


def run_passes(workload, lib, seconds, tracer):
    """Closed loop over whole passes, at least one; another pass starts
    while half the median pass still fits in ``seconds`` of wall time.
    Returns (pass seconds by ``CLOCK``, pass wall seconds, verdicts)."""
    pass_times, raw_times, verdicts = [], [], []
    start = time.perf_counter()
    while True:
        t0, raw0 = CLOCK.now(), time.perf_counter()
        runs = workload.run_pass(lib, tracer)
        pass_times.append(CLOCK.now() - t0)
        raw_times.append(time.perf_counter() - raw0)
        with tracer.paused() if tracer else contextlib.nullcontext():
            verdicts += workload.check(lib, runs)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(raw_times) / 2 > seconds:
            return pass_times, raw_times, verdicts


def end_to_end(workload, setup_s, pass_times, verdicts):
    ms = [v.seconds * 1000 for v in verdicts]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "verdict_ms.p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    if getattr(workload, "reports_p90", False):
        metrics["verdict_ms.p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "groupoid_lab" / "__init__.py").is_file():
        print(f"bench: no groupoid_lab source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    if not args.trace:
        CLOCK.start()
    try:
        try:
            lib, setup_s = set_up(workload, args.seed, workdir)
        except ImportError:
            traceback.print_exc()
            print("bench: cannot import groupoid_lab from "
                  f"{ROOT / 'src'}", file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        pass_times, raw_times, verdicts = run_passes(workload, lib,
                                                     args.seconds, tracer)
    finally:
        CLOCK.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [v for v in verdicts if not v.ok]
    for v in failed[:20]:
        print(f"FAILED {v.tag}: {'; '.join(v.problems)}")
    if tracer is None:
        metrics = end_to_end(workload, setup_s, pass_times, verdicts)
    else:
        # the mean pass, like the per-pass self times it must bound
        per_pass = tracer.metrics(len(pass_times),
                                  statistics.fmean(pass_times))
        units = dict(tracing.metric_names())
        metrics = {name: (value, units[name])
                   for name, value in per_pass.items()}
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "passes": pass_times})
        print(f"trace written to {path.relative_to(ROOT)}")
    print(f"workload {args.workload} seed {args.seed}: {len(pass_times)} "
          f"passes, {len(verdicts)} verdicts, {len(failed)} failed")
    print(f"failed_frac {len(failed) / len(verdicts):.4f} ratio")
    print(f"wall_raw_s {statistics.median(raw_times):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
