"""metriclie benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; metriclie is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Times are in reference seconds (see hostspeed.py); see
perfbench/README.md for the workloads and metrics.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import hostspeed

# the host's speed just before the set-up; set-up time counts from RUN_START
PRE_SETUP = hostspeed.sample()
RUN_START = time.perf_counter()

import os

# one client, no thread pool: numpy's BLAS (used by the checks and by
# metriclie's float eigenvalues) runs on the client's thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import traceback

ROOT = HERE.parent
SETUP_PROBES = 4  # extra set-ups, each in a fresh interpreter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time (used by the benchmark itself)")
    return p.parse_args(argv)


def setup(workload):
    """Import metriclie, build the first round's inputs, run one warm-up job.

    Returns the first round, the warm-up job and its output.
    """
    workload.setup()
    first = workload.round(0)
    warm = workload.warmup()
    return first, warm, warm.run()


def probe_setup_s(args):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-probe"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "metriclie" / "__init__.py").is_file():
        print(f"error: no metriclie sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = HERE / "_run" / f"{args.workload}-{args.seed}-{'probe' if args.setup_probe else 'run'}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, spec, workloads, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec, workloads, run_dir):
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, run_dir, tracer)
    first, warm, warm_out = setup(wl)
    setup_s = time.perf_counter() - RUN_START
    setup_scale = hostspeed.scale(PRE_SETUP + hostspeed.sample())
    setup_s *= setup_scale
    if "metriclie" in sys.modules:
        loaded = Path(sys.modules["metriclie"].__file__).resolve()
        if ROOT / "src" not in loaded.parents:
            raise RuntimeError(f"metriclie was imported from {loaded}, not from ./src")
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    checks.self_test()
    warm.check(warm_out)
    setups = [setup_s]
    if not args.trace:
        setups += [probe_setup_s(args) for _ in range(SETUP_PROBES)]
    if tracer is not None and args.workload != "cli-cold":
        tracer.install()

    times, passed, failed, bad = [], [], 0, 0
    passed_wall, scales = [], []
    calib = hostspeed.sample()
    start = time.perf_counter()
    r = 0
    # whole rounds only; start another while the run would end nearer its time
    while r == 0 or (time.perf_counter() - start) * (1 + 0.5 / r) < args.seconds:
        for job in (first if r == 0 else wl.round(r)):
            gc.collect()
            if tracer is not None:
                tracer.begin_job()
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            after = hostspeed.sample()
            scales.append(hostspeed.scale(calib + after))
            calib = after
            wall, dt = dt, dt * scales[-1]
            times.append(dt)
            if isinstance(out, Exception):
                failed += 1
                print(f"failed: {job.kind}: {type(out).__name__}: {out}", file=sys.stderr)
                continue
            try:
                job.check(out)
            except checks.CheckFailed as exc:
                bad += 1
                print(f"WRONG: {job.kind}: {exc}", file=sys.stderr)
                continue
            passed.append(dt)
            passed_wall.append(wall)
        r += 1

    correct = bad == 0
    if tracer is not None:
        tracer.uninstall()
        extra = {"trace.job_p50_s": statistics.median(passed) if passed else 0.0,
                 "cli.import_sympy_s": getattr(wl, "sympy_import_s", 0.0) / len(times)}
        values, residual = tracing.layer_metrics(tracer, extra)
        if residual > 1e-6:
            correct = False
            print(f"WRONG: span self times miss a job's wall time by {residual:.3g} s",
                  file=sys.stderr)
        tracer.dump(HERE / "_run" / f"trace-{args.workload}.json")
        wanted = spec["per_layer"]
    else:
        rss_kb = (wl.child_maxrss_kb if args.workload == "cli-cold"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values = {
            "jobs_per_s": len(passed) / sum(times),
            "job_p50_s": statistics.median(passed) if passed else float("nan"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kb / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    wall_p50 = statistics.median(passed_wall) if passed_wall else float("nan")
    print(f"{args.workload}: {r} rounds, {len(times)} jobs, {failed} failed, {bad} wrong; "
          f"wall seconds: median job {wall_p50:.4g} s, set-up {setup_s / setup_scale:.4g} s; "
          f"reference seconds per wall second: median {statistics.median(scales):.4g}, "
          f"set-up {setup_scale:.4g}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
