"""Run-to-run spread of the benchmark, as recorded in perfbench/README.md.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--traced]

Runs each workload once per seed with tracing off and prints, per
end-to-end metric, the median and the quartile spread (third minus first
quartile of the values, over their median).  With --traced it also makes
one traced run per seed and prints the tracing overhead: the traced median
job time minus the untraced one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            res = run(workload, seed, spec["run_seconds"], 0)
            results.append(res)
            print(workload, seed, json.dumps(res), flush=True)
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            print(f"{workload} {m['name']}: median {med:.4g} {m['unit']}, "
                  f"spread {(q[2] - q[0]) / med:.3f} (bound {m['bound']})", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload} failed shares: {sorted(shares)}", flush=True)
        if args.traced:
            traced = [run(workload, seed, spec["run_seconds"], 1)["metrics"]["trace.job_p50_s"]
                      ["value"] for seed in seeds]
            plain = [r["metrics"]["job_p50_s"]["value"] for r in results]
            print(f"{workload} tracing overhead: traced job_p50_s {statistics.median(traced):.4g} s, "
                  f"untraced {statistics.median(plain):.4g} s", flush=True)


if __name__ == "__main__":
    main()
