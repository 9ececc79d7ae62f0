"""Repeated benchmark runs: spread per metric, count repeatability, a record.

    python3 perfbench/campaign.py --out RECORD.json [--label TEXT]

For every workload in BENCHMARK.json this makes ten untraced runs of run.py,
with seeds 1 to 10, and two traced runs with seed 1.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound; a spread above a third of the bound is
marked.  Count metrics of the traced runs
must repeat exactly.  The record holds every run's result, so it can serve as
a point of the bench trajectory.  It is not compared with earlier records: on
a machine whose speed drifts, a change is judged by runs of parent and change
alternated in time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1
RUNS = 10  # as many as a regression check makes per side
TRACED = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.terminate()  # run.py stops its own child on SIGTERM
            proc.wait()
            raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    parser.add_argument("--label", default="", help="what was measured, kept in the record")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "system": platform.platform()}
    record = {"label": args.label, "machine": machine, "run_seconds": seconds,
              "workloads": {}}
    problems = 0
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            runs.append(one_run(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        # the same seed each time, so count metrics must repeat exactly
        traced = [one_run(name, FIRST_SEED, seconds, 1) for _ in range(TRACED)]
        entry = {"runs": runs, "traced": traced, "summary": {}}
        problems += sum(not r["correct"] for r in runs + traced)
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            summary = spread([r["metrics"][key]["value"] for r in runs])
            entry["summary"][key] = summary
            flag = "" if summary["spread"] < bound / 3 else "  SPREAD ABOVE BOUND/3"
            print(f"  {name} {key}: median {summary['median']:.6g} "
                  f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                  f"spread {summary['spread']:.4f} (bound {bound}){flag}", flush=True)
        for metric in spec["per_layer"]:
            if metric["unit"] != "count":
                continue
            values = {r["metrics"][metric["name"]]["value"] for r in traced}
            if len(values) > 1:
                print(f"  {name} {metric['name']} differs between traced runs: {values}")
                problems += 1
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(f"{problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
