"""Benchmark runner for hadwalk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: every sample is a fresh child process
(``child.py``) started only after the previous one has exited, so samples
never overlap.  The child imports hadwalk from ``src/`` of this checkout and
runs one workload; ``HADWALK_WORKERS`` is removed from its environment so
``verify`` runs as users run it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: samples run for
about S seconds (at least MIN_SAMPLES), and set-up is repeated SETUP_REPEATS
more times.  --trace 1 reports the per-layer metrics: untraced samples for
about S/2 seconds give the base for the tracing overhead, then one traced
sample gives the spans.  Every sample's output is checked; the last line of
stdout is the JSON result, the lines before it a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import span_stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"

MIN_SAMPLES = 3  # so that one slow sample does not set a run's median
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
POLL_S = 0.02

# Per-layer metric prefixes that sum several spans; any other prefix is the
# span of the same name, and the prefix "cli" is every cli span.
SPAN_GROUPS = {
    "jacobi.psi_closed": ("jacobi.psi_closed_r", "jacobi.psi_closed_l"),
    "asymptotics.decay_base": ("asymptotics.btilde", "asymptotics.b_pathintegral"),
}


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HADWALK_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts child processes one at a time and checks what each one wrote."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float,
                 inject_fault: bool = False):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.inject_fault = inject_fault
        self.env = child_env()
        self.count = 0
        self.checks: list = []

    def _spawn(self, extra: list) -> dict:
        self.count += 1
        outdir = os.path.join(self.workdir, f"s{self.count}")
        os.mkdir(outdir)
        result_path = os.path.join(outdir, "result.json")
        argv = [sys.executable, str(HERE / "child.py"), self.workload,
                str(self.seed), outdir, result_path, *extra]
        if self.inject_fault:
            argv.append("--inject-fault")
        # the child's stdout goes to our stderr, keeping stdout for the result
        spawned = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
        try:
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > self.deadline:
                    raise RunError(f"sample {self.count} passed the run time limit")
                time.sleep(POLL_S)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.monotonic() - spawned
        if os.waitstatus_to_exitcode(status) != 0:
            raise RunError(f"child exited with status {os.waitstatus_to_exitcode(status)}")
        try:
            with open(result_path) as fh:
                result = json.load(fh)
        except (OSError, ValueError) as exc:
            raise RunError(f"child wrote no result: {exc}") from exc
        return {"outdir": outdir, "wall": wall, "result": result,
                "setup_s": result["imported"] - spawned,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0}

    def setup_only(self) -> float:
        return self._spawn(["--setup-only"])["setup_s"]

    def sample(self, spans_path: str | None = None) -> dict:
        sample = self._spawn(["--trace", spans_path] if spans_path else [])
        sample["run_s"] = sample["result"]["run_s"]
        self.checks += WORKLOADS[self.workload].check(
            sample["outdir"], self.seed, sample["result"]["code"])
        return sample

    def samples(self, budget: float, minimum: int) -> list:
        """Samples until the next one would end past ``budget`` seconds."""
        start = time.monotonic()
        out = []
        while True:
            out.append(self.sample())
            elapsed = time.monotonic() - start
            typical = statistics.median(s["wall"] for s in out)
            if len(out) >= minimum and elapsed + typical > budget:
                return out


def tail_percentile(values: list) -> tuple | None:
    """Highest percentile with at least ten samples above it, if any is above the median."""
    n = len(values)
    k = n - 10
    if k - 1 <= (n - 1) // 2:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


def layer_value(metric: str, doc: dict, stats: dict, overhead: float):
    if metric == "trace.overhead_frac":
        return overhead
    prefix, stat = metric.rsplit(".", 1)
    if prefix == "cli":
        spans = [name for name in stats if name.startswith("cli.")]
    else:
        spans = SPAN_GROUPS.get(prefix, (prefix,))
    calls = sum(stats[name]["calls"] for name in spans)
    if stat == "calls":
        return calls
    if stat == "distinct":
        return doc["distinct"][prefix]
    if stat == "distinct_frac":
        return doc["distinct"][prefix] / calls if calls else 0.0
    if stat == "nodes":
        return doc["totals"][prefix]
    return sum(stats[name][stat] for name in spans)


def end_to_end(runner: Runner, seconds: int, spec: dict) -> tuple:
    """Untraced samples for about ``seconds``, then set-up alone; medians."""
    samples = runner.samples(seconds, MIN_SAMPLES)
    setups = [s["setup_s"] for s in samples]
    setups += [runner.setup_only() for _ in range(SETUP_REPEATS)]
    series = {"run_s": [s["run_s"] for s in samples], "setup_s": setups,
              "cpu_s": [s["cpu_s"] for s in samples],
              "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
    metrics, lines = {}, []
    for entry in spec["end_to_end"]:
        values = series[entry["name"]]
        value = statistics.median(values)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g}" if tail
                     else "no percentile above the median has 10 samples beyond it")
        lines.append(f"{entry['name']:<14} median {value:12.6g} {entry['unit']:<6}"
                     f" n={len(values)} min {min(values):.6g} max {max(values):.6g}"
                     f"  ({tail_text})")
    return metrics, lines


def per_layer(runner: Runner, seconds: int, spec: dict) -> tuple:
    """Untraced samples for about ``seconds / 2``, then one traced sample."""
    base = runner.samples(seconds / 2, 1)
    spans_path = os.path.join(runner.workdir, "spans.json")
    traced = runner.sample(spans_path)
    with open(spans_path) as fh:
        doc = json.load(fh)
    stats = span_stats(doc)
    untraced = statistics.median(s["run_s"] for s in base)
    overhead = traced["run_s"] / untraced - 1.0
    metrics, lines = {}, []
    for entry in spec["per_layer"]:
        value = layer_value(entry["name"], doc, stats, overhead)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"{entry['name']:<46} {value:14.6g} {entry['unit']}")
    lines.append(f"(traced run_s {traced['run_s']:.6g} s over untraced median "
                 f"{untraced:.6g} s of n={len(base)}; {len(doc['spans'])} spans)")
    return metrics, lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Runner, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hadwalk" / "__init__.py").is_file():
        print(f"no hadwalk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + RUN_LIMIT_S
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        runner = Runner(args.workload, args.seed, workdir, deadline)
        runner.setup_only()  # warm-up: byte-code caches, discarded
        measure = per_layer if args.trace else end_to_end
        metrics, lines = measure(runner, args.seconds, spec)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [name for name, ok in runner.checks if not ok]
    attempted = len(runner.checks)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.count} child processes")
    for line in lines:
        print(line)
    print(f"failed_frac {len(failed) / attempted:.6g} ({len(failed)} of {attempted} "
          f"checks failed)")
    for name in failed[:20]:
        print(f"  FAILED {name}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
