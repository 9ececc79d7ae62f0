"""One benchmark sample in a fresh process: import hadwalk, run one workload.

run.py starts this script once per sample.  The monotonic clock is read as
soon as the package is imported, so run.py can compute set-up time as
that reading minus its own reading taken just before the spawn.

    child.py WORKLOAD SEED OUTDIR RESULT [--setup-only] [--trace SPANS]
             [--inject-fault]
"""

import time

import hadwalk  # noqa: F401
import hadwalk.cli  # noqa: F401

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("outdir")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this path")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()
    result = {"imported": IMPORTED}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer, install, layer_targets
            tracer = Tracer()
            install(tracer, layer_targets())
        start = time.perf_counter()
        result["code"] = WORKLOADS[args.workload].run(
            args.seed, args.outdir, args.inject_fault)
        result["run_s"] = time.perf_counter() - start
        if tracer:
            tracer.dump(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
